// Fault-scenario bench: the robustness counterpart of
// bench_sharded_scaling. Runs the incremental crawler through the named
// fault scenarios (baseline, transient errors + timeouts, outage
// storms, permanent site death, flash crowds) and gates the failure
// pipeline's three contracts:
//
//   1. determinism — under every scenario, N = 1 and N = 8 shard runs
//      checkpoint to byte-identical files, and a checkpoint saved
//      mid-run at N = 8 (mid-backoff, mid-quarantine) resumed at N = 1
//      rejoins the uninterrupted N = 1 trajectory byte for byte;
//   2. estimator hygiene — failed fetches land in the failure ledger
//      (failures_recorded) and never in the visit evidence the change
//      estimators consume (visits_recorded == successful crawls);
//   3. graceful degradation — steady-state freshness under faults stays
//      within a bounded factor of the fault-free baseline instead of
//      collapsing (retry storms against dark sites would do that).
//
// Usage:
//   bench_fault_scenarios [--json <path>] [scenario...]
//                     (default: baseline transient10 outage-storm
//                      site-death flash-crowd)
// Env:
//   WEBEVO_SCALE                workload multiplier (default 1.0)
//   WEBEVO_DAYS                 virtual days to crawl (default 14)
//   WEBEVO_REQUIRE_FRESHNESS_RATIO  minimum scenario/baseline freshness
//                               ratio (default 0.5; site-death is
//                               exempt — dead sites cap reachable
//                               freshness by construction)
//
// Exits non-zero on any determinism, resume, estimator, or freshness
// gate failure — the CI robustness smoke relies on that.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "crawler/incremental_crawler.h"
#include "crawler/snapshot.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "util/table.h"

namespace {

using namespace webevo;

simweb::WebConfig ScenarioWeb(const std::string& scenario, double scale) {
  simweb::WebConfig wc = simweb::WebConfig().Scaled(0.06 * scale);
  wc.seed = 19990217;
  wc.max_site_size = 120;
  Status st = simweb::ApplyFaultScenario(scenario, &wc);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::exit(2);
  }
  return wc;
}

crawler::IncrementalCrawlerConfig CrawlerConfig(int shards) {
  crawler::IncrementalCrawlerConfig config;
  config.collection_capacity = 1000;
  config.crawl_rate_pages_per_day = 500.0;
  config.freshness_sample_interval_days = 0.5;
  config.crawl_parallelism = shards;
  config.crawl.per_site_delay_days = 1e-4;
  config.crawl.enforce_politeness = true;
  return config;
}

struct RunResult {
  std::string checkpoint;  // canonical bytes: the determinism fingerprint
  double freshness = 0.0;  // time-averaged over the second half
  uint64_t crawls = 0;
  uint64_t fetch_failures = 0;
  uint64_t transient_errors = 0;
  uint64_t timeout_errors = 0;
  uint64_t failure_retries = 0;
  uint64_t sites_quarantined = 0;
  uint64_t urls_retired = 0;
  double backoff_days = 0.0;
  uint64_t politeness_retries = 0;
  uint64_t not_found = 0;
  uint64_t visits_recorded = 0;
  uint64_t failures_recorded = 0;
};

std::string CheckpointBytes(const crawler::IncrementalCrawler& crawl) {
  crawler::CrawlerCheckpointOptions options;
  options.include_web = true;
  std::ostringstream out;
  Status st = crawler::SaveCrawler(crawl, out, options);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    std::exit(2);
  }
  return out.str();
}

RunResult RunOnce(const std::string& scenario, int shards, double scale,
                  double days) {
  simweb::SimulatedWeb web(ScenarioWeb(scenario, scale));
  crawler::IncrementalCrawler crawl(&web, CrawlerConfig(shards));
  if (!crawl.Bootstrap(0.0).ok() || !crawl.RunUntil(days).ok()) {
    std::fprintf(stderr, "run failed (%s, N=%d)\n", scenario.c_str(),
                 shards);
    std::exit(2);
  }
  RunResult r;
  r.checkpoint = CheckpointBytes(crawl);
  r.freshness = crawl.tracker().TimeAverage(days / 2, days);
  const auto& s = crawl.stats();
  r.crawls = s.crawls;
  r.fetch_failures = s.fetch_failures;
  r.transient_errors = s.transient_errors;
  r.timeout_errors = s.timeout_errors;
  r.failure_retries = s.failure_retries;
  r.sites_quarantined = s.sites_quarantined;
  r.urls_retired = s.urls_retired;
  r.backoff_days = s.backoff_days.count() > 0 ? s.backoff_days.sum() : 0.0;
  r.politeness_retries = s.politeness_retries;
  r.not_found = web.not_found_count();
  r.visits_recorded = crawl.update_module().visits_recorded();
  r.failures_recorded = crawl.update_module().failures_recorded();
  return r;
}

// Save at N=8 half way through, resume at N=1, finish — must match the
// uninterrupted N=1 run byte for byte (the failure section carries the
// breakers and their backoff RNG lanes across the restart).
bool ResumeRejoins(const std::string& scenario, double scale, double days,
                   const std::string& want) {
  simweb::SimulatedWeb web_save(ScenarioWeb(scenario, scale));
  crawler::IncrementalCrawler saver(&web_save, CrawlerConfig(8));
  if (!saver.Bootstrap(0.0).ok() || !saver.RunUntil(days / 2).ok()) {
    std::fprintf(stderr, "resume-save run failed (%s)\n",
                 scenario.c_str());
    std::exit(2);
  }
  const std::string mid = CheckpointBytes(saver);

  simweb::SimulatedWeb web_load(ScenarioWeb(scenario, scale));
  crawler::IncrementalCrawler resumed(&web_load, CrawlerConfig(1));
  std::istringstream mid_in(mid);
  Status loaded = crawler::LoadCrawler(mid_in, &resumed);
  if (!loaded.ok()) {
    std::fprintf(stderr, "resume load failed (%s): %s\n",
                 scenario.c_str(), loaded.ToString().c_str());
    std::exit(2);
  }
  if (!resumed.RunUntil(days).ok()) {
    std::fprintf(stderr, "resumed run failed (%s)\n", scenario.c_str());
    std::exit(2);
  }
  return CheckpointBytes(resumed) == want;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner(
      "Fault scenarios: determinism and graceful degradation",
      "an incremental crawler must keep its collection fresh even when "
      "parts of the web misbehave (Sections 4-5, robustness)");

  std::vector<std::string> scenarios;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json requires a path\n");
        return 2;
      }
      json_path = argv[++i];
      continue;
    }
    scenarios.push_back(argv[i]);
  }
  if (scenarios.empty()) {
    scenarios = {"baseline", "transient10", "outage-storm", "site-death",
                 "flash-crowd"};
  }

  const double scale = bench::ScaleFromEnv();
  const double days = bench::EnvOr("WEBEVO_DAYS", 14.0);
  const double freshness_ratio =
      bench::EnvOr("WEBEVO_REQUIRE_FRESHNESS_RATIO", 0.5);
  std::printf("scale %.2f, %.0f virtual days, freshness gate %.2fx "
              "baseline\n\n",
              scale, days, freshness_ratio);

  struct ScenarioResult {
    std::string name;
    RunResult serial;
    bool identical = false;
    bool resumed = false;
    bool estimators_clean = false;
  };
  std::vector<ScenarioResult> results;
  double baseline_freshness = -1.0;
  bool all_ok = true;

  for (const std::string& scenario : scenarios) {
    ScenarioResult sr;
    sr.name = scenario;
    sr.serial = RunOnce(scenario, 1, scale, days);
    RunResult sharded = RunOnce(scenario, 8, scale, days);
    sr.identical = sr.serial.checkpoint == sharded.checkpoint;
    sr.resumed = ResumeRejoins(scenario, scale, days,
                               sr.serial.checkpoint);
    // Every planned slot is a politeness rejection, a classified
    // failure, a 404, or a successful visit; only the last may feed
    // the estimators.
    sr.estimators_clean =
        sr.serial.failures_recorded == sr.serial.fetch_failures &&
        sr.serial.visits_recorded ==
            sr.serial.crawls - sr.serial.politeness_retries -
                sr.serial.fetch_failures - sr.serial.not_found;
    if (scenario == "baseline" || scenario == "none") {
      baseline_freshness = sr.serial.freshness;
    }
    all_ok = all_ok && sr.identical && sr.resumed && sr.estimators_clean;
    results.push_back(std::move(sr));
  }

  TablePrinter table({"scenario", "crawls", "failures", "retries",
                      "quarantined", "retired", "backoff d", "freshness",
                      "N1==N8", "resume", "est clean"});
  for (const ScenarioResult& sr : results) {
    const RunResult& r = sr.serial;
    table.AddRow({sr.name,
                  TablePrinter::Fmt(static_cast<int64_t>(r.crawls)),
                  TablePrinter::Fmt(static_cast<int64_t>(r.fetch_failures)),
                  TablePrinter::Fmt(static_cast<int64_t>(r.failure_retries)),
                  TablePrinter::Fmt(
                      static_cast<int64_t>(r.sites_quarantined)),
                  TablePrinter::Fmt(static_cast<int64_t>(r.urls_retired)),
                  TablePrinter::Fmt(r.backoff_days, 1),
                  TablePrinter::Fmt(r.freshness, 4),
                  sr.identical ? "yes" : "NO",
                  sr.resumed ? "yes" : "NO",
                  sr.estimators_clean ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Graceful-degradation gate: transient noise, outages and flash
  // crowds must not crater steady-state freshness. Site death is
  // exempt: permanently dead sites cap reachable freshness by
  // construction, and what the pipeline owes there is retirement (no
  // retry storms), which the quarantine/retired columns show.
  bool freshness_ok = true;
  if (baseline_freshness > 0.0) {
    for (const ScenarioResult& sr : results) {
      if (sr.name == "baseline" || sr.name == "none" ||
          sr.name == "site-death") {
        continue;
      }
      if (sr.serial.freshness < freshness_ratio * baseline_freshness) {
        std::fprintf(stderr,
                     "FAIL: %s freshness %.4f < %.2f x baseline %.4f\n",
                     sr.name.c_str(), sr.serial.freshness,
                     freshness_ratio, baseline_freshness);
        freshness_ok = false;
      }
    }
  }
  all_ok = all_ok && freshness_ok;

  if (!json_path.empty()) {
    std::ostringstream js;
    js.precision(17);
    js << "{\n"
       << "  \"bench\": \"fault_scenarios\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"days\": " << days << ",\n"
       << "  \"baseline_freshness\": " << baseline_freshness << ",\n"
       << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ScenarioResult& sr = results[i];
      const RunResult& r = sr.serial;
      js << "    {\"name\": \"" << sr.name << "\", \"crawls\": "
         << r.crawls << ", \"fetch_failures\": " << r.fetch_failures
         << ", \"transient_errors\": " << r.transient_errors
         << ", \"timeout_errors\": " << r.timeout_errors
         << ",\n     \"failure_retries\": " << r.failure_retries
         << ", \"sites_quarantined\": " << r.sites_quarantined
         << ", \"urls_retired\": " << r.urls_retired
         << ", \"backoff_days\": " << r.backoff_days
         << ",\n     \"freshness\": " << r.freshness
         << ", \"shard_identical\": " << (sr.identical ? "true" : "false")
         << ", \"resume_identical\": " << (sr.resumed ? "true" : "false")
         << ", \"estimators_clean\": "
         << (sr.estimators_clean ? "true" : "false") << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"all_ok\": " << (all_ok ? "true" : "false") << "\n"
       << "}\n";
    std::ofstream out(json_path);
    out << js.str();
    out.close();
    if (!out.good()) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("json: wrote %s\n", json_path.c_str());
  }

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: a fault-scenario gate failed\n");
    return 1;
  }
  std::printf("all scenarios: deterministic across shard counts, "
              "resumable mid-backoff, estimator-clean, freshness "
              "bounded\n");
  return 0;
}
