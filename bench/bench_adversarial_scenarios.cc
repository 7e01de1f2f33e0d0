// Adversarial-scenario bench: the hostile-web counterpart of
// bench_fault_scenarios. Runs the incremental crawler through the named
// adversarial scenarios (spider traps, mirror farms, domain migrations,
// heavy-tail page sizes) with the defense layer on and off, and gates
// the defense layer's four contracts:
//
//   1. determinism — under every scenario, with the defense on AND off,
//      N = 1 and N = 8 shard runs checkpoint to byte-identical files
//      (the defense-off pair also proves the switch leaves the legacy
//      trajectory untouched);
//   2. resumability — a defense-on checkpoint saved mid-run at N = 8
//      (mid-throttle, mid-quarantine) resumed at N = 1 rejoins the
//      uninterrupted N = 1 trajectory byte for byte;
//   3. graceful degradation — steady-state freshness with the defense
//      on stays within a bounded factor of the clean baseline under
//      spider-trap and mirror-farm webs;
//   4. waste bound — the share of crawls wasted on duplicate content
//      stays bounded with the defense on, versus the undefended run
//      where traps and mirrors consume an ever-growing share.
//
// Usage:
//   bench_adversarial_scenarios [--json <path>] [scenario...]
//                     (default: baseline spider-trap mirror-farm
//                      domain-migration heavy-tail)
// Env:
//   WEBEVO_SCALE                workload multiplier (default 1.0)
//   WEBEVO_DAYS                 virtual days to crawl (default 14)
//   WEBEVO_REQUIRE_ADVERSARIAL_FRESHNESS_RATIO
//                               minimum scenario/baseline freshness
//                               ratio with the defense on (default 0.5;
//                               applied to spider-trap and mirror-farm)
//   WEBEVO_REQUIRE_WASTE_REDUCTION
//                               defense-on wasted share must be at most
//                               this fraction of the defense-off share
//                               (default 0.5; applied when the off-share
//                               exceeds 2% — below that the attack
//                               never bit at this scale)
//
// Exits non-zero on any determinism, resume, freshness, or waste gate
// failure — the CI robustness smoke relies on that.

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
  Status st = simweb::ApplyAdversarialScenario(scenario, &wc);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::exit(2);
  }
  return wc;
}

crawler::IncrementalCrawlerConfig CrawlerConfig(int shards,
                                                bool defense) {
  crawler::IncrementalCrawlerConfig config;
  config.collection_capacity = 1000;
  config.crawl_rate_pages_per_day = 500.0;
  config.freshness_sample_interval_days = 0.5;
  config.crawl_parallelism = shards;
  config.crawl.per_site_delay_days = 1e-4;
  config.crawl.enforce_politeness = true;
  config.defense_enabled = defense;
  return config;
}

struct RunResult {
  std::string checkpoint;  // canonical bytes: the determinism fingerprint
  double freshness = 0.0;  // time-averaged over the second half
  uint64_t crawls = 0;
  uint64_t wasted_fetches = 0;
  uint64_t trap_sites_throttled = 0;
  uint64_t duplicate_urls_suppressed = 0;
  uint64_t pages_migrated = 0;
  double WastedShare() const {
    return crawls > 0
               ? static_cast<double>(wasted_fetches) /
                     static_cast<double>(crawls)
               : 0.0;
  }
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

RunResult RunOnce(const std::string& scenario, int shards, bool defense,
                  double scale, double days) {
  simweb::SimulatedWeb web(ScenarioWeb(scenario, scale));
  crawler::IncrementalCrawler crawl(&web,
                                    CrawlerConfig(shards, defense));
  if (!crawl.Bootstrap(0.0).ok() || !crawl.RunUntil(days).ok()) {
    std::fprintf(stderr, "run failed (%s, N=%d, defense=%d)\n",
                 scenario.c_str(), shards, defense ? 1 : 0);
    std::exit(2);
  }
  RunResult r;
  r.checkpoint = CheckpointBytes(crawl);
  r.freshness = crawl.tracker().TimeAverage(days / 2, days);
  const auto& s = crawl.stats();
  r.crawls = s.crawls;
  r.wasted_fetches = s.wasted_fetches;
  r.trap_sites_throttled = s.trap_sites_throttled;
  r.duplicate_urls_suppressed = s.duplicate_urls_suppressed;
  r.pages_migrated = s.pages_migrated;
  return r;
}

// Save at N=8 half way through (mid-throttle, mid-quarantine), resume
// at N=1, finish — must match the uninterrupted N=1 run byte for byte
// (the defense section carries throttle levels, quarantine clocks, and
// the fingerprint registry across the restart).
bool ResumeRejoins(const std::string& scenario, double scale, double days,
                   const std::string& want) {
  simweb::SimulatedWeb web_save(ScenarioWeb(scenario, scale));
  crawler::IncrementalCrawler saver(&web_save, CrawlerConfig(8, true));
  if (!saver.Bootstrap(0.0).ok() || !saver.RunUntil(days / 2).ok()) {
    std::fprintf(stderr, "resume-save run failed (%s)\n",
                 scenario.c_str());
    std::exit(2);
  }
  const std::string mid = CheckpointBytes(saver);

  simweb::SimulatedWeb web_load(ScenarioWeb(scenario, scale));
  crawler::IncrementalCrawler resumed(&web_load, CrawlerConfig(1, true));
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
      "Adversarial scenarios: crawler defenses and graceful degradation",
      "an incremental crawler must keep its collection fresh even when "
      "parts of the web are actively hostile (spider traps, mirror "
      "farms, domain migrations)");

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
    scenarios = {"baseline", "spider-trap", "mirror-farm",
                 "domain-migration", "heavy-tail"};
  }

  const double scale = bench::ScaleFromEnv();
  const double days = bench::EnvOr("WEBEVO_DAYS", 14.0);
  const double freshness_ratio =
      bench::EnvOr("WEBEVO_REQUIRE_ADVERSARIAL_FRESHNESS_RATIO", 0.5);
  const double waste_reduction =
      bench::EnvOr("WEBEVO_REQUIRE_WASTE_REDUCTION", 0.5);
  std::printf("scale %.2f, %.0f virtual days, freshness gate %.2fx "
              "baseline, waste gate %.2fx undefended\n\n",
              scale, days, freshness_ratio, waste_reduction);

  struct ScenarioResult {
    std::string name;
    RunResult on;   // defense enabled, N=1
    RunResult off;  // defense disabled, N=1
    bool identical_on = false;
    bool identical_off = false;
    bool resumed = false;
  };
  std::vector<ScenarioResult> results;
  double baseline_freshness = -1.0;
  bool all_ok = true;

  for (const std::string& scenario : scenarios) {
    ScenarioResult sr;
    sr.name = scenario;
    sr.on = RunOnce(scenario, 1, true, scale, days);
    RunResult on8 = RunOnce(scenario, 8, true, scale, days);
    sr.identical_on = sr.on.checkpoint == on8.checkpoint;
    sr.off = RunOnce(scenario, 1, false, scale, days);
    RunResult off8 = RunOnce(scenario, 8, false, scale, days);
    sr.identical_off = sr.off.checkpoint == off8.checkpoint;
    sr.resumed =
        ResumeRejoins(scenario, scale, days, sr.on.checkpoint);
    if (scenario == "baseline" || scenario == "none") {
      baseline_freshness = sr.on.freshness;
    }
    all_ok = all_ok && sr.identical_on && sr.identical_off && sr.resumed;
    results.push_back(std::move(sr));
  }

  TablePrinter table({"scenario", "crawls", "wasted", "throttled",
                      "suppressed", "migrated", "waste on", "waste off",
                      "freshness", "N1==N8", "off ==", "resume"});
  for (const ScenarioResult& sr : results) {
    const RunResult& r = sr.on;
    table.AddRow(
        {sr.name, TablePrinter::Fmt(static_cast<int64_t>(r.crawls)),
         TablePrinter::Fmt(static_cast<int64_t>(r.wasted_fetches)),
         TablePrinter::Fmt(
             static_cast<int64_t>(r.trap_sites_throttled)),
         TablePrinter::Fmt(
             static_cast<int64_t>(r.duplicate_urls_suppressed)),
         TablePrinter::Fmt(static_cast<int64_t>(r.pages_migrated)),
         TablePrinter::Fmt(r.WastedShare(), 4),
         TablePrinter::Fmt(sr.off.WastedShare(), 4),
         TablePrinter::Fmt(r.freshness, 4),
         sr.identical_on ? "yes" : "NO", sr.identical_off ? "yes" : "NO",
         sr.resumed ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Graceful-degradation gate: with the defense on, traps and mirrors
  // must not crater steady-state freshness. Domain migration and
  // heavy-tail are exempt from the hard gate: a migrating web retires
  // real content by construction, and heavy-tail only stresses fetch
  // cost, not freshness.
  bool freshness_ok = true;
  if (baseline_freshness > 0.0) {
    for (const ScenarioResult& sr : results) {
      if (sr.name != "spider-trap" && sr.name != "mirror-farm") continue;
      if (sr.on.freshness < freshness_ratio * baseline_freshness) {
        std::fprintf(stderr,
                     "FAIL: %s freshness %.4f < %.2f x baseline %.4f\n",
                     sr.name.c_str(), sr.on.freshness, freshness_ratio,
                     baseline_freshness);
        freshness_ok = false;
      }
    }
  }
  all_ok = all_ok && freshness_ok;

  // Waste gate: where the undefended crawl loses a nontrivial share of
  // its budget to duplicate content (traps and mirrors), the defended
  // crawl must reclaim most of it. The 2% floor skips scenarios the
  // attack never reached at this scale.
  bool waste_ok = true;
  for (const ScenarioResult& sr : results) {
    if (sr.name != "spider-trap" && sr.name != "mirror-farm") continue;
    const double off_share = sr.off.WastedShare();
    const double on_share = sr.on.WastedShare();
    if (off_share >= 0.02 && on_share > waste_reduction * off_share) {
      std::fprintf(
          stderr,
          "FAIL: %s defended waste share %.4f > %.2f x undefended "
          "%.4f\n",
          sr.name.c_str(), on_share, waste_reduction, off_share);
      waste_ok = false;
    }
  }
  all_ok = all_ok && waste_ok;

  if (!json_path.empty()) {
    std::ostringstream js;
    js.precision(17);
    js << "{\n"
       << "  \"bench\": \"adversarial_scenarios\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"days\": " << days << ",\n"
       << "  \"baseline_freshness\": " << baseline_freshness << ",\n"
       << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ScenarioResult& sr = results[i];
      const RunResult& r = sr.on;
      js << "    {\"name\": \"" << sr.name << "\", \"crawls\": "
         << r.crawls << ", \"wasted_fetches\": " << r.wasted_fetches
         << ", \"trap_sites_throttled\": " << r.trap_sites_throttled
         << ",\n     \"duplicate_urls_suppressed\": "
         << r.duplicate_urls_suppressed
         << ", \"pages_migrated\": " << r.pages_migrated
         << ", \"wasted_share_on\": " << r.WastedShare()
         << ", \"wasted_share_off\": " << sr.off.WastedShare()
         << ",\n     \"freshness\": " << r.freshness
         << ", \"shard_identical\": "
         << (sr.identical_on ? "true" : "false")
         << ", \"shard_identical_defense_off\": "
         << (sr.identical_off ? "true" : "false")
         << ", \"resume_identical\": "
         << (sr.resumed ? "true" : "false") << "}"
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
    std::fprintf(stderr, "FAIL: an adversarial-scenario gate failed\n");
    return 1;
  }
  std::printf("all scenarios: deterministic across shard counts and "
              "defense modes, resumable mid-throttle, freshness and "
              "waste bounded\n");
  return 0;
}
