// perfbench — one run of one benchmark workload, timed from outside the
// webevo library through its public entry points only.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --work-dir=<dir> [--shards=<n>] [--body-bytes=<n>]
//
// --shards and --body-bytes override the workload's crawl shard count
// and page body filler, for the reference figures in README.md; run.py
// never sets them.
//
// An untraced run repeats whole rounds — set up, crawl to the horizon,
// checkpoint, resume, check — until the next round would overrun
// --seconds (always at least one), and reports each metric's median
// over the rounds. A traced run makes one plain round as the
// byte-identity reference, then one round whose crawl is sliced into
// half-day RunUntil calls so housekeeping can be attributed, and then
// times single layers on the final state.
//
// Every round checks its outputs against computations made apart from
// the code under test (see README.md). The last stdout line is one JSON
// object; perfbench/run.py turns it into the benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/snapshot.h"
#include "freshness/revisit_optimizer.h"
#include "graph/link_graph.h"
#include "graph/pagerank.h"
#include "simweb/simulated_web.h"

namespace {

using namespace webevo;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median wall-clock seconds of `repeats` calls of `fn`.
double TimeMedian(int repeats, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(Since(t0));
  }
  return Median(samples);
}

// FNV-1a 64, kept here rather than borrowed from the library so the
// digest does not move when the library's hashing does.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void Add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  void Add(uint64_t v) { Add(std::string_view(reinterpret_cast<char*>(&v), 8)); }
};

uint64_t Fnv(std::string_view bytes) {
  Digest d;
  d.Add(bytes);
  return d.h;
}

constexpr double kMiB = 1024.0 * 1024.0;

// A traced run's single-layer timings are the median of this many
// repeats. An untraced run's metrics are medians over its rounds.
constexpr int kRepeats = 3;
// Set-ups per round beyond the one the crawl uses.
constexpr int kExtraSetups = 2;
// Half a day: the freshness-sample grid of both crawlers, on which a
// sliced crawl should end byte-identical to an uninterrupted one.
constexpr double kSlice = 0.5;
// How far the storage probe crawls between its base and its delta.
constexpr double kProbeDays = 10.0;

// ---------------------------------------------------------------- workloads

struct Spec {
  std::string name;
  bool periodic = false;
  double scale = 2.0;
  std::size_t capacity = 20000;
  double days = 60.0;
  int shards = 4;
  int resume_shards = 4;
  uint32_t body_bytes = 0;
  const char* faults = "none";
  const char* adversarial = "none";
  bool defense = false;
  // > 0: CheckpointIncremental every this many days; 0: one full save at
  // the horizon.
  double checkpoint_every_days = 0.0;
};

// Periodic crawler shape (Table 2's batch + shadowing cell).
constexpr double kCycleDays = 30.0;
constexpr double kWindowDays = 7.0;

std::vector<Spec> Specs() {
  Spec inc;
  inc.name = "incremental-crawl";

  Spec per;
  per.name = "periodic-fetch";
  per.periodic = true;
  per.shards = 1;
  per.resume_shards = 1;
  per.body_bytes = 16384;

  Spec cyc;
  cyc.name = "checkpoint-cycle";
  cyc.scale = 1.0;
  cyc.capacity = 10000;
  cyc.resume_shards = 1;
  cyc.faults = "transient10";
  cyc.adversarial = "mirror-farm";
  cyc.defense = true;
  cyc.checkpoint_every_days = 10.0;
  return {inc, per, cyc};
}

double CrawlRate(const Spec& s) {
  return static_cast<double>(s.capacity) / kCycleDays;
}

// ------------------------------------------------------------- run ledger

// Thrown when a library call fails: the run cannot continue.
struct OpFailed {
  std::string what;
};

struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  // A library call; the run cannot go on without its result.
  void Op(const Status& st, const std::string& what) {
    ++attempted;
    if (!st.ok()) throw OpFailed{what + ": " + st.ToString()};
  }
  // An operation whose failure leaves the run able to go on.
  void Attempt(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "operation failed: %s\n", what.c_str());
    }
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
};

// -------------------------------------------------------------- instances

simweb::WebConfig WebFor(const Spec& s, uint64_t seed) {
  simweb::WebConfig c = simweb::WebConfig().Scaled(s.scale);
  c.seed = seed;
  c.max_site_size = 250;
  c.page_body_bytes = s.body_bytes;
  Status st = simweb::ApplyFaultScenario(s.faults, &c);
  if (st.ok()) st = simweb::ApplyAdversarialScenario(s.adversarial, &c);
  if (st.ok()) st = c.Validate();
  if (!st.ok()) throw OpFailed{"web config: " + st.ToString()};
  return c;
}

crawler::IncrementalCrawlerConfig IncFor(const Spec& s, int shards,
                                         bool track_deltas = false) {
  crawler::IncrementalCrawlerConfig c;
  c.collection_capacity = s.capacity;
  c.crawl_rate_pages_per_day = CrawlRate(s);
  c.crawl_parallelism = shards;
  c.defense_enabled = s.defense;
  c.checkpoint_incremental = track_deltas || s.checkpoint_every_days > 0;
  c.update.policy = crawler::RevisitPolicy::kOptimal;
  c.update.estimator_kind = estimator::EstimatorKind::kBayesian;
  return c;
}

crawler::PeriodicCrawlerConfig PerFor(const Spec& s, int shards) {
  crawler::PeriodicCrawlerConfig c;
  c.collection_capacity = s.capacity;
  c.cycle_days = kCycleDays;
  c.crawl_window_days = kWindowDays;
  c.shadowing = true;
  c.crawl_parallelism = shards;
  return c;
}

// One web plus the crawler over it, behind the calls both crawler kinds
// share.
struct Instance {
  const Spec* spec = nullptr;
  std::unique_ptr<simweb::SimulatedWeb> web;
  std::unique_ptr<crawler::IncrementalCrawler> inc;
  std::unique_ptr<crawler::PeriodicCrawler> per;

  // Crawler before web: the crawler points into the web.
  void Reset() {
    inc.reset();
    per.reset();
    web.reset();
  }
  Status Bootstrap() { return inc ? inc->Bootstrap(0.0) : per->Bootstrap(0.0); }
  Status RunUntil(double t) { return inc ? inc->RunUntil(t) : per->RunUntil(t); }
  double now() const { return inc ? inc->now() : per->now(); }
  const freshness::FreshnessTracker& tracker() const {
    return inc ? inc->tracker() : per->tracker();
  }
  crawler::CollectionQuality MeasureNow() {
    return inc ? inc->MeasureNow() : per->MeasureNow();
  }
  void PublishViewNow() { inc ? inc->PublishViewNow() : per->PublishViewNow(); }
  serving::ViewRegistry& views() { return inc ? inc->views() : per->views(); }
  void ForEachEntry(
      const std::function<void(const crawler::CollectionEntry&)>& fn) const {
    if (inc) {
      inc->collection().ForEachCanonical(fn);
    } else {
      per->current_collection().ForEachCanonical(fn);
    }
  }
  Status Save(std::string* out) const {
    std::ostringstream os;
    Status st = inc ? crawler::SaveCrawler(*inc, os)
                    : crawler::SaveCrawler(*per, os);
    *out = os.str();
    return st;
  }
  Status SaveToFile(const std::string& path) const {
    return inc ? crawler::SaveCrawlerToFile(*inc, path)
               : crawler::SaveCrawlerToFile(*per, path);
  }
  Status Load(const std::string& path) {
    if (inc && spec->checkpoint_every_days > 0) {
      return crawler::LoadCrawlerWithDeltasFromFile(path, inc.get());
    }
    return inc ? crawler::LoadCrawlerFromFile(path, inc.get())
               : crawler::LoadCrawlerFromFile(path, per.get());
  }
};

// Builds the web (timed into *build_s) and constructs the crawler
// (timed into *construct_s).
Instance Make(const Spec& s, uint64_t seed, int shards, double* build_s,
              double* construct_s, bool track_deltas = false) {
  Instance in;
  in.spec = &s;
  const simweb::WebConfig web_config = WebFor(s, seed);
  auto t0 = Clock::now();
  in.web = std::make_unique<simweb::SimulatedWeb>(web_config);
  *build_s = Since(t0);
  t0 = Clock::now();
  if (s.periodic) {
    in.per = std::make_unique<crawler::PeriodicCrawler>(in.web.get(),
                                                        PerFor(s, shards));
  } else {
    in.inc = std::make_unique<crawler::IncrementalCrawler>(
        in.web.get(), IncFor(s, shards, track_deltas));
  }
  *construct_s = Since(t0);
  return in;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

// ----------------------------------------------------------------- checks

// Table 2's batch + shadowing closed form, averaged over the pages the
// collection holds: F = (1 - e^{-lT})(1 - e^{-lw}) / (l^2 T w).
double BatchShadowingClosedForm(Instance& in) {
  double sum = 0.0;
  std::size_t n = 0;
  in.ForEachEntry([&](const crawler::CollectionEntry& e) {
    const double l = in.web->OracleChangeRate(e.page);
    sum += l <= 0.0 ? 1.0
                    : (1.0 - std::exp(-l * kCycleDays)) *
                          (1.0 - std::exp(-l * kWindowDays)) /
                          (l * l * kCycleDays * kWindowDays);
    ++n;
  });
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// How far the periodic crawler's measured freshness may sit from the
// closed form: the simulation has page births and deaths, dead-fetch
// refunds and a window measured from day 30, none of which the closed
// form models.
constexpr double kClosedFormTolerance = 0.05;

// ------------------------------------------------------------------ rounds

struct Slice {
  int index = 0;  // opens at index * kSlice
  double seconds = 0.0;
};

struct RoundResult {
  double crawl_s = 0.0;
  double fetches = 0.0;
  double freshness = 0.0;
  double ckpt_save_s = 0.0;
  double ckpt_bytes = 0.0;
  double resume_s = 0.0;
  uint64_t digest = 0;
  // Traced rounds only.
  std::vector<Slice> slices;
  std::map<std::string, double> layers;
};

struct Run {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  std::string work_dir;
  Ledger ledger;
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> bootstrap_s;
  double peak_rss_mb = 0.0;

  // Set up a crawler: build the web, construct and Bootstrap.
  Instance SetUp(int shards) {
    double build = 0.0, construct = 0.0;
    Instance in = Make(*spec, seed, shards, &build, &construct);
    const auto t0 = Clock::now();
    ledger.Op(in.Bootstrap(), "Bootstrap");
    const double boot = construct + Since(t0);
    setup_s.push_back(build + boot);
    build_s.push_back(build);
    bootstrap_s.push_back(boot);
    return in;
  }

  RoundResult Round(bool sliced);
  void Layers(Instance& in, RoundResult* r);
};

RoundResult Run::Round(bool sliced) {
  const Spec& s = *spec;
  RoundResult r;
  for (int i = 0; i < kExtraSetups; ++i) SetUp(s.shards);
  Instance live = SetUp(s.shards);
  std::fprintf(stderr, "web: %u sites, %llu slots\n", live.web->num_sites(),
               static_cast<unsigned long long>(live.web->TotalSlots()));

  // Crawl. The grid step is the slice when traced, the checkpoint
  // cadence when checkpointing, else the whole horizon.
  const std::string ckpt = work_dir + "/crawl.ckpt";
  const std::string deltas = ckpt + ".deltas";
  std::filesystem::remove(ckpt);
  std::filesystem::remove(deltas);
  const int total = static_cast<int>(std::lround(s.days / kSlice));
  const int ckpt_every =
      static_cast<int>(std::lround(s.checkpoint_every_days / kSlice));
  const int step = sliced ? 1 : ckpt_every > 0 ? ckpt_every : total;
  std::vector<double> delta_bytes;
  for (int k = step; k <= total; k += step) {
    const auto t0 = Clock::now();
    ledger.Op(live.RunUntil(k * kSlice), "RunUntil");
    const double dt = Since(t0);
    r.crawl_s += dt;
    if (sliced) r.slices.push_back(Slice{k - step, dt});
    if (ckpt_every > 0 && k % ckpt_every == 0) {
      const uint64_t before = FileBytes(deltas);
      const auto c0 = Clock::now();
      ledger.Op(crawler::CheckpointIncremental(live.inc.get(), ckpt),
                "CheckpointIncremental");
      r.ckpt_save_s += Since(c0);
      if (k == ckpt_every) {
        r.ckpt_bytes += static_cast<double>(FileBytes(ckpt));
      } else {
        delta_bytes.push_back(
            static_cast<double>(FileBytes(deltas) - before));
        r.ckpt_bytes += delta_bytes.back();
      }
    }
  }
  // The workload's one full save.
  if (ckpt_every == 0) {
    const auto c0 = Clock::now();
    ledger.Op(live.SaveToFile(ckpt), "SaveCrawlerToFile");
    r.ckpt_save_s = Since(c0);
    r.ckpt_bytes = static_cast<double>(FileBytes(ckpt));
  }
  if (peak_rss_mb == 0.0) {
    // The crawling process's peak: set-up, crawl and checkpoint writes.
    // The resume below runs after the live crawler is freed, where
    // reuse of the worker threads' allocator arenas swings the peak by
    // ±10% from run to run.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  r.fetches = static_cast<double>(live.web->fetch_count());
  r.freshness = live.tracker().TimeAverage(s.days / 2, s.days);

  // The full image of the live crawler, which a restored crawler must
  // reproduce byte for byte. Only its size and digest are kept, so the
  // benchmark holds no copy of it while the resume is measured.
  Digest digest;
  std::size_t image_bytes = 0;
  uint64_t image_digest = 0;
  {
    std::string image = ReadFile(ckpt);
    digest.Add(image);
    if (ckpt_every > 0) {
      digest.Add(ReadFile(deltas));
      ledger.Op(live.Save(&image), "SaveCrawler");
    }
    image_bytes = image.size();
    image_digest = Fnv(image);
    // The final state's full image, for the section table.
    if (sliced) std::ofstream(work_dir + "/final.ckpt", std::ios::binary) << image;
  }

  // MeasureNow at the horizon against a recount through the oracle.
  const crawler::CollectionQuality q = live.MeasureNow();
  uint64_t recount = 0, entries = 0;
  const double now = live.now();
  live.ForEachEntry([&](const crawler::CollectionEntry& e) {
    ++entries;
    if (live.web->OracleIsFresh(e.url, e.version, now)) ++recount;
  });
  ledger.Check(q.fresh == recount && q.size == entries,
               "MeasureNow fresh " + std::to_string(q.fresh) + "/" +
                   std::to_string(q.size) + " vs oracle recount " +
                   std::to_string(recount) + "/" + std::to_string(entries));
  if (s.periodic) {
    const double closed = BatchShadowingClosedForm(live);
    ledger.Check(std::fabs(r.freshness - closed) <= kClosedFormTolerance,
                 "freshness " + std::to_string(r.freshness) +
                     " vs batch-shadowing closed form " +
                     std::to_string(closed));
  } else {
    // The steady crawler fetches crawl rate x days, within one slot.
    const double expected = CrawlRate(s) * s.days;
    ledger.Check(std::fabs(r.fetches - expected) <= 1.0,
                 "fetches " + std::to_string(r.fetches) + " vs rate x days " +
                     std::to_string(expected));
  }

  // Counters and the final view join the digest.
  if (live.inc) {
    const auto& st = live.inc->stats();
    for (uint64_t v :
         {st.crawls, st.in_place_updates, st.pages_added, st.pages_evicted,
          st.replacements_executed, st.dead_pages_removed,
          st.changes_detected, st.politeness_retries, st.fetch_failures,
          st.wasted_fetches, st.duplicate_urls_suppressed}) {
      digest.Add(v);
    }
  } else {
    const auto& st = live.per->stats();
    for (uint64_t v : {st.crawls, st.pages_stored, st.dead_fetches,
                       st.politeness_rejections, st.swaps, st.fetch_failures}) {
      digest.Add(v);
    }
  }
  digest.Add(static_cast<uint64_t>(r.fetches));
  live.PublishViewNow();
  {
    serving::ViewRef view = live.views().AcquireRef();
    ledger.Check(static_cast<bool>(view), "a published view is acquirable");
    if (view) {
      std::ostringstream os;
      view->Serialize(os);
      digest.Add(os.str());
      if (sliced) {
        r.layers["serving.view_mb"] =
            static_cast<double>(os.str().size()) / kMiB;
      }
    }
  }
  r.digest = digest.h;

  if (sliced) {
    Layers(live, &r);
    double base_bytes = static_cast<double>(image_bytes);
    if (delta_bytes.empty() && live.inc) {
      // A workload that saves only in full still gets the storage layer
      // measured: a crawler restored from its final image with delta
      // tracking on writes a base, crawls on for as long as
      // checkpoint-cycle's cadence and appends one delta segment.
      double build = 0.0, construct = 0.0;
      Instance probe = Make(s, seed, s.shards, &build, &construct, true);
      const std::string base = work_dir + "/probe.ckpt";
      ledger.Op(probe.Load(ckpt), "LoadCrawler (storage probe)");
      ledger.Op(crawler::CheckpointIncremental(probe.inc.get(), base),
                "CheckpointIncremental (storage probe base)");
      ledger.Op(probe.RunUntil(s.days + kProbeDays), "RunUntil (storage probe)");
      ledger.Op(crawler::CheckpointIncremental(probe.inc.get(), base),
                "CheckpointIncremental (storage probe delta)");
      base_bytes = static_cast<double>(FileBytes(base));
      delta_bytes.push_back(static_cast<double>(FileBytes(base + ".deltas")));
    }
    const double delta_sum =
        std::accumulate(delta_bytes.begin(), delta_bytes.end(), 0.0);
    r.layers["storage.delta_mb"] = delta_sum / kMiB;
    r.layers["storage.delta_to_base"] =
        delta_bytes.empty() ? 0.0
                            : delta_sum / static_cast<double>(delta_bytes.size()) /
                                  base_bytes;
  }
  live.Reset();  // a resuming process starts without the live crawl

  // Resume: a fresh web and crawler restored from what was saved.
  double build = 0.0, construct = 0.0;
  const auto t0 = Clock::now();
  Instance restored = Make(s, seed, s.resume_shards, &build, &construct);
  ledger.Op(restored.Load(ckpt), "LoadCrawler");
  r.resume_s = Since(t0);
  std::string again;
  ledger.Op(restored.Save(&again), "SaveCrawler (restored)");
  ledger.Check(again.size() == image_bytes && Fnv(again) == image_digest,
               "restored crawler (" + std::to_string(s.resume_shards) +
                   " shards) saves the live crawler's bytes");
  return r;
}

// Times single layers on the final state of a traced round. Oracle
// and fetch sweeps advance the web, so they come after every save.
void Run::Layers(Instance& in, RoundResult* r) {
  const Spec& s = *spec;
  auto& L = r->layers;
  const double now = in.now();

  L["crawler.measure_s"] = TimeMedian(kRepeats, [&] { in.MeasureNow(); });

  std::vector<const crawler::CollectionEntry*> entries;
  in.ForEachEntry(
      [&](const crawler::CollectionEntry& e) { entries.push_back(&e); });
  const double n_entries = std::max<double>(1.0, entries.size());
  L["simweb.oracle_us"] =
      1e6 / n_entries * TimeMedian(kRepeats, [&] {
        for (const auto* e : entries) in.web->OracleIsFresh(e->url, e->version, now);
      });

  // Per-stream saves, in memory.
  auto save_s = [&](const std::function<Status(std::ostream&)>& save) {
    return TimeMedian(kRepeats, [&] {
      std::ostringstream os;
      ledger.Op(save(os), "Save stream");
    });
  };
  for (const char* stream :
       {"collection", "allurls", "update", "frontier", "web"}) {
    L[std::string("snapshot.") + stream + "_save_s"] = 0.0;
  }
  L["snapshot.web_save_s"] =
      save_s([&](std::ostream& os) { return simweb::SaveWeb(*in.web, os); });
  if (in.inc) {
    const auto& c = *in.inc;
    L["snapshot.collection_save_s"] = save_s(
        [&](std::ostream& os) { return crawler::SaveCollection(c.collection(), os); });
    L["snapshot.allurls_save_s"] = save_s(
        [&](std::ostream& os) { return crawler::SaveAllUrls(c.all_urls(), os); });
    L["snapshot.update_save_s"] = save_s([&](std::ostream& os) {
      return crawler::SaveUpdateModule(c.update_module(), os);
    });
    L["snapshot.frontier_save_s"] = save_s(
        [&](std::ostream& os) { return crawler::SaveFrontier(c.coll_urls(), os); });
  } else {
    L["snapshot.collection_save_s"] = save_s([&](std::ostream& os) {
      return crawler::SaveCollection(in.per->current_collection(), os);
    });
  }

  // PageRank over the final collection's link graph.
  {
    std::unordered_map<simweb::Url, graph::NodeId, simweb::UrlHash> id;
    for (const auto* e : entries) {
      id.emplace(e->url, static_cast<graph::NodeId>(id.size()));
    }
    graph::LinkGraph g(
        static_cast<graph::NodeId>(std::max<std::size_t>(1, id.size())));
    Status added;
    for (const auto* e : entries) {
      for (const auto& link : e->links) {
        auto it = id.find(link);
        if (it != id.end() && added.ok()) {
          added = g.AddEdge(id[e->url], it->second);
        }
      }
    }
    ledger.Op(added, "LinkGraph::AddEdge");
    g.Finalize();
    L["graph.pagerank_s"] = TimeMedian(kRepeats, [&] {
      ledger.Op(graph::ComputePageRank(g).status(), "ComputePageRank");
    });
  }

  // The revisit optimizer over the collection's true change rates,
  // grouped on an eighth-octave grid as the crawler's rebalance groups
  // its estimates.
  {
    std::map<int, double> weight;
    for (const auto* e : entries) {
      const double rate = in.web->OracleChangeRate(e->page);
      weight[rate > 0 ? static_cast<int>(std::lround(8.0 * std::log2(rate)))
                      : std::numeric_limits<int>::min()] += 1.0;
    }
    std::vector<freshness::RateGroup> groups;
    for (const auto& [key, w] : weight) {
      groups.push_back({key == std::numeric_limits<int>::min()
                            ? 0.0
                            : std::exp2(key / 8.0),
                        w});
    }
    L["freshness.optimize_s"] = TimeMedian(kRepeats, [&] {
      ledger.Op(freshness::RevisitOptimizer::Optimize(groups, CrawlRate(s)).status(),
                "RevisitOptimizer::Optimize");
    });
  }

  L["serving.publish_s"] = TimeMedian(kRepeats, [&] { in.PublishViewNow(); });

  // Counters.
  if (in.inc) {
    const auto& st = in.inc->stats();
    const double crawls = std::max<double>(1.0, st.crawls);
    L["crawler.crawls"] = st.crawls;
    L["crawler.pages_added"] = st.pages_added;
    L["crawler.pages_evicted"] = st.pages_evicted;
    L["crawler.replacements"] = st.replacements_executed;
    L["crawler.politeness_retries"] = st.politeness_retries;
    L["crawler.fetch_failures"] = st.fetch_failures;
    L["crawler.wasted_fetches"] = st.wasted_fetches;
    L["crawler.change_yield"] = st.changes_detected / crawls;
    L["crawler.useful_fetch_ratio"] = 1.0 - st.wasted_fetches / crawls;
  } else {
    const auto& st = in.per->stats();
    L["crawler.crawls"] = st.crawls;
    L["crawler.pages_added"] = st.pages_stored;
    L["crawler.pages_evicted"] = 0;
    L["crawler.replacements"] = 0;
    L["crawler.politeness_retries"] = st.politeness_rejections;
    L["crawler.fetch_failures"] = st.fetch_failures;
    L["crawler.wasted_fetches"] = 0;
    L["crawler.change_yield"] = 0;
    L["crawler.useful_fetch_ratio"] = 1.0;
  }
  L["simweb.fetches"] = r->fetches;

  // A Fetch sweep over every site's live pages, half a day apart.
  {
    std::vector<double> per_fetch;
    for (int k = 1; k <= kRepeats; ++k) {
      const double t = now + k * kSlice;
      std::vector<simweb::Url> urls;
      for (uint32_t site = 0; site < in.web->num_sites(); ++site) {
        for (uint32_t slot = 0; slot < in.web->site_size(site); ++slot) {
          urls.push_back(in.web->OracleCurrentUrl(site, slot, t));
        }
      }
      const auto t0 = Clock::now();
      for (const auto& url : urls) (void)in.web->Fetch(url, t);
      per_fetch.push_back(Since(t0) / std::max<double>(1.0, urls.size()));
    }
    L["simweb.fetch_us"] = 1e6 * Median(per_fetch);
  }

  // Attribute the sliced crawl. A housekeeping event lands in the slice
  // that opens at its instant; it is measured as that slice's excess
  // over the median plain slice.
  const crawler::IncrementalCrawlerConfig inc_config = IncFor(s, s.shards);
  const int rebalance_every =
      static_cast<int>(std::lround(inc_config.rebalance_interval_days / kSlice));
  const int refine_every =
      static_cast<int>(std::lround(inc_config.refine_interval_days / kSlice));
  auto rebalances_at = [&](int index) {
    return !s.periodic && index > 0 && index % rebalance_every == 0;
  };
  auto refines_at = [&](int index) {
    return rebalances_at(index) && index % refine_every == 0;
  };
  std::vector<double> plain;
  int rebalances = 0, refines = 0;
  for (const Slice& sl : r->slices) {
    rebalances += rebalances_at(sl.index);
    refines += refines_at(sl.index);
    if (!rebalances_at(sl.index)) plain.push_back(sl.seconds);
  }
  const double slice_s = Median(plain);
  std::vector<double> rebalance_excess;
  for (const Slice& sl : r->slices) {
    if (rebalances_at(sl.index) && !refines_at(sl.index)) {
      rebalance_excess.push_back(sl.seconds - slice_s);
    }
  }
  const double rebalance_each = Median(rebalance_excess);
  double refine_s = 0.0;
  for (const Slice& sl : r->slices) {
    if (refines_at(sl.index)) refine_s += sl.seconds - slice_s - rebalance_each;
  }
  const double rebalance_s =
      std::accumulate(rebalance_excess.begin(), rebalance_excess.end(), 0.0) +
      rebalance_each * refines;
  L["crawler.slice_s"] = slice_s;
  L["ranking.refine_s"] = refine_s;
  L["ranking.refines"] = refines;
  L["update.rebalance_s"] = rebalance_s;
  L["update.rebalances"] = rebalances;

  // What the layers above explain of the crawl: fetches at the swept
  // per-fetch cost spread over the shards, one measure per freshness
  // sample, and the housekeeping excess.
  const double sample_days =
      s.periodic ? PerFor(s, s.shards).freshness_sample_interval_days
                 : inc_config.freshness_sample_interval_days;
  const double attributed =
      r->fetches * L["simweb.fetch_us"] * 1e-6 / s.shards +
      (s.days / sample_days) * L["crawler.measure_s"] + refine_s + rebalance_s;
  L["crawler.unexplained_share"] =
      r->crawl_s > 0 ? 1.0 - attributed / r->crawl_s : 0.0;
}

// ------------------------------------------------------------------- main

std::string Flag(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  }
  return "";
}

void PrintJson(const Ledger& ledger, const std::map<std::string, double>& m,
               uint64_t digest) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"digest\": \"%016llx\", \"metrics\": {",
              ledger.correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(digest));
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const std::string workload = Flag(argc, argv, "workload");
  const std::string seed_s = Flag(argc, argv, "seed");
  const std::string seconds_s = Flag(argc, argv, "seconds");
  const std::string trace_s = Flag(argc, argv, "trace");
  const std::string work_dir = Flag(argc, argv, "work-dir");
  std::vector<Spec> specs = Specs();
  Spec* spec = nullptr;
  for (auto& s : specs) {
    if (s.name == workload) spec = &s;
  }
  const std::string shards = Flag(argc, argv, "shards");
  const std::string body_bytes = Flag(argc, argv, "body-bytes");
  if (spec != nullptr && !shards.empty()) {
    spec->shards = spec->resume_shards = std::max(1, std::atoi(shards.c_str()));
  }
  if (spec != nullptr && !body_bytes.empty()) {
    spec->body_bytes = static_cast<uint32_t>(std::atoi(body_bytes.c_str()));
  }
  if (spec == nullptr || seed_s.empty() || seconds_s.empty() ||
      work_dir.empty() || (trace_s != "0" && trace_s != "1")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=<incremental-crawl|"
                 "periodic-fetch|checkpoint-cycle> --seed=<n> "
                 "--seconds=<s> --trace=<0|1> --work-dir=<dir> "
                 "[--shards=<n>] [--body-bytes=<n>]\n");
    return 2;
  }
  Run run;
  run.spec = spec;
  run.seed = std::strtoull(seed_s.c_str(), nullptr, 10);
  run.work_dir = work_dir;
  const double seconds = std::strtod(seconds_s.c_str(), nullptr);
  const auto start = Clock::now();

  std::map<std::string, double> metrics;
  uint64_t digest = 0;
  if (trace_s == "1") {
    const RoundResult plain = run.Round(false);
    run.setup_s.clear();
    run.build_s.clear();
    run.bootstrap_s.clear();
    RoundResult traced = run.Round(true);
    // Slicing RunUntil on the sample grid must not move an output byte.
    // The periodic crawler's clock snaps to the crawl window's close when
    // a call ends there, which on some seeds moves its tracker and web
    // bytes; a comparison that fails on some seeds only cannot count as
    // an operation, so for it a mismatch is only reported.
    if (!spec->periodic) {
      run.ledger.Attempt(traced.digest == plain.digest,
                         "the sliced crawl's checkpoint, view and counters "
                         "match the uninterrupted crawl's");
    } else if (traced.digest != plain.digest) {
      std::fprintf(stderr,
                   "note: the sliced periodic crawl's bytes differ from the "
                   "uninterrupted crawl's\n");
    }
    metrics = traced.layers;
    metrics["simweb.build_s"] = Median(run.build_s);
    metrics["crawler.bootstrap_s"] = Median(run.bootstrap_s);
    digest = plain.digest;
  } else {
    std::vector<RoundResult> rounds;
    double last = 0.0;
    while (rounds.empty() || Since(start) + last <= seconds) {
      const auto r0 = Clock::now();
      rounds.push_back(run.Round(false));
      last = Since(r0);
      const RoundResult& r = rounds.back();
      std::fprintf(stderr,
                   "round %zu: %.2f s; crawl %.3f s, save %.3f s, "
                   "resume %.3f s, %.0f fetches\n",
                   rounds.size(), last, r.crawl_s, r.ckpt_save_s, r.resume_s,
                   r.fetches);
      if (rounds.back().digest != rounds.front().digest) {
        run.ledger.Check(false, "rounds of one seed agree byte for byte");
      }
    }
    auto med = [&](double RoundResult::*field) {
      std::vector<double> v;
      for (const auto& r : rounds) v.push_back(r.*field);
      return Median(v);
    };
    std::vector<double> rate;
    for (const auto& r : rounds) rate.push_back(r.fetches / r.crawl_s);
    metrics["setup_s"] = Median(run.setup_s);
    metrics["crawl_s"] = med(&RoundResult::crawl_s);
    metrics["fetches_per_s"] = Median(rate);
    metrics["freshness"] = med(&RoundResult::freshness);
    metrics["ckpt_save_s"] = med(&RoundResult::ckpt_save_s);
    metrics["ckpt_mb"] = med(&RoundResult::ckpt_bytes) / kMiB;
    metrics["resume_s"] = med(&RoundResult::resume_s);
    metrics["peak_rss_mb"] = run.peak_rss_mb;
    metrics["rounds"] = static_cast<double>(rounds.size());
    digest = rounds.front().digest;
  }
  PrintJson(run.ledger, metrics, digest);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const OpFailed& e) {
    std::fprintf(stderr, "operation failed: %s\n", e.what.c_str());
    return 1;
  }
}
