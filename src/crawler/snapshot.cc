#include "crawler/snapshot.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crawler/crawl_module_pool.h"
#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/store_codecs.h"
#include "estimator/change_estimator.h"
#include "simweb/simulated_web.h"
#include "storage/delta_log.h"
#include "util/hash.h"
#include "util/text_snapshot.h"

namespace webevo::crawler {
namespace {

constexpr const char* kCollectionMagic = "webevo-collection";
constexpr const char* kAllUrlsMagic = "webevo-allurls";
constexpr const char* kUpdateModuleMagic = "webevo-update";
constexpr const char* kFrontierMagic = "webevo-frontier";
constexpr const char* kUpdateDeltaMagic = "webevo-dupdate";
constexpr int kFormatVersion = 1;
// The UpdateModule format is versioned separately: version 2 replaced
// the module-global probe RNG with per-site streams (`R` records) and
// added the frozen scheduling page count to the `G` record.
constexpr int kUpdateFormatVersion = 2;

constexpr simweb::UrlIdentityLess IdentityLess;

// `<tag> <url>` records: URL lists and tombstones.
void WriteUrls(RecordWriter& w, const char* tag,
               const std::vector<simweb::Url>& urls) {
  for (const simweb::Url& url : urls) {
    PutUrl(w.Begin(tag), url);
    w.End();
  }
}

Status ReadUrls(RecordReader& r, std::size_t count, const char* tag,
                std::vector<simweb::Url>* urls) {
  return r.ReadRecords(count, tag, [&](RecordCursor& c) {
    GetUrl(c, &urls->emplace_back());
  });
}

// Canonical writer shared by the Collection and ShardedCollection
// overloads: entries are emitted in ascending URL identity so equal
// logical collections produce equal bytes at every shard count.
template <typename AnyCollection>
std::string CollectionBytes(const AnyCollection& collection) {
  std::vector<const CollectionEntry*> entries;
  entries.reserve(collection.size());
  collection.ForEach(
      [&](const CollectionEntry& e) { entries.push_back(&e); });
  std::sort(entries.begin(), entries.end(),
            [](const CollectionEntry* a, const CollectionEntry* b) {
              return IdentityLess(a->url, b->url);
            });
  std::string out;
  RecordWriter w(&out);
  w.Begin(kCollectionMagic)
      .Put(kFormatVersion, collection.capacity(), entries.size());
  w.End();
  for (const CollectionEntry* e : entries) {
    PutEntry(w.Begin("E"), *e);
    w.End();
  }
  w.Finish();
  return out;
}

// Parses a collection snapshot into a Collection or (with
// `num_shards` shards) a ShardedCollection.
template <typename AnyCollection>
StatusOr<AnyCollection> ReadCollection(std::istream& in, uint64_t sites,
                                       int num_shards) {
  RecordReader r(in, "collection snapshot", sites);
  std::size_t capacity = 0, count = 0;
  Status st =
      r.ReadHeader(kCollectionMagic, kFormatVersion, &capacity, &count);
  std::vector<CollectionEntry> entries;
  if (st.ok()) {
    st = r.ReadRecords(count, "E", [&](RecordCursor& c) {
      GetEntry(c, &entries.emplace_back());
    });
  }
  if (st.ok()) st = r.Finish();
  if (!st.ok()) return st;
  AnyCollection collection = [&] {
    if constexpr (std::is_same_v<AnyCollection, Collection>) {
      return Collection(capacity);
    } else {
      return ShardedCollection(capacity, num_shards);
    }
  }();
  for (CollectionEntry& e : entries) {
    st = collection.Upsert(std::move(e));
    if (!st.ok()) return st;
  }
  return collection;
}

std::string AllUrlsBytes(const AllUrls& all_urls) {
  // Canonical record order regardless of internal shard layout.
  std::vector<std::pair<simweb::Url, const AllUrls::UrlInfo*>> records;
  records.reserve(all_urls.size());
  all_urls.ForEach([&](const simweb::Url& url,
                       const AllUrls::UrlInfo& info) {
    records.emplace_back(url, &info);
  });
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) {
              return IdentityLess(a.first, b.first);
            });
  std::string out;
  RecordWriter w(&out);
  w.Begin(kAllUrlsMagic).Put(kFormatVersion, records.size());
  w.End();
  for (const auto& [url, info] : records) {
    PutUrlInfo(PutUrl(w.Begin("U"), url), *info);
    w.End();
  }
  w.Finish();
  return out;
}

StatusOr<AllUrls> ReadAllUrls(std::istream& in, int num_shards,
                              uint64_t sites) {
  RecordReader r(in, "allurls snapshot", sites);
  std::size_t count = 0;
  Status st = r.ReadHeader(kAllUrlsMagic, kFormatVersion, &count);
  AllUrls all(num_shards);
  std::optional<simweb::Url> prev;
  if (st.ok()) {
    st = r.ReadRecords(count, "U", [&](RecordCursor& c) {
      simweb::Url url;
      AllUrls::UrlInfo info;
      GetUrlInfo(GetUrl(c, &url), &info);
      c.Check(!prev.has_value() || IdentityLess(*prev, url),
              "urls not strictly ascending");
      prev = url;
      all.Restore(url, info);
    });
  }
  if (st.ok()) st = r.Finish();
  if (!st.ok()) return st;
  return all;
}

}  // namespace

/// The UpdateModule's records, shared by the full stream (every record)
/// and the delta stream (the dirty ones plus page tombstones): `G` the
/// scheduling globals, `P` a page, `X` a page tombstone, `S` a site
/// aggregate, `R` a site's probe RNG stream. Befriended by
/// UpdateModule.
struct UpdateModuleIo {
  using PageState = UpdateModule::PageState;

  /// The records one stream carries, each group in canonical order.
  struct Records {
    std::vector<std::pair<simweb::Url, const PageState*>> pages;
    std::vector<simweb::Url> tombstones;
    std::vector<std::pair<uint32_t, const estimator::ChangeEstimator*>>
        sites;
    std::vector<std::pair<uint32_t, const Rng*>> rngs;
  };

  /// Parsed records, staged until the whole stream has verified.
  struct Staged {
    double multiplier = 0.0, total_rate = 0.0, mean_importance = 0.0;
    int64_t rebalance_count = 0;
    std::size_t frozen_page_count = 0;
    std::vector<std::pair<simweb::Url, PageState>> pages;
    std::vector<simweb::Url> tombstones;
    std::vector<
        std::pair<uint32_t, std::unique_ptr<estimator::ChangeEstimator>>>
        sites;
    std::vector<std::pair<uint32_t, Rng>> rngs;
  };

  static Records All(const UpdateModule& module) {
    Records records;
    records.pages = module.SortedPages();
    for (const auto& shard : module.site_shards_) {
      for (const auto& [site, est] : shard) {
        records.sites.emplace_back(site, est.get());
      }
    }
    for (const auto& shard : module.rng_shards_) {
      for (const auto& [site, rng] : shard) {
        records.rngs.emplace_back(site, &rng);
      }
    }
    auto by_site = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    std::sort(records.sites.begin(), records.sites.end(), by_site);
    std::sort(records.rngs.begin(), records.rngs.end(), by_site);
    return records;
  }

  static Records Dirty(const UpdateModule& module) {
    std::set<simweb::Url, simweb::UrlIdentityLess> pages;
    std::set<uint32_t> sites, rngs;
    module.AppendDirty(&pages, &sites, &rngs);
    Records records;
    // Still tracked -> P record, gone (Forget) -> X tombstone. Site
    // aggregates and probe streams are never erased, so a dirty key
    // that vanished is simply skipped. The sets are canonical.
    for (const simweb::Url& url : pages) {
      const auto& shard = module.page_shards_[module.ShardOf(url.site)];
      auto it = shard.find(url);
      if (it == shard.end()) {
        records.tombstones.push_back(url);
      } else {
        records.pages.emplace_back(url, &it->second);
      }
    }
    for (uint32_t site : sites) {
      const auto& shard = module.site_shards_[module.ShardOf(site)];
      auto it = shard.find(site);
      if (it != shard.end()) records.sites.emplace_back(site, it->second.get());
    }
    for (uint32_t site : rngs) {
      const auto& shard = module.rng_shards_[module.ShardOf(site)];
      auto it = shard.find(site);
      if (it != shard.end()) records.rngs.emplace_back(site, &it->second);
    }
    return records;
  }

  static const char* KindName(const UpdateModule& module) {
    return estimator::EstimatorKindName(module.config_.estimator_kind);
  }

  static void PutEstimatorState(RecordLine& line,
                                const std::vector<double>& state) {
    line.Put(state.size());
    for (double v : state) line.Put(v);
  }

  static void WriteRecords(const UpdateModule& module,
                           const Records& records, RecordWriter& w) {
    w.Begin("G").Put(module.multiplier_, module.total_rate_,
                     module.mean_importance_, module.rebalance_count_,
                     module.frozen_page_count_);
    w.End();
    for (const auto& [url, state] : records.pages) {
      std::vector<double> est_state;
      if (state->estimator != nullptr) {
        est_state = state->estimator->SaveState();
      }
      RecordLine& line = PutUrl(w.Begin("P"), url);
      line.Put(state->last_visit, state->visited, state->importance,
               state->probing_abandonment);
      PutEstimatorState(line, est_state);
      w.End();
    }
    WriteUrls(w, "X", records.tombstones);
    for (const auto& [site, est] : records.sites) {
      PutEstimatorState(w.Begin("S").Put(site), est->SaveState());
      w.End();
    }
    for (const auto& [site, rng] : records.rngs) {
      w.Begin("R").Put(site, rng->State());
      w.End();
    }
  }

  static std::string FullBytes(const UpdateModule& module) {
    const Records records = All(module);
    std::string out;
    RecordWriter w(&out);
    w.Begin(kUpdateModuleMagic)
        .Put(kUpdateFormatVersion, KindName(module), records.pages.size(),
             records.sites.size(), records.rngs.size());
    w.End();
    WriteRecords(module, records, w);
    w.Finish();
    return out;
  }

  static std::string DeltaBytes(const UpdateModule& module) {
    const Records records = Dirty(module);
    std::string out;
    RecordWriter w(&out);
    w.Begin(kUpdateDeltaMagic)
        .Put(kFormatVersion, KindName(module), records.pages.size(),
             records.tombstones.size(), records.sites.size(),
             records.rngs.size());
    w.End();
    WriteRecords(module, records, w);
    w.Finish();
    return out;
  }

  // Reads a flattened estimator state that ends the line and restores
  // it into a fresh estimator of the module's kind. A page record's
  // state is empty when its estimator lives in the site aggregate.
  static std::unique_ptr<estimator::ChangeEstimator> GetEstimator(
      RecordCursor& c, const UpdateModule& module, bool may_be_empty) {
    std::size_t n = 0;
    c.Count(&n, 1);
    std::vector<double> state(n);
    for (double& v : state) c.Get(&v);
    if (!c.ok() || (state.empty() && may_be_empty)) return nullptr;
    auto est = estimator::MakeEstimator(module.config_.estimator_kind);
    c.Fail(est->RestoreState(state));
    return est;
  }

  /// Parses the records after the header; `kind` is the header's
  /// estimator kind, which must match the module's configuration.
  static Status ReadRecords(RecordReader& r, const UpdateModule& module,
                            const std::string& kind, std::size_t npages,
                            std::size_t ntombstones, std::size_t nsites,
                            std::size_t nrngs, Staged* staged) {
    if (kind != KindName(module)) {
      return Status::InvalidArgument(
          "snapshot estimator kind '" + kind +
          "' does not match the module's configuration");
    }
    Status st = r.ReadRecords(1, "G", [&](RecordCursor& c) {
      c.Get(&staged->multiplier, &staged->total_rate,
            &staged->mean_importance, &staged->rebalance_count,
            &staged->frozen_page_count);
    });
    if (st.ok()) {
      st = r.ReadRecords(npages, "P", [&](RecordCursor& c) {
        auto& [url, state] = staged->pages.emplace_back();
        GetUrl(c, &url).Get(&state.last_visit, &state.visited,
                            &state.importance, &state.probing_abandonment);
        state.estimator = GetEstimator(c, module, true);
      });
    }
    if (st.ok()) st = ReadUrls(r, ntombstones, "X", &staged->tombstones);
    if (st.ok()) {
      st = r.ReadRecords(nsites, "S", [&](RecordCursor& c) {
        auto& [site, est] = staged->sites.emplace_back();
        c.Site(&site);
        est = GetEstimator(c, module, false);
      });
    }
    if (st.ok()) {
      st = r.ReadRecords(nrngs, "R", [&](RecordCursor& c) {
        auto& [site, rng] = staged->rngs.emplace_back(0, Rng(0));
        std::array<uint64_t, 4> lanes{};
        c.Site(&site).Get(&lanes);
        rng.SetState(lanes);
      });
    }
    if (st.ok()) st = r.Finish();
    return st;
  }

  /// Installs staged records: globals absolute, tombstones erased,
  /// records upserted.
  static void Commit(Staged& staged, UpdateModule* module) {
    module->multiplier_ = staged.multiplier;
    module->total_rate_ = staged.total_rate;
    module->mean_importance_ = staged.mean_importance;
    module->rebalance_count_ = staged.rebalance_count;
    module->frozen_page_count_ = staged.frozen_page_count;
    for (const simweb::Url& url : staged.tombstones) {
      module->page_shards_[module->ShardOf(url.site)].erase(url);
    }
    for (auto& [url, state] : staged.pages) {
      module->page_shards_[module->ShardOf(url.site)][url] =
          std::move(state);
    }
    for (auto& [site, est] : staged.sites) {
      module->site_shards_[module->ShardOf(site)][site] = std::move(est);
    }
    for (const auto& [site, rng] : staged.rngs) {
      module->rng_shards_[module->ShardOf(site)].insert_or_assign(site,
                                                                  rng);
    }
  }

  static Status Load(std::istream& in, uint64_t sites, UpdateModule* module) {
    RecordReader r(in, "update snapshot", sites);
    std::string kind;
    std::size_t npages = 0, nsites = 0, nrngs = 0;
    Status st = r.ReadHeader(kUpdateModuleMagic, kUpdateFormatVersion,
                             &kind, &npages, &nsites, &nrngs);
    Staged staged;
    if (st.ok()) {
      st = ReadRecords(r, *module, kind, npages, 0, nsites, nrngs, &staged);
    }
    if (!st.ok()) return st;
    // Restore into a fresh module and swap it in, so a corrupt snapshot
    // never leaves `module` half-loaded.
    UpdateModule fresh(module->config_);
    Commit(staged, &fresh);
    *module = std::move(fresh);
    return Status::Ok();
  }

  static Status ApplyDelta(std::istream& in, uint64_t sites,
                           UpdateModule* module) {
    RecordReader r(in, "update delta", sites);
    std::string kind;
    std::size_t npages = 0, ntombstones = 0, nsites = 0, nrngs = 0;
    Status st = r.ReadHeader(kUpdateDeltaMagic, kFormatVersion, &kind,
                             &npages, &ntombstones, &nsites, &nrngs);
    Staged staged;
    if (st.ok()) {
      st = ReadRecords(r, *module, kind, npages, ntombstones, nsites,
                       nrngs, &staged);
    }
    if (!st.ok()) return st;
    Commit(staged, module);
    return Status::Ok();
  }
};

namespace {

// `F <url> <when> <seq>`: one queued URL with its exact frontier key.
void PutScheduled(RecordWriter& w, const simweb::Url& url, double when,
                  uint64_t seq) {
  PutUrl(w.Begin("F"), url).Put(when, seq);
  w.End();
}

void GetScheduled(RecordCursor& c, CollUrls::Entry* e) {
  GetUrl(c, &e->url).Get(&e->when, &e->seq);
}

std::string FrontierBytes(const ShardedFrontier& frontier) {
  // Drain a copy of each shard: PopEntry yields each live entry with
  // its exact (when, seq) key; sorting by the globally unique seq gives
  // canonical bytes at every shard count.
  std::vector<CollUrls::Entry> entries;
  entries.reserve(frontier.size());
  for (int i = 0; i < frontier.num_shards(); ++i) {
    CollUrls shard = frontier.shard(i);
    while (auto entry = shard.PopEntry()) entries.push_back(*entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const CollUrls::Entry& a, const CollUrls::Entry& b) {
              return a.seq < b.seq;
            });
  std::string out;
  RecordWriter w(&out);
  w.Begin(kFrontierMagic)
      .Put(kFormatVersion, entries.size(), frontier.next_seq(),
           frontier.front_when());
  w.End();
  for (const CollUrls::Entry& e : entries) {
    PutScheduled(w, e.url, e.when, e.seq);
  }
  w.Finish();
  return out;
}

StatusOr<ShardedFrontier> ReadFrontier(std::istream& in, int num_shards,
                                       uint64_t sites) {
  RecordReader r(in, "frontier snapshot", sites);
  std::size_t count = 0;
  uint64_t next_seq = 0;
  double front_when = 0.0;
  Status st = r.ReadHeader(kFrontierMagic, kFormatVersion, &count,
                           &next_seq, &front_when);
  ShardedFrontier frontier(num_shards);
  if (st.ok()) {
    st = r.ReadRecords(count, "F", [&](RecordCursor& c) {
      CollUrls::Entry e;
      GetScheduled(c, &e);
      frontier.ScheduleLane(frontier.ShardOf(e.url.site), e.url, e.when, e.seq);
    });
  }
  if (st.ok()) st = r.Finish();
  if (!st.ok()) return st;
  frontier.RestoreCounters(next_seq, front_when);
  return frontier;
}

}  // namespace

Status SaveCollection(const Collection& collection, std::ostream& out) {
  return WriteBytes(CollectionBytes(collection), out);
}

Status SaveCollection(const ShardedCollection& collection,
                      std::ostream& out) {
  return WriteBytes(CollectionBytes(collection), out);
}

StatusOr<Collection> LoadCollection(std::istream& in) {
  return ReadCollection<Collection>(in, kAnySite, 1);
}

StatusOr<ShardedCollection> LoadShardedCollection(std::istream& in,
                                                  int num_shards) {
  return ReadCollection<ShardedCollection>(in, kAnySite, num_shards);
}

Status SaveAllUrls(const AllUrls& all_urls, std::ostream& out) {
  return WriteBytes(AllUrlsBytes(all_urls), out);
}

StatusOr<AllUrls> LoadAllUrls(std::istream& in, int num_shards) {
  return ReadAllUrls(in, num_shards, kAnySite);
}

Status SaveUpdateModule(const UpdateModule& module, std::ostream& out) {
  return WriteBytes(UpdateModuleIo::FullBytes(module), out);
}

Status LoadUpdateModule(std::istream& in, UpdateModule* module) {
  return UpdateModuleIo::Load(in, kAnySite, module);
}

Status SaveUpdateModuleDelta(const UpdateModule& module,
                             std::ostream& out) {
  if (!module.dirty_tracking()) {
    return Status::FailedPrecondition(
        "update-module delta requires dirty tracking");
  }
  return WriteBytes(UpdateModuleIo::DeltaBytes(module), out);
}

Status ApplyUpdateModuleDelta(std::istream& in, UpdateModule* module) {
  return UpdateModuleIo::ApplyDelta(in, kAnySite, module);
}

Status SaveFrontier(const ShardedFrontier& frontier, std::ostream& out) {
  return WriteBytes(FrontierBytes(frontier), out);
}

StatusOr<ShardedFrontier> LoadFrontier(std::istream& in, int num_shards) {
  return ReadFrontier(in, num_shards, kAnySite);
}

Status SaveCollectionToFile(const Collection& collection,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  return SaveCollection(collection, out);
}

Status SaveCollectionToFile(const ShardedCollection& collection,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  return SaveCollection(collection, out);
}

StatusOr<Collection> LoadCollectionFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  return LoadCollection(in);
}

// ----------------------------------------------------- whole-crawler
// checkpoints: the versioned container bundling every stream a restart
// needs, plus the crawler-side state the individual Save* calls cannot
// see (see snapshot.h for the format).

namespace {

constexpr const char* kCrawlerMagic = "webevo-crawler";
constexpr int kCrawlerFormatVersion = 1;
constexpr const char* kIncMetaMagic = "webevo-incmeta";
// Incremental meta version 2: the C record grew the capacity-lease
// ledger (budget granted to shard leases, settled admissions) — the
// deterministic half of the lease protocol's accounting.
// Version 3: the C record grew the failure ledger (classified fetch
// failures, retries, quarantines, retirements) and a second L record
// carries the backoff-days RunningStat.
// Version 4: the C record grew the defense ledger (wasted fetches,
// throttled trap sites, suppressed duplicate URLs, migrated pages).
constexpr int kIncMetaVersion = 4;
constexpr const char* kPerMetaMagic = "webevo-permeta";
// Periodic meta version 2: the C record grew the failure ledger
// (classified fetch failures, bounded re-queues, per-cycle drops).
constexpr int kPerMetaVersion = 2;
// The failure-pipeline section shared by both crawlers: per-site
// circuit-breaker state (incremental only) and per-URL consecutive
// failure / re-queue counts.
constexpr const char* kFailureMagic = "webevo-failure";
constexpr const char* kPoliteMagic = "webevo-polite";
constexpr const char* kTrackerMagic = "webevo-tracker";
constexpr const char* kUrlsMagic = "webevo-urls";
// The adversarial-defense section (incremental crawler only): per-site
// diminishing-returns state machines and the content-fingerprint
// registry's canonical owners.
constexpr const char* kDefenseMagic = "webevo-defense";
// The optional pool-level traffic aggregate (absolute-day fetch
// histogram + global counters); see CrawlModulePool::Traffic.
constexpr const char* kTrafficMagic = "webevo-traffic";
// Delta-section magics of the incremental checkpoint mode.
constexpr const char* kCollDeltaMagic = "webevo-dcoll";
constexpr const char* kAllUrlsDeltaMagic = "webevo-dallurls";
constexpr const char* kFrontierDeltaMagic = "webevo-dfrontier";
// Range guard on the section table, parsed before its checksum covers
// it.
constexpr std::size_t kMaxSections = 16;
// Range guard before sizing the traffic histogram off parsed days.
constexpr std::size_t kMaxTrafficDays = 1 << 24;
constexpr const char* kIncrementalKind = "incremental";
constexpr const char* kPeriodicKind = "periodic";

// The bound of every site field a loader reads: the web's site count
// when the crawler has a web.
uint64_t SiteLimit(const simweb::SimulatedWeb* web) {
  return web == nullptr ? kAnySite : web->num_sites();
}

Status WriteContainer(const std::string& kind,
                      const std::vector<CheckpointSection>& sections,
                      std::ostream& out) {
  std::string header;
  RecordWriter w(&header);
  w.Begin(kCrawlerMagic).Put(kCrawlerFormatVersion, kind, sections.size());
  w.End();
  for (const CheckpointSection& s : sections) {
    w.Begin("S").Put(s.name, s.bytes.size(), Fnv1a64(s.bytes));
    w.End();
  }
  w.Finish();
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (const CheckpointSection& s : sections) {
    out.write(s.bytes.data(), static_cast<std::streamsize>(s.bytes.size()));
  }
  if (!out.good()) return Status::Internal("checkpoint write failed");
  return Status::Ok();
}

StatusOr<CheckpointContainer> ReadCrawlerContainer(
    std::istream& in, const std::string& expected_kind) {
  auto container = ReadCheckpointContainer(in);
  if (!container.ok()) return container.status();
  if (container->kind != expected_kind) {
    return Status::InvalidArgument(
        "checkpoint kind '" + container->kind +
        "' does not match this crawler ('" + expected_kind + "')");
  }
  return container;
}

const std::string* FindSection(const std::vector<CheckpointSection>& sections,
                               const std::string& name) {
  for (const CheckpointSection& s : sections) {
    if (s.name == name) return &s.bytes;
  }
  return nullptr;
}

// Every name in `names` must be present.
Status RequireSections(const std::vector<CheckpointSection>& sections,
                       std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (FindSection(sections, name) == nullptr) {
      return Status::InvalidArgument("checkpoint missing section '" +
                                     std::string(name) + "'");
    }
  }
  return Status::Ok();
}

using PoliteRecords = std::vector<std::pair<uint32_t, double>>;

std::string PoliteBytes(const PoliteRecords& records) {
  std::string out;
  RecordWriter w(&out);
  w.Begin(kPoliteMagic).Put(kFormatVersion, records.size());
  w.End();
  for (const auto& [site, last_access] : records) {
    w.Begin("A").Put(site, last_access);
    w.End();
  }
  w.Finish();
  return out;
}

StatusOr<PoliteRecords> ReadPolite(const std::string& bytes, uint64_t sites) {
  std::istringstream in(bytes);
  RecordReader r(in, "politeness snapshot", sites);
  std::size_t count = 0;
  Status st = r.ReadHeader(kPoliteMagic, kFormatVersion, &count);
  PoliteRecords records;
  if (st.ok()) {
    st = r.ReadRecords(count, "A", [&](RecordCursor& c) {
      auto& [site, last_access] = records.emplace_back();
      c.Site(&site).Get(&last_access);
    });
  }
  if (st.ok()) st = r.Finish();
  if (!st.ok()) return st;
  return records;
}

std::string TrackerBytes(const freshness::FreshnessTracker& tracker) {
  std::string out;
  RecordWriter w(&out);
  w.Begin(kTrackerMagic).Put(kFormatVersion, tracker.size());
  w.End();
  for (std::size_t i = 0; i < tracker.size(); ++i) {
    w.Begin("V").Put(tracker.times()[i], tracker.values()[i]);
    w.End();
  }
  w.Finish();
  return out;
}

// Parses a tracker section and replaces `tracker`'s series with it.
Status ReadTracker(const std::string& bytes,
                   freshness::FreshnessTracker* tracker) {
  std::istringstream in(bytes);
  RecordReader r(in, "tracker snapshot");
  std::size_t count = 0;
  Status st = r.ReadHeader(kTrackerMagic, kFormatVersion, &count);
  freshness::FreshnessTracker staged;
  if (st.ok()) {
    st = r.ReadRecords(count, "V", [&](RecordCursor& c) {
      double time = 0.0, value = 0.0;
      c.Get(&time, &value);
      staged.AddSample(time, value);
    });
  }
  if (st.ok()) st = r.Finish();
  if (!st.ok()) return st;
  *tracker = std::move(staged);
  return Status::Ok();
}

// A plain URL list (the BFS queue in queue order, the seen-set and the
// pending-admission set in canonical order).
std::string UrlListBytes(const std::vector<simweb::Url>& urls) {
  std::string out;
  RecordWriter w(&out);
  w.Begin(kUrlsMagic).Put(kFormatVersion, urls.size());
  w.End();
  WriteUrls(w, "Q", urls);
  w.Finish();
  return out;
}

StatusOr<std::vector<simweb::Url>> ReadUrlList(const std::string& bytes,
                                               uint64_t sites) {
  std::istringstream in(bytes);
  RecordReader r(in, "url-list snapshot", sites);
  std::size_t count = 0;
  Status st = r.ReadHeader(kUrlsMagic, kFormatVersion, &count);
  std::vector<simweb::Url> urls;
  if (st.ok()) st = ReadUrls(r, count, "Q", &urls);
  if (st.ok()) st = r.Finish();
  if (!st.ok()) return st;
  return urls;
}

// `L <count> <mean> <m2> <min> <max>`: a RunningStat's raw state.
void PutRunningStat(RecordWriter& w, const RunningStat& stat) {
  const RunningStat::State s = stat.SaveState();
  w.Begin("L").Put(s.count, s.mean, s.m2, s.min, s.max);
  w.End();
}

Status ReadRunningStat(RecordReader& r, RunningStat* stat) {
  return r.ReadRecords(1, "L", [&](RecordCursor& c) {
    RunningStat::State s;
    c.Get(&s.count, &s.mean, &s.m2, &s.min, &s.max);
    stat->RestoreState(s);
  });
}

// The failure-pipeline state both crawlers checkpoint: the per-site
// circuit breakers with their backoff RNG lanes (incremental; empty
// for the periodic crawler) and the per-URL failure counts (retirement
// counts / per-cycle re-queue counts). Records are written in
// canonical order — sites ascending, URLs by identity — so equal state
// yields equal bytes at every shard count.
struct SiteFailureRecord {
  uint32_t site = 0;
  uint32_t consecutive = 0;
  double quarantined_until = 0.0;
  bool rng_init = false;
  std::array<uint64_t, 4> lane{};
};

struct UrlFailureRecord {
  simweb::Url url;
  uint32_t count = 0;
};

struct FailureSnapshot {
  std::vector<SiteFailureRecord> sites;
  std::vector<UrlFailureRecord> urls;
};

std::string FailureBytes(FailureSnapshot snap) {
  std::sort(snap.sites.begin(), snap.sites.end(),
            [](const SiteFailureRecord& a, const SiteFailureRecord& b) {
              return a.site < b.site;
            });
  std::sort(snap.urls.begin(), snap.urls.end(),
            [](const UrlFailureRecord& a, const UrlFailureRecord& b) {
              return IdentityLess(a.url, b.url);
            });
  std::string out;
  RecordWriter w(&out);
  w.Begin(kFailureMagic)
      .Put(kFormatVersion, snap.sites.size(), snap.urls.size());
  w.End();
  for (const SiteFailureRecord& r : snap.sites) {
    w.Begin("S").Put(r.site, r.consecutive, r.quarantined_until, r.rng_init,
                     r.lane);
    w.End();
  }
  for (const UrlFailureRecord& r : snap.urls) {
    PutUrl(w.Begin("U"), r.url).Put(r.count);
    w.End();
  }
  w.Finish();
  return out;
}

StatusOr<FailureSnapshot> ReadFailure(const std::string& bytes,
                                      uint64_t sites) {
  std::istringstream in(bytes);
  RecordReader r(in, "failure snapshot", sites);
  std::size_t nsites = 0, nurls = 0;
  Status st = r.ReadHeader(kFailureMagic, kFormatVersion, &nsites, &nurls);
  FailureSnapshot snap;
  if (st.ok()) {
    st = r.ReadRecords(nsites, "S", [&](RecordCursor& c) {
      SiteFailureRecord& s = snap.sites.emplace_back();
      c.Site(&s.site).Get(&s.consecutive, &s.quarantined_until,
                          &s.rng_init, &s.lane);
    });
  }
  if (st.ok()) {
    st = r.ReadRecords(nurls, "U", [&](RecordCursor& c) {
      UrlFailureRecord& u = snap.urls.emplace_back();
      GetUrl(c, &u.url).Get(&u.count);
    });
  }
  if (st.ok()) st = r.Finish();
  if (!st.ok()) return st;
  return snap;
}

// The defense-layer state the incremental crawler checkpoints: the
// per-site diminishing-returns machines (`D` records, sites ascending)
// and the fingerprint registry's canonical owners (`F` records, sorted
// by (hi, lo)) — both canonical orders, so equal state yields equal
// bytes at every shard count.
struct DefenseSiteRecord {
  uint32_t site = 0;
  uint64_t window_fetches = 0;
  uint64_t window_fresh = 0;
  uint32_t throttle_level = 0;
  bool quarantined = false;
  double quarantined_until = 0.0;
  uint64_t suppressed_total = 0;
};

struct DefenseFingerprintRecord {
  Checksum128 checksum;
  simweb::Url url;
};

struct DefenseSnapshot {
  std::vector<DefenseSiteRecord> sites;
  std::vector<DefenseFingerprintRecord> fingerprints;
};

std::string DefenseBytes(const DefenseSnapshot& snap) {
  std::string out;
  RecordWriter w(&out);
  w.Begin(kDefenseMagic)
      .Put(kFormatVersion, snap.sites.size(), snap.fingerprints.size());
  w.End();
  for (const DefenseSiteRecord& r : snap.sites) {
    w.Begin("D").Put(r.site, r.window_fetches, r.window_fresh,
                     r.throttle_level, r.quarantined, r.quarantined_until,
                     r.suppressed_total);
    w.End();
  }
  for (const DefenseFingerprintRecord& r : snap.fingerprints) {
    PutUrl(w.Begin("F").Put(r.checksum.hi, r.checksum.lo), r.url);
    w.End();
  }
  w.Finish();
  return out;
}

StatusOr<DefenseSnapshot> ReadDefense(const std::string& bytes,
                                      uint64_t sites) {
  std::istringstream in(bytes);
  RecordReader r(in, "defense snapshot", sites);
  std::size_t nsites = 0, nfps = 0;
  Status st = r.ReadHeader(kDefenseMagic, kFormatVersion, &nsites, &nfps);
  DefenseSnapshot snap;
  if (st.ok()) {
    st = r.ReadRecords(nsites, "D", [&](RecordCursor& c) {
      DefenseSiteRecord& d = snap.sites.emplace_back();
      c.Site(&d.site).Get(&d.window_fetches, &d.window_fresh,
                          &d.throttle_level, &d.quarantined,
                          &d.quarantined_until, &d.suppressed_total);
    });
  }
  if (st.ok()) {
    st = r.ReadRecords(nfps, "F", [&](RecordCursor& c) {
      DefenseFingerprintRecord& f = snap.fingerprints.emplace_back();
      GetUrl(c.Get(&f.checksum.hi, &f.checksum.lo), &f.url);
    });
  }
  if (st.ok()) st = r.Finish();
  if (!st.ok()) return st;
  return snap;
}

// The pool-level traffic aggregate (CrawlModulePool::Traffic): one `G`
// record with the global counters and time bounds, then one `D` record
// per *non-empty* absolute day bucket, ascending — canonical because
// the aggregate is a pure function of the fetch stream.
std::string TrafficBytes(const CrawlModulePool::Traffic& traffic) {
  const std::size_t ndays = static_cast<std::size_t>(
      std::count_if(traffic.fetches_per_day.begin(),
                    traffic.fetches_per_day.end(),
                    [](uint64_t count) { return count != 0; }));
  std::string out;
  RecordWriter w(&out);
  w.Begin(kTrafficMagic).Put(kFormatVersion, ndays);
  w.End();
  w.Begin("G").Put(traffic.fetch_count, traffic.failure_count,
                   traffic.politeness_rejections, traffic.any_fetch,
                   traffic.first_fetch_time, traffic.last_fetch_time);
  w.End();
  for (std::size_t day = 0; day < traffic.fetches_per_day.size(); ++day) {
    if (traffic.fetches_per_day[day] == 0) continue;
    w.Begin("D").Put(day, traffic.fetches_per_day[day]);
    w.End();
  }
  w.Finish();
  return out;
}

StatusOr<CrawlModulePool::Traffic> ReadTraffic(const std::string& bytes) {
  std::istringstream in(bytes);
  RecordReader r(in, "traffic snapshot");
  std::size_t ndays = 0;
  Status st = r.ReadHeader(kTrafficMagic, kFormatVersion, &ndays);
  CrawlModulePool::Traffic t;
  if (st.ok()) {
    st = r.ReadRecords(1, "G", [&](RecordCursor& c) {
      c.Get(&t.fetch_count, &t.failure_count, &t.politeness_rejections,
            &t.any_fetch, &t.first_fetch_time, &t.last_fetch_time);
    });
  }
  if (st.ok()) {
    st = r.ReadRecords(ndays, "D", [&](RecordCursor& c) {
      std::size_t day = 0;
      uint64_t count = 0;
      c.Get(&day, &count).Check(day < kMaxTrafficDays, "day out of range");
      if (!c.ok()) return;
      if (day >= t.fetches_per_day.size()) {
        t.fetches_per_day.resize(day + 1, 0);
      }
      t.fetches_per_day[day] = count;
    });
  }
  if (st.ok()) st = r.Finish();
  if (!st.ok()) return st;
  return t;
}

}  // namespace

StatusOr<CheckpointContainer> ReadCheckpointContainer(std::istream& in) {
  RecordReader r(in, "crawler checkpoint");
  CheckpointContainer container;
  container.version = kCrawlerFormatVersion;
  std::size_t nsections = 0;
  Status st = r.ReadHeader(kCrawlerMagic, kCrawlerFormatVersion,
                           &container.kind, &nsections);
  if (st.ok() && nsections > kMaxSections) {
    st = Status::InvalidArgument("implausible checkpoint section count");
  }
  std::vector<std::pair<std::size_t, uint64_t>> table;  // length, fnv64
  if (st.ok()) {
    st = r.ReadRecords(nsections, "S", [&](RecordCursor& c) {
      auto& [length, hash] = table.emplace_back();
      c.Get(&container.sections.emplace_back().name, &length, &hash);
    });
  }
  if (st.ok()) st = r.ReadTrailer();
  if (!st.ok()) return st;
  for (std::size_t i = 0; i < table.size(); ++i) {
    CheckpointSection& section = container.sections[i];
    // Read in bounded chunks rather than trusting the table-claimed
    // length for one allocation: a crafted length can be recomputed
    // into a "valid" table, and the honest failure mode for a length
    // beyond the actual file is a truncation error, not bad_alloc.
    std::size_t remaining = table[i].first;
    char buf[1 << 16];
    while (remaining > 0) {
      const std::size_t want = std::min(remaining, sizeof(buf));
      in.read(buf, static_cast<std::streamsize>(want));
      const auto got = static_cast<std::size_t>(in.gcount());
      section.bytes.append(buf, got);
      if (got < want) {
        return Status::InvalidArgument("checkpoint truncated in section '" +
                                       section.name + "'");
      }
      remaining -= got;
    }
    if (Fnv1a64(section.bytes) != table[i].second) {
      return Status::InvalidArgument("checkpoint section '" + section.name +
                                     "' corrupted");
    }
  }
  st = ExpectStreamEnd(in, "checkpoint");
  if (!st.ok()) return st;
  return container;
}

/// Shared plumbing of the full and incremental whole-crawler
/// checkpoints — the private-state section builders, their parsers,
/// and the delta-segment apply. Befriended by IncrementalCrawler so
/// SaveCrawler / LoadCrawler / CheckpointIncremental share one
/// implementation of each section instead of three.
struct CheckpointIo {
  /// Parsed "meta" section of an incremental-crawler checkpoint.
  struct IncMetaState {
    double now = 0.0, next_refine = 0.0, next_rebalance = 0.0,
           next_sample = 0.0, steady_since = 0.0;
    uint64_t batches_completed = 0;
    bool reached_capacity = false;
    int64_t refinements = 0;
    IncrementalCrawler::Stats stats;
  };

  static std::string IncMeta(const IncrementalCrawler& crawler) {
    const IncrementalCrawler::Stats& s = crawler.stats_;
    std::string out;
    RecordWriter w(&out);
    w.Begin(kIncMetaMagic).Put(kIncMetaVersion);
    w.End();
    w.Begin("T").Put(crawler.now_, crawler.next_refine_,
                     crawler.next_rebalance_, crawler.next_sample_,
                     crawler.steady_since_);
    w.End();
    w.Begin("B").Put(crawler.batches_completed_,
                     crawler.reached_capacity_once_);
    w.End();
    w.Begin("C").Put(
        s.crawls, s.in_place_updates, s.pages_added, s.pages_evicted,
        s.replacements_executed, s.dead_pages_removed, s.changes_detected,
        s.politeness_retries, s.in_batch_retries, s.lease_budget_granted,
        s.lease_admissions, s.fetch_failures, s.transient_errors,
        s.timeout_errors, s.failure_retries, s.sites_quarantined,
        s.urls_retired, s.wasted_fetches, s.trap_sites_throttled,
        s.duplicate_urls_suppressed, s.pages_migrated,
        crawler.ranking_module_.refinement_count());
    w.End();
    PutRunningStat(w, s.new_page_latency_days);
    PutRunningStat(w, s.backoff_days);
    w.Finish();
    return out;
  }

  static StatusOr<IncMetaState> ParseIncMeta(const std::string& bytes) {
    std::istringstream in(bytes);
    RecordReader r(in, "checkpoint meta");
    IncMetaState meta;
    IncrementalCrawler::Stats& s = meta.stats;
    Status st = r.ReadHeader(kIncMetaMagic, kIncMetaVersion);
    if (st.ok()) {
      st = r.ReadRecords(1, "T", [&](RecordCursor& c) {
        c.Get(&meta.now, &meta.next_refine, &meta.next_rebalance,
              &meta.next_sample, &meta.steady_since);
      });
    }
    if (st.ok()) {
      st = r.ReadRecords(1, "B", [&](RecordCursor& c) {
        c.Get(&meta.batches_completed, &meta.reached_capacity);
      });
    }
    if (st.ok()) {
      st = r.ReadRecords(1, "C", [&](RecordCursor& c) {
        c.Get(&s.crawls, &s.in_place_updates, &s.pages_added,
              &s.pages_evicted, &s.replacements_executed,
              &s.dead_pages_removed, &s.changes_detected,
              &s.politeness_retries, &s.in_batch_retries,
              &s.lease_budget_granted, &s.lease_admissions,
              &s.fetch_failures, &s.transient_errors, &s.timeout_errors,
              &s.failure_retries, &s.sites_quarantined, &s.urls_retired,
              &s.wasted_fetches, &s.trap_sites_throttled,
              &s.duplicate_urls_suppressed, &s.pages_migrated,
              &meta.refinements);
      });
    }
    if (st.ok()) st = ReadRunningStat(r, &s.new_page_latency_days);
    if (st.ok()) st = ReadRunningStat(r, &s.backoff_days);
    if (st.ok()) st = r.Finish();
    if (!st.ok()) return st;
    return meta;
  }

  /// Installs a parsed meta section's scalars (everything but the
  /// sections with their own appliers).
  static void ApplyIncMeta(const IncMetaState& meta,
                           IncrementalCrawler* crawler) {
    crawler->stats_ = meta.stats;
    crawler->ranking_module_.RestoreRefinementCount(meta.refinements);
    crawler->now_ = meta.now;
    crawler->next_refine_ = meta.next_refine;
    crawler->next_rebalance_ = meta.next_rebalance;
    crawler->next_sample_ = meta.next_sample;
    crawler->steady_since_ = meta.steady_since;
    crawler->reached_capacity_once_ = meta.reached_capacity;
    crawler->batches_completed_ = meta.batches_completed;
    crawler->bootstrapped_ = true;
  }

  static std::string Pending(const IncrementalCrawler& crawler) {
    // The sharded pending-admission sets merge into one canonical URL
    // list (the split is re-derived on load from the loading crawler's
    // shard count).
    std::vector<simweb::Url> pending;
    for (const auto& shard : crawler.pending_shards_) {
      pending.insert(pending.end(), shard.begin(), shard.end());
    }
    std::sort(pending.begin(), pending.end(), IdentityLess);
    return UrlListBytes(pending);
  }

  static void ApplyPending(const std::vector<simweb::Url>& pending,
                           IncrementalCrawler* crawler) {
    for (auto& shard : crawler->pending_shards_) shard.clear();
    for (const simweb::Url& url : pending) crawler->PendingInsert(url);
  }

  static std::string Failure(const IncrementalCrawler& crawler) {
    // Circuit breakers (with their backoff RNG lane positions) and
    // retirement counts, so a resume mid-backoff or mid-quarantine
    // replays the same schedule.
    FailureSnapshot snap;
    for (const auto& shard : crawler.site_failure_shards_) {
      for (const auto& [site, state] : shard) {
        SiteFailureRecord& r = snap.sites.emplace_back();
        r.site = site;
        r.consecutive = state.consecutive;
        r.quarantined_until = state.quarantined_until;
        r.rng_init = state.rng_init;
        if (state.rng_init) r.lane = state.backoff.State();
      }
    }
    for (const auto& shard : crawler.url_failure_shards_) {
      for (const auto& [url, fails] : shard) {
        snap.urls.push_back(UrlFailureRecord{url, fails});
      }
    }
    return FailureBytes(std::move(snap));
  }

  static void ApplyFailure(const FailureSnapshot& failure,
                           IncrementalCrawler* crawler) {
    // Failure state re-shards by the same site % N ownership rule the
    // live pipeline uses, so a resume at any shard count lands each
    // site's backoff lane (mid-sequence RNG position included) and
    // each URL's fail count in the shard that will consult it.
    const auto shards =
        static_cast<uint32_t>(crawler->site_failure_shards_.size());
    for (auto& shard : crawler->site_failure_shards_) shard.clear();
    for (const SiteFailureRecord& r : failure.sites) {
      IncrementalCrawler::SiteFailureState state;
      state.consecutive = r.consecutive;
      state.quarantined_until = r.quarantined_until;
      state.rng_init = r.rng_init;
      if (state.rng_init) state.backoff.SetState(r.lane);
      crawler->site_failure_shards_[r.site % shards].emplace(r.site,
                                                            state);
    }
    for (auto& shard : crawler->url_failure_shards_) shard.clear();
    for (const UrlFailureRecord& r : failure.urls) {
      crawler->url_failure_shards_[r.url.site % shards].emplace(r.url,
                                                               r.count);
    }
  }

  static std::string Defense(const IncrementalCrawler& crawler) {
    // Per-site diminishing-returns machines and the fingerprint
    // registry, in canonical order, so a run killed mid-throttle
    // resumes byte-identically at any shard count.
    DefenseSnapshot snap;
    for (const auto& shard : crawler.site_defense_shards_) {
      for (const auto& [site, state] : shard) {
        snap.sites.push_back(DefenseSiteRecord{
            site, state.window_fetches, state.window_fresh,
            state.throttle_level, state.quarantined,
            state.quarantined_until, state.suppressed_total});
      }
    }
    std::sort(snap.sites.begin(), snap.sites.end(),
              [](const DefenseSiteRecord& a, const DefenseSiteRecord& b) {
                return a.site < b.site;
              });
    for (const auto& [checksum, url] :
         crawler.all_urls_.SortedFingerprints()) {
      snap.fingerprints.push_back(DefenseFingerprintRecord{checksum, url});
    }
    return DefenseBytes(snap);
  }

  static void ApplyDefense(const DefenseSnapshot& defense,
                           IncrementalCrawler* crawler) {
    // Re-shards by the same site % N ownership rule as the live layer.
    // Must run after the AllUrls commit (ReplaceEntriesFrom), which
    // installs the staged — registry-free — URL table.
    const auto shards =
        static_cast<uint32_t>(crawler->site_defense_shards_.size());
    for (auto& shard : crawler->site_defense_shards_) shard.clear();
    for (const DefenseSiteRecord& r : defense.sites) {
      IncrementalCrawler::SiteDefenseState state;
      state.window_fetches = r.window_fetches;
      state.window_fresh = r.window_fresh;
      state.throttle_level = r.throttle_level;
      state.quarantined = r.quarantined;
      state.quarantined_until = r.quarantined_until;
      state.suppressed_total = r.suppressed_total;
      crawler->site_defense_shards_[r.site % shards].emplace(r.site,
                                                             state);
    }
    crawler->all_urls_.ClearFingerprints();
    for (const DefenseFingerprintRecord& r : defense.fingerprints) {
      crawler->all_urls_.ReassignFingerprint(r.checksum, r.url);
    }
  }

  // ---- Delta sections (incremental checkpoint segments). Records are
  // listed in canonical URL-identity / ascending-site order over dirty
  // sets that are pure functions of the simulation, so a segment is
  // byte-identical at every shard count.

  static std::string CollDelta(const IncrementalCrawler& crawler) {
    storage::RecordStore<CollectionEntry>::DirtySet dirty;
    crawler.collection_.AppendDirty(&dirty);
    std::vector<const CollectionEntry*> upserts;
    std::vector<simweb::Url> tombstones;
    for (const simweb::Url& url : dirty) {
      const CollectionEntry* entry = crawler.collection_.Find(url);
      if (entry != nullptr) {
        upserts.push_back(entry);
      } else {
        tombstones.push_back(url);
      }
    }
    std::string out;
    RecordWriter w(&out);
    w.Begin(kCollDeltaMagic)
        .Put(kFormatVersion, upserts.size(), tombstones.size());
    w.End();
    for (const CollectionEntry* e : upserts) {
      PutEntry(w.Begin("E"), *e);
      w.End();
    }
    WriteUrls(w, "D", tombstones);
    w.Finish();
    return out;
  }

  static Status ApplyCollDelta(const std::string& bytes, uint64_t sites,
                               IncrementalCrawler* crawler) {
    std::istringstream in(bytes);
    RecordReader r(in, "collection delta", sites);
    std::size_t nupserts = 0, ntombstones = 0;
    Status st = r.ReadHeader(kCollDeltaMagic, kFormatVersion, &nupserts,
                             &ntombstones);
    std::vector<CollectionEntry> upserts;
    std::vector<simweb::Url> tombstones;
    if (st.ok()) {
      st = r.ReadRecords(nupserts, "E", [&](RecordCursor& c) {
        GetEntry(c, &upserts.emplace_back());
      });
    }
    if (st.ok()) st = ReadUrls(r, ntombstones, "D", &tombstones);
    if (st.ok()) st = r.Finish();
    if (!st.ok()) return st;
    // Tombstones first so upserts never transiently breach capacity: a
    // segment's end state satisfies size <= capacity, and erase-then-
    // insert approaches it monotonically from below.
    for (const simweb::Url& url : tombstones) {
      (void)crawler->collection_.Remove(url);  // absent is fine
    }
    for (CollectionEntry& entry : upserts) {
      st = crawler->collection_.Upsert(std::move(entry));
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  static std::string AllUrlsDelta(const IncrementalCrawler& crawler) {
    AllUrls::DirtySet dirty;
    crawler.all_urls_.AppendDirty(&dirty);
    // AllUrls records are never erased (dead URLs keep their record as
    // a logical tombstone), so the delta is upserts only.
    std::vector<std::pair<simweb::Url, const AllUrls::UrlInfo*>> upserts;
    for (const simweb::Url& url : dirty) {
      const AllUrls::UrlInfo* info = crawler.all_urls_.Find(url);
      if (info != nullptr) upserts.emplace_back(url, info);
    }
    std::string out;
    RecordWriter w(&out);
    w.Begin(kAllUrlsDeltaMagic).Put(kFormatVersion, upserts.size());
    w.End();
    for (const auto& [url, info] : upserts) {
      PutUrlInfo(PutUrl(w.Begin("U"), url), *info);
      w.End();
    }
    w.Finish();
    return out;
  }

  static Status ApplyAllUrlsDelta(const std::string& bytes, uint64_t sites,
                                  IncrementalCrawler* crawler) {
    std::istringstream in(bytes);
    RecordReader r(in, "allurls delta", sites);
    std::size_t count = 0;
    Status st = r.ReadHeader(kAllUrlsDeltaMagic, kFormatVersion, &count);
    std::vector<std::pair<simweb::Url, AllUrls::UrlInfo>> upserts;
    if (st.ok()) {
      st = r.ReadRecords(count, "U", [&](RecordCursor& c) {
        auto& [url, info] = upserts.emplace_back();
        GetUrlInfo(GetUrl(c, &url), &info);
      });
    }
    if (st.ok()) st = r.Finish();
    if (!st.ok()) return st;
    for (const auto& [url, info] : upserts) {
      crawler->all_urls_.Restore(url, info);
    }
    return Status::Ok();
  }

  static std::string FrontierDelta(const IncrementalCrawler& crawler) {
    // The frontier marking ledger: for each URL whose queue position
    // may have moved since the last checkpoint, either its exact live
    // (when, seq) key or a tombstone. Unlike the full frontier section
    // (ordered by seq), delta records follow the ledger's canonical
    // URL-identity order.
    std::vector<CollUrls::Entry> upserts;
    std::vector<simweb::Url> tombstones;
    for (const simweb::Url& url : crawler.frontier_dirty_) {
      auto entry = crawler.coll_urls_.LookupEntry(url);
      if (entry.has_value()) {
        upserts.push_back(*entry);
      } else {
        tombstones.push_back(url);
      }
    }
    std::string out;
    RecordWriter w(&out);
    w.Begin(kFrontierDeltaMagic)
        .Put(kFormatVersion, upserts.size(), tombstones.size(),
             crawler.coll_urls_.next_seq(), crawler.coll_urls_.front_when());
    w.End();
    for (const CollUrls::Entry& e : upserts) {
      PutScheduled(w, e.url, e.when, e.seq);
    }
    WriteUrls(w, "D", tombstones);
    w.Finish();
    return out;
  }

  static Status ApplyFrontierDelta(const std::string& bytes, uint64_t sites,
                                   IncrementalCrawler* crawler) {
    std::istringstream in(bytes);
    RecordReader r(in, "frontier delta", sites);
    std::size_t nupserts = 0, ntombstones = 0;
    uint64_t next_seq = 0;
    double front_when = 0.0;
    Status st = r.ReadHeader(kFrontierDeltaMagic, kFormatVersion, &nupserts,
                             &ntombstones, &next_seq, &front_when);
    std::vector<CollUrls::Entry> upserts;
    std::vector<simweb::Url> tombstones;
    if (st.ok()) {
      st = r.ReadRecords(nupserts, "F", [&](RecordCursor& c) {
        GetScheduled(c, &upserts.emplace_back());
      });
    }
    if (st.ok()) st = ReadUrls(r, ntombstones, "D", &tombstones);
    if (st.ok()) st = r.Finish();
    if (!st.ok()) return st;
    ShardedFrontier& frontier = crawler->coll_urls_;
    for (const simweb::Url& url : tombstones) {
      (void)frontier.Remove(url);  // absent is fine
    }
    for (const CollUrls::Entry& e : upserts) {
      // ScheduleLane replaces any live entry of the URL, and replay is
      // serial, so this reproduces LoadFrontier's end state exactly.
      frontier.ScheduleLane(frontier.ShardOf(e.url.site), e.url, e.when, e.seq);
    }
    frontier.RestoreCounters(next_seq, front_when);
    return Status::Ok();
  }

  /// Replays one sealed delta segment onto `crawler`. The segment's
  /// integrity was already verified by ReadDeltaLog (header and
  /// payload checksums); a parse failure here still aborts mid-apply,
  /// so callers treat any error as "restore from the base again".
  static Status ApplySegment(const storage::DeltaSegment& segment,
                             IncrementalCrawler* crawler) {
    const std::vector<CheckpointSection>& sections = segment.sections;
    Status st = RequireSections(
        sections, {"meta", "dcoll", "dallurls", "dupdate", "dfrontier",
                   "polite", "tracker", "pending", "failure", "defense"});
    if (!st.ok()) return st;
    auto section = [&](const char* name) {
      return FindSection(sections, name);
    };
    const uint64_t sites = SiteLimit(crawler->web_);
    auto meta = ParseIncMeta(*section("meta"));
    if (!meta.ok()) return meta.status();
    st = ApplyCollDelta(*section("dcoll"), sites, crawler);
    if (st.ok()) st = ApplyAllUrlsDelta(*section("dallurls"), sites, crawler);
    if (st.ok()) {
      std::istringstream in(*section("dupdate"));
      st = UpdateModuleIo::ApplyDelta(in, sites, &crawler->update_module_);
    }
    if (st.ok()) {
      st = ApplyFrontierDelta(*section("dfrontier"), sites, crawler);
    }
    if (st.ok()) st = ReadTracker(*section("tracker"), &crawler->tracker_);
    if (!st.ok()) return st;
    auto polite = ReadPolite(*section("polite"), sites);
    if (!polite.ok()) return polite.status();
    crawler->engine_.pool().RestorePoliteness(*polite);
    auto pending = ReadUrlList(*section("pending"), sites);
    if (!pending.ok()) return pending.status();
    ApplyPending(*pending, crawler);
    auto failure = ReadFailure(*section("failure"), sites);
    if (!failure.ok()) return failure.status();
    ApplyFailure(*failure, crawler);
    auto defense = ReadDefense(*section("defense"), sites);
    if (!defense.ok()) return defense.status();
    ApplyDefense(*defense, crawler);
    if (const std::string* traffic_bytes = section("traffic")) {
      auto traffic = ReadTraffic(*traffic_bytes);
      if (!traffic.ok()) return traffic.status();
      crawler->engine_.pool().RestoreTraffic(*traffic);
    }
    if (const std::string* web_bytes = section("dweb")) {
      std::istringstream in(*web_bytes);
      st = simweb::ApplyWebDelta(in, crawler->web_);
      if (!st.ok()) return st;
    }
    ApplyIncMeta(*meta, crawler);
    return Status::Ok();
  }

  /// Drops every dirty mark — the post-checkpoint (and post-replay)
  /// reset that starts the next delta's ledger from empty.
  static void ClearDirty(IncrementalCrawler* crawler) {
    crawler->collection_.ClearDirty();
    crawler->all_urls_.ClearDirty();
    crawler->update_module_.ClearDirty();
    crawler->frontier_dirty_.clear();
    if (crawler->web_ != nullptr && crawler->web_->dirty_tracking()) {
      crawler->web_->ClearDirtySites();
    }
  }
};

namespace {

// Serialises `web` with `save` (SaveWeb or SaveWebDelta) into a
// section.
template <typename Save>
StatusOr<std::string> WebBytes(const simweb::SimulatedWeb& web, Save save) {
  std::ostringstream os;
  Status st = save(web, os);
  if (!st.ok()) return st;
  return os.str();
}

}  // namespace

Status SaveCrawler(const IncrementalCrawler& crawler, std::ostream& out,
                   const CrawlerCheckpointOptions& options) {
  if (!crawler.engine_.quiescent()) {
    return Status::FailedPrecondition(
        "checkpoint requires a quiesced engine (batch boundary)");
  }
  std::vector<CheckpointSection> sections = {
      {"meta", CheckpointIo::IncMeta(crawler)},
      {"collection", CollectionBytes(crawler.collection_)},
      {"allurls", AllUrlsBytes(crawler.all_urls_)},
      {"update", UpdateModuleIo::FullBytes(crawler.update_module_)},
      {"frontier", FrontierBytes(crawler.coll_urls_)},
      {"polite", PoliteBytes(crawler.engine_.pool().ExportPoliteness())},
      {"tracker", TrackerBytes(crawler.tracker_)},
      {"pending", CheckpointIo::Pending(crawler)},
      {"failure", CheckpointIo::Failure(crawler)},
      {"defense", CheckpointIo::Defense(crawler)}};
  if (options.module_traffic) {
    sections.push_back(
        {"traffic", TrafficBytes(crawler.engine_.pool().AggregateTraffic())});
  }
  if (options.include_web) {
    auto web = WebBytes(*crawler.web_, simweb::SaveWeb);
    if (!web.ok()) return web.status();
    sections.push_back({"web", std::move(web).value()});
  }
  return WriteContainer(kIncrementalKind, sections, out);
}

Status LoadCrawler(std::istream& in, IncrementalCrawler* crawler) {
  auto container = ReadCrawlerContainer(in, kIncrementalKind);
  if (!container.ok()) return container.status();
  const std::vector<CheckpointSection>& sections = container->sections;
  Status st = RequireSections(
      sections, {"meta", "collection", "allurls", "update", "frontier",
                 "polite", "tracker", "pending", "failure", "defense"});
  if (!st.ok()) return st;
  auto stream = [&](const char* name) {
    return std::istringstream(*FindSection(sections, name));
  };

  // --- Parse every section into staging state; nothing in `crawler`
  // (or its web) is touched until the whole checkpoint has verified.
  const uint64_t sites = SiteLimit(crawler->web_);
  const int shards = crawler->engine_.num_shards();
  auto meta = CheckpointIo::ParseIncMeta(*FindSection(sections, "meta"));
  if (!meta.ok()) return meta.status();
  std::istringstream coll_in = stream("collection");
  auto collection = ReadCollection<ShardedCollection>(coll_in, sites, shards);
  if (!collection.ok()) return collection.status();
  if (collection->capacity() != crawler->config_.collection_capacity) {
    return Status::InvalidArgument(
        "checkpoint collection capacity does not match the configured "
        "capacity");
  }
  std::istringstream urls_in = stream("allurls");
  auto all_urls = ReadAllUrls(urls_in, shards, sites);
  if (!all_urls.ok()) return all_urls.status();
  UpdateModule update(crawler->update_module_.config());
  std::istringstream update_in = stream("update");
  st = UpdateModuleIo::Load(update_in, sites, &update);
  if (!st.ok()) return st;
  std::istringstream frontier_in = stream("frontier");
  auto frontier = ReadFrontier(frontier_in, shards, sites);
  if (!frontier.ok()) return frontier.status();
  auto polite = ReadPolite(*FindSection(sections, "polite"), sites);
  if (!polite.ok()) return polite.status();
  freshness::FreshnessTracker tracker;
  st = ReadTracker(*FindSection(sections, "tracker"), &tracker);
  if (!st.ok()) return st;
  auto pending = ReadUrlList(*FindSection(sections, "pending"), sites);
  if (!pending.ok()) return pending.status();
  auto failure = ReadFailure(*FindSection(sections, "failure"), sites);
  if (!failure.ok()) return failure.status();
  auto defense = ReadDefense(*FindSection(sections, "defense"), sites);
  if (!defense.ok()) return defense.status();
  // Traffic is optional: checkpoints written without module_traffic
  // restore with accounting restarted from zero.
  std::optional<CrawlModulePool::Traffic> traffic;
  if (const std::string* t = FindSection(sections, "traffic")) {
    auto parsed = ReadTraffic(*t);
    if (!parsed.ok()) return parsed.status();
    traffic = std::move(parsed).value();
  }

  // The web restore stages and validates internally, so a bad web
  // section fails here with the crawler still untouched.
  if (FindSection(sections, "web") != nullptr) {
    std::istringstream web_in = stream("web");
    st = simweb::RestoreWeb(web_in, crawler->web_);
    if (!st.ok()) return st;
  }

  // --- Commit. Nothing below can fail. The collection and AllUrls
  // copy *into* the crawler's live stores (ReplaceEntriesFrom) instead
  // of move-assigning the staging objects, so a paged backend keeps
  // its page files and cache.
  crawler->collection_.ReplaceEntriesFrom(*collection);
  crawler->all_urls_.ReplaceEntriesFrom(*all_urls);
  crawler->update_module_ = std::move(update);
  crawler->coll_urls_ = std::move(frontier).value();
  crawler->engine_.pool().RestorePoliteness(*polite);
  crawler->tracker_ = std::move(tracker);
  CheckpointIo::ApplyPending(*pending, crawler);
  CheckpointIo::ApplyFailure(*failure, crawler);
  CheckpointIo::ApplyDefense(*defense, crawler);
  if (traffic.has_value()) {
    crawler->engine_.pool().RestoreTraffic(*traffic);
  }
  CheckpointIo::ApplyIncMeta(*meta, crawler);
  if (crawler->delta_tracking_) {
    // The move-assignments above wiped the staging objects' (absent)
    // tracking state into the live ones; re-arm it, then drop the
    // marks the wholesale replace just made — the restored state *is*
    // the new baseline, and the next checkpoint rebases anyway.
    crawler->EnableDeltaTracking();
    CheckpointIo::ClearDirty(crawler);
    crawler->base_written_ = false;
  }
  // The published-view history describes the *pre-restore* state:
  // retire it (readers' held references stay valid) and republish a
  // view of the restored state so Acquire never serves stale rows.
  crawler->engine_.views().Clear();
  if (crawler->config_.publish_view_every_batches > 0) {
    crawler->PublishViewNow();
  }
  return Status::Ok();
}

Status SaveCrawler(const PeriodicCrawler& crawler, std::ostream& out,
                   const CrawlerCheckpointOptions& options) {
  if (!crawler.engine_.quiescent()) {
    return Status::FailedPrecondition(
        "checkpoint requires a quiesced engine (batch boundary)");
  }
  std::string meta;
  {
    const PeriodicCrawler::Stats& s = crawler.stats_;
    RecordWriter w(&meta);
    w.Begin(kPerMetaMagic).Put(kPerMetaVersion);
    w.End();
    w.Begin("T").Put(crawler.now_, crawler.cycle_start_, crawler.next_sample_);
    w.End();
    w.Begin("B").Put(crawler.batches_completed_, crawler.cycle_active_,
                     crawler.cycles_completed_, crawler.stored_this_cycle_,
                     crawler.store_.swap_count(), crawler.config_.shadowing);
    w.End();
    w.Begin("C").Put(s.crawls, s.pages_stored, s.dead_fetches,
                     s.politeness_rejections, s.swaps, s.fetch_failures,
                     s.transient_errors, s.timeout_errors,
                     s.failure_retries, s.failures_dropped);
    w.End();
    w.Finish();
  }
  std::vector<CheckpointSection> sections;
  sections.push_back({"meta", std::move(meta)});
  sections.push_back(
      {"collection-current", CollectionBytes(crawler.config_.shadowing
                                                 ? crawler.store_.current()
                                                 : crawler.inplace_)});
  if (crawler.config_.shadowing) {
    sections.push_back(
        {"collection-shadow", CollectionBytes(crawler.store_.shadow())});
  }
  sections.push_back({"bfs", UrlListBytes(std::vector<simweb::Url>(
                                 crawler.frontier_.begin(),
                                 crawler.frontier_.end()))});
  {
    std::vector<simweb::Url> seen;
    for (const auto& shard : crawler.seen_shards_) {
      seen.insert(seen.end(), shard.begin(), shard.end());
    }
    std::sort(seen.begin(), seen.end(), IdentityLess);
    sections.push_back({"seen", UrlListBytes(seen)});
  }
  sections.push_back(
      {"polite", PoliteBytes(crawler.engine_.pool().ExportPoliteness())});
  sections.push_back({"tracker", TrackerBytes(crawler.tracker_)});
  {
    // The cycle's bounded-requeue ledger; sites are unused here (the
    // periodic crawler has no backoff lanes) but the section format is
    // shared with the incremental crawler.
    FailureSnapshot snap;
    for (const auto& [url, count] : crawler.requeue_counts_) {
      snap.urls.push_back(UrlFailureRecord{url, count});
    }
    sections.push_back({"failure", FailureBytes(std::move(snap))});
  }
  if (options.module_traffic) {
    sections.push_back(
        {"traffic", TrafficBytes(crawler.engine_.pool().AggregateTraffic())});
  }
  if (options.include_web) {
    auto web = WebBytes(*crawler.web_, simweb::SaveWeb);
    if (!web.ok()) return web.status();
    sections.push_back({"web", std::move(web).value()});
  }
  return WriteContainer(kPeriodicKind, sections, out);
}

Status LoadCrawler(std::istream& in, PeriodicCrawler* crawler) {
  auto container = ReadCrawlerContainer(in, kPeriodicKind);
  if (!container.ok()) return container.status();
  const std::vector<CheckpointSection>& sections = container->sections;
  Status st = RequireSections(sections, {"meta", "collection-current", "bfs",
                                         "seen", "polite", "tracker",
                                         "failure"});
  if (!st.ok()) return st;
  auto stream = [&](const char* name) {
    return std::istringstream(*FindSection(sections, name));
  };
  const uint64_t sites = SiteLimit(crawler->web_);

  double now = 0.0, cycle_start = 0.0, next_sample = 0.0;
  uint64_t batches_completed = 0, stored_this_cycle = 0;
  bool cycle_active = false, shadowing = false;
  int64_t cycles_completed = 0, swap_count = 0;
  PeriodicCrawler::Stats stats;
  {
    std::istringstream meta_in = stream("meta");
    RecordReader r(meta_in, "checkpoint meta");
    st = r.ReadHeader(kPerMetaMagic, kPerMetaVersion);
    if (st.ok()) {
      st = r.ReadRecords(1, "T", [&](RecordCursor& c) {
        c.Get(&now, &cycle_start, &next_sample);
      });
    }
    if (st.ok()) {
      st = r.ReadRecords(1, "B", [&](RecordCursor& c) {
        c.Get(&batches_completed, &cycle_active, &cycles_completed,
              &stored_this_cycle, &swap_count, &shadowing);
      });
    }
    if (st.ok()) {
      st = r.ReadRecords(1, "C", [&](RecordCursor& c) {
        c.Get(&stats.crawls, &stats.pages_stored, &stats.dead_fetches,
              &stats.politeness_rejections, &stats.swaps,
              &stats.fetch_failures, &stats.transient_errors,
              &stats.timeout_errors, &stats.failure_retries,
              &stats.failures_dropped);
      });
    }
    if (st.ok()) st = r.Finish();
    if (!st.ok()) return st;
  }
  if (shadowing != crawler->config_.shadowing) {
    return Status::InvalidArgument(
        "checkpoint shadowing mode does not match the configuration");
  }

  std::istringstream current_in = stream("collection-current");
  auto current = ReadCollection<Collection>(current_in, sites, 1);
  if (!current.ok()) return current.status();
  if (current->capacity() != crawler->config_.collection_capacity) {
    return Status::InvalidArgument(
        "checkpoint collection capacity does not match the configured "
        "capacity");
  }
  StatusOr<Collection> shadow = Collection(0);
  if (crawler->config_.shadowing) {
    st = RequireSections(sections, {"collection-shadow"});
    if (!st.ok()) return st;
    std::istringstream shadow_in = stream("collection-shadow");
    shadow = ReadCollection<Collection>(shadow_in, sites, 1);
    if (!shadow.ok()) return shadow.status();
  }
  auto bfs = ReadUrlList(*FindSection(sections, "bfs"), sites);
  if (!bfs.ok()) return bfs.status();
  auto seen = ReadUrlList(*FindSection(sections, "seen"), sites);
  if (!seen.ok()) return seen.status();
  auto polite = ReadPolite(*FindSection(sections, "polite"), sites);
  if (!polite.ok()) return polite.status();
  freshness::FreshnessTracker tracker;
  st = ReadTracker(*FindSection(sections, "tracker"), &tracker);
  if (!st.ok()) return st;
  auto failure = ReadFailure(*FindSection(sections, "failure"), sites);
  if (!failure.ok()) return failure.status();
  // Optional traffic aggregate, as on the incremental crawler.
  std::optional<CrawlModulePool::Traffic> traffic;
  if (const std::string* t = FindSection(sections, "traffic")) {
    auto parsed = ReadTraffic(*t);
    if (!parsed.ok()) return parsed.status();
    traffic = std::move(parsed).value();
  }
  if (FindSection(sections, "web") != nullptr) {
    std::istringstream web_in = stream("web");
    st = simweb::RestoreWeb(web_in, crawler->web_);
    if (!st.ok()) return st;
  }

  // --- Commit. Nothing below can fail. Contents copy *into* the live
  // collections (ReplaceEntriesFrom) so a paged backend keeps its page
  // files across the restore.
  if (crawler->config_.shadowing) {
    crawler->store_.current_mutable().ReplaceEntriesFrom(*current);
    crawler->store_.shadow().ReplaceEntriesFrom(*shadow);
    crawler->store_.RestoreSwapCount(swap_count);
  } else {
    crawler->inplace_.ReplaceEntriesFrom(*current);
  }
  crawler->frontier_.assign(bfs->begin(), bfs->end());
  for (auto& shard : crawler->seen_shards_) shard.clear();
  for (const simweb::Url& url : *seen) {
    crawler->seen_shards_[url.site % crawler->seen_shards_.size()]
        .insert(url);
  }
  crawler->engine_.pool().RestorePoliteness(*polite);
  if (traffic.has_value()) {
    crawler->engine_.pool().RestoreTraffic(*traffic);
  }
  crawler->tracker_ = std::move(tracker);
  crawler->stats_ = stats;
  crawler->requeue_counts_.clear();
  for (const UrlFailureRecord& r : failure->urls) {
    crawler->requeue_counts_.emplace(r.url, r.count);
  }
  crawler->now_ = now;
  crawler->cycle_start_ = cycle_start;
  crawler->next_sample_ = next_sample;
  crawler->cycle_active_ = cycle_active;
  crawler->cycles_completed_ = cycles_completed;
  crawler->stored_this_cycle_ = stored_this_cycle;
  crawler->batches_completed_ = batches_completed;
  crawler->bootstrapped_ = true;
  // Retire the pre-restore view history and republish, as on the
  // incremental crawler.
  crawler->engine_.views().Clear();
  if (crawler->config_.publish_view_every_batches > 0) {
    crawler->PublishViewNow();
  }
  return Status::Ok();
}

Status SaveCrawlerToFile(const IncrementalCrawler& crawler,
                         const std::string& path,
                         const CrawlerCheckpointOptions& options) {
  std::ostringstream os;
  Status st = SaveCrawler(crawler, os, options);
  if (!st.ok()) return st;
  return AtomicWriteFile(path, os.str());
}

Status SaveCrawlerToFile(const PeriodicCrawler& crawler,
                         const std::string& path,
                         const CrawlerCheckpointOptions& options) {
  std::ostringstream os;
  Status st = SaveCrawler(crawler, os, options);
  if (!st.ok()) return st;
  return AtomicWriteFile(path, os.str());
}

Status LoadCrawlerFromFile(const std::string& path,
                           IncrementalCrawler* crawler) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  return LoadCrawler(in, crawler);
}

Status LoadCrawlerFromFile(const std::string& path,
                           PeriodicCrawler* crawler) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  return LoadCrawler(in, crawler);
}

Status CheckpointIncremental(IncrementalCrawler* crawler,
                             const std::string& path,
                             const CrawlerCheckpointOptions& options) {
  if (!crawler->delta_tracking_) {
    return Status::FailedPrecondition(
        "incremental checkpointing requires delta tracking (set "
        "config.checkpoint_incremental)");
  }
  if (!crawler->engine_.quiescent()) {
    return Status::FailedPrecondition(
        "checkpoint requires a quiesced engine (batch boundary)");
  }
  const std::string delta_path = path + ".deltas";
  // Rebase when there is no verified base to append to — first
  // checkpoint of this process — or when a wholesale clear happened
  // (a record delta cannot express "everything vanished").
  if (!crawler->base_written_ ||
      crawler->collection_.cleared_while_tracking()) {
    Status st = SaveCrawlerToFile(*crawler, path, options);
    if (!st.ok()) return st;
    st = storage::TruncateDeltaLog(delta_path);
    if (!st.ok()) return st;
    crawler->base_written_ = true;
    CheckpointIo::ClearDirty(crawler);
    return Status::Ok();
  }

  storage::DeltaSegment segment;
  segment.kind = kIncrementalKind;
  segment.batch = crawler->batches_completed_;
  // The cheap whole-state sections ride every segment verbatim; the
  // defense section too, since its throttle machines are tiny and the
  // fingerprint registry grows with *distinct content*, a small
  // multiple of the collection.
  segment.sections = {
      {"meta", CheckpointIo::IncMeta(*crawler)},
      {"dcoll", CheckpointIo::CollDelta(*crawler)},
      {"dallurls", CheckpointIo::AllUrlsDelta(*crawler)},
      {"dupdate", UpdateModuleIo::DeltaBytes(crawler->update_module_)},
      {"dfrontier", CheckpointIo::FrontierDelta(*crawler)},
      {"polite", PoliteBytes(crawler->engine_.pool().ExportPoliteness())},
      {"tracker", TrackerBytes(crawler->tracker_)},
      {"pending", CheckpointIo::Pending(*crawler)},
      {"failure", CheckpointIo::Failure(*crawler)},
      {"defense", CheckpointIo::Defense(*crawler)}};
  if (options.module_traffic) {
    segment.sections.push_back(
        {"traffic",
         TrafficBytes(crawler->engine_.pool().AggregateTraffic())});
  }
  if (options.include_web) {
    auto web = WebBytes(*crawler->web_, simweb::SaveWebDelta);
    if (!web.ok()) return web.status();
    segment.sections.push_back({"dweb", std::move(web).value()});
  }

  Status st = storage::AppendDeltaSegment(delta_path, segment);
  if (!st.ok()) return st;
  CheckpointIo::ClearDirty(crawler);
  return Status::Ok();
}

Status LoadCrawlerWithDeltasFromFile(const std::string& path,
                                     IncrementalCrawler* crawler) {
  Status st = LoadCrawlerFromFile(path, crawler);
  if (!st.ok()) return st;
  auto log = storage::ReadDeltaLog(path + ".deltas");
  if (!log.ok()) return log.status();
  bool applied = false;
  for (const storage::DeltaSegment& segment : log->segments) {
    if (segment.kind != kIncrementalKind) {
      return Status::InvalidArgument(
          "delta segment kind '" + segment.kind +
          "' does not match the base checkpoint");
    }
    // Idempotent replay: a segment at or before the restored batch
    // counter is already reflected in the base image (the rebase wrote
    // the base *after* sealing it) — skip it.
    if (segment.batch <= crawler->batches_completed_) continue;
    st = CheckpointIo::ApplySegment(segment, crawler);
    if (!st.ok()) {
      // ApplySegment mutates as it goes; a failure mid-segment leaves
      // the crawler unspecified. The inputs are double-checksummed
      // (the log's seal and each section's trailer), so reaching this
      // is a format bug, not routine corruption — surface it.
      return st;
    }
    applied = true;
  }
  if (applied) {
    if (crawler->delta_tracking_) {
      CheckpointIo::ClearDirty(crawler);
      crawler->base_written_ = false;
    }
    // Replays changed rows after LoadCrawler's republish: retire that
    // view and publish the final state.
    crawler->engine_.views().Clear();
    if (crawler->config_.publish_view_every_batches > 0) {
      crawler->PublishViewNow();
    }
  }
  return Status::Ok();
}

}  // namespace webevo::crawler
