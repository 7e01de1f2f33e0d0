#include "crawler/eval.h"

#include <algorithm>
#include <numeric>
#include <vector>

namespace webevo::crawler {
namespace {

// Per-site accumulator; doubles are summed in (slot, incarnation) order
// within the site, so a site's partial is a pure function of its
// entries regardless of threading.
struct SitePartial {
  std::size_t fresh = 0;
  std::size_t dead = 0;
  std::size_t stale_with_age = 0;
  double stale_age_sum = 0.0;
};

void MeasureSite(simweb::SimulatedWeb& web,
                 std::vector<const CollectionEntry*>& entries, double t,
                 SitePartial& partial) {
  std::sort(entries.begin(), entries.end(),
            [](const CollectionEntry* a, const CollectionEntry* b) {
              if (a->url.slot != b->url.slot) return a->url.slot < b->url.slot;
              return a->url.incarnation < b->url.incarnation;
            });
  for (const CollectionEntry* entry : entries) {
    auto version = web.OracleVersion(entry->url, t);
    if (!version.ok()) {
      ++partial.dead;  // a dead page can never be fresh
      continue;
    }
    if (*version == entry->version) {
      ++partial.fresh;
      continue;
    }
    auto changed_at = web.OracleLastChangeTime(entry->url, t);
    if (changed_at.ok()) {
      partial.stale_age_sum += t - *changed_at;
      ++partial.stale_with_age;
    }
  }
}

// Works for Collection and ShardedCollection alike: only size() and an
// (order-insensitive) ForEach are needed, since entries are re-bucketed
// by site before any order-dependent accumulation happens. One code
// path for the serial and pool-parallel measurements, so they can never
// drift apart.
template <typename CollectionT>
CollectionQuality MeasureImpl(simweb::SimulatedWeb& web,
                              const CollectionT& collection, double t,
                              ThreadPool* threads, int num_shards) {
  const auto shards = static_cast<std::size_t>(std::max(1, num_shards));
  // Bucket entries by site (cheap pointer shuffling; the oracle walks
  // are the expensive part).
  std::vector<std::vector<const CollectionEntry*>> by_site(web.num_sites());
  std::size_t foreign = 0;  // entries from outside this web: never fresh
  collection.ForEach([&](const CollectionEntry& entry) {
    if (entry.url.site < by_site.size()) {
      by_site[entry.url.site].push_back(&entry);
    } else {
      ++foreign;
    }
  });

  // Shard s walks the sites ≡ s (mod shards) — the engine's ownership,
  // so each site's lazy page evolution is advanced by exactly one
  // worker — and writes only those sites' partials.
  std::vector<SitePartial> partials(by_site.size());
  auto walk_shard = [&](std::size_t shard) {
    for (std::size_t site = shard; site < by_site.size(); site += shards) {
      if (by_site[site].empty()) continue;
      MeasureSite(web, by_site[site], t, partials[site]);
    }
  };
  std::vector<std::size_t> all_shards(shards);
  std::iota(all_shards.begin(), all_shards.end(), std::size_t{0});
  if (threads != nullptr) {
    threads->RunForIndices(all_shards, walk_shard);
  } else {
    for (std::size_t shard : all_shards) walk_shard(shard);
  }

  // Canonical reduction: ascending site order, independent of the
  // site -> shard mapping, so every shard count sums in the same order.
  CollectionQuality q;
  q.size = collection.size();
  double stale_age_sum = 0.0;
  std::size_t stale_with_age = 0;
  q.dead += foreign;
  for (const SitePartial& partial : partials) {
    q.fresh += partial.fresh;
    q.dead += partial.dead;
    stale_age_sum += partial.stale_age_sum;
    stale_with_age += partial.stale_with_age;
  }
  if (q.size > 0) {
    q.freshness = static_cast<double>(q.fresh) / static_cast<double>(q.size);
  }
  if (stale_with_age > 0) {
    q.mean_stale_age_days =
        stale_age_sum / static_cast<double>(stale_with_age);
  }
  return q;
}

}  // namespace

CollectionQuality MeasureCollection(simweb::SimulatedWeb& web,
                                    const Collection& collection,
                                    double t) {
  return MeasureImpl(web, collection, t, nullptr, 1);
}

CollectionQuality MeasureCollection(simweb::SimulatedWeb& web,
                                    const ShardedCollection& collection,
                                    double t) {
  return MeasureImpl(web, collection, t, nullptr, 1);
}

CollectionQuality MeasureCollectionSharded(simweb::SimulatedWeb& web,
                                           const Collection& collection,
                                           double t, ThreadPool& threads,
                                           int num_shards) {
  return MeasureImpl(web, collection, t, &threads, num_shards);
}

CollectionQuality MeasureCollectionSharded(
    simweb::SimulatedWeb& web, const ShardedCollection& collection,
    double t, ThreadPool& threads, int num_shards) {
  return MeasureImpl(web, collection, t, &threads, num_shards);
}

}  // namespace webevo::crawler
