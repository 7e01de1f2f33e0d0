#ifndef WEBEVO_CRAWLER_EVAL_H_
#define WEBEVO_CRAWLER_EVAL_H_

#include <cstddef>

#include "crawler/collection.h"
#include "crawler/sharded_collection.h"
#include "simweb/simulated_web.h"
#include "util/thread_pool.h"

namespace webevo::crawler {

/// Oracle-measured quality of a collection at one instant.
struct CollectionQuality {
  /// Fraction of entries that are up-to-date (page alive and unchanged
  /// since the stored version) — the paper's freshness metric. 0 for an
  /// empty collection.
  double freshness = 0.0;
  /// Mean age of the *stale* entries' staleness in days, measured from
  /// each page's most recent change (a lower bound on the [CGM99b] age,
  /// which counts from the first unseen change). 0 if nothing is stale.
  double mean_stale_age_days = 0.0;
  std::size_t size = 0;
  std::size_t fresh = 0;
  std::size_t dead = 0;  ///< entries whose page no longer exists
};

/// Measures `collection` against ground truth at time `t`. Uses the
/// oracle API only — no crawl traffic is generated.
///
/// Accumulation is *canonical*: entries are grouped by site, ordered by
/// (slot, incarnation) within each site, and per-site partial sums are
/// reduced in ascending site order. The canonical order makes the
/// floating-point sums independent of hash-map iteration order and of
/// how the work is split, so the serial and sharded measurements below
/// are bit-identical to each other at every shard count.
CollectionQuality MeasureCollection(simweb::SimulatedWeb& web,
                                    const Collection& collection, double t);
CollectionQuality MeasureCollection(simweb::SimulatedWeb& web,
                                    const ShardedCollection& collection,
                                    double t);

/// MeasureCollection with the per-site oracle walks fanned out over
/// `threads`, sites partitioned site % num_shards (the engine's shard
/// ownership, so each site's lazy page evolution is advanced by exactly
/// one worker). Integer counts and the canonical reduction order make
/// the result bit-identical to the serial MeasureCollection.
CollectionQuality MeasureCollectionSharded(simweb::SimulatedWeb& web,
                                           const Collection& collection,
                                           double t, ThreadPool& threads,
                                           int num_shards);
CollectionQuality MeasureCollectionSharded(
    simweb::SimulatedWeb& web, const ShardedCollection& collection,
    double t, ThreadPool& threads, int num_shards);

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_EVAL_H_
