#include "crawler/sharded_frontier.h"

#include <algorithm>
#include <limits>

namespace webevo::crawler {
namespace {

// The one definition of the global pop order — earliest `when`, ties
// broken by the global sequence number (the inverse of CollUrls::Later)
// — shared by the Pop/Peek tournament and the PlanSlots merge so the
// two can never drift apart and break the bit-identical contract.
bool Earlier(const CollUrls::Entry& a, const CollUrls::Entry& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

constexpr uint32_t kNoShard = ~0u;

// The one tournament-tree path replay, shared by the persistent
// Pop/Peek tree (RepairAndWinner) and PlanSlots' ephemeral MergeTree:
// re-derives the winners along leaf s's path to the root, given the
// callers' notion of which shards are live and what their heads are.
// `winner` has 2*leaves slots, node i's children are 2i and 2i+1, and
// shard s sits at leaf leaves + s.
template <typename LiveFn, typename HeadFn>
void ReplayPath(std::vector<uint32_t>& winner, std::size_t leaves,
                std::size_t s, const LiveFn& live, const HeadFn& head) {
  std::size_t node = leaves + s;
  winner[node] = live(s) ? static_cast<uint32_t>(s) : kNoShard;
  for (node /= 2; node >= 1; node /= 2) {
    uint32_t a = winner[2 * node];
    uint32_t b = winner[2 * node + 1];
    if (a == kNoShard) {
      winner[node] = b;
    } else if (b == kNoShard) {
      winner[node] = a;
    } else {
      winner[node] = Earlier(head(a), head(b)) ? a : b;
    }
    if (node == 1) break;
  }
}

// Tournament tree over the per-shard candidate lists extracted by
// PlanSlots: winner() is the list with the earliest head, advance()
// consumes that head and replays its leaf-to-root path — O(log N) per
// consumed candidate instead of a linear scan over shard heads.
class MergeTree {
 public:
  explicit MergeTree(
      const std::vector<std::vector<CollUrls::Entry>>& lists)
      : lists_(lists), next_(lists.size(), 0) {
    leaves_ = 1;
    while (leaves_ < lists.size()) leaves_ *= 2;
    winner_.assign(2 * leaves_, kNoShard);
    for (std::size_t s = 0; s < lists.size(); ++s) Replay(s);
  }

  static constexpr uint32_t kNone = kNoShard;

  /// Index of the list holding the globally earliest head, or kNone.
  uint32_t winner() const { return winner_[1]; }

  const CollUrls::Entry& head(std::size_t s) const {
    return lists_[s][next_[s]];
  }

  std::size_t cursor(std::size_t s) const { return next_[s]; }

  void advance(std::size_t s) {
    ++next_[s];
    Replay(s);
  }

 private:
  void Replay(std::size_t s) {
    ReplayPath(
        winner_, leaves_, s,
        [this](std::size_t i) { return next_[i] < lists_[i].size(); },
        [this](std::size_t i) -> const CollUrls::Entry& {
          return head(i);
        });
  }

  const std::vector<std::vector<CollUrls::Entry>>& lists_;
  std::vector<std::size_t> next_;
  std::size_t leaves_ = 1;
  std::vector<uint32_t> winner_;
};

}  // namespace

ShardedFrontier::ShardedFrontier(int num_shards)
    : shards_(static_cast<std::size_t>(std::max(1, num_shards))) {
  leaves_ = 1;
  while (leaves_ < shards_.size()) leaves_ *= 2;
  winner_.assign(2 * leaves_, kNoShard);
  head_.resize(shards_.size());
  head_live_.assign(shards_.size(), 0);
  head_dirty_.assign(shards_.size(), 1);
}

void ShardedFrontier::Schedule(const simweb::Url& url, double when) {
  ScheduleLane(ShardOf(url.site), url, when, next_seq_++);
}

void ShardedFrontier::ScheduleFront(const simweb::Url& url) {
  // Identical arithmetic to CollUrls::ScheduleFront, with the offset
  // global to the frontier so front-inserts stay FIFO across shards.
  front_when_ += 1e-6;
  const std::size_t s = ShardOf(url.site);
  shards_[s].ScheduleAt(url, CollUrls::kFrontBase + front_when_,
                        next_seq_++);
  head_dirty_[s] = 1;
}

Status ShardedFrontier::Remove(const simweb::Url& url) {
  const std::size_t s = ShardOf(url.site);
  Status st = shards_[s].Remove(url);
  if (st.ok()) head_dirty_[s] = 1;
  return st;
}

Status ShardedFrontier::RemoveIfSeq(const simweb::Url& url,
                                    uint64_t seq) {
  const std::size_t s = ShardOf(url.site);
  Status st = shards_[s].RemoveIfSeq(url, seq);
  if (st.ok()) head_dirty_[s] = 1;
  return st;
}

std::size_t ShardedFrontier::RepairAndWinner() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!head_dirty_[s]) continue;
    head_dirty_[s] = 0;
    auto head = shards_[s].PeekEntry();
    head_live_[s] = head.has_value() ? 1 : 0;
    if (head.has_value()) head_[s] = *head;
    ReplayPath(
        winner_, leaves_, s,
        [this](std::size_t i) { return head_live_[i] != 0; },
        [this](std::size_t i) -> const CollUrls::Entry& {
          return head_[i];
        });
  }
  uint32_t w = winner_[1];
  return w == kNoShard ? shards_.size() : static_cast<std::size_t>(w);
}

std::optional<ScheduledUrl> ShardedFrontier::Pop() {
  const std::size_t w = RepairAndWinner();
  if (w == shards_.size()) return std::nullopt;
  auto popped = shards_[w].PopEntry();
  head_dirty_[w] = 1;
  return ScheduledUrl{popped->url, popped->when};
}

std::optional<ScheduledUrl> ShardedFrontier::Peek() {
  const std::size_t w = RepairAndWinner();
  if (w == shards_.size()) return std::nullopt;
  return ScheduledUrl{head_[w].url, head_[w].when};
}

std::size_t ShardedFrontier::size() const {
  std::size_t total = 0;
  for (const CollUrls& shard : shards_) total += shard.size();
  return total;
}

ShardedFrontier::SlotPlan ShardedFrontier::PlanSlots(double start,
                                                     double horizon,
                                                     double step,
                                                     ThreadPool* threads) {
  SlotPlan plan;
  plan.end_time = start;
  if (!(step > 0.0) || start >= horizon) return plan;

  // Each consumed candidate advances the slot clock by `step`, so a
  // batch can never hold more than this many fetches — the per-shard
  // extraction bound.
  const double cap = (horizon - start) / step + 2.0;
  const std::size_t max_slots =
      cap < 1e18 ? static_cast<std::size_t>(cap)
                 : std::numeric_limits<std::size_t>::max();

  // Stage 1: per-shard candidate extraction, shard-parallel. Each task
  // touches only its own heap, its own output vector, and its own head
  // dirty byte; the pops come out sorted by (when, seq) because each
  // shard heap is one CollUrls.
  const std::size_t num_shards = shards_.size();
  std::vector<std::vector<CollUrls::Entry>> extracted(num_shards);
  auto extract = [this, horizon, max_slots, &extracted](std::size_t s) {
    std::vector<CollUrls::Entry>& out = extracted[s];
    while (out.size() < max_slots) {
      auto head = shards_[s].PeekEntry();
      if (!head.has_value() || head->when >= horizon) break;
      out.push_back(*shards_[s].PopEntry());
    }
    if (!out.empty()) head_dirty_[s] = 1;
  };
  std::vector<std::size_t> busy;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!shards_[s].empty()) busy.push_back(s);
  }
  if (threads != nullptr) {
    threads->RunForIndices(busy, extract);
  } else {
    for (std::size_t s : busy) extract(s);
  }
  // Stage 2: deterministic tournament merge driving the slot clock —
  // the serial CollUrls plan loop, with the global (when, seq) order
  // reassembled from the shard heads in O(log N) per slot.
  double t = start;
  MergeTree merge(extracted);
  while (t < horizon) {
    const uint32_t best = merge.winner();
    if (best == MergeTree::kNone) {
      t = horizon;  // nothing scheduled before the horizon: idle to it
      break;
    }
    const CollUrls::Entry& head = merge.head(best);
    if (head.when > t) {
      t = head.when;  // idle to the next due URL (spare capacity)
      continue;
    }
    plan.slots.push_back(ScheduledUrl{head.url, t});
    plan.owner.push_back(best);
    merge.advance(best);
    t += step;  // constant crawl speed: one fetch per slot
  }
  plan.end_time = t;

  // Stage 3: restore extracted-but-unplanned candidates with their
  // original keys, so the frontier state equals "only the planned URLs
  // were popped".
  for (std::size_t s = 0; s < num_shards; ++s) {
    for (std::size_t i = merge.cursor(s); i < extracted[s].size(); ++i) {
      const CollUrls::Entry& e = extracted[s][i];
      shards_[s].ScheduleAt(e.url, e.when, e.seq);
      head_dirty_[s] = 1;
    }
  }
  return plan;
}

}  // namespace webevo::crawler
