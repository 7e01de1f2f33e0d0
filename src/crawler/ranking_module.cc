#include "crawler/ranking_module.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "graph/hits.h"
#include "graph/link_graph.h"
#include "graph/pagerank.h"

namespace webevo::crawler {
namespace {

constexpr simweb::UrlIdentityLess IdentityLess;

// Shared by the Collection and ShardedCollection overloads; only
// ForEach / Contains / FindMutable / size / capacity are needed. All
// iteration-order-sensitive steps (graph node numbering, edge insertion,
// score ties) run over canonically sorted URL lists, so the refinement
// outcome is a pure function of the stored state — identical for a
// sharded collection at every shard count.
template <typename CollectionT>
RefinementResult RefineImpl(const RankingModuleConfig& config,
                            const AllUrls& all_urls,
                            CollectionT& collection) {
  RefinementResult result;

  // Node universe: collection pages first, then live uncollected
  // candidates known to AllUrls — each group in canonical URL order.
  // Node id = position in `urls`: members hold [0, m), candidates
  // [m, n).
  std::vector<const CollectionEntry*> members;
  collection.ForEach(
      [&](const CollectionEntry& entry) { members.push_back(&entry); });
  std::sort(members.begin(), members.end(),
            [](const CollectionEntry* a, const CollectionEntry* b) {
              return IdentityLess(a->url, b->url);
            });
  std::vector<simweb::Url> urls;
  urls.reserve(members.size());
  for (const CollectionEntry* entry : members) urls.push_back(entry->url);
  const auto m = static_cast<graph::NodeId>(urls.size());
  all_urls.ForEach([&](const simweb::Url& url,
                       const AllUrls::UrlInfo& info) {
    if (info.dead || collection.Contains(url)) return;
    urls.push_back(url);
  });
  std::sort(urls.begin() + m, urls.end(), IdentityLess);
  const auto n = static_cast<graph::NodeId>(urls.size());

  std::unordered_map<simweb::Url, graph::NodeId, simweb::UrlHash> index;
  index.reserve(n);
  for (graph::NodeId id = 0; id < n; ++id) index.emplace(urls[id], id);

  // Edges from the link structure captured in the Collection (entries
  // are not mutated between the walk above and here). Links to URLs
  // outside the universe (e.g. dead ones) are dropped.
  graph::LinkGraph graph(n);
  for (graph::NodeId from = 0; from < m; ++from) {
    for (const simweb::Url& to : members[from]->links) {
      auto it = index.find(to);
      if (it != index.end()) {
        Status st = graph.AddEdge(from, it->second);
        (void)st;
      }
    }
  }
  graph.Finalize();
  result.graph_nodes = graph.num_nodes();
  result.graph_edges = graph.num_edges();

  // Score all nodes.
  std::vector<double> score;
  switch (config.metric) {
    case ImportanceMetric::kPageRank: {
      graph::PageRankOptions options;
      options.damping = config.damping;
      auto pr = graph::ComputePageRank(graph, options);
      if (!pr.ok()) return result;  // empty graph: nothing to refine
      score = std::move(pr->rank);
      result.iterations = pr->iterations;
      break;
    }
    case ImportanceMetric::kHitsAuthority: {
      auto hits = graph::ComputeHits(graph);
      if (!hits.ok()) return result;
      score = std::move(hits->authority);
      result.iterations = hits->iterations;
      break;
    }
    case ImportanceMetric::kInLinks: {
      score.resize(graph.num_nodes());
      for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
        score[v] = static_cast<double>(graph.InDegree(v));
      }
      break;
    }
  }

  // Write importance back into collection entries.
  for (graph::NodeId id = 0; id < m; ++id) {
    CollectionEntry* entry = collection.FindMutable(urls[id]);
    if (entry != nullptr) entry->importance = score[id];
  }

  // Pair best candidates with worst members under hysteresis. Both
  // id ranges start in canonical URL order, so std::sort makes the same
  // comparisons and moves as it would sorting the URLs themselves.
  std::vector<graph::NodeId> cands(n - m);
  std::iota(cands.begin(), cands.end(), m);
  std::sort(cands.begin(), cands.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              return score[a] > score[b];
            });
  // Free space first: while below capacity, admit the best candidates
  // outright (no victim needed).
  std::size_t free_slots = collection.capacity() - collection.size();
  std::size_t admitted = std::min(free_slots, cands.size());
  for (std::size_t i = 0; i < admitted; ++i) {
    result.admissions.push_back(urls[cands[i]]);
  }
  cands.erase(cands.begin(), cands.begin() + static_cast<long>(admitted));
  std::vector<graph::NodeId> victims(m);
  std::iota(victims.begin(), victims.end(), 0);
  std::sort(victims.begin(), victims.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              return score[a] < score[b];
            });
  std::size_t pairs =
      std::min({cands.size(), victims.size(), config.max_replacements});
  for (std::size_t i = 0; i < pairs; ++i) {
    double cand_score = score[cands[i]];
    double victim_score = score[victims[i]];
    if (cand_score <= victim_score * config.replacement_hysteresis) break;
    result.replacements.push_back(Replacement{
        urls[victims[i]], urls[cands[i]], victim_score, cand_score});
  }
  return result;
}

}  // namespace

const char* ImportanceMetricName(ImportanceMetric metric) {
  switch (metric) {
    case ImportanceMetric::kPageRank:
      return "pagerank";
    case ImportanceMetric::kHitsAuthority:
      return "hits";
    case ImportanceMetric::kInLinks:
      return "inlinks";
  }
  return "?";
}

RankingModule::RankingModule(const RankingModuleConfig& config)
    : config_(config) {}

RefinementResult RankingModule::Refine(const AllUrls& all_urls,
                                       Collection& collection) {
  ++refinement_count_;
  return RefineImpl(config_, all_urls, collection);
}

RefinementResult RankingModule::Refine(const AllUrls& all_urls,
                                       ShardedCollection& collection) {
  ++refinement_count_;
  return RefineImpl(config_, all_urls, collection);
}

}  // namespace webevo::crawler
