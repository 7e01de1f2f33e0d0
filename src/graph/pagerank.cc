#include "graph/pagerank.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace webevo::graph {

StatusOr<PageRankResult> ComputePageRank(const LinkGraph& graph,
                                         const PageRankOptions& options) {
  if (!graph.finalized()) {
    return Status::FailedPrecondition("graph not finalized");
  }
  const NodeId n = graph.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (options.damping < 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in [0, 1)");
  }
  const double nd = static_cast<double>(n);
  const double d = options.damping;

  // One pull pass per iteration: node `to` sums base + share[v] over
  // its in-list, which is ascending by source (LinkGraph::Finalize), so
  // the terms and their order are those of a push over sources. The
  // same pass yields the residual, the next dangling mass and the next
  // shares; shares are double-buffered because any node may read any
  // other's, while rank[to] is read only by `to` and updates in place.
  PageRankResult result;
  std::vector<double> rank(n, 1.0);  // paper: start all PR at 1
  std::vector<double> share(n, 0.0);
  std::vector<double> next_share(n, 0.0);
  double dangling = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t deg = graph.OutDegree(v);
    if (deg == 0) {
      dangling += rank[v];
    } else {
      share[v] = d * rank[v] / static_cast<double>(deg);
    }
  }
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (!options.redistribute_dangling) dangling = 0.0;
    const double base = (1.0 - d) + d * dangling / nd;
    double residual = 0.0;
    dangling = 0.0;
    for (NodeId to = 0; to < n; ++to) {
      double acc = base;
      for (NodeId v : graph.InNeighbors(to)) acc += share[v];
      residual += std::abs(acc - rank[to]);
      rank[to] = acc;
      const uint32_t deg = graph.OutDegree(to);
      if (deg == 0) {
        dangling += acc;
      } else {
        next_share[to] = d * acc / static_cast<double>(deg);
      }
    }
    share.swap(next_share);
    result.iterations = iter + 1;
    result.residual = residual;
    if (residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.rank = std::move(rank);
  return result;
}

std::vector<NodeId> TopKByRank(const std::vector<double>& rank, size_t k) {
  std::vector<NodeId> order(rank.size());
  std::iota(order.begin(), order.end(), 0);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                    order.end(), [&rank](NodeId a, NodeId b) {
                      if (rank[a] != rank[b]) return rank[a] > rank[b];
                      return a < b;
                    });
  order.resize(k);
  return order;
}

}  // namespace webevo::graph
