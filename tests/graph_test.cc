#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "graph/hits.h"
#include "graph/link_graph.h"
#include "graph/pagerank.h"
#include "graph/site_graph.h"
#include "simweb/simulated_web.h"
#include "util/random.h"

namespace webevo::graph {
namespace {

// --------------------------------------------------------------- LinkGraph

TEST(LinkGraphTest, EmptyGraph) {
  LinkGraph g(3);
  g.Finalize();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.OutDegree(0), 0u);
  EXPECT_EQ(g.InDegree(2), 0u);
}

TEST(LinkGraphTest, AddEdgeValidation) {
  LinkGraph g(2);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_FALSE(g.AddEdge(0, 2).ok());
  EXPECT_FALSE(g.AddEdge(2, 0).ok());
  g.Finalize();
  EXPECT_FALSE(g.AddEdge(0, 1).ok());  // frozen after finalize
}

TEST(LinkGraphTest, CsrAdjacencyBothDirections) {
  LinkGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(3, 0).ok());
  g.Finalize();
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(2), 2u);
  auto out0 = g.OutNeighbors(0);
  EXPECT_EQ(out0.size(), 2u);
  auto in2 = g.InNeighbors(2);
  EXPECT_EQ(in2.size(), 2u);
  EXPECT_EQ(g.OutNeighbors(2).size(), 0u);
  EXPECT_EQ(g.InNeighbors(0).size(), 1u);
  EXPECT_EQ(g.InNeighbors(0)[0], 3u);
}

TEST(LinkGraphTest, ParallelEdgesCounted) {
  LinkGraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  g.Finalize();
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(1), 2u);
}

TEST(LinkGraphTest, FinalizeIdempotent) {
  LinkGraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  g.Finalize();
  g.Finalize();
  EXPECT_EQ(g.num_edges(), 1u);
}

// ---------------------------------------------------------------- PageRank

TEST(PageRankTest, RequiresFinalizedNonEmptyGraph) {
  LinkGraph g(2);
  EXPECT_FALSE(ComputePageRank(g).ok());
  LinkGraph empty(0);
  empty.Finalize();
  EXPECT_FALSE(ComputePageRank(empty).ok());
}

TEST(PageRankTest, RejectsBadDamping) {
  LinkGraph g(1);
  g.Finalize();
  PageRankOptions options;
  options.damping = 1.0;
  EXPECT_FALSE(ComputePageRank(g, options).ok());
  options.damping = -0.1;
  EXPECT_FALSE(ComputePageRank(g, options).ok());
}

TEST(PageRankTest, RankSumsToNodeCount) {
  LinkGraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 0).ok());
  ASSERT_TRUE(g.AddEdge(3, 0).ok());
  ASSERT_TRUE(g.AddEdge(4, 0).ok());
  g.Finalize();
  auto pr = ComputePageRank(g);
  ASSERT_TRUE(pr.ok());
  EXPECT_TRUE(pr->converged);
  double sum = std::accumulate(pr->rank.begin(), pr->rank.end(), 0.0);
  EXPECT_NEAR(sum, 5.0, 1e-6);
}

TEST(PageRankTest, SymmetricCycleIsUniform) {
  const NodeId n = 6;
  LinkGraph g(n);
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_TRUE(g.AddEdge(v, (v + 1) % n).ok());
  }
  g.Finalize();
  auto pr = ComputePageRank(g);
  ASSERT_TRUE(pr.ok());
  for (NodeId v = 0; v < n; ++v) EXPECT_NEAR(pr->rank[v], 1.0, 1e-8);
}

TEST(PageRankTest, HubReceivesHighestRank) {
  // Star: everyone links to node 0.
  LinkGraph g(5);
  for (NodeId v = 1; v < 5; ++v) ASSERT_TRUE(g.AddEdge(v, 0).ok());
  g.Finalize();
  auto pr = ComputePageRank(g);
  ASSERT_TRUE(pr.ok());
  for (NodeId v = 1; v < 5; ++v) EXPECT_GT(pr->rank[0], pr->rank[v]);
}

TEST(PageRankTest, KnownTwoNodeSolution) {
  // 0 -> 1 only. With damping d and dangling redistribution, solve the
  // 2x2 system by hand and compare.
  LinkGraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  g.Finalize();
  PageRankOptions options;
  options.damping = 0.9;
  auto pr = ComputePageRank(g, options);
  ASSERT_TRUE(pr.ok());
  // r0 = 0.1 + 0.45 r1 ; r1 = 0.1 + 0.45 r1 + 0.9 r0
  // => r0 = (0.1 + 0.045/0.55) / (1 - 0.405/0.55)
  auto r1_of_r0 = [](double r0) { return (0.1 + 0.9 * r0) / 0.55; };
  double r0 = (0.1 + 0.45 * 0.1 / 0.55) / (1.0 - 0.45 * 0.9 / 0.55);
  EXPECT_NEAR(pr->rank[0], r0, 1e-6);
  EXPECT_NEAR(pr->rank[1], r1_of_r0(r0), 1e-6);
}

TEST(PageRankTest, DanglingMassPreservedWhenRedistributing) {
  LinkGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  g.Finalize();  // nodes 1, 2 dangle
  auto pr = ComputePageRank(g);
  ASSERT_TRUE(pr.ok());
  double sum = std::accumulate(pr->rank.begin(), pr->rank.end(), 0.0);
  EXPECT_NEAR(sum, 3.0, 1e-6);
}

TEST(PageRankTest, TopKByRankOrdersAndClamps) {
  std::vector<double> rank = {0.5, 2.0, 1.0, 2.0};
  auto top = TopKByRank(rank, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // tie with 3 broken by lower index
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 2u);
  EXPECT_EQ(TopKByRank(rank, 99).size(), 4u);
}

// The push-style power iteration ComputePageRank used before it became a
// fused pull pass, kept verbatim as the reference the pull pass must
// match bit for bit.
PageRankResult PushPageRank(const LinkGraph& graph,
                            const PageRankOptions& options) {
  const NodeId n = graph.num_nodes();
  const double nd = static_cast<double>(n);
  const double d = options.damping;

  PageRankResult result;
  std::vector<double> rank(n, 1.0);  // paper: start all PR at 1
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0.0;
    if (options.redistribute_dangling) {
      for (NodeId v = 0; v < n; ++v) {
        if (graph.OutDegree(v) == 0) dangling += rank[v];
      }
    }
    const double base = (1.0 - d) + d * dangling / nd;
    std::fill(next.begin(), next.end(), base);
    for (NodeId v = 0; v < n; ++v) {
      const uint32_t deg = graph.OutDegree(v);
      if (deg == 0) continue;
      const double share = d * rank[v] / static_cast<double>(deg);
      for (NodeId to : graph.OutNeighbors(v)) next[to] += share;
    }
    double residual = 0.0;
    for (NodeId v = 0; v < n; ++v) residual += std::abs(next[v] - rank[v]);
    rank.swap(next);
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

struct Edge {
  NodeId from;
  NodeId to;
};

// A seeded random multigraph: about a quarter of the nodes dangle, some
// edges are doubled or self-loops, and the edge list is shuffled so
// insertion order says nothing about source order.
std::vector<Edge> RandomEdges(Rng& rng, NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) {
    if (rng.Bernoulli(0.25)) continue;
    const uint64_t deg = 1 + rng.NextBounded(6);
    for (uint64_t k = 0; k < deg; ++k) {
      Edge e{v, static_cast<NodeId>(rng.NextBounded(n))};
      edges.push_back(e);
      if (rng.Bernoulli(0.1)) edges.push_back(e);
    }
  }
  for (size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.NextBounded(i)]);
  }
  return edges;
}

TEST(PageRankTest, PullPassMatchesPushBitForBit) {
  Rng rng(20000101);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<NodeId>(1 + rng.NextBounded(400));
    LinkGraph g(n);
    for (const Edge& e : RandomEdges(rng, n)) {
      ASSERT_TRUE(g.AddEdge(e.from, e.to).ok());
    }
    g.Finalize();
    for (bool redistribute : {true, false}) {
      for (int max_iterations : {600, 7}) {
        PageRankOptions options;
        options.damping = trial % 2 == 0 ? 0.9 : 0.85;
        options.redistribute_dangling = redistribute;
        options.max_iterations = max_iterations;
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " n " << n << " redistribute "
                     << redistribute << " max_iterations " << max_iterations);
        const PageRankResult want = PushPageRank(g, options);
        auto got = ComputePageRank(g, options);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got->iterations, want.iterations);
        EXPECT_EQ(got->converged, want.converged);
        EXPECT_EQ(std::memcmp(&got->residual, &want.residual,
                              sizeof(double)),
                  0);
        ASSERT_EQ(got->rank.size(), want.rank.size());
        EXPECT_EQ(std::memcmp(got->rank.data(), want.rank.data(),
                              n * sizeof(double)),
                  0);
      }
    }
  }
}

TEST(LinkGraphTest, InNeighborsAscendBySourceWhateverInsertionOrder) {
  Rng rng(19990217);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<NodeId>(1 + rng.NextBounded(200));
    const std::vector<Edge> edges = RandomEdges(rng, n);
    LinkGraph g(n);
    std::vector<std::vector<NodeId>> want(n);
    for (const Edge& e : edges) {
      ASSERT_TRUE(g.AddEdge(e.from, e.to).ok());
      want[e.to].push_back(e.from);
    }
    g.Finalize();
    for (NodeId v = 0; v < n; ++v) {
      std::sort(want[v].begin(), want[v].end());
      auto in = g.InNeighbors(v);
      EXPECT_EQ(std::vector<NodeId>(in.begin(), in.end()), want[v])
          << "trial " << trial << " node " << v;
    }
  }
}

// -------------------------------------------------------------------- HITS

TEST(HitsTest, RequiresFinalizedNonEmptyGraph) {
  LinkGraph g(2);
  EXPECT_FALSE(ComputeHits(g).ok());
}

TEST(HitsTest, StarAuthority) {
  LinkGraph g(5);
  for (NodeId v = 1; v < 5; ++v) ASSERT_TRUE(g.AddEdge(v, 0).ok());
  g.Finalize();
  auto hits = ComputeHits(g);
  ASSERT_TRUE(hits.ok());
  // Node 0 is the only authority; others are pure hubs.
  EXPECT_NEAR(hits->authority[0], 1.0, 1e-6);
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_NEAR(hits->authority[v], 0.0, 1e-6);
    EXPECT_NEAR(hits->hub[v], 0.5, 1e-6);  // unit L2 over 4 equal hubs
  }
}

TEST(HitsTest, ScoresAreUnitNorm) {
  LinkGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.AddEdge(3, 1).ok());
  g.Finalize();
  auto hits = ComputeHits(g);
  ASSERT_TRUE(hits.ok());
  double a = 0.0, h = 0.0;
  for (NodeId v = 0; v < 4; ++v) {
    a += hits->authority[v] * hits->authority[v];
    h += hits->hub[v] * hits->hub[v];
  }
  EXPECT_NEAR(a, 1.0, 1e-9);
  EXPECT_NEAR(h, 1.0, 1e-9);
}

// --------------------------------------------------------------- SiteGraph

TEST(SiteGraphTest, BuildsFromWebAndRanks) {
  simweb::WebConfig c;
  c.seed = 31;
  c.sites_per_domain = {8, 5, 3, 3};
  c.min_site_size = 15;
  c.max_site_size = 40;
  simweb::SimulatedWeb web(c);
  SiteGraph sg = SiteGraph::FromWeb(web, 0.0);
  EXPECT_EQ(sg.num_sites(), web.num_sites());
  EXPECT_GT(sg.graph().num_edges(), 0u);
  auto rank = sg.ComputeSiteRank();
  ASSERT_TRUE(rank.ok());
  double sum =
      std::accumulate(rank->rank.begin(), rank->rank.end(), 0.0);
  EXPECT_NEAR(sum, static_cast<double>(web.num_sites()), 1e-5);
}

TEST(SiteGraphTest, PopularSitesOutrankObscureOnes) {
  // Site popularity is Zipf by index, so low-index sites should get
  // systematically more rank mass.
  simweb::WebConfig c;
  c.seed = 32;
  c.sites_per_domain = {25, 25, 25, 25};
  c.min_site_size = 10;
  c.max_site_size = 30;
  c.cross_site_link_prob = 0.5;
  simweb::SimulatedWeb web(c);
  SiteGraph sg = SiteGraph::FromWeb(web, 0.0);
  auto rank = sg.ComputeSiteRank();
  ASSERT_TRUE(rank.ok());
  double first_decile = 0.0, last_decile = 0.0;
  uint32_t n = web.num_sites();
  for (uint32_t s = 0; s < n / 10; ++s) first_decile += rank->rank[s];
  for (uint32_t s = n - n / 10; s < n; ++s) last_decile += rank->rank[s];
  EXPECT_GT(first_decile, 2.0 * last_decile);
}

}  // namespace
}  // namespace webevo::graph
