#include "algorithms/sssp.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace relax::algorithms {
namespace {

using graph::Graph;

SsspOptions sssp_options(unsigned threads, std::uint64_t seed,
                         std::uint32_t pop_batch = 1) {
  SsspOptions opts;
  opts.num_threads = threads;
  opts.queue_factor = 4;
  opts.seed = seed;
  opts.pop_batch = pop_batch;
  return opts;
}

TEST(SyntheticWeights, SymmetricAndInRange) {
  const Graph g = graph::gnm_exact(100, 400, 3);
  const auto w = synthetic_edge_weights(g, 7, 50);
  ASSERT_EQ(w.size(), g.num_arcs());
  for (graph::Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nb = g.neighbors(u);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      const auto weight = w[g.arc_offset(u) + j];
      EXPECT_GE(weight, 1u);
      EXPECT_LE(weight, 50u);
      // Find the reverse arc and compare.
      const graph::Vertex v = nb[j];
      const auto back = g.neighbors(v);
      for (std::size_t i = 0; i < back.size(); ++i) {
        if (back[i] == u) {
          EXPECT_EQ(w[g.arc_offset(v) + i], weight);
        }
      }
    }
  }
}

TEST(Dijkstra, HandComputedPath) {
  // 0 -1- 1 -1- 2 and a direct heavy edge 0-2.
  const Graph g =
      Graph::from_edges(3, std::vector<graph::Edge>{{0, 1}, {1, 2}, {0, 2}});
  // Weights are synthesized; instead build explicit weights by matching the
  // CSR layout: we assign via a lambda over sorted adjacency.
  std::vector<std::uint32_t> w(g.num_arcs());
  auto set_w = [&](graph::Vertex a, graph::Vertex b, std::uint32_t weight) {
    const auto nb = g.neighbors(a);
    for (std::size_t j = 0; j < nb.size(); ++j)
      if (nb[j] == b) w[g.arc_offset(a) + j] = weight;
  };
  set_w(0, 1, 1);
  set_w(1, 0, 1);
  set_w(1, 2, 1);
  set_w(2, 1, 1);
  set_w(0, 2, 10);
  set_w(2, 0, 10);
  const auto dist = dijkstra(g, w, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);  // via 1, not the heavy direct edge
}

TEST(Dijkstra, UnreachableVertices) {
  const Graph g =
      Graph::from_edges(4, std::vector<graph::Edge>{{0, 1}, {2, 3}});
  const auto w = synthetic_edge_weights(g, 1, 10);
  const auto dist = dijkstra(g, w, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_NE(dist[1], kUnreachable);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(ParallelRelaxedSssp, MatchesDijkstraOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = graph::gnm(2000, 10000, seed);
    const auto w = synthetic_edge_weights(g, seed + 1, 100);
    const auto expected = dijkstra(g, w, 0);
    SsspStats stats;
    const auto dist =
        parallel_relaxed_sssp(g, w, 0, sssp_options(4, seed + 2), &stats);
    EXPECT_EQ(dist, expected) << "seed=" << seed;
    EXPECT_GE(stats.pops, stats.relaxations);
  }
}

TEST(ParallelRelaxedSssp, BatchedPopsAndReinsertsStayExact) {
  // The batched path claims up to k keys per scheduler touch and flushes
  // relaxations back as one bulk_insert run; distances must stay exact and
  // every popped key must be accounted (pops sum across batches).
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = graph::gnm(2000, 10000, seed + 40);
    const auto w = synthetic_edge_weights(g, seed + 41, 100);
    const auto expected = dijkstra(g, w, 0);
    SsspStats stats;
    const auto dist = parallel_relaxed_sssp(
        g, w, 0, sssp_options(4, seed + 42, /*pop_batch=*/8), &stats);
    EXPECT_EQ(dist, expected) << "seed=" << seed;
    EXPECT_GE(stats.pops, stats.relaxations);
    // Batching really happened: strictly fewer acquisition round trips
    // than pops (a mean batch > 1), and never more round trips than pops.
    EXPECT_GT(stats.batches, 0u);
    EXPECT_LT(stats.batches, stats.pops);
    // Every touch asks for exactly pop_batch keys, never more.
    EXPECT_LE(stats.pops, 8 * stats.batches);
  }
}

TEST(ParallelRelaxedSssp, LargeBatchMatchesDijkstra) {
  // A claim of 32 keys per touch on a graph whose frontier is often
  // smaller than 4 * 32: many claims come back short, and distances must
  // still be exact.
  const Graph g = graph::gnm(4000, 24000, 51);
  const auto w = synthetic_edge_weights(g, 52, 100);
  SsspStats stats;
  EXPECT_EQ(parallel_relaxed_sssp(g, w, 0,
                                  sssp_options(4, 53, /*pop_batch=*/32),
                                  &stats),
            dijkstra(g, w, 0));
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LE(stats.pops, 32 * stats.batches);
}

TEST(ParallelRelaxedSssp, BatchedSingleThreadMatchesDijkstra) {
  const Graph g = graph::gnm(1500, 9000, 33);
  const auto w = synthetic_edge_weights(g, 34, 50);
  EXPECT_EQ(
      parallel_relaxed_sssp(g, w, 0, sssp_options(1, 35, /*pop_batch=*/16)),
      dijkstra(g, w, 0));
}

TEST(ParallelRelaxedSssp, SingleThreadCorrect) {
  const Graph g = graph::gnm(500, 3000, 9);
  const auto w = synthetic_edge_weights(g, 11, 20);
  EXPECT_EQ(parallel_relaxed_sssp(g, w, 0, sssp_options(1, 13)),
            dijkstra(g, w, 0));
}

TEST(ParallelRelaxedSssp, ManyThreadsCorrect) {
  const Graph g = graph::gnm(3000, 30000, 15);
  const auto w = synthetic_edge_weights(g, 17, 1000);
  EXPECT_EQ(parallel_relaxed_sssp(g, w, 0, sssp_options(8, 19)),
            dijkstra(g, w, 0));
}

TEST(ParallelRelaxedSssp, DifferentSourcesAgree) {
  const Graph g = graph::gnm(1000, 8000, 21);
  const auto w = synthetic_edge_weights(g, 23, 100);
  for (const graph::Vertex src : {0u, 500u, 999u}) {
    EXPECT_EQ(parallel_relaxed_sssp(g, w, src, sssp_options(4, 25)),
              dijkstra(g, w, src));
  }
}

TEST(ParallelRelaxedSssp, PathGraphWorstCaseForRelaxation) {
  // A long path forces essentially sequential propagation; correctness must
  // hold even when the relaxed queue serves vertices far out of order.
  const Graph g = graph::path(5000);
  const auto w = synthetic_edge_weights(g, 27, 10);
  EXPECT_EQ(parallel_relaxed_sssp(g, w, 0, sssp_options(8, 29)),
            dijkstra(g, w, 0));
}

}  // namespace
}  // namespace relax::algorithms
