// Single-Source Shortest Paths via a relaxed scheduler.
//
// Dijkstra's algorithm is the paper's canonical *motivating* example for
// relaxed scheduling (§1): popping vertices out of order never breaks
// correctness because tentative distances converge monotonically to the
// true distances; the price is wasted work on stale pops. SSSP is NOT in
// the paper's deterministic framework class (the priority order must follow
// distances, so pi cannot be a uniformly random permutation — §2.2), which
// is why it lives here as a standalone algorithm and example rather than a
// Problem adapter.
//
// Edge weights are synthesized deterministically from (edge, seed) since
// graph::Graph is unweighted.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/topology.h"

namespace relax::algorithms {

inline constexpr std::uint32_t kUnreachable = ~0u;

/// Per-arc weights aligned with the CSR arc array; symmetric (both
/// directions of an undirected edge carry the same weight in [1, max_w]).
std::vector<std::uint32_t> synthetic_edge_weights(const graph::Graph& g,
                                                  std::uint64_t seed,
                                                  std::uint32_t max_w = 100);

/// Reference Dijkstra (exact binary-heap scheduler). Returns distances.
std::vector<std::uint32_t> dijkstra(const graph::Graph& g,
                                    const std::vector<std::uint32_t>& weights,
                                    graph::Vertex source);

struct SsspStats {
  std::uint64_t pops = 0;
  std::uint64_t stale_pops = 0;  // wasted work due to relaxation/concurrency
  std::uint64_t relaxations = 0;
  std::uint64_t batches = 0;  // scheduler acquisition round trips
  double seconds = 0.0;
};

/// Knobs for parallel_relaxed_sssp, mirroring the relevant slice of
/// core::ParallelOptions (SSSP lives outside the framework's Problem layer,
/// so it keeps its own struct instead of dragging the engine headers in).
struct SsspOptions {
  unsigned num_threads = 0;      // 0 = hardware concurrency
  unsigned queue_factor = 4;     // MultiQueue sub-queues per thread
  std::uint64_t seed = 1;        // scheduler + weight randomness
  std::uint32_t pop_batch = 1;   // keys claimed per scheduler touch
  /// Topology placement (--numa): off = flat, auto = sysfs sockets (flat
  /// fallback), virtual:K = synthetic domains. Threads pin in socket-fill
  /// order and the MultiQueue is striped per domain, exactly like the
  /// engine executors (util/topology.h, sched/stripe_map.h).
  util::TopologySpec topology;
};

/// Multi-threaded label-correcting SSSP over a relaxed concurrent
/// MultiQueue ((distance, vertex) packed into 64-bit keys). Produces exact
/// distances (monotone convergence); stats report the relaxation overhead.
///
/// pop_batch > 1 batches BOTH scheduler sides, exactly like the framework
/// executors (engine/job.h): up to pop_batch keys are claimed per
/// approx_get_min_batch round trip, and the successful relaxations they
/// generate are re-inserted as one bulk_insert run. Label correction is
/// insensitive to the extra relaxation (distances converge monotonically
/// for any pop order); the price is more stale pops, which stats make
/// visible next to the throughput gain.
std::vector<std::uint32_t> parallel_relaxed_sssp(
    const graph::Graph& g, const std::vector<std::uint32_t>& weights,
    graph::Vertex source, const SsspOptions& options,
    SsspStats* stats = nullptr);

}  // namespace relax::algorithms
