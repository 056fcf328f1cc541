// Steady-state timed benchmark harness over the backend registry.
//
// Every other bench in the repo is run-to-completion: one job, cold start
// to drain, so each measurement mixes allocator warmup with end-of-run
// starvation. This harness measures what a production relaxed scheduler
// actually serves — sustained mixed traffic at steady state — in the style
// of the multiqueue throughput harness (KvGeijer/multiqueue
// benchmark/throughput.cpp):
//
//   1. prefill   ~1M keys are inserted before any clock starts, so the
//                working phase never observes an empty or tiny structure;
//   2. timed     every thread hammers insert/delete ops per its
//      window     InsertPolicy role for a fixed wall-clock window; ops are
//                counted per thread (padded counters, no sharing) and
//                throughput is ops completed / window — the drain phase is
//                never measured because there is no drain phase;
//   3. median    the window is repeated `runs` times on a fresh backend
//      of N      and the median-throughput run is reported, which is what
//                makes the numbers stable enough for a *binding* CI perf
//                gate (tools/bench_diff.py --fail) where single-shot
//                run-to-completion cells only ever earned ::warning.
//
// Key streams come from sched/key_distribution.h (Uniform / Dijkstra /
// Ascending / Descending); thread roles from InsertPolicy (Uniform / Split
// / Producer / Alternating). Both scheduler sides batch pop_batch keys per
// touch, the same fixed batch the CLIs take.
//
// Quality: an optional companion pass re-runs the same traffic serialized
// through a RelaxationMonitor (one mutex, exact order-statistics mirror
// sized to the key universe) and reports Definition 1 rank-error
// percentiles — throughput from that pass is meaningless and discarded,
// exactly like bench/backend_matrix's monitored companion runs.
//
// Tail latency rides the PR 6 obs layer: a 1-in-64 sample of scheduler
// touches is timed into per-thread obs::Histograms and reported as
// op_p99_us.
//
// The timed pass also supports topology-aware placement (SteadyConfig::
// numa — same off | auto | virtual:K vocabulary as the CLIs) and records
// a throughput-over-time profile (SteadyCell::buckets, ops per 100 ms) so
// "steady" is checkable, not assumed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/backend_registry.h"
#include "sched/key_distribution.h"
#include "util/topology.h"

namespace relax::bench {

/// One steady-state cell request. Defaults mirror the classic throughput
/// harness: 1M prefill, 1s window, median of 3.
struct SteadyConfig {
  const sched::BackendInfo* backend = nullptr;  // required
  unsigned threads = 4;
  sched::InsertPolicy policy = sched::InsertPolicy::kUniform;
  sched::KeyDistribution distribution = sched::KeyDistribution::kUniform;
  std::uint32_t pop_batch = 1;
  std::size_t prefill = 1'000'000;
  double working_seconds = 1.0;
  unsigned runs = 3;
  /// Priority universe [0, key_universe): bounds the exact rank mirror
  /// (Fenwick tree of key_universe counts) and the sim backends' capacity.
  std::uint32_t key_universe = 1u << 22;
  std::uint64_t seed = 1;
  std::uint32_t queue_factor = 4;
  bool quality = true;            // run the monitored companion pass
  std::uint32_t monitor_stride = 64;  // inversion-tracking stride
  /// Topology placement for the timed pass (off | auto | virtual:K): the
  /// backend is striped per domain and every thread's handle carries its
  /// domain, exactly as the engine places pool workers (util/topology.h).
  /// The monitored companion pass stays flat — it serializes through one
  /// lock, so placement would measure nothing.
  util::TopologySpec numa;
};

/// One reported cell: the median-of-N timed run plus the companion pass's
/// rank percentiles. Quality fields are < 0 (max_rank 0) when not measured.
struct SteadyCell {
  std::string backend;
  unsigned threads = 0;
  sched::InsertPolicy policy = sched::InsertPolicy::kUniform;
  sched::KeyDistribution distribution = sched::KeyDistribution::kUniform;
  std::uint32_t pop_batch = 1;
  std::string numa;  // topology spec label: off | auto | virtual:K
  unsigned runs = 0;

  double seconds = 0.0;       // the median run's measured window
  std::uint64_t ops = 0;      // inserts + successful deletes, median run
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t empty_pops = 0;  // observed-empty delete touches
  double ops_per_s = 0.0;        // median over the N runs
  double op_p99_us = -1.0;       // sampled per-touch latency tail
  /// Throughput over time: completed ops per 100 ms bucket across the
  /// median run's window (all threads summed). A steady backend shows a
  /// flat profile; ramp-up stalls or mid-window collapses — invisible in
  /// the single ops_per_s aggregate — show up as bucket dips. Attribution
  /// rides the existing 1-in-64 sampled clock reads, so the buckets cost
  /// the hot loop nothing extra.
  std::vector<std::uint64_t> buckets;

  double mean_rank = -1.0;
  double rank_p50 = -1.0;
  double rank_p90 = -1.0;
  double rank_p99 = -1.0;
  std::uint64_t max_rank = 0;
};

/// Runs cfg.runs timed windows (fresh backend each) plus the optional
/// monitored pass, and returns the assembled cell. cfg.backend must name a
/// registry backend.
[[nodiscard]] SteadyCell run_steady_cell(const SteadyConfig& cfg);

/// Appends one JSON object for `cell` (no trailing comma/newline) to
/// `out`: the bench_diff row schema — workload "steady", the
/// backend/threads/pop_batch keys backend_matrix already emits, extended
/// with policy / distribution / runs and the steady-state measurements.
void append_json_row(std::string& out, const SteadyCell& cell);

}  // namespace relax::bench
