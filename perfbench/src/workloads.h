// The three benchmark workloads. Each fills a Report with its metrics
// (end-to-end ones when untraced, per-layer ones when traced), counts the
// operations it attempted and the ones that failed, and clears
// Report::correct on any wrong output.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.h"
#include "measure.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;      // measurement window
  bool trace = false;         // traced run: per-layer metrics
  std::string trace_path;     // where the traced run writes its spans
  std::uint16_t port = 0;     // server-mix: the relax_server under test
  int client_cpu = -1;        // server-mix: CPU for the client's socket
                              // threads (-1 = unpinned)
};

void run_framework_large(const Options& opt, Report& report);
void run_sssp_batched(const Options& opt, Report& report);
void run_server_mix(const Options& opt, Report& report);

/// Ends a traced run: reports trace.spans and the spans' self time per
/// layer, and writes the spans to opt.trace_path.
void finish_trace(const Spans& spans, const Options& opt, Report& report);

/// Derives the i-th independent seed of a run from the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i);

/// Peak resident set of this process so far (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib();

/// CSR footprint computed from the array sizes: (n + 1) offsets of 8 bytes
/// plus one 4-byte target per directed arc, in MiB.
[[nodiscard]] double csr_mib(const relax::graph::Graph& g);

}  // namespace perfbench
