// Shared flag-handling helpers for the server-shaped front-ends
// (tools/relax_server.cc, examples/job_server.cpp, bench/server_load.cc).
//
// Every binary used to re-implement the same four chores — backend
// rotation incl. the "mix" pseudo-name, --pop-batch / --numa validation
// with the exact same error wording, and the metrics dump with its .json
// suffix sniffing. They live here once; the parse_* helpers print the
// canonical error to stderr and return nullopt/empty so callers just
// `return 2`.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "engine/job.h"
#include "obs/metrics.h"
#include "sched/backend_registry.h"
#include "util/topology.h"

namespace relax::server::cli {

/// Resolves a --backend flag into the rotation it names: a single registry
/// backend, the whole registry for "mix", or the registry default for "".
/// Unknown names print the valid set to stderr and return an empty vector.
[[nodiscard]] std::vector<const sched::BackendInfo*> resolve_backends(
    const std::string& flag);

/// Validates a --pop-batch value ("<k>", a positive integer). Invalid
/// input prints the canonical error and returns nullopt.
[[nodiscard]] std::optional<std::uint32_t> parse_pop_batch(
    const std::string& value);

/// Validates a --numa value ("off", "auto", "virtual:<K>"). Invalid input
/// prints the canonical error and returns nullopt.
[[nodiscard]] std::optional<util::TopologySpec> parse_numa(
    const std::string& value);

/// Writes the registry snapshot to `path`: '-' = stdout, a path ending in
/// .json gets JSON, anything else Prometheus text. Empty path is a no-op.
/// Returns false (with a stderr warning) when the file cannot be written.
bool dump_metrics(const obs::MetricsRegistry& registry,
                  const std::string& path);

}  // namespace relax::server::cli
