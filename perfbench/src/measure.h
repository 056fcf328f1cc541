// Pure measurement logic shared by the workloads: percentile selection,
// open-loop latency arithmetic, the rate-ladder search, and the metric
// record run.py prints. Nothing here touches clocks, threads or
// sockets, so logic_test.cc covers every rule directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A sample that never completed in time (BUSY, error, drop): it sorts
/// above every real latency, so it always counts as missing a limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile of an ascending-sorted sample set; q in [0, 1].
/// Returns 0 for an empty set.
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted, double q);

/// The percentile actually reported for a requested tail: the highest
/// nearest-rank percentile <= `want` that still has at least `min_beyond`
/// samples strictly above its rank. `valid` is false when the set is too
/// small for any such percentile (fewer than min_beyond + 1 samples).
struct Tail {
  double q = 0.0;       // percentile reported, in [0, 1]
  double value = 0.0;   // latency at that percentile
  std::size_t samples = 0;
  bool valid = false;
};
[[nodiscard]] Tail tail_percentile(const std::vector<double>& sorted,
                                   double want, std::size_t min_beyond = 10);

/// Open-loop timing. Offsets are seconds from the phase start; a request
/// is due at `due_s`, handed to the socket at `sent_s` and answered at
/// `done_s`. Latency runs from the due time, so a stalled sender charges
/// its stall to every request it delayed; lag is how late the generator
/// ran. Both are returned in milliseconds.
[[nodiscard]] inline double due_latency_ms(double due_s, double done_s) {
  return (done_s - due_s) * 1e3;
}
[[nodiscard]] inline double generator_lag_ms(double due_s, double sent_s) {
  return sent_s > due_s ? (sent_s - due_s) * 1e3 : 0.0;
}

/// Summary of one fixed-rate phase. `latency_ms` holds one entry per
/// attempted request (kMissed for BUSY / error / drop) so that failures
/// count against every percentile.
struct PhaseResult {
  std::vector<double> latency_ms;  // due -> done, ascending after finish()
  std::vector<double> lag_ms;      // due -> sent, ascending after finish()
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
  std::uint64_t drops = 0;
  std::uint64_t wrong = 0;  // OK responses whose result disagreed
  double early_p50_ms = 0.0;  // median latency, first third of the window
  double late_p50_ms = 0.0;   // median latency, last third of the window
  /// Median of the p50s of kChunks consecutive arrival-order chunks: a
  /// stall that hits one part of the window moves one chunk, not the value.
  double chunked_p50_ms = 0.0;
  static constexpr std::size_t kChunks = 5;
  void finish();              // sorts the sample vectors
  [[nodiscard]] std::uint64_t attempted() const {
    return ok + busy + errors + drops;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return busy + errors + drops + wrong;
  }
};

/// The rate-ladder rule: a rate is sustained when every request got a
/// correct OK answer, the p99 (from due time) is within `limit_ms`, and
/// latency did not climb across the window (no growing backlog: the last
/// third's median stays within a quarter of the limit of the first
/// third's).
[[nodiscard]] bool sustained(const PhaseResult& phase, double limit_ms);

/// Searches for the highest sustained rate with `probes` trials: climb
/// geometrically from `start` (x growth) until a rate fails, then bisect
/// between the last passing and first failing rates with the remaining
/// trials; a failing start halves instead. Returns the highest passing
/// rate seen (0 when none passed).
struct LadderResult {
  double max_rate = 0.0;
  std::vector<std::pair<double, bool>> trials;  // (rate, passed), in order
};
[[nodiscard]] LadderResult ladder_search(
    double start, unsigned probes, double growth,
    const std::function<bool(double)>& passes);

/// Metric names follow the benchmark contract: a letter or digit first,
/// then at most 63 more of [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Ordered metric record printed by the benchmark binary as one JSON line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  // one-line facts printed with the result
  /// {"correct":..,"attempted":..,"failed":..,"notes":[..],"metrics":{..}}
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, Metric> metrics_;
};

/// Median of an unsorted sample set (0 for an empty set).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
