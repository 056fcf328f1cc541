// Span recorder for the traced run: one span per call the benchmark makes
// into a layer (graph, algorithms, sched, engine, server), with name,
// start, end and parent. Spans live in memory and are written out once, as
// Chrome trace-event JSON, when the workload ends.
//
// Spans are opened and closed on the benchmark's main thread only (calls
// made from engine workers are measured by the sampling wrappers in
// timed.h instead), so the recorder needs no locking.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// RAII span. Always measures its own duration (elapsed()), and records
  /// a span only when the recorder is enabled.
  class Scope {
   public:
    Scope(Spans* owner, const char* layer, const char* name);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span (idempotent) and returns its duration in seconds.
    double close();

   private:
    Spans* owner_;
    int id_ = -1;
    int parent_ = -1;
    Clock::time_point start_;
    double seconds_ = -1.0;
  };

  [[nodiscard]] Scope span(const char* layer, const char* name) {
    return Scope(enabled_ ? this : nullptr, layer, name);
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Self time per layer: each span's duration minus the part covered by
  /// its direct children, summed by layer.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Chrome trace-event JSON (one lane; parent ids in args). Returns false
  /// when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    int parent;
  };
  [[nodiscard]] std::uint64_t ns(Clock::time_point t) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count());
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;  // innermost open span (parent of the next one)
};

}  // namespace perfbench
