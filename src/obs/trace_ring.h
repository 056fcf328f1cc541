// TraceRing — per-worker event ring buffers that export Chrome trace-event
// JSON, so a whole multi-job engine run opens in chrome://tracing (or
// https://ui.perfetto.dev) as one lane per worker showing slices, claims
// and parks.
//
// Design constraints, in order:
//   * zero cost when absent — every record site is gated on a null check,
//     and EngineOptions::trace defaults to nullptr (compiled in, off by
//     default);
//   * bounded memory — each worker owns a fixed-capacity ring and
//     overwrites its oldest events (dropped counts are reported in the
//     trace metadata), so an arbitrarily long run traces its tail;
//   * single-writer — a worker only ever records into its own lane, so
//     recording is two plain stores and an index bump, no atomics. The
//     export path requires quiescence (no slice in flight — e.g. after the
//     tickets you care about have been waited on and the pool is parked);
//     that is the same contract as Job::collect().
//
// Event vocabulary (EventKind):
//   kSlice   complete ("X") event, dur = slice wall time, arg = job id
//   kPark    complete event on the same lane, dur = parked time
//   kClaim   instant event, arg = labels delivered by one batched claim
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/padded.h"
#include "util/timer.h"

namespace relax::obs {

enum class EventKind : std::uint8_t { kSlice, kPark, kClaim };

struct TraceEvent {
  std::uint64_t ts_ns = 0;   // relative to the ring's reset
  std::uint64_t dur_ns = 0;  // 0 for instant events
  std::uint32_t arg = 0;     // job id / park seq / claim size
  EventKind kind = EventKind::kSlice;
};

class TraceRing {
 public:
  /// Per-worker event capacity. 16Ki events x 24B is ~400KiB per worker —
  /// enough for the tail of a long run, small enough to always leave on
  /// once a ring is attached.
  static constexpr std::size_t kDefaultCapacity = 1u << 14;

  explicit TraceRing(std::size_t capacity_per_worker = kDefaultCapacity)
      : capacity_(capacity_per_worker == 0 ? 1 : capacity_per_worker) {}

  /// Sizes one lane per worker and restarts the trace clock. Engine calls
  /// this before its workers exist; NOT thread-safe against record().
  void resize(unsigned workers) {
    lanes_.assign(workers, util::Padded<Lane>{});
    for (auto& lane : lanes_) lane->events.reserve(capacity_);
    clock_.reset();
  }

  [[nodiscard]] unsigned width() const noexcept {
    return static_cast<unsigned>(lanes_.size());
  }

  /// Now, in trace time (ns since resize). Callers stamp begin/end around
  /// the work they trace and record one complete event.
  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(clock_.seconds() * 1e9);
  }

  /// Appends one event to `worker`'s lane, overwriting the oldest once the
  /// ring is full. Single-writer per lane (the pool's stable worker-id ->
  /// thread mapping); two stores and an index bump, no synchronization.
  void record(unsigned worker, EventKind kind, std::uint64_t ts_ns,
              std::uint64_t dur_ns, std::uint32_t arg) noexcept {
    Lane& lane = *lanes_[worker];
    const TraceEvent ev{ts_ns, dur_ns, arg, kind};
    if (lane.events.size() < capacity_) {
      lane.events.push_back(ev);
    } else {
      lane.events[lane.next] = ev;
      lane.next = (lane.next + 1) % capacity_;
      ++lane.dropped;
    }
  }

  /// Total events currently held (all lanes).
  [[nodiscard]] std::size_t event_count() const noexcept {
    std::size_t n = 0;
    for (const auto& lane : lanes_) n += lane->events.size();
    return n;
  }

  /// Events overwritten ring-wide (each overwrite dropped one old event).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    std::uint64_t n = 0;
    for (const auto& lane : lanes_) n += lane->dropped;
    return n;
  }

  /// Renders the rings as a Chrome trace-event JSON array (the format both
  /// chrome://tracing and Perfetto ingest): one named thread lane per
  /// worker, complete events for slices/parks, instants for claims.
  /// Requires quiescence (see file header).
  [[nodiscard]] std::string to_chrome_json() const;

  /// to_chrome_json() straight to a file; false (with errno intact) when
  /// the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Lane {
    std::vector<TraceEvent> events;  // ring once size reaches capacity
    std::size_t next = 0;            // oldest slot (overwrite cursor)
    std::uint64_t dropped = 0;
  };

  std::size_t capacity_;
  std::vector<util::Padded<Lane>> lanes_;
  util::Timer clock_;
};

}  // namespace relax::obs
