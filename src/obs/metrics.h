// MetricsRegistry — engine-wide, lock-free telemetry.
//
// One registry serves one SchedulingEngine (EngineOptions::metrics): a
// fixed schema of per-worker counters and log2 histograms, cache-line
// padded per worker so the hot path is plain relaxed fetch_adds on lines
// no other worker ever writes. Snapshots are taken on demand from any
// thread at any time — each counter is individually atomic, so a snapshot
// racing a slice is monitoring-consistent (the same contract as the striped
// size() reads the schedulers expose), and the exporters
// (to_prometheus/to_json, obs/metrics.cc) render a snapshot, never the
// live registry.
//
// Writers:
//   engine (engine.cc)        slices + slice latency per worker, job
//                             submit/complete counts
//   jobs (engine/job.h)       claims + claim-size distribution, pops,
//                             processed / failed-delete / dead-skip /
//                             empty-poll counts, re-inserted labels
//   worker pool               park/unpark counts + park-time distribution
//
// Lifetime: the registry outlives the engine that records into it (it is
// caller-owned precisely so its contents survive the engine teardown in
// the one-shot run_parallel_* wrappers). resize() is NOT thread-safe —
// the engine calls it once, before its workers exist.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "util/padded.h"

namespace relax::obs {

/// Monotone event count. Relaxed-atomic: single-writer in this registry's
/// layout (one worker per slot), safe under any interleaving regardless.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  Counter() = default;
  Counter(const Counter& o) noexcept { v_.store(o.value(), std::memory_order_relaxed); }
  Counter& operator=(const Counter& o) noexcept {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written level (e.g. a QoS tenant's most recent granted budget).
/// Relaxed set/read; no aggregation semantics beyond "latest".
class Gauge {
 public:
  void set(std::uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  Gauge() = default;
  Gauge(const Gauge& o) noexcept { v_.store(o.value(), std::memory_order_relaxed); }
  Gauge& operator=(const Gauge& o) noexcept {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// One worker's metric block. Padded<WorkerMetrics> slots mean no two
/// workers ever share a cache line; within a block every field has a single
/// writer (that worker's thread, or the engine thread driving it).
struct WorkerMetrics {
  // Engine-level slice accounting (recorded by SchedulingEngine::work).
  Counter slices;            // run_slice calls that made progress
  Counter idle_visits;       // run_slice calls that found nothing to do
  AtomicHistogram slice_ns;  // latency of progress-making slices

  // Job-level scheduler-loop accounting (recorded by RelaxedJob).
  Counter claims;            // batched scheduler touches (pop_batch calls)
  AtomicHistogram claim_size;  // labels delivered per non-empty claim
  Counter pops;              // labels claimed (sum over claims)
  Counter processed;
  Counter failed_deletes;
  Counter dead_skips;
  Counter empty_polls;
  Counter reinserts;         // kNotReady labels flushed back
  Counter numa_local_claims;  // claims served from the worker's own domain
  Counter numa_steal_claims;  // claims served cross-domain (bounded steal)

  // Worker-pool accounting (recorded by WorkerPool::worker_main).
  Counter parks;
  AtomicHistogram park_ns;   // parked duration per park
};

/// Front-end (src/server/) request accounting: one block per registry, not
/// per worker — the epoll thread and the reaping workers both write here,
/// which the atomic counters tolerate (multi-writer relaxed adds, unlike
/// the single-writer-by-layout worker blocks).
struct ServerMetrics {
  Counter requests_accepted;   // admitted into the engine
  Counter requests_rejected;   // shed with BUSY (admission queue full)
  Counter requests_completed;  // OK responses produced
  Counter request_errors;      // malformed frames / bad request fields
  Counter connections_opened;
  Counter connections_closed;
  AtomicHistogram request_latency_ns;  // accept -> completion callback
};

/// One tenant's QoS ledger (engine/qos.h writes, exporters read). Slots
/// are claimed round-robin by QosGovernor::admit and deliberately survive
/// job completion, so a post-run export still shows every tenant the run
/// ever admitted — the CI loopback smoke greps these after shutdown.
/// Multi-writer like ServerMetrics: any worker visiting the job records
/// here. job_id/weight ride in Gauges (not raw integers) so the struct
/// stays copyable for resize()'s vector::assign.
struct QosTenantMetrics {
  Gauge job_id;               // engine job id this slot currently describes
  Gauge weight;               // tenant weight (1 = default)
  Counter grants;             // slice budgets handed out
  Counter granted_iterations; // sum of granted budgets
  Counter used_iterations;    // sum of iterations actually consumed
  Gauge budget;               // most recent granted budget
  Gauge deficit;              // DRR credit after the last settle (saturated at 0)
};

/// Plain point-in-time copy of one QoS tenant slot.
struct QosTenantSnapshot {
  std::uint64_t job_id = 0;
  std::uint64_t weight = 0;
  std::uint64_t grants = 0;
  std::uint64_t granted_iterations = 0;
  std::uint64_t used_iterations = 0;
  std::uint64_t budget = 0;
  std::uint64_t deficit = 0;
};

/// Plain point-in-time copy of the server block.
struct ServerSnapshot {
  std::uint64_t requests_accepted = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t request_errors = 0;
  std::uint64_t connections_opened = 0;
  std::uint64_t connections_closed = 0;
  Histogram request_latency_ns;
};

/// Plain point-in-time copy of one worker's block.
struct WorkerSnapshot {
  std::uint64_t slices = 0;
  std::uint64_t idle_visits = 0;
  Histogram slice_ns;
  std::uint64_t claims = 0;
  Histogram claim_size;
  std::uint64_t pops = 0;
  std::uint64_t processed = 0;
  std::uint64_t failed_deletes = 0;
  std::uint64_t dead_skips = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t reinserts = 0;
  std::uint64_t numa_local_claims = 0;
  std::uint64_t numa_steal_claims = 0;
  std::uint64_t parks = 0;
  Histogram park_ns;
};

/// The whole registry at an instant: per-worker blocks plus the engine-
/// level job counters and the cross-worker merged histograms the percentile
/// summaries render from.
struct MetricsSnapshot {
  std::vector<WorkerSnapshot> workers;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  Histogram slice_ns;    // merged over workers
  Histogram claim_size;  // merged over workers
  Histogram park_ns;     // merged over workers
  std::vector<QosTenantSnapshot> qos;  // claimed tenant slots, claim order
  ServerSnapshot server;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  /// Sizes the per-worker slots. Called by the engine before any worker
  /// runs (NOT thread-safe against record paths); clears previous contents,
  /// so one registry object can serve several consecutive runs.
  void resize(unsigned workers) {
    workers_.assign(workers, util::Padded<WorkerMetrics>{});
    jobs_submitted_ = Counter{};
    jobs_completed_ = Counter{};
    server_ = ServerMetrics{};
    qos_.assign(kQosSlots, util::Padded<QosTenantMetrics>{});
    qos_next_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] unsigned width() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// The metric block for `worker` (< width()). Hot path: callers cache the
  /// reference per slice and issue relaxed adds.
  [[nodiscard]] WorkerMetrics& worker(unsigned w) noexcept {
    return *workers_[w];
  }

  Counter& jobs_submitted() noexcept { return jobs_submitted_; }
  Counter& jobs_completed() noexcept { return jobs_completed_; }

  /// Front-end request/connection accounting (src/server/). Multi-writer:
  /// the epoll thread and reaping workers record concurrently.
  ServerMetrics& server() noexcept { return server_; }

  /// Fixed pool of QoS tenant slots; engines with more than kQosSlots
  /// concurrent-plus-historical tenants recycle the oldest slot (the
  /// exporter then shows the most recent kQosSlots tenants, which is the
  /// right monitoring behaviour for a long-lived server).
  static constexpr unsigned kQosSlots = 32;

  /// Claims (or recycles) a tenant slot and stamps its identity; counters
  /// in a recycled slot restart from zero. Callers are serialized by the
  /// engine's admission mutex; the atomic cursor keeps even unserialized
  /// callers from sharing a slot.
  QosTenantMetrics* claim_qos_slot(std::uint64_t job_id,
                                   std::uint32_t weight) noexcept {
    if (qos_.empty()) return nullptr;
    const unsigned at =
        qos_next_.fetch_add(1, std::memory_order_relaxed) % kQosSlots;
    QosTenantMetrics& slot = *qos_[at];
    slot = QosTenantMetrics{};
    slot.job_id.set(job_id);
    slot.weight.set(weight);
    return &slot;
  }

  /// Point-in-time copy, callable from any thread concurrently with
  /// recording (monitoring-consistent; see file header).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Prometheus text exposition of a fresh snapshot: per-worker counters,
  /// merged histogram buckets (cumulative le-form), and slice-latency
  /// quantile summaries.
  [[nodiscard]] std::string to_prometheus() const;

  /// JSON object form of the same snapshot ({"workers": [...], "totals":
  /// {...}}), for machine consumers.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<util::Padded<WorkerMetrics>> workers_;
  Counter jobs_submitted_;
  Counter jobs_completed_;
  ServerMetrics server_;
  std::vector<util::Padded<QosTenantMetrics>> qos_;
  std::atomic<unsigned> qos_next_{0};
};

}  // namespace relax::obs
