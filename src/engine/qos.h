// QosGovernor — the multi-tenant slice-budget policy layer.
//
// Until this layer existed, every job visit ran run_slice(worker,
// EngineOptions::slice_budget): one fixed constant for every tenant, so
// with several jobs in flight (--backend=mix, the networked server) a
// heavy tenant and a light tenant got identical slice time and the pool
// shared capacity 1:1 regardless of what the operator wanted. The
// governor converts that constant into measured, per-tenant policy: one
// choke point (SchedulingEngine::work), worker-local hot path, global
// inputs consulted occasionally.
//
// Policy = deficit-style weighted round robin over slice iterations:
//
//   quantum_j = full * w_j / sum(w)    per visit, clamped to
//                                      [full/16, full]
//   deficit_j += quantum_j             banked credit (burst-capped at
//                                      4*full so an idle tenant cannot
//                                      hoard unbounded catch-up)
//   grant_j    = clamp(deficit_j, full/16, full)
//   deficit_j -= iterations used       reported after the slice
//
// so under contention a weight-2 tenant accumulates credit twice as fast
// as a weight-1 tenant and runs ~2x the slice iterations, while the
// deficit bank smooths the integer truncation of small quanta across
// visits. A solo tenant (active count <= 1) bypasses the ledger entirely
// and receives the full budget — single-job behaviour is bit-identical to
// the fixed-budget engine.
//
// Two measured feedbacks refine the raw weighted share, both riding the
// PR 6 telemetry:
//
//   idle expansion   every kConsultPeriod grants the governor reads the
//                    pool-wide idle-visit / progress-slice counters from
//                    obs::MetricsRegistry. When idle visits dominate
//                    (jobs cannot fill their shares — admission tails,
//                    drained queues) the share multiplier doubles toward
//                    kMaxExpandPct so whoever still has work expands
//                    toward the full slice; when progress dominates it
//                    halves back toward 1x. This is what "budgets grow
//                    when one job effectively owns the pool" means even
//                    while several jobs are nominally in flight.
//   cost normalization
//                    report() maintains an EWMA of each tenant's ns per
//                    iteration (from the engine's slice timing) plus a
//                    global mean. A tenant whose iterations are 4x more
//                    expensive gets proportionally fewer of them
//                    (factor clamped to [1/4, 4]), so weighted fairness
//                    is in slice *time*, not iteration count —
//                    heterogeneous problem kinds on one pool stay
//                    comparable.
//
// Concurrency: admit()/release() run under the engine's mu_ (job
// admission is already serialized there) and maintain the aggregate
// active count / weight sum. grant()/report() are the per-visit hot path
// and touch only relaxed atomics — no locks, no allocation; racy reads of
// the aggregates are monitoring-consistent in exactly the way the striped
// size() consults are. Telemetry lands in the registry's QoS tenant slots
// (obs::QosTenantMetrics), which outlive the job so shutdown dumps still
// show every tenant's granted/used ledger.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

#include "obs/metrics.h"

namespace relax::engine {

/// Per-job ledger the governor arbitrates over. Created by admit() when
/// the engine activates the job, shared by every worker visiting it
/// (relaxed atomics only), released when the job is reaped. The obs slot
/// pointer is stable for the registry's lifetime — slots persist after
/// release so post-run exports still carry the tenant's totals.
struct TenantState {
  std::uint64_t job_id = 0;
  std::uint32_t weight = 1;
  /// Banked slice-iteration credit (DRR deficit counter). Grows by the
  /// weighted quantum per visit, shrinks by iterations actually used;
  /// clamped to the burst cap by grant().
  std::atomic<std::int64_t> deficit{0};
  /// EWMA nanoseconds per iteration for this tenant (0 = unmeasured).
  std::atomic<std::uint64_t> cost_ns{0};
  obs::QosTenantMetrics* obs = nullptr;  // nullptr when the engine runs bare
};

class QosGovernor {
 public:
  /// Grants per idle-feedback consult. The consult reads width * 2
  /// relaxed loads, noise next to the 64 slices it spans.
  static constexpr std::uint32_t kConsultPeriod = 64;
  /// Minimum budget divisor: no tenant is ever granted less than
  /// full/kMinShareDiv iterations, so even a weight-1 tenant among many
  /// heavy ones makes progress every visit (starvation freedom).
  static constexpr std::uint32_t kMinShareDiv = 16;
  /// Deficit burst cap in multiples of the full budget.
  static constexpr std::int64_t kBurstFactor = 4;
  /// Idle-expansion multiplier bounds, in percent of the raw share.
  static constexpr std::uint64_t kMaxExpandPct = 800;

  QosGovernor() = default;

  /// Binds the governor to the engine's full slice budget and (optional)
  /// telemetry registry. Called once from the engine constructor, before
  /// any worker runs.
  void configure(std::uint32_t full_budget, obs::MetricsRegistry* metrics) {
    full_ = std::max<std::uint32_t>(full_budget, 1);
    min_ = std::max<std::uint32_t>(full_ / kMinShareDiv, 1);
    metrics_ = metrics;
  }

  /// Registers a tenant (engine admission path, serialized by the
  /// engine's mutex). Claims a registry QoS slot when telemetry is on.
  [[nodiscard]] std::shared_ptr<TenantState> admit(std::uint64_t job_id,
                                                   std::uint32_t weight);

  /// Unregisters a tenant (engine reap path, serialized by the engine's
  /// mutex). The obs slot keeps its totals.
  void release(const TenantState& tenant);

  /// The slice budget for one visit to `tenant`. Hot path: relaxed
  /// atomics only.
  [[nodiscard]] std::uint32_t grant(TenantState& tenant);

  /// Settles a finished slice: `used` iterations consumed of `granted`,
  /// in `slice_ns` wall time (0 = untimed, skips cost normalization
  /// updates). Hot path: relaxed atomics only.
  void report(TenantState& tenant, std::uint32_t granted, std::uint32_t used,
              std::uint64_t slice_ns);

  [[nodiscard]] std::uint32_t full_budget() const noexcept { return full_; }
  [[nodiscard]] std::uint32_t min_budget() const noexcept { return min_; }
  [[nodiscard]] unsigned active_tenants() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  void maybe_consult_idle();

  std::uint32_t full_ = 256;
  std::uint32_t min_ = 16;
  obs::MetricsRegistry* metrics_ = nullptr;

  // Aggregates maintained under the engine's mutex (admit/release), read
  // racily on the grant path — a one-visit-stale share is harmless.
  std::atomic<unsigned> active_{0};
  std::atomic<std::uint64_t> total_weight_{0};

  // Cross-tenant mean iteration cost (EWMA, ns; 0 = unmeasured).
  std::atomic<std::uint64_t> mean_cost_ns_{0};

  // Idle-visit feedback: share multiplier in percent, [100, kMaxExpandPct].
  std::atomic<std::uint64_t> expand_pct_{100};
  std::atomic<std::uint64_t> grants_{0};
  std::atomic<std::uint64_t> seen_idle_{0};
  std::atomic<std::uint64_t> seen_slices_{0};
};

}  // namespace relax::engine
