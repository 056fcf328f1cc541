#include "engine/qos.h"

namespace relax::engine {

std::shared_ptr<TenantState> QosGovernor::admit(std::uint64_t job_id,
                                                std::uint32_t weight) {
  auto tenant = std::make_shared<TenantState>();
  tenant->job_id = job_id;
  // Same ceiling as JobConfig::kMaxWeight (not included here to keep the
  // governor independent of the job layer).
  tenant->weight = std::clamp<std::uint32_t>(weight, 1, 1024);
  if (metrics_ != nullptr)
    tenant->obs = metrics_->claim_qos_slot(job_id, tenant->weight);
  active_.fetch_add(1, std::memory_order_relaxed);
  total_weight_.fetch_add(tenant->weight, std::memory_order_relaxed);
  return tenant;
}

void QosGovernor::release(const TenantState& tenant) {
  active_.fetch_sub(1, std::memory_order_relaxed);
  total_weight_.fetch_sub(tenant.weight, std::memory_order_relaxed);
}

std::uint32_t QosGovernor::grant(TenantState& tenant) {
  maybe_consult_idle();

  std::uint32_t budget = full_;
  const unsigned k = active_.load(std::memory_order_relaxed);
  if (k <= 1) {
    // Solo tenant: fixed-budget behaviour, and the ledger resets so a
    // burst banked during a past contention phase cannot distort the
    // next one.
    tenant.deficit.store(0, std::memory_order_relaxed);
  } else {
    const std::uint64_t total =
        std::max<std::uint64_t>(total_weight_.load(std::memory_order_relaxed),
                                tenant.weight);
    // Raw weighted share of the full slice, widened by the idle-feedback
    // multiplier when the pool is visibly undercommitted.
    std::uint64_t share = static_cast<std::uint64_t>(full_) * tenant.weight *
                          expand_pct_.load(std::memory_order_relaxed) /
                          (total * 100);
    // Cost normalization: a tenant whose iterations are pricier than the
    // cross-tenant mean gets proportionally fewer of them, so the share
    // is of slice *time*. Both EWMAs start at 0 (unmeasured) — skip.
    const std::uint64_t mine = tenant.cost_ns.load(std::memory_order_relaxed);
    const std::uint64_t mean = mean_cost_ns_.load(std::memory_order_relaxed);
    if (mine > 0 && mean > 0) {
      const std::uint64_t lo = std::max<std::uint64_t>(mean / 4, 1);
      share = share * mean / std::clamp(mine, lo, mean * 4);
    }
    const std::uint64_t quantum =
        std::clamp<std::uint64_t>(share, min_, full_);
    // DRR: bank the quantum (burst-capped), grant the clamped balance.
    const std::int64_t cap = kBurstFactor * static_cast<std::int64_t>(full_);
    std::int64_t bank =
        tenant.deficit.load(std::memory_order_relaxed) +
        static_cast<std::int64_t>(quantum);
    bank = std::min(bank, cap);
    tenant.deficit.store(bank, std::memory_order_relaxed);
    budget = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
        bank, static_cast<std::int64_t>(min_),
        static_cast<std::int64_t>(full_)));
  }

  if (tenant.obs != nullptr) {
    tenant.obs->grants.add(1);
    tenant.obs->granted_iterations.add(budget);
    tenant.obs->budget.set(budget);
  }
  return budget;
}

void QosGovernor::report(TenantState& tenant, std::uint32_t granted,
                         std::uint32_t used, std::uint64_t slice_ns) {
  (void)granted;
  if (used > 0) {
    tenant.deficit.fetch_sub(static_cast<std::int64_t>(used),
                             std::memory_order_relaxed);
    if (slice_ns > 0) {
      // Per-tenant and cross-tenant ns/iteration EWMAs (alpha = 1/2 —
      // coarse is fine, the grant clamp bounds the influence anyway).
      const std::uint64_t cost = std::max<std::uint64_t>(slice_ns / used, 1);
      const std::uint64_t prev = tenant.cost_ns.load(std::memory_order_relaxed);
      tenant.cost_ns.store(prev == 0 ? cost : (prev + cost) / 2,
                           std::memory_order_relaxed);
      const std::uint64_t gprev =
          mean_cost_ns_.load(std::memory_order_relaxed);
      mean_cost_ns_.store(gprev == 0 ? cost : (gprev + cost) / 2,
                          std::memory_order_relaxed);
    }
  }
  if (tenant.obs != nullptr) {
    tenant.obs->used_iterations.add(used);
    const std::int64_t bank = tenant.deficit.load(std::memory_order_relaxed);
    tenant.obs->deficit.set(bank > 0 ? static_cast<std::uint64_t>(bank) : 0);
  }
}

void QosGovernor::maybe_consult_idle() {
  if (metrics_ == nullptr) return;
  const std::uint64_t n = grants_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % kConsultPeriod != 0) return;
  // Sum the per-worker idle/progress counters directly off the live
  // registry (a full snapshot() would clone every histogram — far too
  // heavy for a hot-path consult).
  std::uint64_t idle = 0;
  std::uint64_t slices = 0;
  const unsigned width = metrics_->width();
  for (unsigned w = 0; w < width; ++w) {
    idle += metrics_->worker(w).idle_visits.value();
    slices += metrics_->worker(w).slices.value();
  }
  const std::uint64_t d_idle = idle - seen_idle_.load(std::memory_order_relaxed);
  const std::uint64_t d_slices =
      slices - seen_slices_.load(std::memory_order_relaxed);
  seen_idle_.store(idle, std::memory_order_relaxed);
  seen_slices_.store(slices, std::memory_order_relaxed);
  // Idle visits dominating the window means the tenants cannot fill even
  // their shrunken shares — widen everyone's share toward the full slice.
  // Progress dominating means contention is real — fall back toward the
  // strict weighted split, halving the expansion each consult.
  const std::uint64_t pct = expand_pct_.load(std::memory_order_relaxed);
  if (d_idle > d_slices) {
    expand_pct_.store(std::min<std::uint64_t>(pct * 2, kMaxExpandPct),
                      std::memory_order_relaxed);
  } else if (pct > 100) {
    expand_pct_.store(std::max<std::uint64_t>(pct / 2, 100),
                      std::memory_order_relaxed);
  }
}

}  // namespace relax::engine
