// Multi-tenant job layer: type-erased units of work for SchedulingEngine.
//
// A Job wraps one framework execution — a core::Problem, its priority
// permutation pi, and a scheduler — behind a uniform slice interface so a
// pool of persistent workers can multiplex many jobs:
//
//   activate(width)          engine admits the job; size per-worker stripes
//   run_slice(worker, b)     run up to b scheduler iterations for `worker`
//   finished()               retirement count reached num_tasks()
//   collect()                merged ExecutionStats (only after finished())
//
// Slices keep every worker responsive: instead of looping to termination as
// core/parallel_executor.h's executors did, a worker runs a bounded burst,
// returns, and visits the other in-flight jobs. Determinism is untouched —
// the framework property (decided outcome == sequential execution under pi
// for any schedule, paper §2.2) covers arbitrary interleaving, including
// interleaving with unrelated jobs.
//
// Admission is batched and cooperative: the submitting thread does not load
// the n initial labels. Workers claim chunks of the label range from an
// atomic cursor inside run_slice and push them through BatchInserter, so a
// large job's admission is spread over the pool and overlaps both its own
// execution and other jobs. Termination via striped retirement counting is
// unaffected: a task can only retire after its final pop, hence after its
// insert, so retired == n implies admission completed too.
//
// Task acquisition is batched as well (JobConfig::pop_batch): run_slice
// claims up to k labels per scheduler touch via sched::pop_batch — the
// backend's native batched claim where one exists, a one-at-a-time shim
// elsewhere — into a worker-local buffer. The buffer is always fully
// drained before the next termination check or slice return, and a
// buffered label is its task's only live pop, so retirement counting can
// never reach n while labels sit buffered.
//
// Re-insertion is batched symmetrically: each touch's kNotReady labels
// accumulate in a worker-local buffer and flush through
// sched::insert_batch (the backend's native batched insert where one
// exists) once per scheduler touch — one batched claim out, one batched
// insert back. Flushing per touch (not per slice) keeps the captivity
// window short: a buffered label is invisible to every other worker, and
// holding a dependency chain across a whole slice lets an ill-timed OS
// preemption stall the peers into failed-delete churn. A buffered
// re-insertion is an unretired task, so the retirement sum cannot reach n
// while it sits here; a defensive flush at slice end guarantees no label
// ever outlives its slice outside the scheduler.
//
// Scheduler access is organized as per-worker *sessions*: each worker's
// first slice for a job creates that worker's handle via sched::make_handle
// and parks it in WorkerState; every later slice reuses it, so a job costs
// at most one handle construction per worker instead of one per slice. The
// session is torn down by retire(), which the engine calls exactly once
// after the job finishes and all slices have returned — no handle ever
// outlives the job's execution, so a caller may destroy a caller-owned
// queue as soon as the ticket's wait() returns, exactly as before. The
// caching is sound because a worker id maps to one pool thread for the
// pool's whole lifetime (engine/worker_pool.h), so a cached handle is only
// ever driven by the thread that created it.
//
// Every claim asks for exactly pop_batch labels (capped by the slice's
// remaining budget). The batch is fixed for the job's lifetime, so the
// rank cost it buys is the fixed O(k * q) envelope of
// sched::batched_rank_bound — the relaxation factor the paper's guarantee
// is stated for stays a constant of the run.
//
// Variants:
//   RelaxedJob<P, Queue>        relaxed loop over a caller-owned scheduler
//                               (anything with per-thread handles or a plain
//                               sched::ConcurrentScheduler surface)
//   OwningRelaxedJob<P, Queue>  a RelaxedJob that owns its scheduler,
//                               constructed in place from forwarded args —
//                               this is how the backend registry
//                               (sched/backend_registry.h,
//                               engine/backend_jobs.h) stands up any
//                               registered backend per job
//   MonitoredRelaxedJob<P, Q>   a RelaxedJob in opt-in audit mode over any
//                               owned backend: every scheduler op goes
//                               through a lock-serialized
//                               RelaxationMonitor, and collect() reports
//                               Definition 1 rank-error / inversion
//                               statistics in ExecutionStats
//   ExactJob<P>                 the exact baseline (FAA ticket dispenser +
//                               bounded backoff-wait, never re-inserts)
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/execution_stats.h"
#include "core/problem.h"
#include "engine/batch_inserter.h"
#include "graph/permutation.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"
#include "sched/concurrent_multiqueue.h"
#include "sched/faa_array_queue.h"
#include "sched/handles.h"
#include "sched/relaxation_monitor.h"
#include "sched/scheduler.h"
#include "util/padded.h"
#include "util/spinlock.h"
#include "util/timer.h"

namespace relax::engine {

/// Per-job knobs. queue_factor/choices/seed mirror core::ParallelOptions and
/// parameterize schedulers the job owns; they are ignored for caller-owned
/// queues (submit_relaxed_on).
struct JobConfig {
  /// Ceiling on QoS weights; far above any sensible tenant ratio, this
  /// only bounds the weighted-share arithmetic against nonsense values.
  static constexpr std::uint32_t kMaxWeight = 1024;
  /// Multi-tenant QoS weight (engine/qos.h). Under contention a weight-2
  /// tenant receives ~2x the slice budget of a weight-1 tenant; solo
  /// tenants always get the full budget. Clamped to [1, kMaxWeight] by
  /// the jobs; 0 is treated as 1.
  std::uint32_t weight = 1;
  unsigned queue_factor = 4;       // MultiQueue sub-queues per pool worker
  unsigned choices = 2;            // sampled sub-queues per pop; only the
                                   // default submit_relaxed MultiQueue path
                                   // reads it — registry backends pin their
                                   // own sampling (multiqueue-c2/-c4/-c8)
  std::uint64_t seed = 1;          // scheduler randomness
  std::uint32_t relaxation_k = 0;  // k for window/sim backends (0 = derive
                                   // queue_factor * pool width)
  std::uint32_t admission_batch = 1024;  // labels admitted per claimed chunk
  /// Upper bound on pop_batch (64Ki labels = 256 KiB of worker buffer).
  /// Far above any useful batch — the rank envelope scales with k — this
  /// only bounds memory against nonsense values. RelaxedJob clamps to it;
  /// CLI front-ends clamp at parse time so reported == effective.
  static constexpr std::uint32_t kMaxPopBatch = 1u << 16;
  std::uint32_t pop_batch = 1;     // labels claimed per scheduler touch: k>1
                                   // amortizes the sample/lock/CAS round
                                   // trip over k pops at an O(k * q) rank
                                   // cost (see sched::batched_rank_bound)
  bool monitor_relaxation = false;  // audit mode: serialize + measure quality
  std::uint32_t monitor_stride = 64;  // inversion tracking sample stride

  /// Topology placement, normally injected by the engine from its own
  /// WorkerPlacement (SchedulingEngine::with_observability) — callers leave
  /// both at their defaults. numa_domains > 1 makes the job configure any
  /// owned/attached backend that supports it with a sched::StripeMap during
  /// activate() (the queue is quiescent there) and open each worker's
  /// session with that worker's domain, so same-domain stripes are
  /// preferred and cross-domain traffic becomes the bounded steal schedule.
  /// worker_domains maps pool worker id -> domain and must outlive the job
  /// when set (the engine's placement table does); when null, workers fall
  /// back to a contiguous block split over numa_domains.
  unsigned numa_domains = 1;
  const std::vector<unsigned>* worker_domains = nullptr;

  /// Telemetry sinks. Normally left null by callers and injected by the
  /// engine from EngineOptions (SchedulingEngine::with_observability), so
  /// every job submitted to an observed engine reports into the same
  /// registry; a caller-set sink wins over the engine's. The hot path
  /// accumulates into worker-locals and flushes once per slice, so an
  /// attached registry costs a handful of relaxed adds per ~slice_budget
  /// iterations (pinned by the obs overhead guard test). Both sinks must be
  /// sized for the pool (width() >= pool width) and outlive the job.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRing* trace = nullptr;
};

/// Parses a --pop-batch=<k> CLI value. Returns nullopt for anything but a
/// positive decimal integer (zero, garbage, the retired `auto` forms), so
/// front-ends reject the flag instead of silently running a batch size the
/// user never asked for. In-range numbers above kMaxPopBatch are clamped so
/// reported == effective.
inline std::optional<std::uint32_t> parse_pop_batch_flag(
    std::string_view value) {
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc{} || ptr != value.data() + value.size() || parsed == 0)
    return std::nullopt;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(parsed, JobConfig::kMaxPopBatch));
}

/// What one run_slice visit accomplished. `iterations` is the scheduler
/// iterations actually consumed of the granted budget — the QoS governor
/// settles the tenant's deficit ledger from it; `progress` keeps the old
/// boolean meaning (popped a task or admitted labels) the engine's
/// idle-backoff reads.
struct SliceResult {
  std::uint32_t iterations = 0;
  bool progress = false;
};

class Job {
 public:
  virtual ~Job() = default;

  /// Called once, by the engine, when the job becomes active; `pool_width`
  /// is the number of workers that may call run_slice. No slice runs before
  /// activation returns.
  virtual void activate(unsigned pool_width) = 0;

  /// Runs up to `budget` scheduler iterations on behalf of `worker`
  /// (a stable id < pool_width). Reports the iterations consumed and
  /// whether the slice made progress (popped a task or admitted labels;
  /// false lets the caller back off).
  virtual SliceResult run_slice(unsigned worker, std::uint32_t budget) = 0;

  /// The job's QoS weight (JobConfig::weight), read once at admission by
  /// the engine's QosGovernor. Virtual because the type-erased
  /// submit(shared_ptr<Job>) path never sees a JobConfig.
  [[nodiscard]] virtual std::uint32_t weight() const noexcept { return 1; }

  [[nodiscard]] virtual bool finished() const noexcept = 0;

  /// Called exactly once by the engine when the job is reaped: after
  /// finished() is true and after every in-flight slice has returned, but
  /// before the ticket is fulfilled. Jobs release their per-worker
  /// scheduler sessions here (cached handles into a possibly caller-owned
  /// queue), so no handle outlives the job's execution — the submitter may
  /// destroy the queue the moment wait() returns.
  virtual void retire() noexcept {}

  /// Merged statistics. Valid only after finished() is true and all slices
  /// have returned (the engine guarantees both before reaping).
  virtual core::ExecutionStats collect() = 0;
};

/// Shared machinery for jobs over the task framework: per-worker stat and
/// retirement stripes, the striped-sum termination check, and wall-time
/// stamping of the admit -> done interval.
class TaskJobBase : public Job {
 public:
  void activate(unsigned pool_width) override {
    retired_ = std::vector<util::Padded<std::atomic<std::uint32_t>>>(
        pool_width);
    stats_ = std::vector<util::Padded<core::ExecutionStats>>(pool_width);
    timer_.reset();
    if (n_ == 0) {
      done_seconds_ = 0.0;
      done_.store(true, std::memory_order_release);
    }
  }

  [[nodiscard]] bool finished() const noexcept override {
    return done_.load(std::memory_order_acquire);
  }

  core::ExecutionStats collect() override {
    // Stripes carry busy time (the sum of that worker's slice latencies) in
    // `seconds`; merged_wall() accumulates everything and then overrides
    // the total's seconds with the job's wall clock — the contract its name
    // encodes. The stripes themselves become the per-worker breakdown.
    std::vector<core::ExecutionStats> stripes;
    stripes.reserve(stats_.size());
    for (const auto& s : stats_) {
      stripes.push_back(*s);
      stripes.back().seconds =
          static_cast<double>(stripes.back().slice_latency_ns.sum()) / 1e9;
    }
    core::ExecutionStats total = core::ExecutionStats::merged_wall(
        std::span<const core::ExecutionStats>(stripes), done_seconds_);
    total.per_worker = std::move(stripes);
    return total;
  }

 protected:
  explicit TaskJobBase(std::uint32_t num_tasks) : n_(num_tasks) {}

  /// Sums the retirement stripes; the first thread to observe the sum reach
  /// n stamps the wall time and raises the done flag (the release store
  /// orders the stamp before any acquire load that sees the flag).
  void check_done() noexcept {
    std::uint64_t sum = 0;
    for (const auto& slot : retired_)
      sum += slot->load(std::memory_order_acquire);
    if (sum < n_ || done_.load(std::memory_order_relaxed)) return;
    std::lock_guard<util::Spinlock> guard(finish_lock_);
    if (!done_.load(std::memory_order_relaxed)) {
      done_seconds_ = timer_.seconds();
      done_.store(true, std::memory_order_release);
    }
  }

  const std::uint32_t n_;
  std::vector<util::Padded<std::atomic<std::uint32_t>>> retired_;
  std::vector<util::Padded<core::ExecutionStats>> stats_;
  std::atomic<bool> done_{false};
  util::Spinlock finish_lock_;
  util::Timer timer_;
  double done_seconds_ = 0.0;
};

/// The paper's relaxed concurrent loop (§4) as a multiplexable job. The
/// problem, priorities and queue are caller-owned and must outlive the job.
template <core::Problem P, typename Queue>
class RelaxedJob : public TaskJobBase {
 public:
  /// The per-worker scheduler access point: the backend's own handle when
  /// it has one, a DirectHandle shim otherwise (sched/handles.h). Cached
  /// in WorkerState for the job's lifetime — one make_handle per
  /// (worker, job), not per slice.
  using Handle = decltype(sched::make_handle(std::declval<Queue&>()));

  RelaxedJob(P& problem, const graph::Priorities& pri, Queue& queue,
             const JobConfig& cfg = {})
      : TaskJobBase(problem.num_tasks()),
        problem_(&problem),
        pri_(&pri),
        queue_(&queue),
        batch_(cfg.admission_batch == 0 ? 1 : cfg.admission_batch),
        // Clamp defensively: a negative CLI value cast to uint32 would
        // otherwise make activate() reserve a multi-GiB buffer per worker.
        // The slice budget caps the effective batch per claim anyway.
        pop_batch_(std::clamp<std::uint32_t>(cfg.pop_batch, 1,
                                             JobConfig::kMaxPopBatch)),
        weight_(std::clamp<std::uint32_t>(cfg.weight, 1,
                                          JobConfig::kMaxWeight)),
        numa_domains_(std::max(cfg.numa_domains, 1u)),
        worker_domains_(cfg.worker_domains),
        metrics_(cfg.metrics),
        trace_(cfg.trace) {}

  void activate(unsigned pool_width) override {
    TaskJobBase::activate(pool_width);
    // Worker-local session state. Popped labels only ever live in `popped`
    // between a pop_batch claim and the processing loop a few lines below
    // it — never across a run_slice return. kNotReady labels accumulate in
    // `reinsert` and are always flushed back into the scheduler before the
    // slice returns. The handle slot starts empty; each worker fills its
    // own on its first slice (activation runs on the submitting thread,
    // which must not construct handles the pool threads will drive).
    pool_width_ = pool_width;
    workers_ = std::vector<util::Padded<WorkerState>>(pool_width);
    for (auto& ws : workers_) {
      ws->popped.reserve(pop_batch_);
      ws->reinsert.reserve(pop_batch_);
    }
    // Topology-aware striping: when the engine placed workers into more
    // than one domain and the backend partitions into sub-queues, hand it
    // the matching StripeMap now — activation runs before any slice, so
    // the quiescence requirement on set_stripe_map holds even for
    // caller-owned queues. Backends without the surface (SprayList's is a
    // documented no-op; monitors/wrappers lack it entirely) stay flat.
    if constexpr (requires(Queue& q, const sched::StripeMap& m) {
                    q.num_queues();
                    q.set_stripe_map(m);
                  }) {
      if (numa_domains_ > 1) {
        queue_->set_stripe_map(sched::StripeMap(
            static_cast<std::size_t>(queue_->num_queues()), numa_domains_));
      }
    }
    // Schedulers with a quiescent bulk_load but no live bulk_insert
    // (LockFreeMultiQueue, whose sorted sub-lists degrade to O(n) per
    // ascending insert) get their whole initial load here, while the job is
    // still unpublished and the queue guaranteed quiescent. Everything else
    // is loaded cooperatively by the workers via admit_chunk.
    if constexpr (requires(Queue& q, std::span<const sched::Priority> s) {
                    q.bulk_load(s);
                  } && !requires(Handle h, std::span<const sched::Priority> s) {
                    h.bulk_insert(s);
                  }) {
      std::vector<sched::Priority> labels(n_);
      std::iota(labels.begin(), labels.end(), 0u);
      queue_->bulk_load(std::span<const sched::Priority>(labels));
      load_cursor_.store(n_, std::memory_order_release);
    }
  }

  /// Session teardown: drops every worker's cached handle (and with it the
  /// last pointer a worker holds into a caller-owned queue). Called by the
  /// engine after all slices have returned, so no handle is in use.
  void retire() noexcept override {
    for (auto& ws : workers_) ws->handle.reset();
  }

  [[nodiscard]] std::uint32_t weight() const noexcept override {
    return weight_;
  }

  SliceResult run_slice(unsigned worker, std::uint32_t budget) override {
    if (finished()) return {};
    util::Timer slice_timer;  // slice latency -> this worker's stripe
    auto& ws = *workers_[worker];
    // First slice for this worker: open its session. Later slices reuse
    // the cached handle — handle construction off the per-slice path.
    if (!ws.handle) {
      ws.handle.emplace(sched::make_handle(*queue_));
      // Session state carries the worker's topology domain: every claim
      // and batched insert this handle issues prefers that domain's
      // stripes (engine placement table when present, contiguous block
      // split otherwise). Flat (single-domain) jobs skip the call — the
      // backends treat domain 0 of a 1-domain map as the flat path anyway.
      if constexpr (requires(Handle& h) { h.set_domain(0u); }) {
        if (numa_domains_ > 1) {
          ws.handle->set_domain(
              worker_domains_ != nullptr &&
                      worker < worker_domains_->size()
                  ? (*worker_domains_)[worker]
                  : worker * numa_domains_ / std::max(pool_width_, 1u));
        }
      }
    }
    auto& handle = *ws.handle;
    bool progress = admit_chunk(handle);
    auto& stats = *stats_[worker];
    auto& my_retired = *retired_[worker];
    auto& buffer = ws.popped;
    // Telemetry is accumulated in plain locals and flushed once per slice
    // (see flush_metrics) so the per-claim cost with a registry attached is
    // plain-integer arithmetic, not atomics. Snapshot the stripe counters
    // now; the deltas at slice end are this slice's contribution.
    obs::WorkerMetrics* wm =
        metrics_ != nullptr && worker < metrics_->width()
            ? &metrics_->worker(worker)
            : nullptr;
    obs::TraceRing* trace =
        trace_ != nullptr && worker < trace_->width() ? trace_ : nullptr;
    const std::uint64_t processed0 = stats.processed;
    const std::uint64_t failed0 = stats.failed_deletes;
    const std::uint64_t dead0 = stats.dead_skips;
    const std::uint64_t empty0 = stats.empty_polls;
    // Stripe-placement tallies live in the handle's session context (plain
    // uint64s — the handle is worker-private); snapshot them so the slice's
    // delta can be flushed into the registry like every other counter.
    sched::StripeStats stripe0{};
    if constexpr (requires(Handle& h) { h.stripe_stats(); }) {
      stripe0 = handle.stripe_stats();
    }
    std::uint64_t claims_made = 0;
    std::uint64_t labels_claimed = 0;
    obs::Histogram claim_sizes;  // worker-local; merged into wm at slice end
    std::uint32_t iters = 0;
    while (!done_.load(std::memory_order_acquire) && iters < budget) {
      // Claim up to pop_batch labels in one scheduler touch, capped by the
      // remaining budget so the buffer is always fully drained before the
      // slice returns.
      buffer.clear();
      const std::uint32_t claim =
          std::min<std::uint32_t>(pop_batch_, budget - iters);
      const std::size_t got = sched::pop_batch(handle, claim, buffer);
      ++claims_made;
      if (got > 0) {
        labels_claimed += got;
        claim_sizes.record(got);
      }
      if (trace != nullptr) {
        trace->record(worker, obs::EventKind::kClaim, trace->now_ns(), 0,
                      static_cast<std::uint32_t>(got));
      }
      if (buffer.empty()) {
        ++stats.empty_polls;
        check_done();
        // Prefer feeding the queue over spinning when admission is still
        // in flight; otherwise yield the worker to other jobs.
        if (admit_chunk(handle)) {
          progress = true;
          continue;
        }
        break;
      }
      progress = true;
      // Process the whole buffer before the next done_/budget check. A
      // buffered label is its task's only live pop (labels are unique in
      // the scheduler), so that task cannot retire elsewhere and the
      // retirement sum cannot reach n — termination can never fire while
      // labels sit here, provided none survive this loop. The same holds
      // for ws.reinsert: a buffered re-insertion is an unretired task.
      for (const sched::Priority label : buffer) {
        ++iters;
        ++stats.iterations;
        const core::Task task = pri_->order[label];
        switch (problem_->try_process(task)) {
          case core::Outcome::kProcessed:
            ++stats.processed;
            my_retired.fetch_add(1, std::memory_order_release);
            break;
          case core::Outcome::kNotReady:
            ++stats.failed_deletes;
            ws.reinsert.push_back(label);
            break;
          case core::Outcome::kRetired:
            ++stats.dead_skips;
            my_retired.fetch_add(1, std::memory_order_release);
            break;
        }
      }
      // Flush the touch's kNotReady run before the next claim: one batched
      // insert per batched pop (the symmetric round trip). Holding the run
      // any longer makes those labels invisible to every other worker —
      // on an oversubscribed host a descheduled worker mid-slice would
      // hold dependency chains captive for a scheduler quantum while its
      // peers churn failed deletes against them.
      flush_reinserts(handle, ws);
    }
    // A no-op today (every touch flushed above), but the invariant — no
    // label may ever outlive its slice outside the scheduler — must hold
    // even if flushing ever becomes conditional, so drain defensively
    // before the final termination check and the slice return.
    flush_reinserts(handle, ws);
    check_done();
    // Slice telemetry: always into this worker's stripe (per-job slice
    // latency percentiles — the starvation metric), and the slice's deltas
    // into the engine registry when one is attached.
    const std::uint64_t slice_ns =
        static_cast<std::uint64_t>(slice_timer.seconds() * 1e9);
    ++stats.slices;
    stats.slice_latency_ns.record(slice_ns);
    if (wm != nullptr) {
      wm->claims.add(claims_made);
      wm->pops.add(labels_claimed);
      wm->claim_size.merge_from(claim_sizes);
      wm->processed.add(stats.processed - processed0);
      wm->failed_deletes.add(stats.failed_deletes - failed0);
      wm->dead_skips.add(stats.dead_skips - dead0);
      wm->empty_polls.add(stats.empty_polls - empty0);
      // Every kNotReady label was flushed back exactly once this slice.
      wm->reinserts.add(stats.failed_deletes - failed0);
      if constexpr (requires(Handle& h) { h.stripe_stats(); }) {
        const sched::StripeStats stripe = handle.stripe_stats();
        wm->numa_local_claims.add(stripe.local_claims - stripe0.local_claims);
        wm->numa_steal_claims.add(stripe.steal_claims - stripe0.steal_claims);
      }
    }
    return {iters, progress};
  }

 private:
  /// One worker's scheduler session for this job: the cached handle and
  /// the batched-path buffers. Owned by the job, keyed by the pool's stable
  /// worker id, and only ever touched by that worker's thread (run_slice)
  /// or by the reaper after quiescence (retire).
  struct WorkerState {
    std::optional<Handle> handle;           // created on first slice,
                                            // dropped by retire()
    std::vector<sched::Priority> popped;    // batched-pop landing buffer
    std::vector<sched::Priority> reinsert;  // kNotReady labels awaiting flush
  };

  /// Flushes the worker's buffered kNotReady labels back into the
  /// scheduler as one batched insert (the backend's native path where one
  /// exists; singleton runs take the plain insert — see
  /// sched::insert_batch).
  template <typename Handle>
  void flush_reinserts(Handle& handle, WorkerState& ws) {
    if (ws.reinsert.empty()) return;
    sched::insert_batch(handle,
                        std::span<const sched::Priority>(ws.reinsert));
    ws.reinsert.clear();
  }

  /// Claims one chunk of the initial label range and inserts it. Multiple
  /// workers admit concurrently; the queue is live throughout.
  template <typename Handle>
  bool admit_chunk(Handle& handle) {
    if (load_cursor_.load(std::memory_order_relaxed) >= n_) return false;
    const std::uint64_t lo =
        load_cursor_.fetch_add(batch_, std::memory_order_acq_rel);
    if (lo >= n_) return false;
    const std::uint32_t hi = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(n_, lo + batch_));
    BatchInserter<Handle> inserter(handle, hi - static_cast<std::uint32_t>(lo));
    for (std::uint32_t label = static_cast<std::uint32_t>(lo); label < hi;
         ++label)
      inserter.push(label);
    return true;
  }

  P* problem_;
  const graph::Priorities* pri_;
  Queue* queue_;
  std::uint32_t batch_;
  std::uint32_t pop_batch_;
  std::uint32_t weight_;           // QoS tenant weight (clamped)
  unsigned numa_domains_;          // > 1 enables topology-aware striping
  const std::vector<unsigned>* worker_domains_;  // engine placement table
  unsigned pool_width_ = 0;        // set by activate()
  obs::MetricsRegistry* metrics_;  // optional engine telemetry sink
  obs::TraceRing* trace_;          // optional Chrome-trace event ring
  std::vector<util::Padded<WorkerState>> workers_;
  std::atomic<std::uint64_t> load_cursor_{0};
};

namespace detail {

/// Base-from-member holders: an owning job derives from one of these
/// *before* RelaxedJob, so the scheduler it owns is constructed ahead of the
/// RelaxedJob that points at it and destroyed after it (together with every
/// cached handle into it).
template <typename Queue>
struct OwnedQueue {
  template <typename... QueueArgs>
  explicit OwnedQueue(QueueArgs&&... queue_args)
      : owned_queue(std::forward<QueueArgs>(queue_args)...) {}
  Queue owned_queue;
};

template <typename Queue>
using Monitor = sched::RelaxationMonitor<sched::SequentialView<Queue>>;

template <typename Queue>
struct OwnedMonitoredQueue {
  template <typename... QueueArgs>
  OwnedMonitoredQueue(std::uint32_t num_tasks, std::uint32_t monitor_stride,
                      QueueArgs&&... queue_args)
      : owned_queue(std::forward<QueueArgs>(queue_args)...),
        monitored(Monitor<Queue>(sched::SequentialView<Queue>(owned_queue),
                                 num_tasks, monitor_stride)) {}
  Queue owned_queue;
  sched::LockedScheduler<Monitor<Queue>> monitored;
};

}  // namespace detail

/// Relaxed job that owns its scheduler, constructed in place from the
/// forwarded constructor arguments. Backend-generic: any registered backend
/// (ConcurrentMultiQueue, LockFreeMultiQueue, SprayList, LockedScheduler
/// wrappers, ...) becomes a first-class engine job through this one class —
/// the engine's default submit_relaxed is just the ConcurrentMultiQueue
/// instantiation, and engine/backend_jobs.h instantiates it for every
/// registry entry.
template <core::Problem P, typename Queue>
class OwningRelaxedJob : private detail::OwnedQueue<Queue>,
                         public RelaxedJob<P, Queue> {
 public:
  template <typename... QueueArgs>
  OwningRelaxedJob(P& problem, const graph::Priorities& pri,
                   const JobConfig& cfg, QueueArgs&&... queue_args)
      : detail::OwnedQueue<Queue>(std::forward<QueueArgs>(queue_args)...),
        RelaxedJob<P, Queue>(problem, pri, this->owned_queue, cfg) {}
};

/// Opt-in production quality sampling (JobConfig::monitor_relaxation): the
/// job's owned backend is driven through a RelaxationMonitor so every pop's
/// rank error and the sampled per-element inversion counts (Definition 1)
/// are measured in situ, then reported in ExecutionStats. The monitor's
/// exact order-statistics mirror requires serializing scheduler ops through
/// one lock, so this mode trades scalability for observability — use it on
/// a sampled subset of production jobs, not all of them. Works for any
/// backend whose single-threaded convenience API satisfies
/// sched::SequentialView's needs (all registry backends qualify).
template <core::Problem P, typename Queue = sched::ConcurrentMultiQueue>
class MonitoredRelaxedJob
    : private detail::OwnedMonitoredQueue<Queue>,
      public RelaxedJob<P, sched::LockedScheduler<detail::Monitor<Queue>>> {
  using Holder = detail::OwnedMonitoredQueue<Queue>;
  using Base = RelaxedJob<P, sched::LockedScheduler<detail::Monitor<Queue>>>;

 public:
  template <typename... QueueArgs>
  MonitoredRelaxedJob(P& problem, const graph::Priorities& pri,
                      const JobConfig& cfg, QueueArgs&&... queue_args)
      : Holder(problem.num_tasks(), cfg.monitor_stride,
               std::forward<QueueArgs>(queue_args)...),
        Base(problem, pri, this->monitored, cfg) {}

  core::ExecutionStats collect() override {
    auto total = Base::collect();
    auto& monitor = this->monitored.inner();
    const auto& ranks = monitor.rank_histogram();
    const auto& inversions = monitor.inversion_histogram();
    total.rank_samples = ranks.total();
    total.mean_rank_error = ranks.mean();
    total.max_rank_error = ranks.max_value();
    total.inversion_samples = inversions.total();
    total.mean_inversions = inversions.mean();
    return total;
  }
};

/// The exact baseline (§4) as a job: tasks pre-loaded in strict priority
/// order into a wait-free FAA ticket dispenser. A dequeued task whose
/// predecessor is still undecided is *held* by the dequeuing worker (never
/// re-inserted) with exponential backoff; unlike the one-shot executor, the
/// backoff is bounded per slice so the worker stays available to other
/// in-flight jobs and retries the held task on its next visit.
template <core::Problem P>
class ExactJob : public TaskJobBase {
 public:
  ExactJob(P& problem, const graph::Priorities& pri,
           const JobConfig& cfg = {})
      : TaskJobBase(problem.num_tasks()),
        problem_(&problem),
        pri_(&pri),
        weight_(std::clamp<std::uint32_t>(cfg.weight, 1,
                                          JobConfig::kMaxWeight)) {}

  [[nodiscard]] std::uint32_t weight() const noexcept override {
    return weight_;
  }

  void activate(unsigned pool_width) override {
    // Load inside activation, after the timer reset in the base activate:
    // the n-label load is charged to the timed window exactly like the
    // relaxed jobs' batched admission — keeping relaxed-vs-exact wall-time
    // comparisons symmetric.
    TaskJobBase::activate(pool_width);
    std::vector<std::uint32_t> labels(n_);
    std::iota(labels.begin(), labels.end(), 0u);
    queue_.load(std::move(labels));
    slots_ = std::vector<util::Padded<Slot>>(pool_width);
  }

  SliceResult run_slice(unsigned worker, std::uint32_t budget) override {
    if (finished()) return {};
    util::Timer slice_timer;  // slice latency -> this worker's stripe
    auto& stats = *stats_[worker];
    auto& my_retired = *retired_[worker];
    auto& slot = *slots_[worker];
    bool progress = false;
    std::uint32_t iters = 0;
    while (iters < budget) {
      if (!slot.has_pending) {
        const auto label = queue_.try_dequeue();
        if (!label) break;  // drained; held tasks may still be in flight
        slot.pending = *label;
        slot.has_pending = true;
        slot.pause = 1;
        ++stats.iterations;
        ++iters;
      }
      const core::Task task = pri_->order[slot.pending];
      const core::Outcome outcome = problem_->try_process(task);
      if (outcome == core::Outcome::kNotReady) {
        ++stats.failed_deletes;  // wasted work while waiting
        for (unsigned i = 0; i < slot.pause; ++i) util::cpu_relax();
        if (slot.pause >= kMaxPause) break;  // hold the task, free the worker
        slot.pause <<= 1;
        continue;
      }
      if (outcome == core::Outcome::kProcessed) {
        ++stats.processed;
      } else {
        ++stats.dead_skips;
      }
      my_retired.fetch_add(1, std::memory_order_release);
      slot.has_pending = false;
      progress = true;
    }
    check_done();
    ++stats.slices;
    stats.slice_latency_ns.record(
        static_cast<std::uint64_t>(slice_timer.seconds() * 1e9));
    return {iters, progress};
  }

 private:
  static constexpr unsigned kMaxPause = 4096;

  struct Slot {
    std::uint32_t pending = 0;
    bool has_pending = false;
    unsigned pause = 1;
  };

  P* problem_;
  const graph::Priorities* pri_;
  std::uint32_t weight_;  // QoS tenant weight (clamped)
  sched::FaaArrayQueue<std::uint32_t> queue_;
  std::vector<util::Padded<Slot>> slots_;
};

}  // namespace relax::engine
