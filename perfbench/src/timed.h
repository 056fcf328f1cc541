// Sampling wrappers for the traced framework run: TimedQueue around the
// caller-owned ConcurrentMultiQueue handed to submit_relaxed_on, and
// TimedProblem around the Problem whose try_process the engine calls.
//
// Both time one call in 64 per worker with steady_clock, plus every
// multi-key insert (admission chunks: rare and large, so sampling them
// would be noisy), subtract the clock pair's own cost measured in place,
// and scale each sampled single call by 64 into an estimate of the layer's
// busy time. Per-worker accumulators are private to the thread that owns
// them, so the hot path adds no shared writes.
//
// Faithfulness: engine::RelaxedJob picks its code path with
// requires-expressions on the queue and its handle (bulk_insert on the
// handle, set_domain, stripe_stats, num_queues / set_stripe_map,
// bulk_load), and sched:: helpers dispatch on approx_get_min_batch,
// insert_batch, get_handle and size. A wrapper missing one of them would
// make the traced run execute a different program — e.g. activate() would
// take the quiescent bulk_load branch. The static_asserts at the bottom
// pin the wrapper's surface to ConcurrentMultiQueue's.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "sched/concurrent_multiqueue.h"
#include "sched/scheduler.h"
#include "sched/stripe_map.h"
#include "spans.h"

namespace perfbench {

/// One worker's tally for one operation kind. Durations are raw clock
/// differences; OpSummary::finish() removes the clock's own cost.
struct OpTally {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;   // labels moved by the calls
  std::uint64_t empty = 0;   // pops that returned nothing
  std::uint64_t always_count = 0;  // calls timed unconditionally
  double always_ns = 0.0;
  std::uint64_t sampled_count = 0;  // 1-in-64 sampled single calls
  double sampled_ns = 0.0;
  double sampled_sq_ns2 = 0.0;
  std::vector<std::uint32_t> samples_ns;  // every sampled call, raw
  /// Back-to-back clock pairs read in place, once per 64 calls: what a
  /// timed call pays for its own clock reads in this context (warm-loop
  /// calibration underestimates it several-fold).
  std::vector<std::uint32_t> null_ns;
};

/// Totals over every worker of one wrapper, clock cost removed.
struct OpSummary {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::uint64_t empty = 0;
  double busy_s = 0.0;
  /// Standard error of busy_s from the sampling: a sampled call of d ns
  /// stands for 64 calls, so the estimate's variance is about
  /// 64^2 * sum(d^2) over the sampled calls.
  double busy_se_s = 0.0;
  double clock_ns = 0.0;           // median in-place clock-pair cost
  std::vector<double> samples_ns;  // ascending, clock cost removed
  void add(const OpTally& t);
  void merge(const OpSummary& o);
  /// Computes busy_s, busy_se_s, clock_ns and the net sorted samples from
  /// everything added or merged so far; call once, before reading them.
  void finish();

 private:
  std::uint64_t always_count_ = 0;
  double always_ns_ = 0.0;
  std::uint64_t sampled_count_ = 0;
  double sampled_ns_ = 0.0;
  double sampled_sq_ns2_ = 0.0;
  std::vector<double> null_ns_;
};

inline constexpr std::uint64_t kSampleMask = 63;  // 1 call in 64

[[nodiscard]] inline std::uint32_t ns_between(Clock::time_point a,
                                              Clock::time_point b) {
  return static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Times `f` when this is a sampled call (or `always`), charging the tally.
template <typename F>
decltype(auto) timed_call(OpTally& t, bool always, F&& f) {
  const std::uint64_t phase = t.calls++ & kSampleMask;
  if (phase == kSampleMask / 2) {
    const Clock::time_point a = Clock::now();
    t.null_ns.push_back(ns_between(a, Clock::now()));
  }
  const bool sampled = phase == 0;
  if (!sampled && !always) return f();
  struct Charge {
    OpTally& t;
    bool always;
    bool sampled;
    Clock::time_point t0 = Clock::now();
    ~Charge() {
      const std::uint32_t ns = ns_between(t0, Clock::now());
      if (always) {
        ++t.always_count;
        t.always_ns += ns;
      } else {
        ++t.sampled_count;
        t.sampled_ns += ns;
        t.sampled_sq_ns2 += static_cast<double>(ns) * ns;
      }
      if (sampled) t.samples_ns.push_back(ns);
    }
  } charge{t, always, sampled};
  return f();
}

/// A ConcurrentMultiQueue with sampled timing on every handle operation.
class TimedQueue {
 public:
  using Inner = relax::sched::ConcurrentMultiQueue;
  using Key = relax::sched::Priority;

  TimedQueue(std::uint32_t num_queues, std::uint64_t seed, unsigned choices)
      : inner_(num_queues, seed, choices) {}

  TimedQueue(const TimedQueue&) = delete;
  TimedQueue& operator=(const TimedQueue&) = delete;

  struct WorkerTally {
    OpTally pop;
    OpTally insert;
  };

  class Handle {
   public:
    void insert(Key p) {
      timed_call(tally_->insert, false, [&] { h_.insert(p); });
      ++tally_->insert.items;
    }
    void bulk_insert(std::span<const Key> keys) {
      timed_call(tally_->insert, keys.size() > 1,
                 [&] { h_.bulk_insert(keys); });
      tally_->insert.items += keys.size();
    }
    void insert_batch(std::span<const Key> keys) {
      timed_call(tally_->insert, keys.size() > 1,
                 [&] { h_.insert_batch(keys); });
      tally_->insert.items += keys.size();
    }
    std::optional<Key> approx_get_min() {
      const std::optional<Key> got = timed_call(
          tally_->pop, false, [&] { return h_.approx_get_min(); });
      if (got) {
        ++tally_->pop.items;
      } else {
        ++tally_->pop.empty;
      }
      return got;
    }
    std::size_t approx_get_min_batch(std::size_t k, std::vector<Key>& out) {
      const std::size_t got =
          timed_call(tally_->pop, false,
                     [&] { return h_.approx_get_min_batch(k, out); });
      tally_->pop.items += got;
      if (got == 0) ++tally_->pop.empty;
      return got;
    }
    void set_domain(unsigned domain) { h_.set_domain(domain); }
    [[nodiscard]] relax::sched::StripeStats stripe_stats() const noexcept {
      return h_.stripe_stats();
    }

   private:
    friend class TimedQueue;
    Handle(Inner::Handle h, WorkerTally* tally)
        : h_(std::move(h)), tally_(tally) {}
    Inner::Handle h_;
    WorkerTally* tally_;
  };

  /// One handle per engine worker session; each gets its own tally slot.
  [[nodiscard]] Handle get_handle() {
    std::lock_guard<std::mutex> guard(mu_);
    tallies_.emplace_back();
    return Handle(inner_.get_handle(), &tallies_.back());
  }

  // Queue-level surface, forwarded unchanged (activation and occupancy
  // consults go through these; they are not timed).
  void bulk_load(std::span<const Key> keys) { inner_.bulk_load(keys); }
  void bulk_insert(std::span<const Key> keys) { inner_.bulk_insert(keys); }
  void insert_batch(std::span<const Key> keys) { inner_.insert_batch(keys); }
  void insert(Key p) { inner_.insert(p); }
  std::optional<Key> approx_get_min() { return inner_.approx_get_min(); }
  std::size_t approx_get_min_batch(std::size_t k, std::vector<Key>& out) {
    return inner_.approx_get_min_batch(k, out);
  }
  [[nodiscard]] std::size_t size() const noexcept { return inner_.size(); }
  [[nodiscard]] bool empty() const noexcept { return inner_.empty(); }
  [[nodiscard]] std::uint32_t num_queues() const noexcept {
    return inner_.num_queues();
  }
  void set_stripe_map(const relax::sched::StripeMap& map) {
    inner_.set_stripe_map(map);
  }
  [[nodiscard]] const relax::sched::StripeMap& stripe_map() const noexcept {
    return inner_.stripe_map();
  }

  /// Merged raw tallies (finish() not yet applied); call only after the
  /// job's ticket has been waited on.
  [[nodiscard]] OpSummary pops() const;
  [[nodiscard]] OpSummary inserts() const;

 private:
  Inner inner_;
  std::mutex mu_;
  std::deque<WorkerTally> tallies_;  // guarded by mu_; stable addresses
};

/// Problem wrapper timing one try_process call in 64 per worker thread.
template <relax::core::Problem P>
class TimedProblem {
 public:
  explicit TimedProblem(P& inner)
      : inner_(&inner),
        id_(next_id().fetch_add(1, std::memory_order_relaxed) + 1) {}

  TimedProblem(const TimedProblem&) = delete;
  TimedProblem& operator=(const TimedProblem&) = delete;

  [[nodiscard]] std::uint32_t num_tasks() const noexcept {
    return inner_->num_tasks();
  }

  relax::core::Outcome try_process(relax::core::Task t) {
    return timed_call(tally(), false,
                      [&] { return inner_->try_process(t); });
  }

  /// Merged raw tallies (finish() not yet applied); call only after the
  /// job's ticket has been waited on.
  [[nodiscard]] OpSummary summary() const {
    OpSummary s;
    for (const OpTally& t : tallies_) s.add(t);
    return s;
  }

 private:
  // Each worker thread finds its slot through a thread_local cache keyed by
  // a process-unique wrapper id (never an address, which a later wrapper
  // could reuse).
  OpTally& tally() {
    thread_local std::uint64_t owner = 0;
    thread_local OpTally* mine = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> guard(mu_);
      tallies_.emplace_back();
      mine = &tallies_.back();
      owner = id_;
    }
    return *mine;
  }
  static std::atomic<std::uint64_t>& next_id() {
    static std::atomic<std::uint64_t> id{0};
    return id;
  }

  P* inner_;
  std::uint64_t id_;
  std::mutex mu_;
  std::deque<OpTally> tallies_;  // guarded by mu_; stable addresses
};

// ---- surface pins -------------------------------------------------------
// Every requires-expression the engine's job loop and the sched:: helpers
// branch on, evaluated for a queue type Q and its handle type.
template <typename Q>
struct Surface {
  using H = decltype(std::declval<Q&>().get_handle());
  using Span = std::span<const relax::sched::Priority>;
  using Out = std::vector<relax::sched::Priority>;
  static constexpr bool striping =
      requires(Q& q, const relax::sched::StripeMap& m) {
        q.num_queues();
        q.set_stripe_map(m);
      };
  static constexpr bool queue_bulk_load = requires(Q& q, Span s) {
    q.bulk_load(s);
  };
  static constexpr bool handle_bulk_insert = requires(H h, Span s) {
    h.bulk_insert(s);
  };
  static constexpr bool handle_insert_batch = requires(H h, Span s) {
    h.insert_batch(s);
  };
  static constexpr bool handle_pop_batch = requires(H h, std::size_t k,
                                                    Out& out) {
    h.approx_get_min_batch(k, out);
  };
  static constexpr bool handle_set_domain = requires(H& h) {
    h.set_domain(0u);
  };
  static constexpr bool handle_stripe_stats = requires(H& h) {
    h.stripe_stats();
  };
  static constexpr bool occupancy = requires(const Q* q) { q->size(); };
  static constexpr bool bits[] = {
      striping,           queue_bulk_load,     handle_bulk_insert,
      handle_insert_batch, handle_pop_batch,   handle_set_domain,
      handle_stripe_stats, occupancy};
};

template <typename A, typename B>
constexpr bool same_surface() {
  for (std::size_t i = 0; i < std::size(Surface<A>::bits); ++i)
    if (Surface<A>::bits[i] != Surface<B>::bits[i]) return false;
  return true;
}

static_assert(same_surface<TimedQueue, relax::sched::ConcurrentMultiQueue>(),
              "TimedQueue must present ConcurrentMultiQueue's exact surface "
              "or RelaxedJob takes different code paths in the traced run");
// The branches the engine takes for the real queue, spelled out so a
// library change that flips one shows up here, not as a silent drift.
static_assert(Surface<TimedQueue>::handle_bulk_insert &&
              Surface<TimedQueue>::queue_bulk_load &&
              Surface<TimedQueue>::handle_pop_batch &&
              Surface<TimedQueue>::handle_set_domain &&
              Surface<TimedQueue>::handle_stripe_stats &&
              Surface<TimedQueue>::striping && Surface<TimedQueue>::occupancy);

}  // namespace perfbench
