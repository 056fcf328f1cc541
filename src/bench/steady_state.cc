#include "bench/steady_state.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "sched/handles.h"
#include "sched/stripe_map.h"
#include "sched/relaxation_monitor.h"
#include "util/padded.h"
#include "util/timer.h"

namespace relax::bench {
namespace {

using sched::Priority;

/// 1-in-N scheduler touches are wall-clocked into the latency histogram.
/// Timing every touch would put two clock reads on the hot path of the
/// very number the harness exists to measure.
constexpr std::uint64_t kLatencySampleStride = 64;

/// Width of one throughput-over-time bucket (SteadyCell::buckets).
constexpr std::uint64_t kBucketNs = 100'000'000;  // 100 ms

/// One thread's tallies, cache-line padded against false sharing.
struct ThreadCounters {
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t empty_pops = 0;
  obs::Histogram op_latency_ns;
  std::vector<std::uint64_t> buckets;  // completed ops per 100 ms bucket
};

struct TimedRun {
  double seconds = 0.0;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t empty_pops = 0;
  double ops_per_s = 0.0;
  double op_p99_us = -1.0;
  std::vector<std::uint64_t> buckets;  // summed over threads
};

sched::BackendParams steady_params(const SteadyConfig& cfg) {
  sched::BackendParams params;
  params.threads = std::max<unsigned>(cfg.threads, 1);
  params.queue_factor = cfg.queue_factor;
  params.seed = cfg.seed;
  params.capacity = cfg.key_universe;
  return params;
}

std::uint64_t thread_seed(std::uint64_t seed, unsigned tid) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (tid + 1));
}

/// Single-threaded prefill through `sink` (a queue, or the monitored
/// view): chunked batched inserts so a 1M prefill costs thousands of
/// coordination round trips, not a million.
template <typename Sink>
void prefill_into(Sink& sink, const SteadyConfig& cfg) {
  constexpr std::size_t kChunk = 4096;
  sched::KeyGenerator gen(cfg.distribution, cfg.key_universe, 0, 1);
  util::Rng rng(thread_seed(cfg.seed, ~0u));
  std::vector<Priority> chunk;
  chunk.reserve(kChunk);
  std::size_t remaining = cfg.prefill;
  while (remaining > 0) {
    chunk.clear();
    const std::size_t n = std::min(kChunk, remaining);
    for (std::size_t i = 0; i < n; ++i) chunk.push_back(gen.next(rng));
    sched::insert_batch(sink, std::span<const Priority>(chunk));
    remaining -= n;
  }
}

/// The per-thread op loop shared by the timed and the monitored passes.
/// `Insert` is (span<const Priority>) -> void; `Claim` is
/// (k, vector<Priority>&) -> size_t. Counting and Dijkstra feedback live
/// here so both passes measure exactly the same traffic shape.
template <typename Insert, typename Claim>
void op_loop(const SteadyConfig& cfg, unsigned tid,
             const std::atomic<bool>& go, const std::atomic<bool>& stop,
             ThreadCounters& counters, Insert&& do_insert, Claim&& do_claim) {
  using Clock = std::chrono::steady_clock;
  sched::OpSequencer seq(cfg.policy, tid, cfg.threads);
  sched::KeyGenerator gen(cfg.distribution, cfg.key_universe, tid,
                          cfg.threads);
  util::Rng rng(thread_seed(cfg.seed, tid));
  std::vector<Priority> insbuf;
  std::vector<Priority> popbuf;
  insbuf.reserve(cfg.pop_batch);
  popbuf.reserve(cfg.pop_batch);
  const std::uint32_t claim = std::max<std::uint32_t>(cfg.pop_batch, 1);
  std::uint64_t touches = 0;

  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

  // Throughput-over-time attribution. Ops accumulate in a plain local and
  // are flushed into the 100 ms bucket the *sampled* clock reads land in —
  // zero extra clock reads on the hot path. Worst-case smear is the ops
  // between two samples (64 touches), far below one bucket's population.
  const auto window_start = Clock::now();
  std::uint64_t pending_ops = 0;
  const auto flush_bucket = [&](Clock::time_point now) {
    const auto idx = static_cast<std::size_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                             window_start)
            .count() /
        kBucketNs);
    if (counters.buckets.size() <= idx) counters.buckets.resize(idx + 1, 0);
    counters.buckets[idx] += pending_ops;
    pending_ops = 0;
  };

  while (!stop.load(std::memory_order_relaxed)) {
    const bool sampled = (++touches % kLatencySampleStride) == 0;
    const auto t0 = sampled ? Clock::now() : Clock::time_point{};
    if (seq.next_is_insert(rng)) {
      insbuf.clear();
      for (std::uint32_t i = 0; i < cfg.pop_batch; ++i)
        insbuf.push_back(gen.next(rng));
      do_insert(std::span<const Priority>(insbuf));
      counters.inserts += insbuf.size();
      pending_ops += insbuf.size();
    } else {
      popbuf.clear();
      const std::size_t got = do_claim(claim, popbuf);
      if (got == 0) {
        ++counters.empty_pops;
      } else {
        counters.deletes += got;
        pending_ops += got;
        for (const Priority p : popbuf) gen.feed(p);
      }
    }
    if (sampled) {
      const auto t1 = Clock::now();
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count();
      counters.op_latency_ns.record(static_cast<std::uint64_t>(ns));
      flush_bucket(t1);
    }
  }
  flush_bucket(Clock::now());  // the tail since the last sampled touch
}

/// One timed window over a fresh `queue`.
template <typename Queue>
TimedRun run_timed(Queue& queue, const SteadyConfig& cfg) {
  const unsigned threads = std::max<unsigned>(cfg.threads, 1);
  // Topology placement mirrors the engine: stripe the backend per domain
  // while it is still quiescent, then hand each thread's session its
  // domain. Backends without the striping surface stay flat.
  const util::WorkerPlacement placement =
      util::plan_workers(cfg.numa, threads);
  if constexpr (requires(Queue& q, const sched::StripeMap& m) {
                  q.num_queues();
                  q.set_stripe_map(m);
                }) {
    if (placement.num_domains > 1) {
      queue.set_stripe_map(sched::StripeMap(
          static_cast<std::size_t>(queue.num_queues()),
          placement.num_domains));
    }
  }
  prefill_into(queue, cfg);

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<util::Padded<ThreadCounters>> counters(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned tid = 0; tid < threads; ++tid) {
    pool.emplace_back([&, tid] {
      auto handle = sched::make_handle(queue);
      if constexpr (requires { handle.set_domain(0u); }) {
        if (placement.num_domains > 1)
          handle.set_domain(placement.domain[tid]);
      }
      op_loop(
          cfg, tid, go, stop, *counters[tid],
          [&](std::span<const Priority> keys) {
            sched::insert_batch(handle, keys);
          },
          [&](std::size_t k, std::vector<Priority>& out) {
            return sched::pop_batch(handle, k, out);
          });
    });
  }

  util::Timer timer;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(cfg.working_seconds));
  stop.store(true, std::memory_order_relaxed);
  const double window = timer.seconds();
  for (auto& t : pool) t.join();

  TimedRun run;
  run.seconds = window;
  obs::Histogram latency;
  for (const auto& c : counters) {
    run.inserts += c->inserts;
    run.deletes += c->deletes;
    run.empty_pops += c->empty_pops;
    latency.merge(c->op_latency_ns);
    if (c->buckets.size() > run.buckets.size())
      run.buckets.resize(c->buckets.size(), 0);
    for (std::size_t b = 0; b < c->buckets.size(); ++b)
      run.buckets[b] += c->buckets[b];
  }
  // Threads may straggle a few ops past the stop flag into a bucket beyond
  // the window; clamp to the window's bucket count so the profile length
  // is a function of working_seconds, not scheduler jitter.
  const std::size_t want_buckets = static_cast<std::size_t>(
      static_cast<std::uint64_t>(window * 1e9 + kBucketNs - 1) / kBucketNs);
  if (run.buckets.size() > want_buckets && want_buckets > 0) {
    for (std::size_t b = want_buckets; b < run.buckets.size(); ++b)
      run.buckets[want_buckets - 1] += run.buckets[b];
    run.buckets.resize(want_buckets);
  }
  const std::uint64_t ops = run.inserts + run.deletes;
  run.ops_per_s = window > 0.0 ? static_cast<double>(ops) / window : 0.0;
  if (latency.count() > 0) run.op_p99_us = latency.percentile(99) / 1e3;
  return run;
}

/// The monitored companion pass: identical traffic, every scheduler touch
/// serialized under one mutex through a RelaxationMonitor whose exact
/// mirror spans the key universe. Rank percentiles come out; throughput
/// does not (a global lock is not the thing being measured). Runs a
/// shorter window than the timed phase — rank statistics converge in a
/// fraction of the ops throughput needs.
template <typename Queue>
void run_monitored(Queue& queue, const SteadyConfig& cfg, SteadyCell& cell) {
  const unsigned threads = std::max<unsigned>(cfg.threads, 1);
  const double window = std::min(cfg.working_seconds, 0.5);

  sched::RelaxationMonitor<sched::SequentialView<Queue>> monitor(
      sched::SequentialView<Queue>(queue), cfg.key_universe,
      cfg.monitor_stride);
  prefill_into(monitor, cfg);

  std::mutex mu;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<util::Padded<ThreadCounters>> counters(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned tid = 0; tid < threads; ++tid) {
    pool.emplace_back([&, tid] {
      op_loop(
          cfg, tid, go, stop, *counters[tid],
          [&](std::span<const Priority> keys) {
            std::lock_guard<std::mutex> guard(mu);
            monitor.insert_batch(keys);
          },
          [&](std::size_t k, std::vector<Priority>& out) {
            std::lock_guard<std::mutex> guard(mu);
            return monitor.approx_get_min_batch(k, out);
          });
    });
  }

  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(window));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : pool) t.join();

  const util::ExponentialHistogram& ranks = monitor.rank_histogram();
  if (ranks.total() > 0) {
    cell.mean_rank = ranks.mean();
    cell.rank_p50 = ranks.percentile(50);
    cell.rank_p90 = ranks.percentile(90);
    cell.rank_p99 = ranks.percentile(99);
    cell.max_rank = ranks.max_value();
  }
}

}  // namespace

SteadyCell run_steady_cell(const SteadyConfig& cfg) {
  if (cfg.backend == nullptr)
    throw std::invalid_argument("run_steady_cell: cfg.backend is required");

  SteadyCell cell;
  cell.backend = std::string(cfg.backend->name);
  cell.threads = std::max<unsigned>(cfg.threads, 1);
  cell.policy = cfg.policy;
  cell.distribution = cfg.distribution;
  cell.pop_batch = cfg.pop_batch;
  cell.numa = cfg.numa.label();
  cell.runs = std::max<unsigned>(cfg.runs, 1);

  sched::dispatch_backend(
      *cfg.backend, steady_params(cfg), [&](auto tag, auto&&... args) {
        using Queue = typename decltype(tag)::type;

        std::vector<TimedRun> runs;
        runs.reserve(cell.runs);
        for (unsigned r = 0; r < cell.runs; ++r) {
          SteadyConfig run_cfg = cfg;
          run_cfg.seed = cfg.seed + r;  // fresh streams per repetition
          Queue queue(args...);
          runs.push_back(run_timed(queue, run_cfg));
        }
        // Median by sustained throughput: sort and take the middle run
        // wholesale, so every reported number comes from one coherent run.
        std::sort(runs.begin(), runs.end(),
                  [](const TimedRun& a, const TimedRun& b) {
                    return a.ops_per_s < b.ops_per_s;
                  });
        const TimedRun& median = runs[(runs.size() - 1) / 2];
        cell.seconds = median.seconds;
        cell.inserts = median.inserts;
        cell.deletes = median.deletes;
        cell.empty_pops = median.empty_pops;
        cell.ops = median.inserts + median.deletes;
        cell.ops_per_s = median.ops_per_s;
        cell.op_p99_us = median.op_p99_us;
        cell.buckets = median.buckets;

        if (cfg.quality) {
          Queue queue(args...);
          run_monitored(queue, cfg, cell);
        }
      });
  return cell;
}

void append_json_row(std::string& out, const SteadyCell& cell) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\": \"steady\", \"backend\": \"%s\", \"threads\": %u, "
      "\"pop_batch\": %u, \"numa\": \"%s\", "
      "\"policy\": \"%s\", "
      "\"distribution\": \"%s\", \"runs\": %u, \"seconds\": %.6f, "
      "\"tasks_per_s\": %.1f, \"ops\": %" PRIu64 ", \"inserts\": %" PRIu64
      ", \"deletes\": %" PRIu64 ", \"empty_pops\": %" PRIu64 ", ",
      cell.backend.c_str(), cell.threads, cell.pop_batch, cell.numa.c_str(),
      std::string(sched::insert_policy_name(cell.policy)).c_str(),
      std::string(sched::key_distribution_name(cell.distribution)).c_str(),
      cell.runs, cell.seconds, cell.ops_per_s, cell.ops, cell.inserts,
      cell.deletes, cell.empty_pops);
  out += buf;
  // Throughput-over-time profile. New with the topology PR; baselines
  // written before it simply lack the field, and bench_diff.py compares
  // only the metrics it knows, so old-vs-new diffs keep working.
  out += "\"buckets\": [";
  for (std::size_t b = 0; b < cell.buckets.size(); ++b) {
    std::snprintf(buf, sizeof buf, "%s%" PRIu64, b > 0 ? ", " : "",
                  cell.buckets[b]);
    out += buf;
  }
  out += "], ";
  if (cell.op_p99_us >= 0.0) {
    std::snprintf(buf, sizeof buf, "\"op_p99_us\": %.2f, ", cell.op_p99_us);
  } else {
    std::snprintf(buf, sizeof buf, "\"op_p99_us\": null, ");
  }
  out += buf;
  if (cell.mean_rank >= 0.0) {
    std::snprintf(buf, sizeof buf,
                  "\"mean_rank\": %.4f, \"rank_p50\": %.1f, "
                  "\"rank_p90\": %.1f, \"rank_p99\": %.1f, "
                  "\"max_rank\": %" PRIu64 "}",
                  cell.mean_rank, cell.rank_p50, cell.rank_p90, cell.rank_p99,
                  cell.max_rank);
  } else {
    std::snprintf(buf, sizeof buf,
                  "\"mean_rank\": null, \"rank_p50\": null, "
                  "\"rank_p90\": null, \"rank_p99\": null, "
                  "\"max_rank\": null}");
  }
  out += buf;
}

}  // namespace relax::bench
