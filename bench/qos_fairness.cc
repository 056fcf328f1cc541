// QoS fairness benchmark — measures what the weighted QosGovernor
// (src/engine/qos.h) actually delivers when tenants contend.
//
// Co-schedules synthetic "spin" tenants on one engine pool: a heavy class
// (--heavy-weight, default 2) and a light class (--light-weight, default
// 1), each a long-running job whose run_slice burns a fixed amount of CPU
// per scheduler iteration and counts what it consumed. Because every
// iteration costs the same, the per-tenant iteration totals over the timed
// window ARE the throughput shares, and fairness reduces to one line:
//
//   measured share ratio (heavy : light)  vs  configured weight ratio
//
// The paper's acceptance bar (ISSUE: 2:1 weights => at least 1.5:1 work
// ratio) is printed but not enforced here — engine_test carries the
// binding assertion; this harness exists to watch the margin over time.
// The light tenant's slice-latency percentiles are reported too: weighted
// sharing is only interesting if the small tenant still gets timely
// slices rather than banked starvation.
//
// --json emits one row per tenant class in the bench_diff.py cell schema
// (workload/backend/threads/pop_batch + tasks_per_s), so CI can track
// per-class throughput like any other bench cell; the extra fairness
// fields are ignored by old baselines per bench_diff's unknown-field rule.
//
// Usage: bench_qos_fairness [--threads=2] [--time-ms=2000]
//          [--heavy=1] [--light=1] [--heavy-weight=2] [--light-weight=1]
//          [--spin=200] [--slice-budget=0] [--json=path]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/execution_stats.h"
#include "engine/engine.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "util/cli.h"

namespace {

using Clock = std::chrono::steady_clock;

/// A synthetic tenant: burns --spin work units per scheduler iteration
/// until the shared stop flag flips, counting consumed iterations and
/// timing each slice. Uniform per-iteration cost makes iteration counts
/// directly comparable across tenants — the cleanest fairness signal.
class SpinJob final : public relax::engine::Job {
 public:
  SpinJob(std::uint32_t weight, std::uint32_t spin,
          const std::atomic<bool>* stop)
      : weight_(weight), spin_(spin), stop_(stop) {}

  void activate(unsigned) override {}

  relax::engine::SliceResult run_slice(unsigned,
                                       std::uint32_t budget) override {
    if (stop_->load(std::memory_order_relaxed)) return {};
    const auto t0 = Clock::now();
    std::uint32_t done = 0;
    while (done < budget && !stop_->load(std::memory_order_relaxed)) {
      volatile std::uint64_t sink = 0;
      for (std::uint32_t i = 0; i < spin_; ++i) sink += i;
      ++done;
    }
    iterations_.fetch_add(done, std::memory_order_relaxed);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    {
      std::lock_guard<std::mutex> guard(hist_mu_);
      slice_ns_.record(static_cast<std::uint64_t>(ns));
    }
    return {done, done > 0};
  }

  [[nodiscard]] std::uint32_t weight() const noexcept override {
    return weight_;
  }
  [[nodiscard]] bool finished() const noexcept override {
    return stop_->load(std::memory_order_acquire);
  }
  relax::core::ExecutionStats collect() override { return {}; }

  [[nodiscard]] std::uint64_t iterations() const noexcept {
    return iterations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double slice_percentile_us(double p) {
    std::lock_guard<std::mutex> guard(hist_mu_);
    return slice_ns_.percentile(p) / 1e3;
  }

 private:
  const std::uint32_t weight_;
  const std::uint32_t spin_;
  const std::atomic<bool>* stop_;
  std::atomic<std::uint64_t> iterations_{0};
  std::mutex hist_mu_;
  relax::obs::Histogram slice_ns_;
};

[[noreturn]] void usage_and_exit(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: bench_qos_fairness [flags]\n"
      "\n"
      "  --threads=<n>            engine worker threads (default 2)\n"
      "  --time-ms=<t>            contention window length (default 2000)\n"
      "  --heavy=<n>              heavy-class tenants (default 1)\n"
      "  --light=<n>              light-class tenants (default 1)\n"
      "  --heavy-weight=<w>       QoS weight of each heavy tenant\n"
      "                           (default 2)\n"
      "  --light-weight=<w>       QoS weight of each light tenant\n"
      "                           (default 1)\n"
      "  --spin=<k>               work units burned per scheduler\n"
      "                           iteration; sets the per-iteration cost\n"
      "                           all tenants share (default 200)\n"
      "  --slice-budget=<b>       engine slice budget override\n"
      "                           (0 = engine default)\n"
      "  --json=<path>            bench_diff.py-compatible artifact, one\n"
      "                           row per tenant class\n"
      "  --help                   this text\n");
  std::exit(error != nullptr ? 2 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  const relax::util::CommandLine cli(argc, argv);
  if (cli.has("help")) usage_and_exit(nullptr);

  const auto threads = static_cast<unsigned>(
      std::max<std::int64_t>(1, cli.get_int("threads", 2)));
  const auto time_ms = std::max<std::int64_t>(1, cli.get_int("time-ms", 2000));
  const auto n_heavy = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("heavy", 1)));
  const auto n_light = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("light", 1)));
  const auto heavy_w = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, cli.get_int("heavy-weight", 2)));
  const auto light_w = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, cli.get_int("light-weight", 1)));
  const auto spin = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, cli.get_int("spin", 200)));
  const auto slice_budget =
      std::max<std::int64_t>(0, cli.get_int("slice-budget", 0));

  relax::obs::MetricsRegistry registry;
  relax::engine::EngineOptions eo;
  eo.num_threads = threads;
  eo.pin_threads = false;  // shared CI runners; placement is not the point
  eo.max_in_flight = static_cast<unsigned>(n_heavy + n_light);
  eo.metrics = &registry;
  if (slice_budget > 0)
    eo.slice_budget = static_cast<std::uint32_t>(slice_budget);

  std::atomic<bool> stop{false};
  std::vector<std::shared_ptr<SpinJob>> heavy;
  std::vector<std::shared_ptr<SpinJob>> light;
  std::vector<relax::engine::JobTicket> tickets;
  {
    relax::engine::SchedulingEngine eng(eo);
    // Submit every tenant before the window opens so the whole timed
    // interval runs under full contention.
    for (std::size_t i = 0; i < n_heavy; ++i)
      heavy.push_back(std::make_shared<SpinJob>(heavy_w, spin, &stop));
    for (std::size_t i = 0; i < n_light; ++i)
      light.push_back(std::make_shared<SpinJob>(light_w, spin, &stop));
    for (auto& j : heavy) tickets.push_back(eng.submit(j));
    for (auto& j : light) tickets.push_back(eng.submit(j));

    std::this_thread::sleep_for(std::chrono::milliseconds(time_ms));
    stop.store(true, std::memory_order_release);
    for (auto& t : tickets) t.wait();
  }

  const double seconds = static_cast<double>(time_ms) / 1e3;
  std::uint64_t heavy_iters = 0;
  std::uint64_t light_iters = 0;
  for (const auto& j : heavy) heavy_iters += j->iterations();
  for (const auto& j : light) light_iters += j->iterations();
  const std::uint64_t total = heavy_iters + light_iters;

  // Configured share ratio: total heavy weight vs total light weight.
  const double weight_ratio =
      static_cast<double>(heavy_w) * static_cast<double>(n_heavy) /
      (static_cast<double>(light_w) * static_cast<double>(n_light));
  const double measured_ratio =
      light_iters > 0 ? static_cast<double>(heavy_iters) /
                            static_cast<double>(light_iters)
                      : 0.0;

  std::printf(
      "qos_fairness: %u workers, %zu heavy (w=%u) + %zu light (w=%u), "
      "%lld ms window, spin=%u\n",
      threads, n_heavy, heavy_w, n_light, light_w,
      static_cast<long long>(time_ms), spin);
  std::printf(
      "  heavy: %llu iters (%.1f%% of work, %.0f iters/s)\n",
      static_cast<unsigned long long>(heavy_iters),
      total > 0 ? 100.0 * static_cast<double>(heavy_iters) /
                      static_cast<double>(total)
                : 0.0,
      static_cast<double>(heavy_iters) / seconds);
  std::printf(
      "  light: %llu iters (%.1f%% of work, %.0f iters/s)\n",
      static_cast<unsigned long long>(light_iters),
      total > 0 ? 100.0 * static_cast<double>(light_iters) /
                      static_cast<double>(total)
                : 0.0,
      static_cast<double>(light_iters) / seconds);
  std::printf("  share ratio heavy:light = %.2f (weights say %.2f)\n",
              measured_ratio, weight_ratio);
  if (!light.empty()) {
    std::printf("  light slice latency p50=%.1fus p99=%.1fus\n",
                light[0]->slice_percentile_us(50),
                light[0]->slice_percentile_us(99));
  }

  const std::string json_path = cli.get_string("json", "");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open --json path '%s'\n",
                   json_path.c_str());
      return 1;
    }
    // bench_diff.py cell schema: workload/backend/threads/pop_batch key
    // plus tasks_per_s; the fairness extras ride along as ignored fields.
    std::fprintf(
        f,
        "[\n"
        "  {\"workload\": \"qos-fairness\", \"backend\": \"tenant-heavy\", "
        "\"threads\": %u, \"pop_batch\": 1, "
        "\"tasks_per_s\": %.1f, \"weight\": %u, \"share_ratio\": %.4f, "
        "\"weight_ratio\": %.4f},\n"
        "  {\"workload\": \"qos-fairness\", \"backend\": \"tenant-light\", "
        "\"threads\": %u, \"pop_batch\": 1, "
        "\"tasks_per_s\": %.1f, \"weight\": %u, \"slice_p99_us\": %.1f}\n"
        "]\n",
        threads, static_cast<double>(heavy_iters) / seconds, heavy_w,
        measured_ratio, weight_ratio, threads,
        static_cast<double>(light_iters) / seconds, light_w,
        light.empty() ? 0.0 : light[0]->slice_percentile_us(99));
    std::fclose(f);
  }
  return 0;
}
