// MetricsRegistry / TraceRing — snapshot consistency under concurrent
// recording (the TSan row runs this), exporter output shape, ring
// overwrite-oldest semantics, and end-to-end engine integration.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/mis.h"
#include "core/parallel_executor.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "obs/trace_ring.h"

namespace relax::obs {
namespace {

TEST(MetricsRegistry, ResizeClearsAndSizes) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.width(), 0u);
  reg.resize(3);
  ASSERT_EQ(reg.width(), 3u);
  reg.worker(1).pops.add(7);
  reg.jobs_submitted().add();
  reg.resize(2);  // a fresh run on the same registry starts from zero
  EXPECT_EQ(reg.width(), 2u);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.workers[1].pops, 0u);
  EXPECT_EQ(snap.jobs_submitted, 0u);
}

// Writers hammer their own slots while a reader snapshots mid-write. Run
// under TSan this proves the relaxed-atomic contract; under any build it
// checks snapshot monotonicity (counters never run backwards) and internal
// consistency (histogram count == bucket sum, so percentile() can't walk
// off the end of a torn snapshot).
TEST(MetricsRegistry, SnapshotDuringConcurrentRecording) {
  constexpr unsigned kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  MetricsRegistry reg;
  reg.resize(kWriters);
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&reg, &go, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      WorkerMetrics& wm = reg.worker(w);
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        wm.pops.add();
        wm.slice_ns.record(i % 5000);
      }
    });
  }
  go.store(true, std::memory_order_release);
  std::uint64_t last_pops = 0;
  for (int round = 0; round < 200; ++round) {
    const MetricsSnapshot snap = reg.snapshot();
    std::uint64_t pops = 0;
    for (const WorkerSnapshot& ws : snap.workers) {
      pops += ws.pops;
      std::uint64_t bucket_sum = 0;
      for (unsigned b = 0; b < kHistogramBuckets; ++b)
        bucket_sum += ws.slice_ns.bucket(b);
      EXPECT_EQ(ws.slice_ns.count(), bucket_sum);
      // Percentiles on a mid-write snapshot must stay finite and ordered.
      const double p50 = ws.slice_ns.percentile(50.0);
      const double p99 = ws.slice_ns.percentile(99.0);
      EXPECT_GE(p50, 0.0);
      EXPECT_LE(p50, p99 + 1e-9);
    }
    EXPECT_GE(pops, last_pops);  // counters are monotone
    last_pops = pops;
  }
  for (auto& t : writers) t.join();
  const MetricsSnapshot final_snap = reg.snapshot();
  std::uint64_t total = 0;
  for (const WorkerSnapshot& ws : final_snap.workers) total += ws.pops;
  EXPECT_EQ(total, kWriters * kPerWriter);
}

TEST(MetricsRegistry, PrometheusListsEveryFamily) {
  MetricsRegistry reg;
  reg.resize(2);
  reg.worker(0).pops.add(3);
  reg.worker(0).slice_ns.record(1500);
  reg.worker(1).parks.add();
  reg.jobs_submitted().add();
  reg.jobs_completed().add();
  const std::string text = reg.to_prometheus();
  for (const char* family :
       {"relax_engine_jobs_submitted_total", "relax_engine_jobs_completed_total",
        "relax_worker_slices_total", "relax_worker_idle_visits_total",
        "relax_worker_claims_total", "relax_worker_pops_total",
        "relax_worker_processed_total", "relax_worker_failed_deletes_total",
        "relax_worker_dead_skips_total", "relax_worker_empty_polls_total",
        "relax_worker_reinserts_total", "relax_worker_parks_total",
        "relax_slice_latency_ns", "relax_claim_size", "relax_park_ns"}) {
    EXPECT_NE(text.find(family), std::string::npos)
        << "missing family " << family;
  }
  EXPECT_NE(text.find("relax_worker_pops_total{worker=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("relax_slice_latency_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
}

TEST(MetricsRegistry, JsonShape) {
  MetricsRegistry reg;
  reg.resize(1);
  reg.worker(0).processed.add(42);
  const std::string json = reg.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"workers\": ["), std::string::npos);
  EXPECT_NE(json.find("\"processed\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(TraceRing, OverwritesOldestWhenFull) {
  TraceRing ring(4);
  ring.resize(1);
  for (std::uint32_t i = 0; i < 7; ++i) {
    ring.record(0, EventKind::kClaim, /*ts_ns=*/i * 100, 0, /*arg=*/i);
  }
  EXPECT_EQ(ring.event_count(), 4u);  // bounded
  EXPECT_EQ(ring.dropped(), 3u);      // 3 oldest overwritten
  const std::string json = ring.to_chrome_json();
  // Events 0..2 were evicted; 3..6 survive, oldest first.
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(json.find("{\"got\": " + std::to_string(i) + "}"),
              std::string::npos)
        << "evicted event " << i << " still present";
  }
  std::size_t prev = 0;
  for (std::uint32_t i = 3; i < 7; ++i) {
    const std::size_t at = json.find("{\"got\": " + std::to_string(i) + "}");
    ASSERT_NE(at, std::string::npos) << "surviving event " << i << " missing";
    EXPECT_GT(at, prev) << "events out of oldest-first order";
    prev = at;
  }
}

TEST(TraceRing, ChromeJsonShape) {
  TraceRing ring;
  ring.resize(2);
  ring.record(0, EventKind::kSlice, 1000, 5000, /*job=*/1);
  ring.record(1, EventKind::kPark, 2000, 3000, 0);
  ring.record(1, EventKind::kClaim, 9000, 0, /*got=*/8);
  const std::string json = ring.to_chrome_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // complete spans
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);  // instants
  EXPECT_NE(json.find("\"name\": \"slice\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"park\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"claim\""), std::string::npos);
  EXPECT_NE(json.find("{\"got\": 8}"), std::string::npos);
  // ts/dur are microseconds: 1000ns -> 1.000us.
  EXPECT_NE(json.find("\"ts\": 1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 5.000"), std::string::npos);
}

// End to end: a real MIS run through the engine with both sinks attached
// fills every layer — job counters, engine slice accounting, and the ring.
TEST(Observability, EngineRunPopulatesSinks) {
  const auto g = relax::graph::gnm(3000, 15000, 5);
  const auto pri = relax::graph::random_priorities(3000, 6);
  relax::algorithms::AtomicMisProblem problem(g, pri);

  MetricsRegistry reg;
  TraceRing ring;
  relax::core::ParallelOptions opts;
  opts.num_threads = 4;
  opts.pin_threads = false;
  opts.pop_batch = 8;
  opts.metrics = &reg;
  opts.trace = &ring;
  const auto stats = relax::core::run_parallel_relaxed(problem, pri, opts);

  EXPECT_EQ(reg.width(), 4u);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.jobs_submitted, 1u);
  EXPECT_EQ(snap.jobs_completed, 1u);
  std::uint64_t pops = 0, processed = 0, claims = 0;
  for (const WorkerSnapshot& ws : snap.workers) {
    pops += ws.pops;
    processed += ws.processed;
    claims += ws.claims;
  }
  // The registry's totals agree with the job's own quiesced stats
  // (iterations counts every label the scheduler delivered: processed +
  // failed deletes + dead skips).
  EXPECT_EQ(pops, stats.iterations);
  EXPECT_EQ(processed, stats.processed);
  EXPECT_GT(claims, 0u);
  EXPECT_EQ(snap.claim_size.sum(), pops);
  // Engine-side slice accounting and the job's own stripe both saw slices.
  EXPECT_GT(snap.slice_ns.count(), 0u);
  EXPECT_GT(stats.slices, 0u);
  EXPECT_GT(stats.slice_percentile_us(99), 0.0);
  ASSERT_EQ(stats.per_worker.size(), 4u);
  std::uint64_t striped_processed = 0;
  for (const auto& w : stats.per_worker) striped_processed += w.processed;
  EXPECT_EQ(striped_processed, stats.processed);
  // The ring holds slice spans with the submitted job's id as arg.
  EXPECT_GT(ring.event_count(), 0u);
  const std::string trace = ring.to_chrome_json();
  EXPECT_NE(trace.find("\"name\": \"slice\""), std::string::npos);
  EXPECT_NE(trace.find("{\"job\": 1}"), std::string::npos);
}

}  // namespace
}  // namespace relax::obs
