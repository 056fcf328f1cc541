// Engine × backend matrix: every registry backend runs real framework jobs
// through one SchedulingEngine and must produce exactly the sequential
// outcome (the paper's determinism property survives the backend swap);
// the deterministic baselines must additionally be bit-reproducible.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/mis.h"
#include "core/execution_stats.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "sched/backend_registry.h"

namespace relax::engine {
namespace {

using graph::Graph;

EngineOptions engine_opts(unsigned threads, unsigned in_flight) {
  EngineOptions opts;
  opts.num_threads = threads;
  opts.pin_threads = false;  // CI-style environment friendliness
  opts.max_in_flight = in_flight;
  return opts;
}

struct MisFixture {
  Graph g;
  graph::Priorities pri;
  std::vector<std::uint8_t> expected;

  explicit MisFixture(std::uint32_t n = 3000, std::uint64_t m = 18000)
      : g(graph::gnm(n, m, 5)),
        pri(graph::random_priorities(n, 9)),
        expected(algorithms::sequential_greedy_mis(g, pri)) {}
};

TEST(EngineBackend, EveryBackendProducesTheSequentialMis) {
  const MisFixture fix;
  SchedulingEngine eng(engine_opts(4, 2));
  for (const sched::BackendInfo& info : sched::backend_registry()) {
    SCOPED_TRACE(std::string("backend: ") + std::string(info.name));
    algorithms::AtomicMisProblem problem(fix.g, fix.pri);
    JobConfig cfg;
    cfg.seed = 3;
    const auto stats =
        eng.submit_relaxed_backend(problem, fix.pri, info, cfg).wait();
    EXPECT_EQ(problem.result(), fix.expected);
    EXPECT_TRUE(algorithms::verify_mis(fix.g, problem.result()));
    // Counting invariant: every task retired exactly once, whatever the
    // backend's relaxation.
    EXPECT_EQ(stats.processed + stats.dead_skips, fix.g.num_vertices());
    EXPECT_EQ(stats.iterations,
              stats.processed + stats.failed_deletes + stats.dead_skips);
  }
  EXPECT_EQ(eng.jobs_completed(), sched::backend_registry().size());
}

// The headline multi-tenant variant: one job per backend, all in flight on
// the same pool at once, heterogeneous scheduler types multiplexed by the
// same workers — every job still decides the sequential MIS.
TEST(EngineBackend, AllBackendsInFlightTogetherStayDeterministic) {
  const MisFixture fix(2000, 12000);
  const auto registry = sched::backend_registry();
  SchedulingEngine eng(engine_opts(4, 4));
  std::vector<std::unique_ptr<algorithms::AtomicMisProblem>> problems;
  std::vector<JobTicket> tickets;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    problems.push_back(
        std::make_unique<algorithms::AtomicMisProblem>(fix.g, fix.pri));
    JobConfig cfg;
    cfg.seed = 11 + i;
    tickets.push_back(eng.submit_relaxed_backend(*problems.back(), fix.pri,
                                                 registry[i], cfg));
  }
  for (std::size_t i = 0; i < registry.size(); ++i) {
    SCOPED_TRACE(std::string("backend: ") + std::string(registry[i].name));
    (void)tickets[i].wait();
    EXPECT_EQ(problems[i]->result(), fix.expected);
  }
}

// Batched task acquisition (JobConfig::pop_batch) across the whole
// registry: the worker-local label buffer must not break the framework's
// determinism property or the retirement counting — every backend still
// decides exactly the sequential MIS, every task retires exactly once, and
// termination never fires while labels sit buffered (a lost label would
// hang the wait(); a duplicate would break the counting invariant).
TEST(EngineBackend, BatchedAcquisitionProducesTheSequentialMis) {
  const MisFixture fix;
  SchedulingEngine eng(engine_opts(4, 2));
  for (const sched::BackendInfo& info : sched::backend_registry()) {
    SCOPED_TRACE(std::string("backend: ") + std::string(info.name));
    algorithms::AtomicMisProblem problem(fix.g, fix.pri);
    JobConfig cfg;
    cfg.seed = 51;
    cfg.pop_batch = 8;
    const auto stats =
        eng.submit_relaxed_backend(problem, fix.pri, info, cfg).wait();
    EXPECT_EQ(problem.result(), fix.expected);
    EXPECT_TRUE(algorithms::verify_mis(fix.g, problem.result()));
    EXPECT_EQ(stats.processed + stats.dead_skips, fix.g.num_vertices());
    EXPECT_EQ(stats.iterations,
              stats.processed + stats.failed_deletes + stats.dead_skips);
  }
}

// Large-batch claims with batched re-insertion: every backend still decides
// exactly the sequential MIS when each worker claims up to 64 labels per
// touch and its kNotReady labels are buffered and flushed as insert_batch
// runs. A label stranded in a re-insertion buffer would hang wait(); a
// duplicated one breaks the counting.
TEST(EngineBackend, LargeBatchReinsertionProducesTheSequentialMis) {
  const MisFixture fix;
  SchedulingEngine eng(engine_opts(4, 2));
  for (const sched::BackendInfo& info : sched::backend_registry()) {
    SCOPED_TRACE(std::string("backend: ") + std::string(info.name));
    algorithms::AtomicMisProblem problem(fix.g, fix.pri);
    JobConfig cfg;
    cfg.seed = 71;
    cfg.pop_batch = 64;
    const auto stats =
        eng.submit_relaxed_backend(problem, fix.pri, info, cfg).wait();
    EXPECT_EQ(problem.result(), fix.expected);
    EXPECT_TRUE(algorithms::verify_mis(fix.g, problem.result()));
    EXPECT_EQ(stats.processed + stats.dead_skips, fix.g.num_vertices());
    EXPECT_EQ(stats.iterations,
              stats.processed + stats.failed_deletes + stats.dead_skips);
  }
}

TEST(EngineBackend, PopBatchFlagParsing) {
  EXPECT_EQ(parse_pop_batch_flag("8"), 8u);
  EXPECT_EQ(parse_pop_batch_flag("1"), 1u);

  // Zero, garbage and the retired adaptive forms are rejected outright so
  // CLI front-ends fail with a clear error instead of running a batch size
  // the user never asked for.
  for (const char* bad : {"0", "garbage", "", "-3", "8x", "auto", "auto:8",
                          "auto:0", "auto:junk"}) {
    SCOPED_TRACE(std::string("value: '") + bad + "'");
    EXPECT_EQ(parse_pop_batch_flag(bad), std::nullopt);
  }

  // Oversized values clamp and stay valid (reported == effective).
  EXPECT_EQ(parse_pop_batch_flag("99999999"), JobConfig::kMaxPopBatch);
}

// A monitored batched job measures the batch-aware Definition 1 envelope
// in situ: mean rank error stays within a generous multiple of
// batched_rank_bound even under real concurrency.
TEST(EngineBackend, MonitoredBatchedJobStaysInBatchEnvelope) {
  const MisFixture fix(1500, 9000);
  SchedulingEngine eng(engine_opts(4, 1));
  algorithms::AtomicMisProblem problem(fix.g, fix.pri);
  JobConfig cfg;
  cfg.seed = 61;
  cfg.pop_batch = 8;
  cfg.monitor_relaxation = true;
  cfg.monitor_stride = 16;
  const auto stats =
      eng.submit_relaxed_backend(problem, fix.pri, "multiqueue-c2", cfg)
          .wait();
  EXPECT_EQ(problem.result(), fix.expected);
  EXPECT_GT(stats.rank_samples, 0u);
  sched::BackendParams params;
  params.threads = eng.width();
  params.queue_factor = cfg.queue_factor;
  const std::uint64_t bound = sched::batched_rank_bound(
      sched::backend_or_throw("multiqueue-c2"), params, cfg.pop_batch);
  EXPECT_LE(stats.mean_rank_error, 2.0 * static_cast<double>(bound));
}

// Deterministic baselines (kbounded, exact) on a single-worker engine are
// fully reproducible: two runs with the same seed give identical work
// accounting, not just identical output.
TEST(EngineBackend, DeterministicBaselinesAreReproducible) {
  const MisFixture fix(1500, 9000);
  for (const sched::BackendInfo& info : sched::backend_registry()) {
    if (!info.deterministic) continue;
    SCOPED_TRACE(std::string("backend: ") + std::string(info.name));
    core::ExecutionStats runs[2];
    for (auto& stats : runs) {
      SchedulingEngine eng(engine_opts(1, 1));
      algorithms::AtomicMisProblem problem(fix.g, fix.pri);
      JobConfig cfg;
      cfg.seed = 21;
      stats = eng.submit_relaxed_backend(problem, fix.pri, info, cfg).wait();
      EXPECT_EQ(problem.result(), fix.expected);
    }
    EXPECT_EQ(runs[0].iterations, runs[1].iterations);
    EXPECT_EQ(runs[0].processed, runs[1].processed);
    EXPECT_EQ(runs[0].failed_deletes, runs[1].failed_deletes);
    EXPECT_EQ(runs[0].dead_skips, runs[1].dead_skips);
  }
}

TEST(EngineBackend, MonitoredBackendJobReportsQuality) {
  const MisFixture fix(1500, 9000);
  SchedulingEngine eng(engine_opts(4, 1));
  // A randomized backend: quality fields populated, samples counted.
  {
    algorithms::AtomicMisProblem problem(fix.g, fix.pri);
    JobConfig cfg;
    cfg.seed = 31;
    cfg.monitor_relaxation = true;
    cfg.monitor_stride = 16;
    const auto stats =
        eng.submit_relaxed_backend(problem, fix.pri, "lockfree-multiqueue",
                                   cfg)
            .wait();
    EXPECT_EQ(problem.result(), fix.expected);
    EXPECT_GT(stats.rank_samples, 0u);
    EXPECT_GT(stats.inversion_samples, 0u);
    EXPECT_LT(stats.max_rank_error, fix.g.num_vertices());
  }
  // The deterministic window honours its rank cap even in audit mode:
  // k derives to queue_factor * width.
  {
    algorithms::AtomicMisProblem problem(fix.g, fix.pri);
    JobConfig cfg;
    cfg.seed = 37;
    cfg.monitor_relaxation = true;
    const auto stats =
        eng.submit_relaxed_backend(problem, fix.pri, "kbounded", cfg).wait();
    EXPECT_EQ(problem.result(), fix.expected);
    EXPECT_GT(stats.rank_samples, 0u);
    EXPECT_LT(stats.max_rank_error, cfg.queue_factor * eng.width());
  }
}

TEST(EngineBackend, ExplicitRelaxationKIsHonoured) {
  const MisFixture fix(1500, 9000);
  SchedulingEngine eng(engine_opts(2, 1));
  algorithms::AtomicMisProblem problem(fix.g, fix.pri);
  JobConfig cfg;
  cfg.seed = 41;
  cfg.relaxation_k = 3;
  cfg.monitor_relaxation = true;
  const auto stats =
      eng.submit_relaxed_backend(problem, fix.pri, "kbounded", cfg).wait();
  EXPECT_EQ(problem.result(), fix.expected);
  EXPECT_LT(stats.max_rank_error, 3u);
}

// Weighted co-runs over real framework jobs: QoS weights reshape slice
// budgets (the heavy tenant is granted larger slices under contention),
// and the determinism property must be completely insensitive to that —
// the decided outcome depends only on pi, never on slice boundaries.
TEST(EngineBackend, WeightedJobsStayDeterministic) {
  const MisFixture fix(2000, 12000);
  SchedulingEngine eng(engine_opts(2, 3));
  std::vector<std::unique_ptr<algorithms::AtomicMisProblem>> problems;
  std::vector<JobTicket> tickets;
  const std::uint32_t weights[] = {1, 2, 8};
  for (std::size_t i = 0; i < 3; ++i) {
    problems.push_back(
        std::make_unique<algorithms::AtomicMisProblem>(fix.g, fix.pri));
    JobConfig cfg;
    cfg.seed = 81 + i;
    cfg.weight = weights[i];
    tickets.push_back(eng.submit_relaxed_backend(
        *problems.back(), fix.pri, "multiqueue-c2", cfg));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(std::string("weight: ") + std::to_string(weights[i]));
    const auto stats = tickets[i].wait();
    EXPECT_EQ(problems[i]->result(), fix.expected);
    EXPECT_EQ(stats.processed + stats.dead_skips, fix.g.num_vertices());
  }
  // Out-of-range weights clamp at admission rather than distorting the
  // governor's aggregate weight: a solo max-weight job still just runs.
  algorithms::AtomicMisProblem solo(fix.g, fix.pri);
  JobConfig cfg;
  cfg.seed = 91;
  cfg.weight = JobConfig::kMaxWeight;
  (void)eng.submit_relaxed_backend(solo, fix.pri, "multiqueue-c2", cfg)
      .wait();
  EXPECT_EQ(solo.result(), fix.expected);
}

TEST(EngineBackend, UnknownBackendNameThrowsWithValidList) {
  const MisFixture fix(100, 300);
  SchedulingEngine eng(engine_opts(1, 1));
  algorithms::AtomicMisProblem problem(fix.g, fix.pri);
  EXPECT_THROW(
      (void)eng.submit_relaxed_backend(problem, fix.pri, "no-such-backend"),
      std::invalid_argument);
  try {
    (void)eng.submit_relaxed_backend(problem, fix.pri, "no-such-backend");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("multiqueue-c2"), std::string::npos);
  }
}

}  // namespace
}  // namespace relax::engine
