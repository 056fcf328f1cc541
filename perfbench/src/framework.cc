// framework-large: greedy MIS, then greedy matching, on one G(1M, 5M) graph
// with a uniform random pi, streamed through one persistent
// SchedulingEngine (4 workers, caller-owned two-choice MultiQueue — the
// multiqueue-c2 configuration — pop batch 1). One "round" is one MIS solve
// followed by one matching solve; both are checked bit-exact against the
// sequential greedy result on the same pi.
//
// The traced run alternates plain rounds with rounds whose queue and
// problem go through the sampling wrappers in timed.h, so the per-layer
// split (sched / algorithms / engine self time) and the tracing overhead
// come from the same run.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "algorithms/matching.h"
#include "algorithms/mis.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "spans.h"
#include "timed.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace alg = relax::algorithms;
namespace eng = relax::engine;
namespace graph = relax::graph;

constexpr graph::Vertex kVertices = 1'000'000;
constexpr graph::EdgeId kEdges = 5'000'000;
constexpr unsigned kWorkers = 4;
constexpr unsigned kQueueFactor = 4;  // engine default sub-queues per worker
constexpr unsigned kChoices = 2;      // multiqueue-c2
constexpr unsigned kSetupReps = 5;
constexpr unsigned kMinRounds = 3;
constexpr graph::Vertex kAuditVertices = 100'000;
constexpr graph::EdgeId kAuditEdges = 500'000;

struct Inputs {
  graph::Graph g;
  graph::Priorities vertex_pri;
  std::unique_ptr<alg::EdgeIncidence> incidence;
  graph::Priorities edge_pri;
};

struct Setup {
  Inputs in;
  std::unique_ptr<eng::SchedulingEngine> engine;
  double seconds = 0.0;
  double graph_s = 0.0;   // graph-layer calls: gnm + both permutations
  double engine_s = 0.0;  // SchedulingEngine construction
};

Setup set_up(std::uint64_t seed, Spans& spans) {
  Setup s;
  auto total = spans.span("bench", "setup");
  {
    auto span = spans.span("graph", "graph::gnm");
    s.in.g = graph::gnm(kVertices, kEdges, derive_seed(seed, 0));
    s.graph_s += span.close();
  }
  {
    auto span = spans.span("graph", "graph::random_priorities");
    s.in.vertex_pri = graph::random_priorities(kVertices, derive_seed(seed, 1));
    s.graph_s += span.close();
  }
  {
    auto span = spans.span("algorithms", "algorithms::EdgeIncidence");
    s.in.incidence = std::make_unique<alg::EdgeIncidence>(s.in.g);
  }
  {
    auto span = spans.span("graph", "graph::random_priorities");
    s.in.edge_pri = graph::random_priorities(s.in.incidence->num_edges(),
                                             derive_seed(seed, 2));
    s.graph_s += span.close();
  }
  {
    auto span = spans.span("engine", "engine::SchedulingEngine");
    eng::EngineOptions opts;
    opts.num_threads = kWorkers;
    s.engine = std::make_unique<eng::SchedulingEngine>(opts);
    s.engine_s = span.close();
  }
  s.seconds = total.close();
  return s;
}

struct Solve {
  double seconds = 0.0;   // submit -> wait returned
  double submit_s = 0.0;  // the submit call alone
  relax::core::ExecutionStats stats;
};

template <typename P, typename Q>
Solve solve(eng::SchedulingEngine& engine, P& problem,
            const graph::Priorities& pri, Q& queue, Spans& spans,
            const char* name) {
  eng::JobConfig cfg;
  cfg.pop_batch = 1;
  Solve s;
  auto whole = spans.span("engine", name);
  const Clock::time_point t0 = Clock::now();
  eng::JobTicket ticket = engine.submit_relaxed_on(problem, pri, queue, cfg);
  s.submit_s = seconds_since(t0);
  s.stats = ticket.wait();
  s.seconds = whole.close();
  return s;
}

/// Everything the traced rounds measure through the wrappers.
struct LayerTotals {
  OpSummary pops;
  OpSummary inserts;
  OpSummary try_process;
  double worker_busy_s = 0.0;  // sum of slice time over workers
  double worker_wall_s = 0.0;  // job wall time x workers
  unsigned rounds = 0;
};

struct Round {
  Solve mis;
  Solve matching;
  bool exact = true;
  [[nodiscard]] double seconds() const {
    return mis.seconds + matching.seconds;
  }
};

void add_solve(LayerTotals& t, const Solve& s) {
  for (const auto& w : s.stats.per_worker) t.worker_busy_s += w.seconds;
  t.worker_wall_s += s.stats.seconds * kWorkers;
}

template <typename P>
Solve solve_plain(eng::SchedulingEngine& engine, P& problem,
                  const graph::Priorities& pri, std::uint64_t seed,
                  Spans& spans, const char* name) {
  relax::sched::ConcurrentMultiQueue queue(kQueueFactor * kWorkers, seed,
                                           kChoices);
  return solve(engine, problem, pri, queue, spans, name);
}

template <typename P>
Solve solve_timed(eng::SchedulingEngine& engine, P& problem,
                  const graph::Priorities& pri, std::uint64_t seed,
                  Spans& spans, const char* name, LayerTotals& totals) {
  TimedQueue queue(kQueueFactor * kWorkers, seed, kChoices);
  TimedProblem<P> timed_problem(problem);
  Solve s = solve(engine, timed_problem, pri, queue, spans, name);
  totals.pops.merge(queue.pops());
  totals.inserts.merge(queue.inserts());
  totals.try_process.merge(timed_problem.summary());
  add_solve(totals, s);
  return s;
}

Round run_round(Setup& setup, const std::vector<std::uint8_t>& mis_ref,
                const std::vector<std::uint8_t>& matching_ref,
                std::uint64_t seed, Spans& spans, LayerTotals* totals) {
  Round r;
  const Inputs& in = setup.in;
  {
    alg::AtomicMisProblem mis(in.g, in.vertex_pri);
    r.mis = totals == nullptr
                ? solve_plain(*setup.engine, mis, in.vertex_pri, seed, spans,
                              "engine::solve_mis")
                : solve_timed(*setup.engine, mis, in.vertex_pri, seed, spans,
                              "engine::solve_mis", *totals);
    r.exact = r.exact && mis.result() == mis_ref;
  }
  {
    alg::AtomicMatchingProblem matching(*in.incidence, in.edge_pri);
    r.matching =
        totals == nullptr
            ? solve_plain(*setup.engine, matching, in.edge_pri, seed + 1,
                          spans, "engine::solve_matching")
            : solve_timed(*setup.engine, matching, in.edge_pri, seed + 1,
                          spans, "engine::solve_matching", *totals);
    r.exact = r.exact && matching.result() == matching_ref;
  }
  if (totals != nullptr) ++totals->rounds;
  return r;
}

}  // namespace

void run_framework_large(const Options& opt, Report& report) {
  Spans spans(opt.trace);
  std::vector<double> setup_s;
  Setup setup;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    setup = Setup{};  // frees the previous repetition before rebuilding
    setup = set_up(opt.seed, spans);
    setup_s.push_back(setup.seconds);
  }
  const Inputs& in = setup.in;
  const double tasks_per_round =
      static_cast<double>(in.g.num_vertices()) +
      static_cast<double>(in.incidence->num_edges());

  // Sequential references on the same inputs and pi: the correctness
  // oracle, and the single-thread control baselines.
  std::vector<std::uint8_t> mis_ref;
  std::vector<std::uint8_t> matching_ref;
  double mis_seq_s = 0.0;
  double matching_seq_s = 0.0;
  bool refs_valid = true;
  {
    auto span = spans.span("algorithms", "algorithms::sequential_greedy_mis");
    mis_ref = alg::sequential_greedy_mis(in.g, in.vertex_pri);
    mis_seq_s = span.close();
  }
  {
    auto span = spans.span("algorithms", "algorithms::verify_mis");
    refs_valid = refs_valid && alg::verify_mis(in.g, mis_ref);
  }
  {
    auto span =
        spans.span("algorithms", "algorithms::sequential_greedy_matching");
    matching_ref = alg::sequential_greedy_matching(*in.incidence, in.edge_pri);
    matching_seq_s = span.close();
  }
  {
    auto span = spans.span("algorithms", "algorithms::verify_matching");
    refs_valid = refs_valid && alg::verify_matching(*in.incidence, matching_ref);
  }
  if (!refs_valid) {
    report.correct = false;
    report.notes.push_back("sequential reference failed verification");
  }

  // Measurement window. Untraced: plain rounds only. Traced: plain and
  // wrapped rounds alternate, so both see the same machine state.
  std::vector<Round> plain;
  std::vector<Round> wrapped;
  LayerTotals totals;
  std::uint64_t round_no = 0;
  const Clock::time_point window = Clock::now();
  while (seconds_since(window) < opt.seconds ||
         plain.size() < (opt.trace ? 1u : kMinRounds) ||
         (opt.trace && wrapped.empty())) {
    const std::uint64_t seed = derive_seed(opt.seed, 100 + 2 * round_no);
    const bool wrap = opt.trace && (round_no % 2 == 1);
    Round r = run_round(setup, mis_ref, matching_ref, seed, spans,
                        wrap ? &totals : nullptr);
    ++round_no;
    report.attempted += 2;
    if (!r.exact) {
      ++report.failed;
      report.correct = false;
    }
    (wrap ? wrapped : plain).push_back(std::move(r));
  }
  if (!report.correct) report.notes.push_back("parallel result != sequential");

  std::vector<double> round_s, mis_s, matching_s, submit_us;
  relax::obs::Histogram slices;
  std::uint64_t failed_deletes = 0;
  for (const Round& r : opt.trace ? wrapped : plain) {
    round_s.push_back(r.seconds());
    mis_s.push_back(r.mis.seconds);
    matching_s.push_back(r.matching.seconds);
    for (const Solve* s : {&r.mis, &r.matching}) {
      submit_us.push_back(s->submit_s * 1e6);
      slices.merge(s->stats.slice_latency_ns);
      failed_deletes += s->stats.failed_deletes;
    }
  }
  const auto rounds = static_cast<double>(round_s.size());
  report.notes.push_back("rounds=" + std::to_string(round_s.size()) +
                         " (one MIS + one matching solve each)");

  if (!opt.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_rss_mib(), "MiB");
    report.set("latency_ms", median(round_s) * 1e3, "ms");
    report.set("throughput_per_s", tasks_per_round / median(round_s), "1/s");
    report.set("mis_solve_s", median(mis_s), "s");
    report.set("matching_solve_s", median(matching_s), "s");
    return;
  }

  // ---- traced run: per-layer split over the wrapped rounds ---------------
  std::vector<double> plain_round_s;
  for (const Round& r : plain) plain_round_s.push_back(r.seconds());
  totals.pops.finish();
  totals.inserts.finish();
  totals.try_process.finish();
  const double per_round = 1.0 / static_cast<double>(totals.rounds);
  const double sched_busy = totals.pops.busy_s + totals.inserts.busy_s;
  const double alg_busy = totals.try_process.busy_s;

  // Audited solve: Definition 1 rank error of one MIS run through the
  // engine's serialized RelaxationMonitor mode, on the same engine and
  // queue shape. The monitor serializes every scheduler op (~14 s at 1M
  // vertices), so it audits a G(100k, 500k) graph of the same density; the
  // rank envelope depends on the sub-queue count, not on n.
  double mean_rank_error = 0.0;
  {
    auto span = spans.span("engine", "engine::solve_mis_audited");
    const graph::Graph g = graph::gnm(kAuditVertices, kAuditEdges,
                                      derive_seed(opt.seed, 97));
    const graph::Priorities pri =
        graph::random_priorities(kAuditVertices, derive_seed(opt.seed, 98));
    alg::AtomicMisProblem mis(g, pri);
    eng::JobConfig cfg;
    cfg.monitor_relaxation = true;
    cfg.seed = derive_seed(opt.seed, 99);
    const relax::core::ExecutionStats stats =
        setup.engine->submit_relaxed(mis, pri, cfg).wait();
    mean_rank_error = stats.mean_rank_error;
    if (mis.result() != alg::sequential_greedy_mis(g, pri)) {
      report.correct = false;
      ++report.failed;
      report.notes.push_back("audited MIS != sequential");
    }
    ++report.attempted;
  }

  report.set("graph.gen_s", setup.graph_s, "s");
  report.set("graph.csr_mb", csr_mib(in.g), "MiB");
  report.set("algorithms.seq_s", mis_seq_s + matching_seq_s, "s");
  report.set("algorithms.mis_seq_s", mis_seq_s, "s");
  report.set("algorithms.matching_seq_s", matching_seq_s, "s");
  report.set("algorithms.try_process_ns.p50",
             nearest_rank(totals.try_process.samples_ns, 0.5), "ns");
  report.set("algorithms.try_process_ns.p99",
             nearest_rank(totals.try_process.samples_ns, 0.99), "ns");
  report.set("algorithms.busy_s", alg_busy * per_round, "s");
  report.set("sched.pop_ns.p50", nearest_rank(totals.pops.samples_ns, 0.5),
             "ns");
  report.set("sched.pop_ns.p99", nearest_rank(totals.pops.samples_ns, 0.99),
             "ns");
  report.set("sched.pop_busy_s", totals.pops.busy_s * per_round, "s");
  report.set("sched.insert_ns.p99",
             nearest_rank(totals.inserts.samples_ns, 0.99), "ns");
  report.set("sched.insert_busy_s", totals.inserts.busy_s * per_round, "s");
  report.set("sched.empty_pop_share",
             static_cast<double>(totals.pops.empty) /
                 static_cast<double>(std::max<std::uint64_t>(
                     totals.pops.calls, 1)),
             "ratio");
  report.set("sched.labels_per_claim",
             static_cast<double>(totals.pops.items) /
                 static_cast<double>(std::max<std::uint64_t>(
                     totals.pops.calls, 1)),
             "count");
  report.set("sched.wasted_per_task",
             static_cast<double>(failed_deletes) / (tasks_per_round * rounds),
             "ratio");
  report.set("sched.mean_rank_error", mean_rank_error, "count");
  report.set("engine.startup_s", setup.engine_s, "s");
  report.set("engine.worker_busy_s", totals.worker_busy_s * per_round, "s");
  report.set("engine.idle_share",
             1.0 - totals.worker_busy_s / totals.worker_wall_s, "ratio");
  report.set("engine.self_s",
             (totals.worker_busy_s - sched_busy - alg_busy) * per_round, "s");
  report.set("engine.slice_p99_us", slices.percentile(99.0) / 1e3, "us");
  report.set("engine.submit_us", median(submit_us), "us");
  report.set("trace.overhead_share",
             median(round_s) / median(plain_round_s) - 1.0, "ratio");
  // engine.self_s is the residual of the worker busy time, so it also
  // carries the sampling error of the two estimates; state that error.
  const double sampling_se =
      std::sqrt(totals.pops.busy_se_s * totals.pops.busy_se_s +
                totals.inserts.busy_se_s * totals.inserts.busy_se_s +
                totals.try_process.busy_se_s * totals.try_process.busy_se_s);
  report.notes.push_back(
      "accounting per round: worker busy " +
      std::to_string(totals.worker_busy_s * per_round) + " s = sched " +
      std::to_string(sched_busy * per_round) + " s + algorithms " +
      std::to_string(alg_busy * per_round) + " s + engine self " +
      std::to_string((totals.worker_busy_s - sched_busy - alg_busy) *
                     per_round) +
      " s (residual; sampling standard error +/- " +
      std::to_string(sampling_se * per_round) +
      " s); worker idle (wall x 4 - busy) " +
      std::to_string((totals.worker_wall_s - totals.worker_busy_s) *
                     per_round) +
      " s");
  report.notes.push_back(
      "samples: pop " + std::to_string(totals.pops.samples_ns.size()) +
      ", insert " + std::to_string(totals.inserts.samples_ns.size()) +
      ", try_process " + std::to_string(totals.try_process.samples_ns.size()) +
      " (1 in 64 calls)");
  finish_trace(spans, opt, report);
}

}  // namespace perfbench
