// sssp-batched: parallel_relaxed_sssp on G(500k, 2.5M) with synthetic edge
// weights, 4 threads and pop batch 8, checked against Dijkstra. Every
// relaxation re-inserts a key out of order, so this drives the scheduler's
// batched insert (bulk_insert's sorted-run merge) far harder than the
// framework's ascending admission. SSSP runs its own thread loop: the
// engine and the server are bypassed.
#include <algorithm>
#include <vector>

#include "algorithms/sssp.h"
#include "bench/steady_state.h"
#include "graph/generators.h"
#include "sched/backend_registry.h"
#include "sched/key_distribution.h"
#include "spans.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace alg = relax::algorithms;
namespace graph = relax::graph;

constexpr graph::Vertex kVertices = 500'000;
constexpr graph::EdgeId kEdges = 2'500'000;
constexpr unsigned kThreads = 4;
constexpr unsigned kQueueFactor = 4;
constexpr std::uint32_t kPopBatch = 8;
constexpr unsigned kSetupReps = 5;
constexpr unsigned kMinSolves = 3;

struct Setup {
  graph::Graph g;
  std::vector<std::uint32_t> weights;
  double seconds = 0.0;
  double graph_s = 0.0;
};

Setup set_up(std::uint64_t seed, Spans& spans) {
  Setup s;
  auto total = spans.span("bench", "setup");
  {
    auto span = spans.span("graph", "graph::gnm");
    s.g = graph::gnm(kVertices, kEdges, derive_seed(seed, 0));
    s.graph_s = span.close();
  }
  {
    auto span = spans.span("algorithms", "algorithms::synthetic_edge_weights");
    s.weights = alg::synthetic_edge_weights(s.g, derive_seed(seed, 1));
  }
  s.seconds = total.close();
  return s;
}

struct Solve {
  double seconds = 0.0;
  alg::SsspStats stats;
  bool exact = true;
};

Solve solve(const Setup& setup, graph::Vertex source,
            const std::vector<std::uint32_t>& ref, std::uint64_t seed,
            Spans& spans) {
  alg::SsspOptions opts;
  opts.num_threads = kThreads;
  opts.queue_factor = kQueueFactor;
  opts.seed = seed;
  opts.pop_batch = kPopBatch;
  Solve s;
  auto span = spans.span("algorithms", "algorithms::parallel_relaxed_sssp");
  const std::vector<std::uint32_t> dist =
      alg::parallel_relaxed_sssp(setup.g, setup.weights, source, opts,
                                 &s.stats);
  s.seconds = span.close();
  s.exact = dist == ref;
  return s;
}

}  // namespace

void run_sssp_batched(const Options& opt, Report& report) {
  Spans spans(opt.trace);
  std::vector<double> setup_s;
  Setup setup;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    setup = Setup{};
    setup = set_up(opt.seed, spans);
    setup_s.push_back(setup.seconds);
  }
  relax::util::Rng rng(derive_seed(opt.seed, 2));
  const auto source =
      static_cast<graph::Vertex>(relax::util::bounded(rng, kVertices));

  std::vector<std::uint32_t> ref;
  double dijkstra_s = 0.0;
  {
    auto span = spans.span("algorithms", "algorithms::dijkstra");
    ref = alg::dijkstra(setup.g, setup.weights, source);
    dijkstra_s = span.close();
  }

  // The traced run alternates solves with and without spans; SSSP offers
  // no caller-owned queue, so spans at the call boundary are all the
  // tracing there is, and the overhead reads near zero.
  Spans silent(false);
  std::vector<Solve> plain;
  std::vector<Solve> traced;
  std::uint64_t solve_no = 0;
  const Clock::time_point window = Clock::now();
  while (seconds_since(window) < opt.seconds ||
         plain.size() < (opt.trace ? 1u : kMinSolves) ||
         (opt.trace && traced.empty())) {
    const bool with_spans = opt.trace && (solve_no % 2 == 1);
    Solve s = solve(setup, source, ref, derive_seed(opt.seed, 100 + solve_no),
                    with_spans ? spans : silent);
    ++solve_no;
    ++report.attempted;
    if (!s.exact) {
      ++report.failed;
      report.correct = false;
    }
    (with_spans ? traced : plain).push_back(s);
  }
  if (!report.correct) report.notes.push_back("SSSP distances != Dijkstra");

  std::vector<double> solve_s;
  alg::SsspStats sum;
  for (const Solve& s : opt.trace ? traced : plain) {
    solve_s.push_back(s.seconds);
    sum.pops += s.stats.pops;
    sum.stale_pops += s.stats.stale_pops;
    sum.batches += s.stats.batches;
  }
  report.notes.push_back("solves=" + std::to_string(solve_s.size()) +
                         ", source=" + std::to_string(source));

  if (!opt.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_rss_mib(), "MiB");
    report.set("latency_ms", median(solve_s) * 1e3, "ms");
    report.set("throughput_per_s",
               static_cast<double>(kVertices) / median(solve_s), "1/s");
    report.set("sssp_solve_s", median(solve_s), "s");
    return;
  }

  // Scheduler-alone probe: the same MultiQueue under a Dijkstra-like key
  // stream with batch 8 on both sides, no algorithm attached.
  relax::bench::SteadyConfig steady;
  steady.backend = &relax::sched::default_backend();
  steady.threads = kThreads;
  steady.distribution = relax::sched::KeyDistribution::kDijkstra;
  steady.pop_batch = kPopBatch;
  steady.prefill = 200'000;
  steady.working_seconds = 0.5;
  steady.runs = 1;
  steady.quality = false;
  steady.seed = derive_seed(opt.seed, 3);
  double steady_ops = 0.0;
  {
    auto span = spans.span("sched", "bench::run_steady_cell");
    steady_ops = relax::bench::run_steady_cell(steady).ops_per_s;
  }

  std::vector<double> plain_s;
  for (const Solve& s : plain) plain_s.push_back(s.seconds);
  const auto pops = static_cast<double>(std::max<std::uint64_t>(sum.pops, 1));
  report.set("graph.gen_s", setup.graph_s, "s");
  report.set("graph.csr_mb", csr_mib(setup.g), "MiB");
  report.set("algorithms.seq_s", dijkstra_s, "s");
  report.set("algorithms.dijkstra_s", dijkstra_s, "s");
  report.set("sched.wasted_per_task",
             static_cast<double>(sum.stale_pops) /
                 (static_cast<double>(kVertices) *
                  static_cast<double>(solve_s.size())),
             "ratio");
  report.set("sched.sssp_stale_share",
             static_cast<double>(sum.stale_pops) / pops, "ratio");
  report.set("sched.sssp_pops_per_batch",
             pops / static_cast<double>(std::max<std::uint64_t>(sum.batches, 1)),
             "count");
  report.set("sched.steady_ops_s.dijkstra_b8", steady_ops, "1/s");
  report.set("trace.overhead_share", median(solve_s) / median(plain_s) - 1.0,
             "ratio");
  finish_trace(spans, opt, report);
}

}  // namespace perfbench
