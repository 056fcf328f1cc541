// Tests for the benchmark's own logic: the percentile-with-ten-beyond rule,
// due-time latency arithmetic, the rate-ladder search, metric-name
// validity, and the timing wrappers' accounting. Exits nonzero on the
// first failed check. Run: python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "measure.h"
#include "timed.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_percentiles() {
  using perfbench::nearest_rank;
  using perfbench::tail_percentile;
  check(near(nearest_rank(one_to(100), 0.5), 50), "p50 of 1..100");
  check(near(nearest_rank(one_to(100), 0.99), 99), "p99 of 1..100");
  check(near(nearest_rank(one_to(1), 0.99), 1), "p99 of one sample");

  // 1000 samples: p99 is index 989, with exactly 10 samples beyond it.
  auto t = tail_percentile(one_to(1000), 0.99);
  check(t.valid && near(t.q, 0.99) && near(t.value, 990), "p99 of 1000");
  // 500 samples: p99 would leave 5 beyond, so the tail drops to p98.
  t = tail_percentile(one_to(500), 0.99);
  check(t.valid && near(t.value, 490) && near(t.q, 0.98),
        "500 samples report p98 with 10 beyond");
  // 11 samples: only the lowest sample has ten beyond it.
  t = tail_percentile(one_to(11), 0.99);
  check(t.valid && near(t.value, 1), "11 samples report the minimum");
  t = tail_percentile(one_to(10), 0.99);
  check(!t.valid && t.samples == 10, "10 samples have no valid tail");
  // Failures count beyond every real latency.
  std::vector<double> with_missed = one_to(989);
  for (int i = 0; i < 11; ++i) with_missed.push_back(perfbench::kMissed);
  t = tail_percentile(with_missed, 0.99);
  check(std::isinf(t.value), "11 missed in 1000 put p99 past the limit");
}

void test_due_time() {
  // Due at 1.000 s, the sender stalled until 1.030 s, answered at 1.040 s:
  // the client sees 40 ms, not the 10 ms a send-time clock would report.
  check(near(perfbench::due_latency_ms(1.000, 1.040), 40.0),
        "latency from due time");
  check(near(perfbench::generator_lag_ms(1.000, 1.030), 30.0),
        "generator lag");
  check(near(perfbench::generator_lag_ms(1.000, 0.999), 0.0),
        "an early send has no lag");

  perfbench::PhaseResult p;
  for (int i = 0; i < 300; ++i) p.latency_ms.push_back(i < 100 ? 1.0 : 30.0);
  p.ok = 300;
  p.finish();
  check(near(p.early_p50_ms, 1.0) && near(p.late_p50_ms, 30.0),
        "early / late medians use arrival order");
  check(!perfbench::sustained(p, 50.0),
        "latency climbing by 29 ms is a growing backlog");
  // Five chunks of 60: medians 1, 30, 30, 30, 30 (the first 100 samples
  // span chunk 1 and part of chunk 2) -> chunked median 30.
  check(near(p.chunked_p50_ms, 30.0), "chunked p50 takes the chunk median");
  perfbench::PhaseResult stall;
  for (int i = 0; i < 500; ++i)
    stall.latency_ms.push_back(i >= 100 && i < 200 ? 500.0 : 2.0);
  stall.finish();
  check(near(stall.chunked_p50_ms, 2.0),
        "a stall in one chunk does not move the chunked p50");
  perfbench::PhaseResult flat;
  for (int i = 0; i < 300; ++i) flat.latency_ms.push_back(2.0);
  flat.ok = 300;
  flat.finish();
  check(perfbench::sustained(flat, 50.0), "flat low latency is sustained");
  flat.busy = 1;
  check(!perfbench::sustained(flat, 50.0), "one BUSY fails the rate");
}

void test_ladder() {
  // Capacity 840: climb 600 -> 900 (fail), then bisect.
  const auto r = perfbench::ladder_search(600, 5, 1.5, [](double rate) {
    return rate <= 840;
  });
  check(r.trials.size() == 5, "ladder runs every probe");
  check(r.trials[0].first == 600 && r.trials[0].second, "starts at 600");
  check(r.trials[1].first == 900 && !r.trials[1].second, "climbs x1.5");
  check(r.max_rate <= 840 && r.max_rate >= 800,
        "bisection lands within resolution below capacity, got " +
            std::to_string(r.max_rate));
  // A start rate that already fails steps down.
  const auto low = perfbench::ladder_search(600, 3, 1.5, [](double rate) {
    return rate <= 200;
  });
  check(near(low.max_rate, 150), "failing start steps down to 150, got " +
                                     std::to_string(low.max_rate));
  const auto none =
      perfbench::ladder_search(600, 2, 1.5, [](double) { return false; });
  check(none.max_rate == 0.0, "no passing rate reports 0");
}

void test_names() {
  using perfbench::valid_metric_name;
  check(valid_metric_name("req_p99_ms.busy"), "dotted name");
  check(valid_metric_name("sched.steady_ops_s.dijkstra_b8"), "long name");
  check(valid_metric_name("engine.qos_share.w2"), "digits");
  check(!valid_metric_name(""), "empty name");
  check(!valid_metric_name(".hidden"), "leading dot");
  check(!valid_metric_name("a b"), "space");
  check(!valid_metric_name("p99/ms"), "slash");
  check(!valid_metric_name(std::string(65, 'a')), "65 characters");
  check(valid_metric_name(std::string(64, 'a')), "64 characters");

  perfbench::Report r;
  r.set("latency_ms", 1.25, "ms");
  r.attempted = 3;
  const std::string json = r.to_json();
  check(json.find("\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}") !=
            std::string::npos,
        "report JSON: " + json);
}

void test_wrappers() {
  // Every call is counted, one in 64 is sampled, and busy time scales the
  // sampled single calls by 64.
  perfbench::TimedQueue q(4, 1, 2);
  auto h = q.get_handle();
  for (relax::sched::Priority p = 0; p < 640; ++p) h.insert(p);
  std::vector<relax::sched::Priority> out;
  std::size_t got = 0;
  while (h.approx_get_min_batch(1, out) > 0) ++got;
  const perfbench::OpSummary ins = q.inserts();
  const perfbench::OpSummary pops = q.pops();
  check(got == 640 && ins.calls == 640 && ins.items == 640,
        "insert tally counts every call");
  check(ins.samples_ns.size() == 10, "1 in 64 inserts sampled");
  check(pops.calls == 641 && pops.items == 640 && pops.empty == 1,
        "pop tally counts items and the empty claim");
}

}  // namespace

int main() {
  test_percentiles();
  test_due_time();
  test_ladder();
  test_names();
  test_wrappers();
  if (failures == 0) std::printf("perfbench logic: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
