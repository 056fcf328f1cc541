// perfbench: the measuring half of the repository benchmark. run.py builds
// it, starts relax_server for server-mix, and turns the JSON line printed
// here into the benchmark's result.
//
// Usage: perfbench --workload=framework-large|sssp-batched|server-mix
//                  --seed=<n> --seconds=<s> --trace=0|1
//                  [--trace-out=<path>] [--port=<p>] [--client-cpu=<c>]
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "util/cli.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  relax::util::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + i);
  return sm();
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void finish_trace(const Spans& spans, const Options& opt, Report& report) {
  report.set("trace.spans", static_cast<double>(spans.size()), "count");
  std::string self = "span self time by layer (main thread):";
  for (const auto& [layer, seconds] : spans.self_seconds())
    self += " " + layer + " " + std::to_string(seconds) + " s";
  report.notes.push_back(self);
  if (!opt.trace_path.empty() && !spans.write_chrome(opt.trace_path))
    report.notes.push_back("could not write " + opt.trace_path);
}

double csr_mib(const relax::graph::Graph& g) {
  const double bytes = 8.0 * (static_cast<double>(g.num_vertices()) + 1.0) +
                       4.0 * static_cast<double>(g.num_arcs());
  return bytes / (1024.0 * 1024.0);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const relax::util::CommandLine cli(argc, argv);
  perfbench::Options opt;
  const std::string workload = cli.get_string("workload", "");
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opt.seconds = cli.get_double("seconds", 10.0);
  opt.trace = cli.get_int("trace", 0) != 0;
  opt.trace_path = cli.get_string("trace-out", "");
  opt.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  opt.client_cpu = static_cast<int>(cli.get_int("client-cpu", -1));
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  perfbench::Report report;
  try {
    if (workload == "framework-large") {
      perfbench::run_framework_large(opt, report);
    } else if (workload == "sssp-batched") {
      perfbench::run_sssp_batched(opt, report);
    } else if (workload == "server-mix") {
      if (opt.port == 0) {
        std::fprintf(stderr, "perfbench: server-mix needs --port\n");
        return 2;
      }
      perfbench::run_server_mix(opt, report);
    } else {
      std::fprintf(stderr,
                   "perfbench: --workload must be framework-large, "
                   "sssp-batched or server-mix\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
#if defined(__clang__)
  report.notes.push_back(std::string("compiler=clang ") + __VERSION__);
#elif defined(__GNUC__)
  report.notes.push_back(std::string("compiler=gcc ") + __VERSION__);
#else
  report.notes.push_back("compiler=unknown");
#endif
  report.notes.push_back(std::string("build_type=") + PERFBENCH_BUILD_TYPE);
  for (const auto& [name, m] : report.metrics()) {
    if (!perfbench::valid_metric_name(name)) {
      std::fprintf(stderr, "perfbench: invalid metric name '%s'\n",
                   name.c_str());
      return 1;
    }
  }
  std::printf("%s\n", report.to_json().c_str());
  return report.correct ? 0 : 1;
}
