#include "server/server_cli.h"

#include <cstdio>

namespace relax::server::cli {

std::vector<const sched::BackendInfo*> resolve_backends(
    const std::string& flag) {
  std::vector<const sched::BackendInfo*> backends;
  if (flag.empty()) {
    backends.push_back(&sched::default_backend());
  } else if (flag == "mix") {
    for (const auto& info : sched::backend_registry())
      backends.push_back(&info);
  } else if (const auto* info = sched::find_backend(flag)) {
    backends.push_back(info);
  } else {
    std::fprintf(stderr, "unknown --backend '%s'; valid: mix, %s\n",
                 flag.c_str(), sched::backend_names().c_str());
  }
  return backends;
}

std::optional<std::uint32_t> parse_pop_batch(const std::string& value) {
  const auto pb = engine::parse_pop_batch_flag(value);
  if (!pb) {
    std::fprintf(stderr,
                 "error: invalid --pop-batch '%s': expected <k>, a positive "
                 "integer\n",
                 value.c_str());
  }
  return pb;
}

std::optional<util::TopologySpec> parse_numa(const std::string& value) {
  const auto spec = util::TopologySpec::parse(value);
  if (!spec) {
    std::fprintf(stderr,
                 "error: invalid --numa '%s': expected 'off', 'auto', or "
                 "'virtual:<K>' with K >= 1\n",
                 value.c_str());
    return std::nullopt;
  }
  return spec;
}

bool dump_metrics(const obs::MetricsRegistry& registry,
                  const std::string& path) {
  if (path.empty()) return true;
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string text =
      json ? registry.to_json() : registry.to_prometheus();
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
    return true;
  }
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("metrics written to %s\n", path.c_str());
    return true;
  }
  std::fprintf(stderr, "warning: cannot write '%s'\n", path.c_str());
  return false;
}

}  // namespace relax::server::cli
