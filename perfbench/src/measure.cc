#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) *
                                static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

Tail tail_percentile(const std::vector<double>& sorted, double want,
                     std::size_t min_beyond) {
  Tail t;
  t.samples = sorted.size();
  const std::size_t n = sorted.size();
  if (n < min_beyond + 1) return t;
  // Nearest-rank index i reports sorted[i]; n - 1 - i samples lie beyond
  // it. The largest index allowed by the beyond rule is n - 1 - min_beyond;
  // the requested percentile caps it from above.
  const double want_rank =
      std::ceil(std::clamp(want, 0.0, 1.0) * static_cast<double>(n));
  const std::size_t want_idx =
      want_rank < 1.0 ? 0 : static_cast<std::size_t>(want_rank) - 1;
  const std::size_t idx = std::min(want_idx, n - 1 - min_beyond);
  t.q = static_cast<double>(idx + 1) / static_cast<double>(n);
  t.value = sorted[idx];
  t.valid = true;
  return t;
}

void PhaseResult::finish() {
  // Early/late medians use arrival order, so take them before sorting.
  const std::size_t third = latency_ms.size() / 3;
  if (third > 0) {
    early_p50_ms = median(std::vector<double>(
        latency_ms.begin(), latency_ms.begin() + static_cast<long>(third)));
    late_p50_ms = median(std::vector<double>(
        latency_ms.end() - static_cast<long>(third), latency_ms.end()));
  }
  if (latency_ms.size() >= kChunks) {
    std::vector<double> chunk_p50;
    const std::size_t n = latency_ms.size();
    for (std::size_t c = 0; c < kChunks; ++c) {
      chunk_p50.push_back(median(std::vector<double>(
          latency_ms.begin() + static_cast<long>(c * n / kChunks),
          latency_ms.begin() + static_cast<long>((c + 1) * n / kChunks))));
    }
    chunked_p50_ms = median(chunk_p50);
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  std::sort(lag_ms.begin(), lag_ms.end());
}

bool sustained(const PhaseResult& phase, double limit_ms) {
  if (phase.latency_ms.empty() || phase.failed() > 0) return false;
  if (nearest_rank(phase.latency_ms, 0.99) > limit_ms) return false;
  return phase.late_p50_ms <= phase.early_p50_ms + 0.25 * limit_ms;
}

LadderResult ladder_search(double start, unsigned probes, double growth,
                           const std::function<bool(double)>& passes) {
  LadderResult r;
  double lo = 0.0;   // highest rate known to pass
  double hi = 0.0;   // lowest rate known to fail (0 = none yet)
  double rate = start;
  for (unsigned i = 0; i < probes; ++i) {
    const bool ok = passes(rate);
    r.trials.emplace_back(rate, ok);
    if (ok) {
      lo = std::max(lo, rate);
    } else {
      hi = hi == 0.0 ? rate : std::min(hi, rate);
    }
    if (hi == 0.0) {
      rate = lo * growth;  // still climbing
    } else if (lo == 0.0) {
      rate = hi / 2.0;  // the start already failed: step down
    } else {
      rate = (lo + hi) / 2.0;
    }
  }
  r.max_rate = lo;
  return r;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  char buf[64];
  // %.17g keeps every digit the measurement has; non-finite values have
  // no JSON spelling and are reported as null (run.py rejects them).
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  } else {
    out += "null";
  }
}

}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    if (i > 0) out += ", ";
    append_escaped(out, notes[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    append_escaped(out, name);
    out += ": {\"value\": ";
    append_number(out, m.value);
    out += ", \"unit\": ";
    append_escaped(out, m.unit);
    out += "}";
  }
  out += "}}";
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return (lower + upper) / 2.0;
}

}  // namespace perfbench
