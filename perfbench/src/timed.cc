#include "timed.h"

#include <algorithm>
#include <cmath>

#include "measure.h"

namespace perfbench {

void OpSummary::add(const OpTally& t) {
  calls += t.calls;
  items += t.items;
  empty += t.empty;
  always_count_ += t.always_count;
  always_ns_ += t.always_ns;
  sampled_count_ += t.sampled_count;
  sampled_ns_ += t.sampled_ns;
  sampled_sq_ns2_ += t.sampled_sq_ns2;
  samples_ns.insert(samples_ns.end(), t.samples_ns.begin(), t.samples_ns.end());
  null_ns_.insert(null_ns_.end(), t.null_ns.begin(), t.null_ns.end());
}

void OpSummary::merge(const OpSummary& o) {
  calls += o.calls;
  items += o.items;
  empty += o.empty;
  always_count_ += o.always_count_;
  always_ns_ += o.always_ns_;
  sampled_count_ += o.sampled_count_;
  sampled_ns_ += o.sampled_ns_;
  sampled_sq_ns2_ += o.sampled_sq_ns2_;
  samples_ns.insert(samples_ns.end(), o.samples_ns.begin(), o.samples_ns.end());
  null_ns_.insert(null_ns_.end(), o.null_ns_.begin(), o.null_ns_.end());
}

void OpSummary::finish() {
  clock_ns = median(null_ns_);
  const auto net = [&](double total, std::uint64_t count) {
    return std::max(0.0, total - static_cast<double>(count) * clock_ns);
  };
  busy_s = (net(always_ns_, always_count_) +
            64.0 * net(sampled_ns_, sampled_count_)) /
           1e9;
  busy_se_s = 64.0 * std::sqrt(sampled_sq_ns2_) / 1e9;
  for (double& ns : samples_ns) ns = std::max(0.0, ns - clock_ns);
  std::sort(samples_ns.begin(), samples_ns.end());
}

OpSummary TimedQueue::pops() const {
  OpSummary s;
  for (const WorkerTally& t : tallies_) s.add(t.pop);
  return s;
}

OpSummary TimedQueue::inserts() const {
  OpSummary s;
  for (const WorkerTally& t : tallies_) s.add(t.insert);
  return s;
}

}  // namespace perfbench
