#include "spans.h"

#include <cstdio>

namespace perfbench {

Spans::Scope::Scope(Spans* owner, const char* layer, const char* name)
    : owner_(owner), start_(Clock::now()) {
  if (owner_ == nullptr) return;
  parent_ = owner_->open_;
  id_ = static_cast<int>(owner_->spans_.size());
  owner_->spans_.push_back(Span{layer, name, owner_->ns(start_), 0, parent_});
  owner_->open_ = id_;
}

double Spans::Scope::close() {
  if (seconds_ >= 0.0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (owner_ != nullptr) {
    owner_->spans_[static_cast<std::size_t>(id_)].end_ns = owner_->ns(end);
    owner_->open_ = parent_;
  }
  return seconds_;
}

std::map<std::string, double> Spans::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e9;
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_layer[spans_[i].layer] += self[i];
  return by_layer;
}

bool Spans::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}\n",
                 i == 0 ? "" : ",", s.name, s.layer,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
