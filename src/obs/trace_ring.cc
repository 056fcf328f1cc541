#include "obs/trace_ring.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace relax::obs {

namespace {

const char* event_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSlice:
      return "slice";
    case EventKind::kPark:
      return "park";
    case EventKind::kClaim:
      return "claim";
  }
  return "?";
}

const char* arg_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSlice:
      return "job";
    case EventKind::kPark:
      return "seq";
    case EventKind::kClaim:
      return "got";
  }
  return "arg";
}

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  // vsnprintf returns the UNtruncated length; clamp so a long line can
  // never make us read past the buffer.
  if (n > 0)
    out.append(buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
}

}  // namespace

std::string TraceRing::to_chrome_json() const {
  // Chrome trace-event "JSON array format": a flat array of event objects;
  // ts/dur are in MICROseconds (double). pid groups the whole engine, tid
  // is the worker lane. Metadata events name the lanes.
  std::string out;
  out.reserve(256 + 96 * event_count());
  out += "[\n";
  bool first = true;
  const auto emit_comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (unsigned w = 0; w < width(); ++w) {
    emit_comma();
    append(out,
           "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": %u, \"args\": {\"name\": \"worker %u (%" PRIu64
           " dropped)\"}}",
           w, w, lanes_[w]->dropped);
  }
  for (unsigned w = 0; w < width(); ++w) {
    const Lane& lane = *lanes_[w];
    // Oldest-first: once the ring wrapped, `next` points at the oldest
    // slot; before that, insertion order is already oldest-first.
    const std::size_t n = lane.events.size();
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& ev =
          lane.events[(lane.next + i) % (n == 0 ? 1 : n)];
      emit_comma();
      const double ts_us = static_cast<double>(ev.ts_ns) / 1e3;
      if (ev.kind == EventKind::kSlice || ev.kind == EventKind::kPark) {
        append(out,
               "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
               "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"%s\": %u}}",
               event_name(ev.kind), w, ts_us,
               static_cast<double>(ev.dur_ns) / 1e3, arg_name(ev.kind),
               ev.arg);
      } else {
        append(out,
               "{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, "
               "\"tid\": %u, \"ts\": %.3f, \"args\": {\"%s\": %u}}",
               event_name(ev.kind), w, ts_us, arg_name(ev.kind), ev.arg);
      }
    }
  }
  out += "\n]\n";
  return out;
}

bool TraceRing::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_chrome_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace relax::obs
