#include "obs/metrics.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace relax::obs {

namespace {

WorkerSnapshot snap_worker(const WorkerMetrics& m) {
  WorkerSnapshot s;
  s.slices = m.slices.value();
  s.idle_visits = m.idle_visits.value();
  s.slice_ns = m.slice_ns.snapshot();
  s.claims = m.claims.value();
  s.claim_size = m.claim_size.snapshot();
  s.pops = m.pops.value();
  s.processed = m.processed.value();
  s.failed_deletes = m.failed_deletes.value();
  s.dead_skips = m.dead_skips.value();
  s.empty_polls = m.empty_polls.value();
  s.reinserts = m.reinserts.value();
  s.numa_local_claims = m.numa_local_claims.value();
  s.numa_steal_claims = m.numa_steal_claims.value();
  s.parks = m.parks.value();
  s.park_ns = m.park_ns.snapshot();
  return s;
}

void append(std::string& out, const char* fmt, ...) {
  // Wide enough for the longest line (a JSON worker object prefix); the
  // clamp guards regardless — vsnprintf returns the UNtruncated length,
  // and appending that many bytes from a shorter buffer would overread.
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0)
    out.append(buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
}

/// One per-worker counter family: a # TYPE header then one sample per
/// worker, Prometheus text form.
template <typename Get>
void prom_counter(std::string& out, const MetricsSnapshot& snap,
                  const char* name, const char* help, Get get) {
  append(out, "# HELP %s %s\n# TYPE %s counter\n", name, help, name);
  for (std::size_t w = 0; w < snap.workers.size(); ++w) {
    append(out, "%s{worker=\"%zu\"} %" PRIu64 "\n", name, w,
           get(snap.workers[w]));
  }
}

/// A merged histogram in Prometheus histogram form: cumulative _bucket
/// samples at each populated power-of-two boundary, then _sum/_count.
void prom_histogram(std::string& out, const char* name, const char* help,
                    const Histogram& h) {
  append(out, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name);
  std::uint64_t cum = 0;
  for (unsigned b = 0; b < kHistogramBuckets; ++b) {
    if (h.bucket(b) == 0) continue;
    cum += h.bucket(b);
    append(out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", name,
           bucket_ceil(b), cum);
  }
  append(out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name, h.count());
  append(out, "%s_sum %" PRIu64 "\n%s_count %" PRIu64 "\n", name, h.sum(),
         name, h.count());
}

void prom_quantiles(std::string& out, const char* name, const char* help,
                    const Histogram& h) {
  append(out, "# HELP %s %s\n# TYPE %s summary\n", name, help, name);
  for (const double q : {50.0, 95.0, 99.0}) {
    append(out, "%s{quantile=\"0.%.0f\"} %.1f\n", name, q,
           h.percentile(q));
  }
}

void json_histogram(std::string& out, const char* name, const Histogram& h,
                    bool trailing_comma) {
  append(out,
         "\"%s\": {\"count\": %" PRIu64 ", \"mean\": %.1f, \"max\": %" PRIu64
         ", \"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f}%s",
         name, h.count(), h.mean(), h.max(), h.percentile(50.0),
         h.percentile(95.0), h.percentile(99.0),
         trailing_comma ? ", " : "");
}

}  // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.workers.reserve(workers_.size());
  for (const auto& slot : workers_) {
    snap.workers.push_back(snap_worker(*slot));
    snap.slice_ns.merge(snap.workers.back().slice_ns);
    snap.claim_size.merge(snap.workers.back().claim_size);
    snap.park_ns.merge(snap.workers.back().park_ns);
  }
  snap.jobs_submitted = jobs_submitted_.value();
  snap.jobs_completed = jobs_completed_.value();
  const unsigned claimed = std::min<unsigned>(
      qos_next_.load(std::memory_order_relaxed), kQosSlots);
  snap.qos.reserve(claimed);
  for (unsigned i = 0; i < claimed; ++i) {
    const QosTenantMetrics& m = *qos_[i];
    QosTenantSnapshot q;
    q.job_id = m.job_id.value();
    q.weight = m.weight.value();
    q.grants = m.grants.value();
    q.granted_iterations = m.granted_iterations.value();
    q.used_iterations = m.used_iterations.value();
    q.budget = m.budget.value();
    q.deficit = m.deficit.value();
    snap.qos.push_back(q);
  }
  snap.server.requests_accepted = server_.requests_accepted.value();
  snap.server.requests_rejected = server_.requests_rejected.value();
  snap.server.requests_completed = server_.requests_completed.value();
  snap.server.request_errors = server_.request_errors.value();
  snap.server.connections_opened = server_.connections_opened.value();
  snap.server.connections_closed = server_.connections_closed.value();
  snap.server.request_latency_ns = server_.request_latency_ns.snapshot();
  return snap;
}

std::string MetricsRegistry::to_prometheus() const {
  const MetricsSnapshot snap = snapshot();
  std::string out;
  out.reserve(4096);
  append(out,
         "# HELP relax_engine_jobs_submitted_total jobs accepted by "
         "submit()\n# TYPE relax_engine_jobs_submitted_total counter\n"
         "relax_engine_jobs_submitted_total %" PRIu64 "\n",
         snap.jobs_submitted);
  append(out,
         "# HELP relax_engine_jobs_completed_total jobs reaped\n"
         "# TYPE relax_engine_jobs_completed_total counter\n"
         "relax_engine_jobs_completed_total %" PRIu64 "\n",
         snap.jobs_completed);
  prom_counter(out, snap, "relax_worker_slices_total",
               "run_slice calls that made progress",
               [](const WorkerSnapshot& w) { return w.slices; });
  prom_counter(out, snap, "relax_worker_idle_visits_total",
               "run_slice calls that found no work",
               [](const WorkerSnapshot& w) { return w.idle_visits; });
  prom_counter(out, snap, "relax_worker_claims_total",
               "batched scheduler acquisition touches",
               [](const WorkerSnapshot& w) { return w.claims; });
  prom_counter(out, snap, "relax_worker_pops_total",
               "labels claimed from the scheduler",
               [](const WorkerSnapshot& w) { return w.pops; });
  prom_counter(out, snap, "relax_worker_processed_total",
               "tasks decided (successful steps)",
               [](const WorkerSnapshot& w) { return w.processed; });
  prom_counter(out, snap, "relax_worker_failed_deletes_total",
               "kNotReady pops re-inserted (wasted work)",
               [](const WorkerSnapshot& w) { return w.failed_deletes; });
  prom_counter(out, snap, "relax_worker_dead_skips_total",
               "kRetired pops (dead hits)",
               [](const WorkerSnapshot& w) { return w.dead_skips; });
  prom_counter(out, snap, "relax_worker_empty_polls_total",
               "scheduler touches that returned nothing",
               [](const WorkerSnapshot& w) { return w.empty_polls; });
  prom_counter(out, snap, "relax_worker_reinserts_total",
               "kNotReady labels flushed back via insert_batch",
               [](const WorkerSnapshot& w) { return w.reinserts; });
  prom_counter(out, snap, "relax_worker_numa_local_claims_total",
               "claims served from the worker's own topology domain",
               [](const WorkerSnapshot& w) { return w.numa_local_claims; });
  prom_counter(out, snap, "relax_worker_numa_steal_claims_total",
               "claims served cross-domain (bounded steal / fallback scan)",
               [](const WorkerSnapshot& w) { return w.numa_steal_claims; });
  prom_counter(out, snap, "relax_worker_parks_total",
               "times the worker parked on the pool condvar",
               [](const WorkerSnapshot& w) { return w.parks; });
  prom_histogram(out, "relax_slice_latency_ns",
                 "per-slice wall latency, merged over workers",
                 snap.slice_ns);
  prom_quantiles(out, "relax_slice_latency_ns_quantile",
                 "slice latency percentiles (interpolated log2 buckets)",
                 snap.slice_ns);
  prom_histogram(out, "relax_claim_size",
                 "labels delivered per non-empty batched claim",
                 snap.claim_size);
  prom_histogram(out, "relax_park_ns", "parked duration per park",
                 snap.park_ns);
  // Per-tenant QoS ledger: emitted only when the governor ever claimed a
  // slot, so pre-QoS scrapes keep their exact historical exposition.
  if (!snap.qos.empty()) {
    const auto qos_family = [&](const char* name, const char* help,
                                const char* type, auto get) {
      append(out, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, type);
      for (const QosTenantSnapshot& q : snap.qos) {
        append(out, "%s{job=\"%" PRIu64 "\",weight=\"%" PRIu64 "\"} %" PRIu64
               "\n",
               name, q.job_id, q.weight, get(q));
      }
    };
    qos_family("relax_qos_grants_total", "slice budgets granted by the governor",
               "counter", [](const QosTenantSnapshot& q) { return q.grants; });
    qos_family("relax_qos_granted_iterations_total",
               "sum of granted slice budgets (iterations)", "counter",
               [](const QosTenantSnapshot& q) { return q.granted_iterations; });
    qos_family("relax_qos_used_iterations_total",
               "slice iterations actually consumed", "counter",
               [](const QosTenantSnapshot& q) { return q.used_iterations; });
    qos_family("relax_qos_budget", "most recent granted slice budget", "gauge",
               [](const QosTenantSnapshot& q) { return q.budget; });
    qos_family("relax_qos_deficit", "banked DRR credit after the last settle",
               "gauge", [](const QosTenantSnapshot& q) { return q.deficit; });
  }
  // Front-end request accounting: emitted only when the server layer ever
  // recorded, so engine-only users keep their exact historical exposition.
  if (snap.server.requests_accepted + snap.server.requests_rejected +
          snap.server.request_errors + snap.server.connections_opened >
      0) {
    const auto scalar = [&](const char* name, const char* help,
                            std::uint64_t v) {
      append(out,
             "# HELP %s %s\n# TYPE %s counter\n%s %" PRIu64 "\n", name, help,
             name, name, v);
    };
    scalar("relax_server_requests_accepted_total",
           "requests admitted into the engine", snap.server.requests_accepted);
    scalar("relax_server_requests_rejected_total",
           "requests shed with BUSY (admission queue full)",
           snap.server.requests_rejected);
    scalar("relax_server_requests_completed_total",
           "requests completed with an OK response",
           snap.server.requests_completed);
    scalar("relax_server_request_errors_total",
           "malformed frames or invalid request fields",
           snap.server.request_errors);
    scalar("relax_server_connections_opened_total", "connections accepted",
           snap.server.connections_opened);
    scalar("relax_server_connections_closed_total", "connections closed",
           snap.server.connections_closed);
    prom_histogram(out, "relax_server_request_latency_ns",
                   "accept-to-completion latency per OK request",
                   snap.server.request_latency_ns);
    prom_quantiles(out, "relax_server_request_latency_ns_quantile",
                   "request latency percentiles (interpolated log2 buckets)",
                   snap.server.request_latency_ns);
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  const MetricsSnapshot snap = snapshot();
  std::string out;
  out.reserve(4096);
  out += "{\"workers\": [\n";
  for (std::size_t w = 0; w < snap.workers.size(); ++w) {
    const WorkerSnapshot& ws = snap.workers[w];
    append(out,
           "  {\"worker\": %zu, \"slices\": %" PRIu64
           ", \"idle_visits\": %" PRIu64 ", \"claims\": %" PRIu64
           ", \"pops\": %" PRIu64 ", \"processed\": %" PRIu64
           ", \"failed_deletes\": %" PRIu64 ", \"dead_skips\": %" PRIu64
           ", \"empty_polls\": %" PRIu64 ", \"reinserts\": %" PRIu64
           ", \"numa_local_claims\": %" PRIu64
           ", \"numa_steal_claims\": %" PRIu64 ", \"parks\": %" PRIu64
           ", ",
           w, ws.slices, ws.idle_visits, ws.claims, ws.pops, ws.processed,
           ws.failed_deletes, ws.dead_skips, ws.empty_polls, ws.reinserts,
           ws.numa_local_claims, ws.numa_steal_claims, ws.parks);
    json_histogram(out, "slice_latency_ns", ws.slice_ns, true);
    json_histogram(out, "claim_size", ws.claim_size, true);
    json_histogram(out, "park_ns", ws.park_ns, false);
    out += w + 1 < snap.workers.size() ? "},\n" : "}\n";
  }
  append(out,
         "], \"totals\": {\"jobs_submitted\": %" PRIu64
         ", \"jobs_completed\": %" PRIu64 ", ",
         snap.jobs_submitted, snap.jobs_completed);
  json_histogram(out, "slice_latency_ns", snap.slice_ns, true);
  json_histogram(out, "claim_size", snap.claim_size, true);
  json_histogram(out, "park_ns", snap.park_ns, false);
  out += "}, \"qos\": [";
  for (std::size_t i = 0; i < snap.qos.size(); ++i) {
    const QosTenantSnapshot& q = snap.qos[i];
    append(out,
           "%s{\"job\": %" PRIu64 ", \"weight\": %" PRIu64
           ", \"grants\": %" PRIu64 ", \"granted_iterations\": %" PRIu64
           ", \"used_iterations\": %" PRIu64 ", \"budget\": %" PRIu64
           ", \"deficit\": %" PRIu64 "}",
           i ? ", " : "", q.job_id, q.weight, q.grants, q.granted_iterations,
           q.used_iterations, q.budget, q.deficit);
  }
  append(out,
         "], \"server\": {\"requests_accepted\": %" PRIu64
         ", \"requests_rejected\": %" PRIu64
         ", \"requests_completed\": %" PRIu64 ", \"request_errors\": %" PRIu64
         ", \"connections_opened\": %" PRIu64
         ", \"connections_closed\": %" PRIu64 ", ",
         snap.server.requests_accepted, snap.server.requests_rejected,
         snap.server.requests_completed, snap.server.request_errors,
         snap.server.connections_opened, snap.server.connections_closed);
  json_histogram(out, "request_latency_ns", snap.server.request_latency_ns,
                 false);
  out += "}}\n";
  return out;
}

}  // namespace relax::obs
