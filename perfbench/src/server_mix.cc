// server-mix: the open-loop client side. relax_server runs as a separate
// process (run.py starts it with a 2-worker pool and the default resident
// G(4000, 24000) graph); this client talks to it over 2 connections that
// carry QoS weights 2 and 1 and rotates requests through MIS, coloring and
// matching.
//
// Arrivals are Poisson at a fixed offered rate and every request is timed
// from the moment it was due, not from when it was sent, so a stalled
// sender charges the wait to every request it delayed; the generator's own
// lateness is reported next to the latencies. BUSY, errors, drops and wrong
// answers count as missing every latency limit. Phases: `light` (200
// req/s); `busy` (600 req/s, about 70% of the ~850 req/s the 2-worker
// server completes under saturation on a 4-core host); `saturation`,
// offered more than the server can take, whose completion rate is its
// throughput; then
// a rate ladder, started below that throughput, for the highest rate that
// keeps p99 <= 50 ms with no failures and no growing backlog.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/coloring.h"
#include "algorithms/matching.h"
#include "algorithms/mis.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "obs/metrics.h"
#include "server/protocol.h"
#include "server/server.h"
#include "spans.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace alg = relax::algorithms;
namespace graph = relax::graph;
namespace protocol = relax::server::protocol;

constexpr double kLightRate = 200.0;
constexpr double kBusyRate = 600.0;
constexpr double kSaturationRate = 2000.0;
constexpr double kLimitMs = 50.0;    // the p99 latency limit of the ladder
constexpr unsigned kLadderProbes = 4;
constexpr unsigned kSetupReps = 25;
constexpr double kDrainS = 2.0;      // grace after the last send
constexpr std::array<std::uint32_t, 2> kWeights = {2, 1};  // per connection
constexpr std::array<protocol::Kind, 3> kKinds = {
    protocol::Kind::kMis, protocol::Kind::kColoring, protocol::Kind::kMatching};

/// What relax_server's default resident graph must produce: relax_server
/// seeds graph i with i + 1 and its vertex / edge permutations with
/// seed + 1 / seed + 2 (server.cc), and loads G(4000, 24000) by default.
constexpr graph::Vertex kResidentN = 4000;
constexpr graph::EdgeId kResidentM = 24000;
constexpr std::uint64_t kResidentSeed = 1;

struct Expected {
  std::array<std::uint64_t, 3> processed{};  // per kind
  std::array<std::uint64_t, 3> tasks{};      // tasks per job, per kind
  double gen_s = 0.0;
  double csr_mb = 0.0;
  double mis_seq_s = 0.0;
  double coloring_seq_s = 0.0;
  double matching_seq_s = 0.0;
  bool valid = true;
};

Expected expected_results(Spans& spans) {
  Expected e;
  graph::Graph g;
  graph::Priorities vertex_pri;
  graph::Priorities edge_pri;
  {
    auto span = spans.span("graph", "graph::gnm");
    g = graph::gnm(kResidentN, kResidentM, kResidentSeed);
    vertex_pri = graph::random_priorities(kResidentN, kResidentSeed + 1);
    e.gen_s = span.close();
  }
  e.csr_mb = csr_mib(g);
  alg::EdgeIncidence inc(g);
  {
    auto span = spans.span("graph", "graph::random_priorities");
    edge_pri = graph::random_priorities(inc.num_edges(), kResidentSeed + 2);
    e.gen_s += span.close();
  }
  {
    auto span = spans.span("algorithms", "algorithms::sequential_greedy_mis");
    const auto mis = alg::sequential_greedy_mis(g, vertex_pri);
    e.mis_seq_s = span.close();
    e.valid = e.valid && alg::verify_mis(g, mis);
    e.processed[0] = static_cast<std::uint64_t>(
        std::count(mis.begin(), mis.end(), std::uint8_t{1}));
  }
  {
    auto span =
        spans.span("algorithms", "algorithms::sequential_greedy_coloring");
    const auto colors = alg::sequential_greedy_coloring(g, vertex_pri);
    e.coloring_seq_s = span.close();
    e.valid = e.valid && alg::verify_coloring(g, colors);
    e.processed[1] = g.num_vertices();  // every vertex gets a color
  }
  {
    auto span =
        spans.span("algorithms", "algorithms::sequential_greedy_matching");
    const auto matched = alg::sequential_greedy_matching(inc, edge_pri);
    e.matching_seq_s = span.close();
    e.valid = e.valid && alg::verify_matching(inc, matched);
    e.processed[2] = static_cast<std::uint64_t>(
        std::count(matched.begin(), matched.end(), std::uint8_t{1}));
  }
  e.tasks = {g.num_vertices(), g.num_vertices(), inc.num_edges()};
  return e;
}

/// One scheduled request and what became of it.
struct Record {
  std::size_t kind = 0;
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool answered = false;
  protocol::Response response;
};

/// Poisson arrival offsets at `rate` over `seconds`, seeded.
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  relax::util::Rng rng(seed);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    const double u = relax::util::uniform_double(rng);
    t += -std::log(1.0 - u) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

protocol::Request make_request(std::uint64_t id, std::size_t kind,
                               std::size_t conn, std::uint64_t seed,
                               bool audit) {
  protocol::Request req;
  req.id = id;
  req.kind = kKinds[kind];
  req.graph_id = 0;
  req.seed = seed;
  req.weight = kWeights[conn];
  req.audit = audit;
  return req;
}

/// Per-phase extras the traced run reads.
struct PhaseDetail {
  std::vector<double> wire_ms;  // (done - sent) - server-side latency
  std::uint64_t failed_deletes = 0;
  std::uint64_t tasks = 0;
  double rank_error_sum = 0.0;  // sum of mean_rank_error x rank_samples
  std::uint64_t rank_samples = 0;
};

/// Pins the calling thread to `cpu` (no-op for -1); returns its previous
/// mask so the caller can restore it.
cpu_set_t pin_this_thread(int cpu) {
  cpu_set_t previous;
  CPU_ZERO(&previous);
  pthread_getaffinity_np(pthread_self(), sizeof(previous), &previous);
  if (cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(static_cast<unsigned>(cpu), &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }
  return previous;
}

/// The two client connections plus their receiver threads, which run on
/// `cpu` when one is given.
class Client {
 public:
  Client(std::uint16_t port, int cpu) {
    for (std::size_t c = 0; c < kWeights.size(); ++c) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) throw std::runtime_error("socket failed");
      fds_[c] = fd;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0)
        throw std::runtime_error(std::string("connect: ") +
                                 std::strerror(errno));
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    for (std::size_t c = 0; c < kWeights.size(); ++c) {
      receivers_[c] = std::thread([this, c, cpu] {
        pin_this_thread(cpu);
        receive(c);
      });
    }
  }

  ~Client() {
    for (const int fd : fds_)
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& t : receivers_)
      if (t.joinable()) t.join();
    for (const int fd : fds_)
      if (fd >= 0) ::close(fd);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Runs one open-loop phase and returns its records in arrival order.
  std::vector<Record> run(double rate, double seconds, std::uint64_t seed,
                          bool audit) {
    const std::vector<double> due = poisson_schedule(rate, seconds, seed);
    relax::util::Rng rng(seed ^ 0x5bd1e995ULL);
    const std::size_t kind0 = relax::util::bounded(rng, kKinds.size());
    const Clock::time_point t0 = Clock::now();
    {
      std::lock_guard<std::mutex> guard(mu_);
      records_.assign(due.size(), Record{});
      base_id_ = next_id_;
      next_id_ += due.size();
      answered_ = 0;
      phase_t0_ = t0;
    }
    std::vector<std::uint8_t> frame;
    for (std::size_t i = 0; i < due.size(); ++i) {
      const std::size_t kind = (kind0 + i) % kKinds.size();
      const std::size_t conn = i % kWeights.size();
      frame.clear();
      protocol::encode(make_request(base_id_ + i, kind, conn, rng(), audit),
                       frame);
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due[i])));
      const double sent = seconds_since(t0);
      {
        std::lock_guard<std::mutex> guard(mu_);
        records_[i].kind = kind;
        records_[i].due_s = due[i];
        records_[i].sent_s = sent;
      }
      send_all(fds_[conn], frame);
    }
    std::unique_lock<std::mutex> lock(mu_);
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds + kDrainS));
    done_cv_.wait_until(lock, deadline,
                        [&] { return answered_ == records_.size(); });
    std::vector<Record> out = std::move(records_);
    records_.clear();
    base_id_ = next_id_;  // late answers to this phase are ignored
    return out;
  }

 private:
  static void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      off += static_cast<std::size_t>(n);
    }
  }

  void receive(std::size_t c) {
    protocol::FrameReader reader;
    std::vector<std::uint8_t> buf(64 * 1024);
    for (;;) {
      const ssize_t n = ::recv(fds_[c], buf.data(), buf.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      const Clock::time_point now = Clock::now();
      reader.feed(std::span<const std::uint8_t>(
          buf.data(), static_cast<std::size_t>(n)));
      while (auto payload = reader.next()) {
        const auto resp = protocol::decode_response(*payload);
        if (!resp) continue;
        std::lock_guard<std::mutex> guard(mu_);
        if (resp->id < base_id_ || resp->id - base_id_ >= records_.size())
          continue;
        Record& r = records_[resp->id - base_id_];
        if (r.answered) continue;
        r.answered = true;
        r.done_s = std::chrono::duration<double>(now - phase_t0_).count();
        r.response = *resp;
        if (++answered_ == records_.size()) done_cv_.notify_all();
      }
      if (reader.corrupt()) return;
    }
  }

  std::array<int, kWeights.size()> fds_{-1, -1};
  std::array<std::thread, kWeights.size()> receivers_;
  std::mutex mu_;  // guards everything below
  std::condition_variable done_cv_;
  std::vector<Record> records_;
  std::uint64_t base_id_ = 1;
  std::uint64_t next_id_ = 1;
  std::size_t answered_ = 0;
  Clock::time_point phase_t0_{};  // the running phase's epoch: every
                                  // due / sent / done offset is from it
};

/// Turns a phase's records into latency / lag samples and outcome counts.
PhaseResult summarize(const std::vector<Record>& records,
                      const Expected& expected, PhaseDetail* detail) {
  PhaseResult p;
  for (const Record& r : records) {
    p.lag_ms.push_back(generator_lag_ms(r.due_s, r.sent_s));
    double latency = kMissed;
    if (!r.answered) {
      ++p.drops;
    } else if (r.response.status == protocol::Status::kBusy) {
      ++p.busy;
    } else if (r.response.status != protocol::Status::kOk) {
      ++p.errors;
    } else {
      ++p.ok;
      if (r.response.processed != expected.processed[r.kind]) {
        ++p.wrong;
      } else {
        latency = due_latency_ms(r.due_s, r.done_s);
      }
      if (detail != nullptr) {
        detail->wire_ms.push_back((r.done_s - r.sent_s) * 1e3 -
                                  static_cast<double>(r.response.latency_ns) /
                                      1e6);
        detail->failed_deletes += r.response.failed_deletes;
        detail->tasks += expected.tasks[r.kind];
        detail->rank_error_sum +=
            r.response.mean_rank_error *
            static_cast<double>(r.response.rank_samples);
        detail->rank_samples += r.response.rank_samples;
      }
    }
    p.latency_ms.push_back(latency);
  }
  p.finish();
  return p;
}

/// OK answers per second over the last three quarters of a phase (the
/// first quarter fills the server's queues), as the median over 0.5 s bins
/// so that a stall in one bin does not move it.
double completion_rate(const std::vector<Record>& records, double seconds) {
  constexpr double kBinS = 0.5;
  const double from = 0.25 * seconds;
  const auto bins = static_cast<std::size_t>((seconds - from) / kBinS);
  if (bins == 0) return 0.0;
  std::vector<double> per_bin(bins, 0.0);
  for (const Record& r : records) {
    if (!r.answered || r.response.status != protocol::Status::kOk ||
        r.done_s < from)
      continue;
    const auto bin = static_cast<std::size_t>((r.done_s - from) / kBinS);
    if (bin < bins) per_bin[bin] += 1.0 / kBinS;
  }
  return median(per_bin);
}

/// A percentile that may sit on a failed request reads as the phase's
/// whole wait (window + drain): finite, and beyond any limit.
double bounded_ms(double v, double seconds) {
  return std::isfinite(v) ? v : (seconds + kDrainS) * 1e3;
}

/// Same open-loop mix through JobServer::submit_local: admission, engine
/// and completion without sockets, protocol or the epoll loop.
struct InprocResult {
  PhaseResult phase;
  std::vector<double> submit_us;
  double slice_p99_us = 0.0;
  double qos_share_w2 = 0.0;
};

InprocResult run_inproc(double rate, double seconds, std::uint64_t seed,
                        const Expected& expected) {
  const std::vector<double> due = poisson_schedule(rate, seconds, seed);
  std::vector<Record> records(due.size());
  std::mutex mu;
  std::condition_variable cv;
  std::size_t answered = 0;
  Clock::time_point t0;
  relax::obs::MetricsRegistry registry;
  InprocResult out;
  {
    relax::server::ServerOptions so;
    so.listen = false;
    so.engine.num_threads = 2;
    so.metrics = &registry;
    so.graphs = {relax::server::GraphSpec{kResidentN, kResidentM,
                                          kResidentSeed}};
    relax::server::JobServer server(std::move(so));
    relax::util::Rng rng(seed ^ 0x5bd1e995ULL);
    const std::size_t kind0 = relax::util::bounded(rng, kKinds.size());
    t0 = Clock::now();
    for (std::size_t i = 0; i < due.size(); ++i) {
      const std::size_t kind = (kind0 + i) % kKinds.size();
      const protocol::Request req =
          make_request(i, kind, i % kWeights.size(), rng(), false);
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due[i])));
      {
        std::lock_guard<std::mutex> guard(mu);
        records[i].kind = kind;
        records[i].due_s = due[i];
        records[i].sent_s = seconds_since(t0);
      }
      protocol::Response immediate;
      const Clock::time_point call = Clock::now();
      const protocol::Status st = server.submit_local(
          req,
          [&, i](const protocol::Response& resp) {
            const double done = seconds_since(t0);
            std::lock_guard<std::mutex> guard(mu);
            records[i].answered = true;
            records[i].done_s = done;
            records[i].response = resp;
            if (++answered == records.size()) cv.notify_all();
          },
          &immediate);
      out.submit_us.push_back(seconds_since(call) * 1e6);
      if (st != protocol::Status::kOk) {
        std::lock_guard<std::mutex> guard(mu);
        records[i].answered = true;
        records[i].done_s = seconds_since(t0);
        records[i].response = immediate;
        if (++answered == records.size()) cv.notify_all();
      }
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_until(lock,
                  t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds + kDrainS)),
                  [&] { return answered == records.size(); });
  }  // the server drains in-flight jobs before `records` goes away
  out.phase = summarize(records, expected, nullptr);
  const relax::obs::MetricsSnapshot snap = registry.snapshot();
  out.slice_p99_us = snap.slice_ns.percentile(99.0) / 1e3;
  double w2 = 0.0;
  double all = 0.0;
  for (const auto& tenant : snap.qos) {
    all += static_cast<double>(tenant.used_iterations);
    if (tenant.weight == 2) w2 += static_cast<double>(tenant.used_iterations);
  }
  out.qos_share_w2 = all > 0.0 ? w2 / all : 0.0;
  return out;
}

/// Nanoseconds per protocol call on the request mix: decode_request of
/// each request frame and encode of each response, as the server does.
std::pair<double, double> codec_ns(std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<protocol::Response> responses;
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    for (std::size_t c = 0; c < kWeights.size(); ++c) {
      std::vector<std::uint8_t> frame;
      protocol::encode(make_request(k * 2 + c, k, c, seed + k, false), frame);
      payloads.emplace_back(frame.begin() + 4, frame.end());
      protocol::Response r;
      r.id = k * 2 + c;
      r.iterations = 4000 + k;
      r.processed = 1000 + k;
      r.latency_ns = 1'000'000;
      responses.push_back(r);
    }
  }
  constexpr int kIters = 20000;
  std::uint64_t sink = 0;
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kIters; ++i)
    for (const auto& p : payloads) sink += protocol::decode_request(p)->id;
  const double decode =
      seconds_since(t0) * 1e9 / (kIters * static_cast<double>(payloads.size()));
  std::vector<std::uint8_t> out;
  t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    for (const auto& r : responses) {
      out.clear();
      protocol::encode(r, out);
      sink += out.size();
    }
  }
  const double encode = seconds_since(t0) * 1e9 /
                        (kIters * static_cast<double>(responses.size()));
  if (sink == 0) throw std::logic_error("codec probe produced nothing");
  return {decode, encode};
}

}  // namespace

void run_server_mix(const Options& opt, Report& report) {
  Spans spans(opt.trace);
  const Expected expected = expected_results(spans);
  if (!expected.valid) {
    report.correct = false;
    report.notes.push_back("sequential reference failed verification");
  }

  // Set-up: relax_server's own start (resident graph, engine, listening
  // socket) is JobServer's constructor; time it here, repeated, so process
  // creation, which the server does not control, stays out of the figure.
  std::vector<double> setup_s;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    auto span = spans.span("server", "server::JobServer");
    relax::server::ServerOptions so;
    so.engine.num_threads = 2;
    { relax::server::JobServer server(std::move(so)); }
    setup_s.push_back(span.close());
  }

  // The socket phases run the generator (this thread) and the receivers on
  // the client CPU, away from the server's workers. The in-process probes
  // of the traced run restore this thread's full mask first, so the engine
  // they start places its workers as relax_server does.
  const cpu_set_t full_mask = pin_this_thread(opt.client_cpu);
  Client client(opt.port, opt.client_cpu);
  // Window split: light 20%, busy 25%, saturation 30%, ladder 25%. At
  // 25 s that gives light 1000 samples (a valid p99) and busy 2500.
  const double light_s = 0.20 * opt.seconds;
  const double busy_s = 0.25 * opt.seconds;
  const double saturation_s = 0.30 * opt.seconds;
  const double probe_s = 0.25 * opt.seconds / kLadderProbes;
  std::uint64_t phase_no = 0;
  const auto phase = [&](double rate, double seconds, bool audit,
                         PhaseDetail* detail, const char* name) {
    auto span = spans.span("server", name);
    const std::uint64_t seed = derive_seed(opt.seed, 10 + phase_no++);
    return summarize(client.run(rate, seconds, seed, audit), expected, detail);
  };

  const auto count_fixed = [&](const PhaseResult& p) {
    report.attempted += p.attempted();
    report.failed += p.failed();
    if (p.wrong > 0) report.correct = false;
  };

  PhaseDetail busy_detail;
  const PhaseResult light = phase(kLightRate, light_s, false, nullptr,
                                  "server::phase_light");
  count_fixed(light);
  const PhaseResult busy =
      phase(kBusyRate, busy_s, false, &busy_detail, "server::phase_busy");
  count_fixed(busy);

  // Saturation: BUSY is the expected answer to part of this load, so the
  // phase counts only wrong answers, not shed requests, as failures.
  std::uint64_t overload_wrong = 0;
  double throughput = 0.0;
  {
    auto span = spans.span("server", "server::phase_saturation");
    const std::vector<Record> records =
        client.run(kSaturationRate, saturation_s,
                   derive_seed(opt.seed, 10 + phase_no++), false);
    throughput = completion_rate(records, saturation_s);
    overload_wrong += summarize(records, expected, nullptr).wrong;
  }
  const LadderResult ladder =
      ladder_search(0.6 * throughput, kLadderProbes, 1.25, [&](double rate) {
        const PhaseResult p =
            phase(rate, probe_s, false, nullptr, "server::ladder_probe");
        overload_wrong += p.wrong;
        return sustained(p, kLimitMs);
      });
  if (overload_wrong > 0) {
    report.correct = false;
    report.failed += overload_wrong;
    report.notes.push_back("wrong results under overload");
  }
  if (!report.correct) report.notes.push_back("server result != sequential");

  std::string trials = "ladder:";
  for (const auto& [rate, ok] : ladder.trials)
    trials += " " + std::to_string(static_cast<int>(rate)) +
              (ok ? "=pass" : "=fail");
  report.notes.push_back(trials);

  const auto describe = [&](const char* name, const PhaseResult& p,
                            double seconds) {
    const Tail t = tail_percentile(p.latency_ms, 0.99);
    report.notes.push_back(
        std::string(name) + ": n=" + std::to_string(p.latency_ms.size()) +
        " ok=" + std::to_string(p.ok) + " busy=" + std::to_string(p.busy) +
        " errors=" + std::to_string(p.errors) +
        " drops=" + std::to_string(p.drops) +
        " wrong=" + std::to_string(p.wrong) + " tail=p" +
        std::to_string(t.q * 100.0).substr(0, 5) + " (" +
        std::to_string(t.samples) + " samples" +
        (t.valid ? "" : ", too few for a tail") + ") lag_p99=" +
        std::to_string(bounded_ms(nearest_rank(p.lag_ms, 0.99), seconds)) +
        " ms");
    return t;
  };
  const Tail light_tail = describe("light", light, light_s);
  const Tail busy_tail = describe("busy", busy, busy_s);

  if (!opt.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("latency_ms", bounded_ms(light.chunked_p50_ms, light_s), "ms");
    report.set("throughput_per_s", throughput, "1/s");
    report.set("req_p50_ms.light",
               bounded_ms(nearest_rank(light.latency_ms, 0.5), light_s), "ms");
    report.set("req_p99_ms.light", bounded_ms(light_tail.value, light_s),
               "ms");
    report.set("req_p50_ms.busy",
               bounded_ms(nearest_rank(busy.latency_ms, 0.5), busy_s), "ms");
    report.set("req_p99_ms.busy", bounded_ms(busy_tail.value, busy_s), "ms");
    report.set("max_rate_rps", ladder.max_rate, "1/s");
    return;
  }

  // ---- traced run: layers below the wire, probed from this process -----
  // Tracing overhead: repeat the busy phase without its span (the only
  // traced cost on this path) and compare medians.
  double untraced_p50 = 0.0;
  {
    const std::uint64_t seed = derive_seed(opt.seed, 10 + phase_no++);
    const PhaseResult again =
        summarize(client.run(kBusyRate, busy_s, seed, false), expected,
                  nullptr);
    count_fixed(again);
    untraced_p50 = nearest_rank(again.latency_ms, 0.5);
  }
  PhaseDetail audit_detail;
  const PhaseResult audited =
      phase(50.0, 0.25, true, &audit_detail, "server::phase_audit");
  count_fixed(audited);

  pthread_setaffinity_np(pthread_self(), sizeof(full_mask), &full_mask);
  double engine_startup_s = 0.0;
  {
    auto span = spans.span("engine", "engine::SchedulingEngine");
    relax::engine::EngineOptions eo;
    eo.num_threads = 2;
    { relax::engine::SchedulingEngine engine(eo); }
    engine_startup_s = span.close();
  }
  InprocResult inproc;
  {
    auto span = spans.span("engine", "server::JobServer::submit_local");
    inproc = run_inproc(kBusyRate, busy_s, derive_seed(opt.seed, 5), expected);
  }
  count_fixed(inproc.phase);
  std::pair<double, double> codec{};
  {
    auto span = spans.span("server", "protocol::codec_probe");
    codec = codec_ns(opt.seed);
  }
  std::sort(busy_detail.wire_ms.begin(), busy_detail.wire_ms.end());

  report.set("graph.gen_s", expected.gen_s, "s");
  report.set("graph.csr_mb", expected.csr_mb, "MiB");
  report.set("algorithms.seq_s",
             expected.mis_seq_s + expected.coloring_seq_s +
                 expected.matching_seq_s,
             "s");
  report.set("algorithms.mis_seq_s", expected.mis_seq_s, "s");
  report.set("algorithms.matching_seq_s", expected.matching_seq_s, "s");
  report.set("sched.wasted_per_task",
             static_cast<double>(busy_detail.failed_deletes) /
                 static_cast<double>(std::max<std::uint64_t>(
                     busy_detail.tasks, 1)),
             "ratio");
  report.set("sched.mean_rank_error",
             audit_detail.rank_samples > 0
                 ? audit_detail.rank_error_sum /
                       static_cast<double>(audit_detail.rank_samples)
                 : 0.0,
             "count");
  report.set("engine.startup_s", engine_startup_s, "s");
  report.set("engine.slice_p99_us", inproc.slice_p99_us, "us");
  report.set("engine.submit_us", median(inproc.submit_us), "us");
  report.set("engine.inproc_p50_ms",
             bounded_ms(nearest_rank(inproc.phase.latency_ms, 0.5), busy_s),
             "ms");
  report.set("engine.inproc_p99_ms",
             bounded_ms(tail_percentile(inproc.phase.latency_ms, 0.99).value,
                        busy_s),
             "ms");
  report.set("engine.qos_share.w2", inproc.qos_share_w2, "ratio");
  report.set("server.decode_ns", codec.first, "ns");
  report.set("server.encode_ns", codec.second, "ns");
  report.set("server.wire_ms.p50", nearest_rank(busy_detail.wire_ms, 0.5),
             "ms");
  report.set("server.wire_ms.p99",
             tail_percentile(busy_detail.wire_ms, 0.99).value, "ms");
  report.set("server.busy_share.light",
             static_cast<double>(light.busy) /
                 static_cast<double>(std::max<std::uint64_t>(
                     light.attempted(), 1)),
             "ratio");
  report.set("server.busy_share.busy",
             static_cast<double>(busy.busy) /
                 static_cast<double>(std::max<std::uint64_t>(
                     busy.attempted(), 1)),
             "ratio");
  report.set("server.gen_lag_ms.p99",
             std::max(nearest_rank(light.lag_ms, 0.99),
                      nearest_rank(busy.lag_ms, 0.99)),
             "ms");
  report.set("trace.overhead_share",
             nearest_rank(busy.latency_ms, 0.5) / untraced_p50 - 1.0, "ratio");
  finish_trace(spans, opt, report);
}

}  // namespace perfbench
