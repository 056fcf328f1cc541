// Wire protocol for the networked job server (src/server/server.h).
//
// Framing: every message is one frame — a 4-byte little-endian payload
// length followed by the payload. The length covers the payload only, must
// be nonzero, and is clamped at kMaxFrameBytes: a stream carrying a larger
// prefix is corrupt (there is no way to resync a length-prefixed stream
// past a bad length), so FrameReader latches a sticky error and the server
// closes the connection. Within a payload all integers are little-endian
// and fields are packed in declaration order, no padding.
//
// Payloads self-describe with a two-byte header: version (kVersion) then a
// message type (kRequestType / kResponseType). Versioning rule: the codec
// rejects frames whose version it does not know; additive evolution happens
// by appending fields (decoders accept longer-than-known payloads of their
// own version and ignore the tail), breaking changes bump kVersion. See
// docs/PROTOCOL.md for the byte-exact layout.
//
// The codec is deliberately dependency-free (no engine/, no sockets): the
// server, the open-loop load client (bench/server_load.cc), and the tests
// all share exactly this code, so an encode/decode disagreement is
// impossible by construction.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace relax::server::protocol {

inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::uint8_t kRequestType = 0;
inline constexpr std::uint8_t kResponseType = 1;

/// Upper bound on a frame payload. Far above any real message (requests
/// are ~30 bytes plus a backend name, responses ~80 plus an error string);
/// this exists so a garbage length prefix cannot make the reader buffer
/// gigabytes before noticing the stream is broken.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 16;

/// Problem families a request may name (the same set examples/job_server
/// has always served). Values are wire-stable: never renumber.
enum class Kind : std::uint8_t { kMis = 0, kColoring = 1, kMatching = 2 };

enum class Status : std::uint8_t {
  kOk = 0,     // job ran to completion; stats fields are valid
  kBusy = 1,   // shed at admission (engine queue full) — retry later
  kError = 2,  // request was invalid; see error / message
};

enum class ErrorCode : std::uint8_t {
  kNone = 0,
  kBadVersion = 1,   // unknown protocol version
  kBadKind = 2,      // Kind value outside the enum
  kBadGraph = 3,     // graph_id names no resident graph
  kBadBackend = 4,   // backend name not in the registry
  kBadFrame = 5,     // payload failed to decode as a request
  kShutdown = 6,     // server is stopping; request not admitted
};

/// One job request. `id` is chosen by the client and echoed verbatim in
/// the response — responses complete out of submission order (requests are
/// pipelined; the engine multiplexes), so the id is the only correlation.
struct Request {
  std::uint64_t id = 0;
  Kind kind = Kind::kMis;
  std::uint32_t graph_id = 0;
  std::uint32_t pop_batch = 0;   // labels per scheduler touch; 0 = server
                                 // default, values clamped server-side
  bool audit = false;            // run under the Definition 1 monitor
  std::uint64_t seed = 1;        // scheduler randomness (determinism knob)
  std::string backend;           // registry name; "" = server default
  std::uint32_t weight = 0;      // QoS tenant weight, trailing v1 field:
                                 // 0 = use the server's --default-weight;
                                 // ABSENT on the wire (a pre-weight
                                 // encoder) decodes as 1, so old clients
                                 // keep their historical fixed share
};

/// One job completion (or rejection). Stats fields are meaningful only for
/// kOk; rank fields only when the request asked for an audit
/// (rank_samples > 0). latency_ns is the server-side accept-to-completion
/// time — the client measures its own end-to-end latency around it.
struct Response {
  std::uint64_t id = 0;
  Status status = Status::kOk;
  ErrorCode error = ErrorCode::kNone;
  std::uint64_t iterations = 0;
  std::uint64_t processed = 0;
  std::uint64_t failed_deletes = 0;
  std::uint64_t latency_ns = 0;
  std::uint64_t rank_samples = 0;
  std::uint64_t max_rank_error = 0;
  double mean_rank_error = 0.0;
  std::string message;  // human-readable error detail, "" otherwise
};

/// Appends the complete frame (length prefix + payload) for `msg` to
/// `out`. Strings longer than their length field (255 for backend, 65535
/// for message) are truncated — nothing a well-formed caller ever hits.
void encode(const Request& msg, std::vector<std::uint8_t>& out);
void encode(const Response& msg, std::vector<std::uint8_t>& out);

/// Decodes one frame *payload* (the bytes after the length prefix).
/// nullopt when the payload is truncated, carries an unknown version or
/// the wrong message type, or declares a string that runs past its end.
/// Extra trailing bytes are accepted (additive evolution, see header).
[[nodiscard]] std::optional<Request> decode_request(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<Response> decode_response(
    std::span<const std::uint8_t> payload);

/// Incremental frame assembly over an arbitrary-chunked byte stream (what
/// a socket delivers). feed() bytes as they arrive; next() yields complete
/// payloads in order. A zero or oversized length prefix latches the sticky
/// corrupt state: next() returns nothing more and the owner should drop
/// the stream.
class FrameReader {
 public:
  void feed(std::span<const std::uint8_t> bytes);

  /// The next complete frame payload, FIFO; nullopt when none is buffered
  /// (or the stream is corrupt).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next();

  [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }

  /// Bytes buffered but not yet returned (diagnostics / tests).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size();
  }

 private:
  std::vector<std::uint8_t> buffer_;  // undecoded stream tail
  std::deque<std::vector<std::uint8_t>> ready_;
  bool corrupt_ = false;
};

}  // namespace relax::server::protocol
