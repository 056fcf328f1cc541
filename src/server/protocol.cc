#include "server/protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace relax::server::protocol {

namespace {

// Little-endian scalar append/read. The cursor-based Reader returns false
// on underrun so decoders degrade to nullopt instead of reading garbage.

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = data_[pos_++];
    return true;
  }
  bool u16(std::uint16_t& v) {
    if (pos_ + 2 > data_.size()) return false;
    v = static_cast<std::uint16_t>(data_[pos_] |
                                   (std::uint16_t{data_[pos_ + 1]} << 8));
    pos_ += 2;
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return true;
  }
  bool str(std::size_t len, std::string& v) {
    if (pos_ + len > data_.size()) return false;
    v.assign(reinterpret_cast<const char*>(data_.data()) + pos_, len);
    pos_ += len;
    return true;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Reserves the 4-byte length slot, returns its offset.
std::size_t begin_frame(std::vector<std::uint8_t>& out) {
  const std::size_t at = out.size();
  put_u32(out, 0);
  return at;
}

/// Backfills the length prefix with the payload size written since
/// begin_frame.
void end_frame(std::vector<std::uint8_t>& out, std::size_t at) {
  const std::uint32_t len = static_cast<std::uint32_t>(out.size() - at - 4);
  for (int i = 0; i < 4; ++i)
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
}

}  // namespace

void encode(const Request& msg, std::vector<std::uint8_t>& out) {
  const std::size_t frame = begin_frame(out);
  put_u8(out, kVersion);
  put_u8(out, kRequestType);
  put_u8(out, static_cast<std::uint8_t>(msg.kind));
  std::uint8_t flags = 0;
  if (msg.audit) flags |= 0x01;  // bit 1 is reserved: always written as 0
  put_u8(out, flags);
  put_u32(out, msg.graph_id);
  put_u32(out, msg.pop_batch);
  put_u64(out, msg.id);
  put_u64(out, msg.seed);
  const std::size_t blen = std::min<std::size_t>(msg.backend.size(), 255);
  put_u8(out, static_cast<std::uint8_t>(blen));
  out.insert(out.end(), msg.backend.begin(),
             msg.backend.begin() + static_cast<std::ptrdiff_t>(blen));
  // Trailing v1 field (additive evolution): QoS weight. Always written by
  // this encoder; absent in pre-weight frames, which decode as weight 1.
  put_u32(out, msg.weight);
  end_frame(out, frame);
}

void encode(const Response& msg, std::vector<std::uint8_t>& out) {
  const std::size_t frame = begin_frame(out);
  put_u8(out, kVersion);
  put_u8(out, kResponseType);
  put_u8(out, static_cast<std::uint8_t>(msg.status));
  put_u8(out, static_cast<std::uint8_t>(msg.error));
  put_u64(out, msg.id);
  put_u64(out, msg.iterations);
  put_u64(out, msg.processed);
  put_u64(out, msg.failed_deletes);
  put_u64(out, msg.latency_ns);
  put_u64(out, msg.rank_samples);
  put_u64(out, msg.max_rank_error);
  put_u64(out, std::bit_cast<std::uint64_t>(msg.mean_rank_error));
  const std::size_t mlen = std::min<std::size_t>(msg.message.size(), 65535);
  put_u16(out, static_cast<std::uint16_t>(mlen));
  out.insert(out.end(), msg.message.begin(),
             msg.message.begin() + static_cast<std::ptrdiff_t>(mlen));
  end_frame(out, frame);
}

std::optional<Request> decode_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  std::uint8_t version = 0, type = 0, kind = 0, flags = 0, blen = 0;
  Request msg;
  if (!r.u8(version) || version != kVersion) return std::nullopt;
  if (!r.u8(type) || type != kRequestType) return std::nullopt;
  if (!r.u8(kind) || kind > static_cast<std::uint8_t>(Kind::kMatching))
    return std::nullopt;
  if (!r.u8(flags) || !r.u32(msg.graph_id) || !r.u32(msg.pop_batch) ||
      !r.u64(msg.id) || !r.u64(msg.seed) || !r.u8(blen) ||
      !r.str(blen, msg.backend))
    return std::nullopt;
  msg.kind = static_cast<Kind>(kind);
  msg.audit = (flags & 0x01) != 0;  // reserved bit 1 is ignored
  // Trailing weight field: optional for compatibility with pre-weight
  // encoders. Absent -> 1 (the historical per-job share), NOT 0 — an old
  // client never asked for the server's default-weight override.
  std::uint32_t weight = 0;
  msg.weight = r.u32(weight) ? weight : 1;
  return msg;
}

std::optional<Response> decode_response(
    std::span<const std::uint8_t> payload) {
  Reader r(payload);
  std::uint8_t version = 0, type = 0, status = 0, error = 0;
  std::uint16_t mlen = 0;
  std::uint64_t mean_bits = 0;
  Response msg;
  if (!r.u8(version) || version != kVersion) return std::nullopt;
  if (!r.u8(type) || type != kResponseType) return std::nullopt;
  if (!r.u8(status) || status > static_cast<std::uint8_t>(Status::kError))
    return std::nullopt;
  if (!r.u8(error) || !r.u64(msg.id) || !r.u64(msg.iterations) ||
      !r.u64(msg.processed) || !r.u64(msg.failed_deletes) ||
      !r.u64(msg.latency_ns) || !r.u64(msg.rank_samples) ||
      !r.u64(msg.max_rank_error) || !r.u64(mean_bits) || !r.u16(mlen) ||
      !r.str(mlen, msg.message))
    return std::nullopt;
  msg.status = static_cast<Status>(status);
  msg.error = static_cast<ErrorCode>(error);
  msg.mean_rank_error = std::bit_cast<double>(mean_bits);
  return msg;
}

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
  if (corrupt_) return;  // sticky: nothing past a bad prefix is trustworthy
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  std::size_t pos = 0;
  while (buffer_.size() - pos >= 4) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
      len |= std::uint32_t{buffer_[pos + static_cast<std::size_t>(i)]}
             << (8 * i);
    if (len == 0 || len > kMaxFrameBytes) {
      corrupt_ = true;
      buffer_.clear();
      return;
    }
    if (buffer_.size() - pos - 4 < len) break;  // frame incomplete
    const auto* begin = buffer_.data() + pos + 4;
    ready_.emplace_back(begin, begin + len);
    pos += 4 + len;
  }
  if (pos > 0)
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos));
}

std::optional<std::vector<std::uint8_t>> FrameReader::next() {
  if (ready_.empty()) return std::nullopt;
  std::vector<std::uint8_t> payload = std::move(ready_.front());
  ready_.pop_front();
  return payload;
}

}  // namespace relax::server::protocol
