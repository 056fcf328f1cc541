// Wire-codec tests for src/server/protocol.h: byte-exact round trips,
// malformed-input rejection, and FrameReader stream reassembly — the
// properties docs/PROTOCOL.md promises.
#include "server/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace protocol = relax::server::protocol;

namespace {

std::span<const std::uint8_t> payload_of(
    const std::vector<std::uint8_t>& frame) {
  // Strip the 4-byte length prefix; the remainder is the payload.
  return {frame.data() + 4, frame.size() - 4};
}

protocol::Request sample_request(protocol::Kind kind) {
  protocol::Request req;
  req.id = 0x0123456789abcdefULL;
  req.kind = kind;
  req.graph_id = 7;
  req.pop_batch = 64;
  req.audit = true;
  req.seed = 0xfeedface;
  req.backend = "multiqueue-c4";
  return req;
}

}  // namespace

TEST(Protocol, RequestRoundTripEveryKind) {
  for (const auto kind :
       {protocol::Kind::kMis, protocol::Kind::kColoring,
        protocol::Kind::kMatching}) {
    const protocol::Request req = sample_request(kind);
    std::vector<std::uint8_t> wire;
    protocol::encode(req, wire);

    const auto got = protocol::decode_request(payload_of(wire));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->id, req.id);
    EXPECT_EQ(got->kind, req.kind);
    EXPECT_EQ(got->graph_id, req.graph_id);
    EXPECT_EQ(got->pop_batch, req.pop_batch);
    EXPECT_EQ(got->audit, req.audit);
    EXPECT_EQ(got->seed, req.seed);
    EXPECT_EQ(got->backend, req.backend);
  }
}

TEST(Protocol, ResponseRoundTripEveryStatus) {
  for (const auto status :
       {protocol::Status::kOk, protocol::Status::kBusy,
        protocol::Status::kError}) {
    protocol::Response resp;
    resp.id = 42;
    resp.status = status;
    resp.error = protocol::ErrorCode::kBadBackend;
    resp.iterations = 1000;
    resp.processed = 999;
    resp.failed_deletes = 17;
    resp.latency_ns = 123456789;
    resp.rank_samples = 64;
    resp.max_rank_error = 9;
    resp.mean_rank_error = 1.5;
    resp.message = "details";
    std::vector<std::uint8_t> wire;
    protocol::encode(resp, wire);

    const auto got = protocol::decode_response(payload_of(wire));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->id, resp.id);
    EXPECT_EQ(got->status, resp.status);
    EXPECT_EQ(got->error, resp.error);
    EXPECT_EQ(got->iterations, resp.iterations);
    EXPECT_EQ(got->processed, resp.processed);
    EXPECT_EQ(got->failed_deletes, resp.failed_deletes);
    EXPECT_EQ(got->latency_ns, resp.latency_ns);
    EXPECT_EQ(got->rank_samples, resp.rank_samples);
    EXPECT_EQ(got->max_rank_error, resp.max_rank_error);
    EXPECT_DOUBLE_EQ(got->mean_rank_error, resp.mean_rank_error);
    EXPECT_EQ(got->message, resp.message);
  }
}

TEST(Protocol, DecodersRejectTruncatedPayloads) {
  std::vector<std::uint8_t> wire;
  protocol::encode(sample_request(protocol::Kind::kMis), wire);
  const auto payload = payload_of(wire);
  // Every prefix cut inside the MANDATORY fields must be rejected, never
  // mis-decoded. The trailing weight field is optional by design (additive
  // evolution — see OldFormatRequestDecodesWithWeightOne), so the rejection
  // sweep stops where the mandatory layout ends.
  ASSERT_GT(payload.size(), 4u);
  const std::size_t mandatory = payload.size() - 4;  // sans trailing weight
  for (std::size_t len = 0; len < mandatory; ++len)
    EXPECT_FALSE(protocol::decode_request(payload.subspan(0, len)))
        << "prefix of " << len << " bytes decoded";

  wire.clear();
  protocol::encode(protocol::Response{}, wire);
  const auto rpayload = payload_of(wire);
  for (std::size_t len = 0; len < rpayload.size(); ++len)
    EXPECT_FALSE(protocol::decode_response(rpayload.subspan(0, len)))
        << "prefix of " << len << " bytes decoded";
}

TEST(Protocol, DecodersRejectGarbageAndWrongHeader) {
  const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 0x01,
                                             0x02, 0x03, 0x04, 0x05, 0x06};
  EXPECT_FALSE(protocol::decode_request(garbage));
  EXPECT_FALSE(protocol::decode_response(garbage));

  std::vector<std::uint8_t> wire;
  protocol::encode(sample_request(protocol::Kind::kMis), wire);
  // Wrong version.
  auto bad = std::vector<std::uint8_t>(wire.begin() + 4, wire.end());
  bad[0] = protocol::kVersion + 1;
  EXPECT_FALSE(protocol::decode_request(bad));
  // A request payload is not a response and vice versa.
  EXPECT_FALSE(protocol::decode_response(payload_of(wire)));
  // Kind byte past the enum.
  bad = std::vector<std::uint8_t>(wire.begin() + 4, wire.end());
  bad[2] = 99;
  EXPECT_FALSE(protocol::decode_request(bad));
  // Declared backend length running past the payload end (offset 28 is
  // the backend_len byte, docs/PROTOCOL.md).
  bad = std::vector<std::uint8_t>(wire.begin() + 4, wire.end());
  bad[28] = 255;
  EXPECT_FALSE(protocol::decode_request(bad));
}

TEST(Protocol, RequestRoundTripPreservesWeight) {
  protocol::Request req = sample_request(protocol::Kind::kMis);
  req.weight = 7;
  std::vector<std::uint8_t> wire;
  protocol::encode(req, wire);
  const auto got = protocol::decode_request(payload_of(wire));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->weight, 7u);

  // Weight 0 ("use the server default") survives the trip too — it is a
  // PRESENT zero, distinct from the absent-field case below.
  req.weight = 0;
  wire.clear();
  protocol::encode(req, wire);
  const auto got0 = protocol::decode_request(payload_of(wire));
  ASSERT_TRUE(got0.has_value());
  EXPECT_EQ(got0->weight, 0u);
}

TEST(Protocol, OldFormatRequestDecodesWithWeightOne) {
  // A pre-weight client's payload ends right after the backend string.
  // It must decode, and with weight 1 (the historical equal share) — not
  // 0, which would opt the old client into the server's default-weight
  // override it never asked for.
  std::vector<std::uint8_t> wire;
  protocol::encode(sample_request(protocol::Kind::kMis), wire);
  const auto payload = payload_of(wire);
  const auto old_format = payload.subspan(0, payload.size() - 4);
  const auto got = protocol::decode_request(old_format);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->weight, 1u);
  EXPECT_EQ(got->backend, "multiqueue-c4");
  EXPECT_EQ(got->id, sample_request(protocol::Kind::kMis).id);

  // A partially-present weight field (1–3 trailing bytes) also decodes
  // as absent: the optional tail is all-or-nothing by byte count.
  for (std::size_t cut = 1; cut < 4; ++cut) {
    const auto partial = payload.subspan(0, payload.size() - cut);
    const auto p = protocol::decode_request(partial);
    ASSERT_TRUE(p.has_value()) << "cut " << cut;
    EXPECT_EQ(p->weight, 1u) << "cut " << cut;
  }
}

TEST(Protocol, ReservedFlagBitOneIsIgnored) {
  // Request flags bit 1 once selected adaptive claim sizing. It is now
  // reserved: a v1 frame that still sets it decodes (the bit is dropped),
  // and the encoder writes it as 0. Built byte by byte, not via encode(),
  // so the test pins the documented layout rather than the codec's own.
  const auto le = [](std::vector<std::uint8_t>& out, std::uint64_t v,
                     int bytes) {
    for (int i = 0; i < bytes; ++i)
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  for (const std::uint8_t flags : {std::uint8_t{0x02}, std::uint8_t{0x03}}) {
    std::vector<std::uint8_t> payload = {1, 0, /*kind=*/2, flags};
    le(payload, 3, 4);       // graph_id
    le(payload, 16, 4);      // pop_batch
    le(payload, 0x77, 8);    // id
    le(payload, 0x1234, 8);  // seed
    const std::string backend = "spraylist";
    payload.push_back(static_cast<std::uint8_t>(backend.size()));
    payload.insert(payload.end(), backend.begin(), backend.end());
    le(payload, 2, 4);  // weight

    const auto got = protocol::decode_request(payload);
    ASSERT_TRUE(got.has_value()) << "flags " << int{flags};
    EXPECT_EQ(got->kind, protocol::Kind::kMatching);
    EXPECT_EQ(got->audit, (flags & 0x01) != 0);
    EXPECT_EQ(got->graph_id, 3u);
    EXPECT_EQ(got->pop_batch, 16u);
    EXPECT_EQ(got->id, 0x77u);
    EXPECT_EQ(got->seed, 0x1234u);
    EXPECT_EQ(got->backend, backend);
    EXPECT_EQ(got->weight, 2u);

    std::vector<std::uint8_t> wire;
    protocol::encode(*got, wire);
    EXPECT_EQ(wire[4 + 3], flags & 0x01) << "bit 1 must be written as 0";
  }
}

TEST(Protocol, DecodersIgnoreTrailingBytes) {
  // Additive evolution: a same-version payload with appended fields still
  // decodes on an old reader — including fields appended AFTER the weight,
  // which must itself still be read from its own position.
  protocol::Request req = sample_request(protocol::Kind::kColoring);
  req.weight = 3;
  std::vector<std::uint8_t> wire;
  protocol::encode(req, wire);
  std::vector<std::uint8_t> extended(wire.begin() + 4, wire.end());
  extended.insert(extended.end(), {1, 2, 3, 4, 5, 6, 7, 8});
  const auto got = protocol::decode_request(extended);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, protocol::Kind::kColoring);
  EXPECT_EQ(got->backend, "multiqueue-c4");
  EXPECT_EQ(got->weight, 3u);
}

TEST(Protocol, FrameReaderReassemblesByteByByte) {
  // Three frames, fed one byte at a time — the worst TCP segmentation.
  std::vector<std::uint8_t> wire;
  protocol::encode(sample_request(protocol::Kind::kMis), wire);
  protocol::encode(sample_request(protocol::Kind::kColoring), wire);
  protocol::encode(sample_request(protocol::Kind::kMatching), wire);

  protocol::FrameReader reader;
  std::vector<protocol::Kind> kinds;
  for (const std::uint8_t b : wire) {
    reader.feed(std::span<const std::uint8_t>(&b, 1));
    while (auto payload = reader.next()) {
      const auto req =
          protocol::decode_request(std::span<const std::uint8_t>(*payload));
      ASSERT_TRUE(req.has_value());
      kinds.push_back(req->kind);
    }
  }
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], protocol::Kind::kMis);
  EXPECT_EQ(kinds[1], protocol::Kind::kColoring);
  EXPECT_EQ(kinds[2], protocol::Kind::kMatching);
  EXPECT_FALSE(reader.corrupt());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Protocol, FrameReaderLatchesOnOversizedPrefix) {
  protocol::FrameReader reader;
  // Length prefix claiming kMaxFrameBytes + 1.
  const std::uint32_t len = protocol::kMaxFrameBytes + 1;
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len >> 16),
      static_cast<std::uint8_t>(len >> 24)};
  reader.feed(prefix);
  EXPECT_TRUE(reader.corrupt());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
  // Sticky: later well-formed bytes change nothing.
  std::vector<std::uint8_t> wire;
  protocol::encode(sample_request(protocol::Kind::kMis), wire);
  reader.feed(wire);
  EXPECT_TRUE(reader.corrupt());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Protocol, FrameReaderLatchesOnZeroLength) {
  protocol::FrameReader reader;
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  reader.feed(zeros);
  EXPECT_TRUE(reader.corrupt());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Protocol, FrameReaderHandlesBatchedAndPartialMix) {
  // One call carrying 1.5 frames, then the remaining half.
  std::vector<std::uint8_t> a, b;
  protocol::encode(sample_request(protocol::Kind::kMis), a);
  protocol::encode(sample_request(protocol::Kind::kMatching), b);
  std::vector<std::uint8_t> first(a);
  first.insert(first.end(), b.begin(), b.begin() + 5);

  protocol::FrameReader reader;
  reader.feed(first);
  auto p1 = reader.next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(protocol::decode_request(std::span<const std::uint8_t>(*p1))
                ->kind,
            protocol::Kind::kMis);
  EXPECT_FALSE(reader.next().has_value());

  reader.feed(std::span<const std::uint8_t>(b.data() + 5, b.size() - 5));
  auto p2 = reader.next();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(protocol::decode_request(std::span<const std::uint8_t>(*p2))
                ->kind,
            protocol::Kind::kMatching);
  EXPECT_EQ(reader.buffered(), 0u);
}
