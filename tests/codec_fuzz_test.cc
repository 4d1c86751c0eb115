// Fuzzing the wire codecs: random bytes and random mutations of valid
// frames must never crash or mis-round-trip the parsers.  On a network
// element, malformed input is a normal event, not an error path.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/consistency.h"
#include "core/protocol.h"
#include "net/codec.h"

namespace redplane {
namespace {

net::Packet RandomPacket(Rng& rng) {
  net::FlowKey flow;
  flow.src_ip = net::Ipv4Addr(static_cast<std::uint32_t>(rng.Next()));
  flow.dst_ip = net::Ipv4Addr(static_cast<std::uint32_t>(rng.Next()));
  flow.src_port = static_cast<std::uint16_t>(rng.Next());
  flow.dst_port = static_cast<std::uint16_t>(rng.Next());
  flow.proto = rng.Bernoulli(0.5) ? net::IpProto::kTcp : net::IpProto::kUdp;
  net::Packet pkt =
      flow.proto == net::IpProto::kTcp
          ? net::MakeTcpPacket(flow, static_cast<std::uint8_t>(rng.Next()),
                               static_cast<std::uint32_t>(rng.Next()),
                               static_cast<std::uint32_t>(rng.Next()),
                               static_cast<std::uint32_t>(rng.NextBounded(1400)))
          : net::MakeUdpPacket(flow,
                               static_cast<std::uint32_t>(rng.NextBounded(1400)));
  if (rng.Bernoulli(0.3)) pkt.vlan = static_cast<std::uint16_t>(rng.NextBounded(4095) + 1);
  const std::size_t payload = rng.NextBounded(64);
  std::vector<std::byte> body(payload);
  for (auto& b : body) b = std::byte{static_cast<std::uint8_t>(rng.Next())};
  pkt.payload = std::move(body);
  return pkt;
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomBytesNeverCrashPacketParser) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::byte> junk(rng.NextBounded(200));
    for (auto& b : junk) b = std::byte{static_cast<std::uint8_t>(rng.Next())};
    (void)net::Parse(junk);  // must not crash; result may be anything valid
  }
}

TEST_P(CodecFuzz, MutatedValidFramesNeverCrash) {
  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 500; ++i) {
    auto wire = net::Serialize(RandomPacket(rng));
    // Flip 1-4 random bytes.
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      wire[rng.NextBounded(wire.size())] ^=
          std::byte{static_cast<std::uint8_t>(rng.Next() | 1)};
    }
    (void)net::Parse(wire);
    // Truncate to a random prefix.
    auto truncated = wire;
    truncated.resize(rng.NextBounded(wire.size() + 1));
    (void)net::Parse(truncated);
  }
}

TEST_P(CodecFuzz, ValidFramesAlwaysRoundTrip) {
  Rng rng(GetParam() + 2000);
  for (int i = 0; i < 500; ++i) {
    const net::Packet pkt = RandomPacket(rng);
    const auto parsed = net::Parse(net::Serialize(pkt));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->Flow().has_value());
    EXPECT_EQ(*parsed->Flow(), *pkt.Flow());
    EXPECT_EQ(parsed->vlan, pkt.vlan);
    EXPECT_EQ(parsed->payload.size(), pkt.payload.size() + pkt.pad_bytes);
  }
}

TEST_P(CodecFuzz, RandomBytesNeverCrashProtocolDecoder) {
  Rng rng(GetParam() + 3000);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::byte> junk(rng.NextBounded(300));
    for (auto& b : junk) b = std::byte{static_cast<std::uint8_t>(rng.Next())};
    (void)core::DecodeMsg(junk);
  }
}

TEST_P(CodecFuzz, MutatedProtocolMessagesNeverCrash) {
  Rng rng(GetParam() + 4000);
  for (int i = 0; i < 500; ++i) {
    core::Msg msg;
    msg.type = static_cast<core::MsgType>(1 + rng.NextBounded(8));
    msg.mode = static_cast<core::ConsistencyMode>(
        rng.NextBounded(core::kNumConsistencyModes));
    msg.seq = rng.Next();
    msg.key = net::PartitionKey::OfObject(rng.Next());
    msg.state.resize(rng.NextBounded(64));
    if (rng.Bernoulli(0.5)) msg.piggyback = RandomPacket(rng);
    auto bytes = net::BufferView(core::EncodeMsg(msg)).ToVector();
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.NextBounded(bytes.size())] ^=
          std::byte{static_cast<std::uint8_t>(rng.Next() | 1)};
    }
    (void)core::DecodeMsg(bytes);
    auto truncated = bytes;
    truncated.resize(rng.NextBounded(bytes.size() + 1));
    (void)core::DecodeMsg(truncated);
  }
}

TEST_P(CodecFuzz, ProtocolMessagesAlwaysRoundTrip) {
  Rng rng(GetParam() + 5000);
  for (int i = 0; i < 500; ++i) {
    core::Msg msg;
    msg.type = static_cast<core::MsgType>(1 + rng.NextBounded(8));
    msg.ack = static_cast<core::AckKind>(rng.NextBounded(10));
    msg.mode = static_cast<core::ConsistencyMode>(
        rng.NextBounded(core::kNumConsistencyModes));
    msg.seq = rng.Next();
    msg.snapshot_index = static_cast<std::uint32_t>(rng.Next());
    msg.reply_to = net::Ipv4Addr(static_cast<std::uint32_t>(rng.Next()));
    msg.chain_hop = static_cast<std::uint8_t>(rng.NextBounded(4));
    switch (rng.NextBounded(3)) {
      case 0: {
        net::FlowKey f;
        f.src_ip = net::Ipv4Addr(static_cast<std::uint32_t>(rng.Next()));
        f.dst_ip = net::Ipv4Addr(static_cast<std::uint32_t>(rng.Next()));
        f.src_port = static_cast<std::uint16_t>(rng.Next());
        f.dst_port = static_cast<std::uint16_t>(rng.Next());
        f.proto = net::IpProto::kUdp;
        msg.key = net::PartitionKey::OfFlow(f);
        break;
      }
      case 1:
        msg.key = net::PartitionKey::OfVlan(
            static_cast<std::uint16_t>(rng.NextBounded(4096)));
        break;
      default:
        msg.key = net::PartitionKey::OfObject(rng.Next());
    }
    msg.state.resize(rng.NextBounded(128));
    for (auto& b : msg.state) {
      b = std::byte{static_cast<std::uint8_t>(rng.Next())};
    }
    const auto decoded = core::DecodeMsg(core::EncodeMsg(msg));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, msg.type);
    EXPECT_EQ(decoded->ack, msg.ack);
    EXPECT_EQ(decoded->seq, msg.seq);
    EXPECT_EQ(decoded->snapshot_index, msg.snapshot_index);
    EXPECT_EQ(decoded->reply_to, msg.reply_to);
    EXPECT_EQ(decoded->chain_hop, msg.chain_hop);
    EXPECT_EQ(decoded->mode, msg.mode);
    EXPECT_EQ(decoded->key, msg.key);
    EXPECT_EQ(decoded->state, msg.state);
  }
}

// --- consistency-mode wire extensions (DESIGN.md §14) ----------------------

TEST_P(CodecFuzz, OutOfSpectrumModeBytesAreRejected) {
  Rng rng(GetParam() + 9000);
  for (int i = 0; i < 500; ++i) {
    core::Msg msg;
    msg.type = static_cast<core::MsgType>(1 + rng.NextBounded(8));
    msg.seq = rng.Next();
    msg.key = net::PartitionKey::OfObject(rng.Next());
    msg.state.resize(rng.NextBounded(32));
    auto bytes = net::BufferView(core::EncodeMsg(msg)).ToVector();
    // Patch in a mode byte beyond the known spectrum.  The whole frame must
    // be rejected: a store running an older binary must never apply a write
    // under consistency rules it does not understand.
    bytes[core::wire::kOffMode] = std::byte{static_cast<std::uint8_t>(
        core::kNumConsistencyModes +
        rng.NextBounded(256 - core::kNumConsistencyModes))};
    EXPECT_FALSE(core::DecodeMsg(bytes).has_value());
    EXPECT_FALSE(
        core::MsgView::Parse(net::Buffer::CopyOf(bytes)).has_value());
  }
}

TEST_P(CodecFuzz, TruncatedMergeDeltasAreRejectedWhole) {
  Rng rng(GetParam() + 10000);
  for (int i = 0; i < 500; ++i) {
    core::Msg msg;
    msg.type = core::MsgType::kMergeDelta;
    msg.mode = core::ConsistencyMode::kMergeable;
    msg.seq = rng.Next();
    msg.key = net::PartitionKey::OfObject(rng.Next());
    msg.state.resize(1 + rng.NextBounded(64));
    for (auto& b : msg.state) {
      b = std::byte{static_cast<std::uint8_t>(rng.Next())};
    }
    const auto bytes = net::BufferView(core::EncodeMsg(msg)).ToVector();
    // A partial CRDT delta folded into the store would not be a lattice
    // join, so every strict prefix must fail to decode — never yield a
    // message with a shortened state.
    auto truncated = bytes;
    truncated.resize(rng.NextBounded(bytes.size()));
    EXPECT_FALSE(core::DecodeMsg(truncated).has_value());
    // Garbage in the state body still decodes (state is opaque here) but
    // must round-trip bit-exactly, never crash.
    auto garbled = bytes;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      garbled[rng.NextBounded(garbled.size())] ^=
          std::byte{static_cast<std::uint8_t>(rng.Next() | 1)};
    }
    (void)core::DecodeMsg(garbled);
  }
}

TEST_P(CodecFuzz, MixedModeBatchEnvelopesRoundTrip) {
  Rng rng(GetParam() + 11000);
  for (int i = 0; i < 300; ++i) {
    // One batch carrying sub-messages from all three consistency modes —
    // the egress batcher does not segregate by mode, so the store must
    // recover each sub-message with its own mode byte intact.
    std::vector<core::Msg> msgs;
    std::vector<net::BufferView> subs;
    const std::size_t n = 1 + rng.NextBounded(8);
    for (std::size_t s = 0; s < n; ++s) {
      core::Msg msg;
      msg.mode = static_cast<core::ConsistencyMode>(
          rng.NextBounded(core::kNumConsistencyModes));
      switch (msg.mode) {
        case core::ConsistencyMode::kMergeable:
          msg.type = core::MsgType::kMergeDelta;
          break;
        case core::ConsistencyMode::kReplicatedRead:
          msg.type = rng.Bernoulli(0.5) ? core::MsgType::kReplicaSubscribe
                                        : core::MsgType::kLeaseRenewReq;
          break;
        default:
          msg.type = core::MsgType::kLeaseRenewReq;
      }
      msg.seq = rng.Next();
      msg.key = net::PartitionKey::OfObject(rng.Next());
      msg.state.resize(rng.NextBounded(48));
      for (auto& b : msg.state) {
        b = std::byte{static_cast<std::uint8_t>(rng.Next())};
      }
      msgs.push_back(msg);
      subs.push_back(net::BufferView(core::EncodeMsg(msgs.back())));
    }
    const net::BufferView env = net::EncodeBatchEnvelope(subs);
    const auto batch = net::BatchView::Parse(env);
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(batch->size(), msgs.size());
    for (std::size_t s = 0; s < msgs.size(); ++s) {
      const auto view = core::MsgView::Parse(batch->at(s));
      ASSERT_TRUE(view.has_value());
      EXPECT_EQ(view->type(), msgs[s].type);
      EXPECT_EQ(view->mode(), msgs[s].mode);
      EXPECT_EQ(view->seq(), msgs[s].seq);
    }
  }
}

// The zero-copy forwarding path patches mutable header fields directly in
// the encoded bytes instead of decode-mutate-re-encode.  For random messages
// and random patch sets, the two must produce identical bytes.
TEST_P(CodecFuzz, InPlaceHeaderPatchMatchesFullReencode) {
  Rng rng(GetParam() + 6000);
  for (int i = 0; i < 500; ++i) {
    core::Msg msg;
    msg.type = static_cast<core::MsgType>(1 + rng.NextBounded(8));
    msg.ack = static_cast<core::AckKind>(rng.NextBounded(10));
    msg.mode = static_cast<core::ConsistencyMode>(
        rng.NextBounded(core::kNumConsistencyModes));
    msg.seq = rng.Next();
    msg.snapshot_index = static_cast<std::uint32_t>(rng.Next());
    msg.reply_to = net::Ipv4Addr(static_cast<std::uint32_t>(rng.Next()));
    msg.chain_hop = static_cast<std::uint8_t>(rng.NextBounded(4));
    switch (rng.NextBounded(3)) {
      case 0:
        msg.key = net::PartitionKey::OfVlan(
            static_cast<std::uint16_t>(rng.NextBounded(4096)));
        break;
      case 1:
        msg.key = net::PartitionKey::OfObject(rng.Next());
        break;
      default: {
        net::FlowKey f;
        f.src_ip = net::Ipv4Addr(static_cast<std::uint32_t>(rng.Next()));
        f.dst_ip = net::Ipv4Addr(static_cast<std::uint32_t>(rng.Next()));
        f.src_port = static_cast<std::uint16_t>(rng.Next());
        f.dst_port = static_cast<std::uint16_t>(rng.Next());
        f.proto = net::IpProto::kTcp;
        msg.key = net::PartitionKey::OfFlow(f);
      }
    }
    msg.state.resize(rng.NextBounded(64));
    for (auto& b : msg.state) {
      b = std::byte{static_cast<std::uint8_t>(rng.Next())};
    }
    if (rng.Bernoulli(0.5)) msg.piggyback = RandomPacket(rng);

    auto view = core::MsgView::Parse(core::EncodeMsg(msg));
    ASSERT_TRUE(view.has_value());

    // Random subset of the mutable fields (what replicas/stores stamp).
    if (rng.Bernoulli(0.7)) {
      const auto v = static_cast<std::uint8_t>(rng.NextBounded(8));
      view->SetChainHop(v);
      msg.chain_hop = v;
    }
    if (rng.Bernoulli(0.5)) {
      const auto v = static_cast<core::AckKind>(rng.NextBounded(10));
      view->SetAck(v);
      msg.ack = v;
    }
    if (rng.Bernoulli(0.5)) {
      const auto v = static_cast<core::MsgType>(1 + rng.NextBounded(8));
      view->SetType(v);
      msg.type = v;
    }
    if (rng.Bernoulli(0.5)) {
      const auto v = static_cast<core::ConsistencyMode>(
          rng.NextBounded(core::kNumConsistencyModes));
      view->SetMode(v);
      msg.mode = v;
    }
    if (rng.Bernoulli(0.3)) {
      const std::uint64_t v = rng.Next();
      view->SetSeq(v);
      msg.seq = v;
    }
    if (rng.Bernoulli(0.3)) {
      const auto v = static_cast<std::uint32_t>(rng.Next());
      view->SetSnapshotIndex(v);
      msg.snapshot_index = v;
    }

    const net::Buffer reencoded = core::EncodeMsg(msg);
    ASSERT_EQ(view->bytes().size(), reencoded.size());
    EXPECT_TRUE(view->bytes() == net::BufferView(reencoded))
        << "patched bytes diverge from re-encode at iteration " << i;
  }
}

// --- batch envelope framing (DESIGN.md §10) --------------------------------

TEST(BatchCodec, EmptyBatchIsValid) {
  const net::BufferView env = net::EncodeBatchEnvelope({});
  EXPECT_TRUE(net::IsBatchFrame(env));
  const auto batch = net::BatchView::Parse(env);
  ASSERT_TRUE(batch.has_value());
  EXPECT_TRUE(batch->empty());
  EXPECT_EQ(env.size(), net::BatchOverheadBytes(0));
}

TEST(BatchCodec, EnvelopeMagicDistinctFromMessageMagic) {
  // A batch frame must not parse as a protocol message, and vice versa —
  // the store's one-lookahead classifier depends on it.
  core::Msg msg;
  msg.type = core::MsgType::kLeaseRenewOnly;
  msg.key = net::PartitionKey::OfObject(7);
  const net::BufferView encoded{core::EncodeMsg(msg)};
  EXPECT_FALSE(net::IsBatchFrame(encoded));
  const net::BufferView env = net::EncodeBatchEnvelope({});
  EXPECT_FALSE(core::MsgView::Parse(env).has_value());
}

TEST_P(CodecFuzz, BatchEnvelopeRoundTripsSubMessages) {
  Rng rng(GetParam() + 7000);
  for (int i = 0; i < 300; ++i) {
    std::vector<net::BufferView> subs;
    const std::size_t n = rng.NextBounded(9);
    for (std::size_t s = 0; s < n; ++s) {
      core::Msg msg;
      msg.type = static_cast<core::MsgType>(1 + rng.NextBounded(6));
      msg.seq = rng.Next();
      msg.key = net::PartitionKey::OfObject(rng.Next());
      msg.state.resize(rng.NextBounded(64));
      for (auto& b : msg.state) {
        b = std::byte{static_cast<std::uint8_t>(rng.Next())};
      }
      subs.push_back(net::BufferView(core::EncodeMsg(msg)));
    }
    const net::BufferView env = net::EncodeBatchEnvelope(subs);
    EXPECT_TRUE(net::IsBatchFrame(env));
    const auto batch = net::BatchView::Parse(env);
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(batch->size(), subs.size());
    for (std::size_t s = 0; s < subs.size(); ++s) {
      // Bit-for-bit sub-message recovery, and each sub still view-parses as
      // the protocol message it was.
      EXPECT_TRUE(batch->at(s) == subs[s]);
      EXPECT_TRUE(core::MsgView::Parse(batch->at(s)).has_value());
      // The recovered slice shares the envelope's backing store (zero-copy).
      EXPECT_TRUE(batch->at(s).SharesBuffer(env));
    }
  }
}

TEST_P(CodecFuzz, TruncatedOrMutatedBatchesNeverCrash) {
  Rng rng(GetParam() + 8000);
  for (int i = 0; i < 300; ++i) {
    std::vector<net::BufferView> subs;
    const std::size_t n = 1 + rng.NextBounded(6);
    for (std::size_t s = 0; s < n; ++s) {
      core::Msg msg;
      msg.type = core::MsgType::kLeaseRenewReq;
      msg.seq = rng.Next();
      msg.key = net::PartitionKey::OfObject(rng.Next());
      msg.state.resize(rng.NextBounded(32));
      subs.push_back(net::BufferView(core::EncodeMsg(msg)));
    }
    auto bytes = net::EncodeBatchEnvelope(subs).ToVector();
    // A truncated envelope (sub-message cut mid-body or mid-length-prefix)
    // must be rejected whole, never partially applied.
    auto truncated = bytes;
    truncated.resize(rng.NextBounded(bytes.size()));  // strictly shorter
    EXPECT_FALSE(
        net::BatchView::Parse(net::Buffer::CopyOf(truncated)).has_value());
    // Trailing garbage is rejected too.
    auto padded = bytes;
    padded.resize(bytes.size() + 1 + rng.NextBounded(8), std::byte{0x5a});
    EXPECT_FALSE(
        net::BatchView::Parse(net::Buffer::CopyOf(padded)).has_value());
    // Random byte flips must never crash the parser.
    auto flipped = bytes;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      flipped[rng.NextBounded(flipped.size())] ^=
          std::byte{static_cast<std::uint8_t>(rng.Next() | 1)};
    }
    (void)net::BatchView::Parse(net::Buffer::CopyOf(flipped));
  }
}

// --- adversarial corpus (campaign fuzz-found hardening) --------------------
// Each case below pins a decoder fix shaken out by the fault/load fuzzer:
// keep them even if the generic mutation loops above stop reaching the
// offending byte patterns.

TEST_P(CodecFuzz, OutOfRangeTypeAndAckBytesAreRejected) {
  Rng rng(GetParam() + 12000);
  for (int i = 0; i < 500; ++i) {
    core::Msg msg;
    msg.type = static_cast<core::MsgType>(1 + rng.NextBounded(8));
    msg.seq = rng.Next();
    msg.key = net::PartitionKey::OfObject(rng.Next());
    msg.state.resize(rng.NextBounded(32));
    const auto bytes = net::BufferView(core::EncodeMsg(msg)).ToVector();

    // Type byte 0 (reserved) or past the last MsgType: a store dispatching
    // on an unknown opcode must drop the frame, not fall into a default arm.
    auto bad_type = bytes;
    bad_type[core::wire::kOffType] = std::byte{static_cast<std::uint8_t>(
        rng.Bernoulli(0.5) ? 0 : 9 + rng.NextBounded(247))};
    EXPECT_FALSE(core::DecodeMsg(bad_type).has_value());
    EXPECT_FALSE(
        core::MsgView::Parse(net::Buffer::CopyOf(bad_type)).has_value());

    // Ack byte past the last AckKind.
    auto bad_ack = bytes;
    bad_ack[core::wire::kOffAck] =
        std::byte{static_cast<std::uint8_t>(10 + rng.NextBounded(246))};
    EXPECT_FALSE(core::DecodeMsg(bad_ack).has_value());
    EXPECT_FALSE(
        core::MsgView::Parse(net::Buffer::CopyOf(bad_ack)).has_value());
  }
}

TEST(BatchCodec, InflatedCountFieldIsRejectedBeforeAllocation) {
  // A 4-byte frame claiming 65535 sub-messages used to reserve ~1.5 MB of
  // offset table before failing on the first sub (allocation amplification:
  // a one-packet attacker cost the store six orders of magnitude more
  // memory than the frame itself).  The count must be bounded against the
  // bytes actually present before any reservation.
  std::vector<std::byte> raw;
  net::ByteWriter w(raw);
  w.U16(net::kBatchMagic);
  w.U16(0xffff);
  EXPECT_FALSE(net::BatchView::Parse(net::Buffer::CopyOf(raw)).has_value());
}

TEST_P(CodecFuzz, ForgedBatchCountsNeverOverReadOrOverAllocate) {
  Rng rng(GetParam() + 13000);
  for (int i = 0; i < 500; ++i) {
    // Real envelope, then a forged count strictly above the true one: the
    // parser must reject (it would either over-read a sub length prefix or
    // see trailing bytes it cannot attribute), never crash.
    std::vector<core::Msg> msgs(1 + rng.NextBounded(4));
    std::vector<net::BufferView> subs;
    for (auto& m : msgs) {
      m.type = core::MsgType::kLeaseRenewReq;
      m.key = net::PartitionKey::OfObject(rng.Next());
      m.state.resize(rng.NextBounded(24));
      subs.push_back(net::BufferView(core::EncodeMsg(m)));
    }
    auto bytes = net::EncodeBatchEnvelope(subs).ToVector();
    const std::uint16_t forged = static_cast<std::uint16_t>(
        subs.size() + 1 + rng.NextBounded(0xffff - subs.size() - 1));
    bytes[2] = std::byte{static_cast<std::uint8_t>(forged >> 8)};
    bytes[3] = std::byte{static_cast<std::uint8_t>(forged & 0xff)};
    EXPECT_FALSE(
        net::BatchView::Parse(net::Buffer::CopyOf(bytes)).has_value());

    // Fully random header fields over a random body: must never crash.
    std::vector<std::byte> junk(4 + rng.NextBounded(64));
    for (auto& b : junk) b = std::byte{static_cast<std::uint8_t>(rng.Next())};
    junk[0] = std::byte{0xB4};
    junk[1] = std::byte{0x7C};
    (void)net::BatchView::Parse(net::Buffer::CopyOf(junk));
  }
}

TEST(MergeCodec, EmptyJoinEmptyStaysEmpty) {
  // Absent state encodes zero.  Widening empty⊔empty to 8 zero bytes broke
  // bytewise idempotence (merge(a, a) != a), which the mergeable-mode replay
  // safety argument depends on.
  std::vector<std::byte> into;
  core::MergeMaxU64(into, {});
  EXPECT_TRUE(into.empty());
  core::MergeMaxU32Lanes(into, {});
  EXPECT_TRUE(into.empty());
  core::MergeOrBytes(into, {});
  EXPECT_TRUE(into.empty());
}

TEST_P(CodecFuzz, MergesAreIdempotentForArbitraryBlobLengths) {
  Rng rng(GetParam() + 14000);
  using MergeFn = void (*)(std::vector<std::byte>&, std::span<const std::byte>);
  const MergeFn merges[] = {core::MergeMaxU64, core::MergeMaxU32Lanes,
                            core::MergeOrBytes};
  for (int i = 0; i < 500; ++i) {
    for (const MergeFn merge : merges) {
      // Lengths deliberately off-lane (0..17 bytes): short, empty, and
      // partial-lane blobs are what a truncating middlebox or a mid-epoch
      // crash produces.
      std::vector<std::byte> a(rng.NextBounded(18));
      std::vector<std::byte> b(rng.NextBounded(18));
      for (auto& x : a) x = std::byte{static_cast<std::uint8_t>(rng.Next())};
      for (auto& x : b) x = std::byte{static_cast<std::uint8_t>(rng.Next())};

      // Idempotence: a ⊔ a == a (after normalization, re-joining is a no-op).
      std::vector<std::byte> aa = a;
      merge(aa, a);
      std::vector<std::byte> aaa = aa;
      merge(aaa, aa);
      EXPECT_EQ(aaa, aa);

      // Replay absorption: (a ⊔ b) ⊔ b == a ⊔ b.
      std::vector<std::byte> ab = a;
      merge(ab, b);
      std::vector<std::byte> abb = ab;
      merge(abb, b);
      EXPECT_EQ(abb, ab);
    }
  }
}

TEST_P(CodecFuzz, UdpLengthMustAgreeWithIpTotalLength) {
  Rng rng(GetParam() + 15000);
  for (int i = 0; i < 300; ++i) {
    net::FlowKey flow;
    flow.src_ip = net::Ipv4Addr(static_cast<std::uint32_t>(rng.Next()));
    flow.dst_ip = net::Ipv4Addr(static_cast<std::uint32_t>(rng.Next()));
    flow.src_port = static_cast<std::uint16_t>(rng.Next());
    flow.dst_port = static_cast<std::uint16_t>(rng.Next());
    flow.proto = net::IpProto::kUdp;
    net::Packet pkt = net::MakeUdpPacket(flow, 0);
    std::vector<std::byte> body(rng.NextBounded(48));
    for (auto& b : body) b = std::byte{static_cast<std::uint8_t>(rng.Next())};
    pkt.payload = std::move(body);
    auto wire = net::Serialize(pkt);
    ASSERT_TRUE(net::Parse(wire).has_value());

    // Forge the UDP header's own length field (offset: 14 eth + 20 ip +
    // 4 ports, big-endian u16) so it disagrees with the IP total length.
    // Accepting it would let a crafted datagram smuggle payload bytes past
    // length-based accounting.
    const std::size_t kUdpLenOff = 14 + 20 + 4;
    const std::uint16_t true_len =
        static_cast<std::uint16_t>(8 + pkt.payload.size());
    std::uint16_t forged;
    do {
      forged = static_cast<std::uint16_t>(8 + rng.NextBounded(200));
    } while (forged == true_len);
    auto bad = wire;
    bad[kUdpLenOff] = std::byte{static_cast<std::uint8_t>(forged >> 8)};
    bad[kUdpLenOff + 1] = std::byte{static_cast<std::uint8_t>(forged & 0xff)};
    EXPECT_FALSE(net::Parse(bad).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace redplane
