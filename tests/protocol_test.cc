#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/protocol.h"

namespace redplane::core {
namespace {

// --- Reference encoder ------------------------------------------------------
//
// The byte-at-a-time encoder EncodeMsg used to be: append every field to a
// growing vector, serialize the piggyback into a temporary, then copy it in.
// The size-first in-place encoder must produce the same bytes.

void RefWriteIpv4(net::ByteWriter& w, const net::Ipv4Header& ip,
                  std::size_t l4_size, std::vector<std::byte>& buf) {
  const std::size_t start = buf.size();
  w.U8(0x45);
  w.U8(ip.dscp << 2);
  w.U16(static_cast<std::uint16_t>(net::Ipv4Header::kWireSize + l4_size));
  w.U16(ip.identification);
  w.U16(0);
  w.U8(ip.ttl);
  w.U8(static_cast<std::uint8_t>(ip.protocol));
  w.U16(0);
  w.U32(ip.src.value);
  w.U32(ip.dst.value);
  w.PatchU16(start + 10,
             net::InternetChecksum(
                 reinterpret_cast<const std::uint8_t*>(buf.data() + start),
                 net::Ipv4Header::kWireSize));
}

std::vector<std::byte> RefSerialize(const net::Packet& p) {
  std::vector<std::byte> out;
  net::ByteWriter w(out);
  if (p.eth) {
    w.Bytes(std::as_bytes(std::span(p.eth->dst.bytes)));
    w.Bytes(std::as_bytes(std::span(p.eth->src.bytes)));
    if (p.vlan != 0) {
      w.U16(0x8100);
      w.U16(p.vlan & 0x0fff);
    }
    w.U16(static_cast<std::uint16_t>(p.eth->ethertype));
  }
  const std::size_t payload_size = p.payload.size() + p.pad_bytes;
  std::size_t l4_size = payload_size;
  if (p.udp) l4_size += net::UdpHeader::kWireSize;
  if (p.tcp) l4_size += net::TcpHeader::kWireSize;
  if (p.ip) RefWriteIpv4(w, *p.ip, l4_size, out);
  if (p.udp) {
    w.U16(p.udp->src_port);
    w.U16(p.udp->dst_port);
    w.U16(static_cast<std::uint16_t>(net::UdpHeader::kWireSize +
                                     payload_size));
    w.U16(0);
  } else if (p.tcp) {
    w.U16(p.tcp->src_port);
    w.U16(p.tcp->dst_port);
    w.U32(p.tcp->seq);
    w.U32(p.tcp->ack);
    w.U8(0x50);
    w.U8(p.tcp->flags);
    w.U16(p.tcp->window);
    w.U16(0);
    w.U16(0);
  }
  w.Bytes(p.payload);
  out.resize(out.size() + p.pad_bytes, std::byte{0});
  return out;
}

std::vector<std::byte> RefEncodeMsg(const Msg& msg) {
  std::vector<std::byte> out;
  net::ByteWriter w(out);
  w.U16(0x9D1A);
  w.U8(static_cast<std::uint8_t>(msg.type));
  w.U8(static_cast<std::uint8_t>(msg.ack));
  w.U64(msg.seq);
  w.U32(msg.snapshot_index);
  w.U32(msg.reply_to.value);
  w.U8(msg.chain_hop);
  w.U64(msg.span_id);
  w.U8(static_cast<std::uint8_t>(msg.mode));
  w.U8(static_cast<std::uint8_t>(msg.key.kind));
  switch (msg.key.kind) {
    case net::PartitionKey::Kind::kFlow:
      w.U32(msg.key.flow.src_ip.value);
      w.U32(msg.key.flow.dst_ip.value);
      w.U16(msg.key.flow.src_port);
      w.U16(msg.key.flow.dst_port);
      w.U8(static_cast<std::uint8_t>(msg.key.flow.proto));
      break;
    case net::PartitionKey::Kind::kVlan:
      w.U16(msg.key.vlan);
      break;
    case net::PartitionKey::Kind::kObject:
      w.U64(msg.key.object);
      break;
  }
  w.U16(static_cast<std::uint16_t>(msg.state.size()));
  const std::vector<std::byte> piggy =
      msg.piggyback.has_value() ? RefSerialize(*msg.piggyback)
                                : msg.piggyback_raw.ToVector();
  w.U16(static_cast<std::uint16_t>(piggy.size()));
  w.Bytes(msg.state);
  w.Bytes(piggy);
  return out;
}

net::PartitionKey FlowKey1() {
  net::FlowKey f{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(192, 168, 10, 1),
                 4321, 1234, net::IpProto::kTcp};
  return net::PartitionKey::OfFlow(f);
}

TEST(ProtocolTest, RoundTripPlainRequest) {
  Msg msg;
  msg.type = MsgType::kLeaseNewReq;
  msg.key = FlowKey1();
  msg.seq = 0;
  msg.reply_to = net::Ipv4Addr(172, 16, 0, 1);
  const auto bytes = EncodeMsg(msg);
  const auto decoded = DecodeMsg(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, MsgType::kLeaseNewReq);
  EXPECT_EQ(decoded->key, msg.key);
  EXPECT_EQ(decoded->reply_to, msg.reply_to);
  EXPECT_FALSE(decoded->piggyback.has_value());
}

TEST(ProtocolTest, RoundTripWriteWithStateAndPiggyback) {
  Msg msg;
  msg.type = MsgType::kLeaseRenewReq;
  msg.key = FlowKey1();
  msg.seq = 42;
  msg.reply_to = net::Ipv4Addr(172, 16, 0, 2);
  msg.state = {std::byte{1}, std::byte{2}, std::byte{3}};
  net::FlowKey inner{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 7,
                     8, net::IpProto::kUdp};
  msg.piggyback = net::MakeUdpPacket(inner, 50);

  const auto decoded = DecodeMsg(EncodeMsg(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->state, msg.state);
  ASSERT_TRUE(decoded->piggyback.has_value());
  ASSERT_TRUE(decoded->piggyback->Flow().has_value());
  EXPECT_EQ(*decoded->piggyback->Flow(), inner);
  // Pad bytes come back as payload bytes; wire size is preserved.
  EXPECT_EQ(decoded->piggyback->WireSize(), msg.piggyback->WireSize());
}

class ProtocolTypeRoundTrip : public ::testing::TestWithParam<MsgType> {};

TEST_P(ProtocolTypeRoundTrip, AllTypesSurvive) {
  Msg msg;
  msg.type = GetParam();
  msg.ack = AckKind::kWriteAck;
  msg.key = net::PartitionKey::OfVlan(9);
  msg.seq = 7;
  msg.snapshot_index = 13;
  msg.chain_hop = 2;
  const auto decoded = DecodeMsg(EncodeMsg(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, GetParam());
  EXPECT_EQ(decoded->ack, AckKind::kWriteAck);
  EXPECT_EQ(decoded->snapshot_index, 13u);
  EXPECT_EQ(decoded->chain_hop, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Types, ProtocolTypeRoundTrip,
    ::testing::Values(MsgType::kLeaseNewReq, MsgType::kLeaseRenewReq,
                      MsgType::kLeaseRenewOnly, MsgType::kReadBufferReq,
                      MsgType::kSnapshotRepl, MsgType::kAck));

TEST(ProtocolTest, AllKeyKindsRoundTrip) {
  for (const auto& key :
       {FlowKey1(), net::PartitionKey::OfVlan(42),
        net::PartitionKey::OfObject(0x1122334455667788ull)}) {
    Msg msg;
    msg.type = MsgType::kAck;
    msg.key = key;
    const auto decoded = DecodeMsg(EncodeMsg(msg));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->key, key);
  }
}

TEST(ProtocolTest, HeaderWireSizeMatchesEncodedSize) {
  Msg msg;
  msg.type = MsgType::kLeaseRenewOnly;
  msg.key = FlowKey1();
  EXPECT_EQ(EncodeMsg(msg).size(), HeaderWireSize(msg.key));
  msg.key = net::PartitionKey::OfVlan(3);
  EXPECT_EQ(EncodeMsg(msg).size(), HeaderWireSize(msg.key));
  msg.key = net::PartitionKey::OfObject(5);
  EXPECT_EQ(EncodeMsg(msg).size(), HeaderWireSize(msg.key));
}

TEST(ProtocolTest, MalformedRejected) {
  EXPECT_FALSE(DecodeMsg({}).has_value());
  std::vector<std::byte> junk(10, std::byte{0x5a});
  EXPECT_FALSE(DecodeMsg(junk).has_value());
  // Valid magic but truncated body.
  Msg msg;
  msg.type = MsgType::kLeaseNewReq;
  msg.key = FlowKey1();
  const net::Buffer bytes = EncodeMsg(msg);
  EXPECT_FALSE(
      DecodeMsg(bytes.span().subspan(0, bytes.size() - 4)).has_value());
}

TEST(ProtocolTest, ProtocolPacketDetection) {
  Msg msg;
  msg.type = MsgType::kLeaseNewReq;
  msg.key = FlowKey1();
  const auto pkt = MakeProtocolPacket(net::Ipv4Addr(172, 16, 0, 1),
                                      net::Ipv4Addr(172, 16, 1, 1), msg);
  EXPECT_TRUE(IsProtocolPacket(pkt));
  EXPECT_EQ(pkt.ip->src, net::Ipv4Addr(172, 16, 0, 1));
  EXPECT_EQ(pkt.udp->dst_port, kRedPlaneUdpPort);

  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 7,
                 kRedPlaneUdpPort, net::IpProto::kUdp};
  const auto fake = net::MakeUdpPacket(f, 10);
  EXPECT_FALSE(IsProtocolPacket(fake));  // right port, wrong magic

  const auto decoded = DecodeFromPacket(pkt);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->key, msg.key);
}

TEST(ProtocolTest, PiggybackedProtocolPacketSurvivesWireRoundTrip) {
  // Full nesting: protocol packet -> wire bytes -> parse -> decode msg ->
  // inner packet intact.  This is the path a replication request takes
  // through the fabric.
  Msg msg;
  msg.type = MsgType::kLeaseRenewReq;
  msg.key = FlowKey1();
  msg.seq = 3;
  msg.state = {std::byte{0xaa}};
  net::FlowKey inner{net::Ipv4Addr(3, 3, 3, 3), net::Ipv4Addr(4, 4, 4, 4), 5,
                     6, net::IpProto::kTcp};
  msg.piggyback = net::MakeTcpPacket(inner, net::TcpFlags::kAck, 9, 10, 200);

  const auto pkt = MakeProtocolPacket(net::Ipv4Addr(172, 16, 0, 1),
                                      net::Ipv4Addr(172, 16, 1, 1), msg);
  const auto wire = net::Serialize(pkt);
  const auto parsed = net::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(IsProtocolPacket(*parsed));
  const auto decoded = DecodeFromPacket(*parsed);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->piggyback.has_value());
  EXPECT_EQ(*decoded->piggyback->Flow(), inner);
  EXPECT_EQ(decoded->piggyback->tcp->seq, 9u);
}

// --- Golden bytes: the in-place encoder against the reference ---------------

struct PiggyCase {
  const char* name;
  std::optional<net::Packet> packet;
  net::BufferView raw;
};

std::vector<PiggyCase> PiggyCases() {
  const net::FlowKey udp_flow{net::Ipv4Addr(1, 1, 1, 1),
                              net::Ipv4Addr(2, 2, 2, 2), 7, 8,
                              net::IpProto::kUdp};
  const net::FlowKey tcp_flow{net::Ipv4Addr(3, 3, 3, 3),
                              net::Ipv4Addr(4, 4, 4, 4), 5, 6,
                              net::IpProto::kTcp};
  std::vector<PiggyCase> cases;
  cases.push_back({"none", std::nullopt, {}});

  net::Packet udp = net::MakeUdpPacket(udp_flow, 0);
  udp.payload = std::vector<std::byte>(40, std::byte{0x3c});
  udp.ip->identification = 0x1234;
  udp.ip->dscp = 46;
  udp.ip->ttl = 17;
  cases.push_back({"udp", udp, {}});

  net::Packet tcp =
      net::MakeTcpPacket(tcp_flow, net::TcpFlags::kAck, 9, 10, 0);
  tcp.payload = std::vector<std::byte>{std::byte{1}, std::byte{2},
                                       std::byte{3}};
  tcp.tcp->window = 0xbeef;
  cases.push_back({"tcp", tcp, {}});

  net::Packet vlan = net::MakeUdpPacket(udp_flow, 12);
  vlan.vlan = 0x0abc;
  vlan.payload = std::vector<std::byte>(5, std::byte{0x77});
  cases.push_back({"vlan", vlan, {}});

  cases.push_back({"pad_bytes",
                   net::MakeTcpPacket(tcp_flow, net::TcpFlags::kSyn, 1, 0,
                                      300),
                   {}});

  // 14 + 20 + 8 = 42 bytes: under the 64 B Ethernet minimum that
  // Packet::WireSize rounds up to, and that Serialize does not pad to.
  cases.push_back({"short_frame", net::MakeUdpPacket(udp_flow, 0), {}});

  cases.push_back({"raw", std::nullopt,
                   net::BufferView(std::vector<std::byte>(
                       23, std::byte{0xe1}))});
  return cases;
}

TEST(ProtocolGoldenBytes, InPlaceEncodeMatchesReference) {
  const std::vector<std::byte> states[] = {
      {}, {std::byte{0xaa}, std::byte{0xbb}, std::byte{0xcc}}};
  for (const auto& key :
       {FlowKey1(), net::PartitionKey::OfVlan(42),
        net::PartitionKey::OfObject(0x1122334455667788ull)}) {
    for (const std::vector<std::byte>& state : states) {
      for (const PiggyCase& piggy : PiggyCases()) {
        SCOPED_TRACE(std::string(piggy.name) + " state=" +
                     std::to_string(state.size()) + " key=" +
                     std::to_string(static_cast<int>(key.kind)));
        Msg msg;
        msg.type = MsgType::kLeaseRenewReq;
        msg.ack = AckKind::kWriteAck;
        msg.seq = 0x0102030405060708ull;
        msg.snapshot_index = 0xa1b2c3d4u;
        msg.reply_to = net::Ipv4Addr(172, 16, 0, 9);
        msg.chain_hop = 3;
        msg.span_id = 0xfeedfacecafebeefull;
        msg.mode = ConsistencyMode::kMergeable;
        msg.key = key;
        msg.state = state;
        msg.piggyback = piggy.packet;
        msg.piggyback_raw = piggy.raw;

        const std::vector<std::byte> want = RefEncodeMsg(msg);
        const net::Buffer got = EncodeMsg(msg);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_TRUE(std::equal(want.begin(), want.end(), got.data()));

        // The size the encoder allocates up front is exact.
        const std::size_t piggy_size =
            piggy.packet.has_value() ? net::SerializedSize(*piggy.packet)
                                     : piggy.raw.size();
        EXPECT_EQ(got.size(), HeaderWireSize(key) + state.size() + piggy_size);

        // Lending the state from elsewhere encodes the same bytes.
        Msg without_state = msg;
        without_state.state.clear();
        EXPECT_EQ(net::BufferView(EncodeMsg(without_state, state)),
                  net::BufferView(got));
      }
    }
  }
}

TEST(ProtocolGoldenBytes, SerializeMatchesReferenceAndSizeIsExact) {
  for (const PiggyCase& c : PiggyCases()) {
    if (!c.packet.has_value()) continue;
    SCOPED_TRACE(c.name);
    const std::vector<std::byte> want = RefSerialize(*c.packet);
    EXPECT_EQ(net::Serialize(*c.packet), want);
    EXPECT_EQ(net::SerializedSize(*c.packet), want.size());
  }
  // The frame under 64 B: the wire-size accounting rounds up, the
  // serialized bytes do not.
  const std::vector<PiggyCase> cases = PiggyCases();
  const auto it = std::find_if(cases.begin(), cases.end(), [](const auto& c) {
    return std::string(c.name) == "short_frame";
  });
  ASSERT_NE(it, cases.end());
  const net::Packet& short_frame = *it->packet;
  EXPECT_EQ(net::SerializedSize(short_frame), 42u);
  EXPECT_EQ(short_frame.WireSize(), 64u);
}

}  // namespace
}  // namespace redplane::core
