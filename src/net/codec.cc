#include "net/codec.h"

#include <algorithm>
#include <cassert>

#include "obs/profiler.h"

namespace redplane::net {

namespace {
// Since the simulator moves structured packets hop to hop, Serialize/Parse
// run only where a packet rides inside a RedPlane message: EncodeMsg writes
// a piggybacked output, and MsgView::PiggybackPacket reads it back.  That is
// still up to once per replicated write, so sample 1-in-64 to keep the armed
// cost a countdown decrement on the other 63.
obs::ProfSite g_prof_serialize("net.serialize", /*stride=*/64);
obs::ProfSite g_prof_parse("net.parse", /*stride=*/64);
}  // namespace

bool ByteReader::Ensure(std::size_t n) {
  if (pos_ + n > data_.size()) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::U8() {
  if (!Ensure(1)) return 0;
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t ByteReader::U16() {
  std::uint16_t hi = U8();
  return static_cast<std::uint16_t>((hi << 8) | U8());
}

std::uint32_t ByteReader::U32() {
  std::uint32_t hi = U16();
  return (hi << 16) | U16();
}

std::uint64_t ByteReader::U64() {
  std::uint64_t hi = U32();
  return (hi << 32) | U32();
}

void ByteReader::Read(std::span<std::byte> out) {
  if (!Ensure(out.size())) {
    std::fill(out.begin(), out.end(), std::byte{0});
    return;
  }
  std::copy_n(data_.begin() + pos_, out.size(), out.begin());
  pos_ += out.size();
}

void ByteReader::Skip(std::size_t n) {
  if (Ensure(n)) pos_ += n;
}

namespace {

std::size_t L4HeaderSize(const Packet& p) {
  if (p.udp) return UdpHeader::kWireSize;
  if (p.tcp) return TcpHeader::kWireSize;
  return 0;
}

void WriteIpv4(SpanWriter& w, const Ipv4Header& ip, std::size_t l4_size) {
  const std::size_t start = w.Size();
  w.U8(0x45);  // version 4, IHL 5
  w.U8(ip.dscp << 2);
  w.U16(static_cast<std::uint16_t>(Ipv4Header::kWireSize + l4_size));
  w.U16(ip.identification);
  w.U16(0);  // flags/fragment
  w.U8(ip.ttl);
  w.U8(static_cast<std::uint8_t>(ip.protocol));
  w.U16(0);  // checksum placeholder
  w.U32(ip.src.value);
  w.U32(ip.dst.value);
  const std::span<const std::byte> header = w.Written().subspan(start);
  w.PatchU16(start + 10,
             InternetChecksum(
                 reinterpret_cast<const std::uint8_t*>(header.data()),
                 header.size()));
}

}  // namespace

std::size_t SerializedSize(const Packet& p) {
  std::size_t size = p.payload.size() + p.pad_bytes + L4HeaderSize(p);
  if (p.eth) size += EthernetHeader::kWireSize + (p.vlan != 0 ? 4 : 0);
  if (p.ip) size += Ipv4Header::kWireSize;
  return size;
}

void SerializeInto(std::span<std::byte> out, const Packet& p) {
  obs::ProfScope prof(g_prof_serialize);
  assert(out.size() == SerializedSize(p));
  SpanWriter w(out);

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
  if (p.ip) WriteIpv4(w, *p.ip, L4HeaderSize(p) + payload_size);

  if (p.udp) {
    w.U16(p.udp->src_port);
    w.U16(p.udp->dst_port);
    w.U16(static_cast<std::uint16_t>(UdpHeader::kWireSize + payload_size));
    w.U16(0);  // UDP checksum optional in IPv4; we transmit 0
  } else if (p.tcp) {
    w.U16(p.tcp->src_port);
    w.U16(p.tcp->dst_port);
    w.U32(p.tcp->seq);
    w.U32(p.tcp->ack);
    w.U8(0x50);  // data offset 5 words
    w.U8(p.tcp->flags);
    w.U16(p.tcp->window);
    w.U16(0);  // checksum (not validated by the simulator)
    w.U16(0);  // urgent pointer
  }

  w.Bytes(p.payload);
  w.Zeros(p.pad_bytes);
}

std::vector<std::byte> Serialize(const Packet& p) {
  std::vector<std::byte> out(SerializedSize(p));
  SerializeInto(out, p);
  return out;
}

bool IsBatchFrame(const BufferView& payload) {
  return payload.size() >= 2 && payload.U16At(0) == kBatchMagic;
}

BufferView EncodeBatchEnvelope(std::span<const BufferView> msgs) {
  std::size_t total = BatchOverheadBytes(msgs.size());
  for (const BufferView& m : msgs) total += m.size();
  auto [buffer, out] = Buffer::Allocate(total);
  SpanWriter w(out);
  w.U16(kBatchMagic);
  w.U16(static_cast<std::uint16_t>(msgs.size()));
  for (const BufferView& m : msgs) {
    w.U32(static_cast<std::uint32_t>(m.size()));
    w.Bytes(m);
  }
  return buffer;
}

std::optional<BatchView> BatchView::Parse(BufferView frame) {
  if (frame.size() < 4 || frame.U16At(0) != kBatchMagic) return std::nullopt;
  const std::size_t count = frame.U16At(2);
  // Bound the claimed count against the bytes actually present (each sub
  // costs at least its 4-byte length prefix) before reserving: a 4-byte
  // frame claiming 65535 subs used to reserve ~1.5 MB and then fail on the
  // first sub anyway (fuzz-found allocation amplification).
  if (frame.size() < 4 + 4 * count) return std::nullopt;
  BatchView v;
  v.subs_.reserve(count);
  std::size_t pos = 4;
  for (std::size_t i = 0; i < count; ++i) {
    if (pos + 4 > frame.size()) return std::nullopt;
    const std::size_t len = frame.U32At(pos);
    pos += 4;
    if (pos + len > frame.size()) return std::nullopt;
    v.subs_.push_back(frame.Slice(pos, len));
    pos += len;
  }
  if (pos != frame.size()) return std::nullopt;  // trailing garbage
  return v;
}

std::optional<Packet> Parse(BufferView wire) {
  obs::ProfScope prof(g_prof_parse);
  ByteReader r(wire);
  Packet p;
  p.id = NextPacketId();

  EthernetHeader eth;
  r.Read(std::as_writable_bytes(std::span(eth.dst.bytes)));
  r.Read(std::as_writable_bytes(std::span(eth.src.bytes)));
  std::uint16_t ethertype = r.U16();
  if (!r.ok()) return std::nullopt;
  if (ethertype == 0x8100) {
    p.vlan = r.U16() & 0x0fff;
    ethertype = r.U16();
  }
  eth.ethertype = static_cast<EtherType>(ethertype);
  p.eth = eth;
  if (eth.ethertype != EtherType::kIpv4) return std::nullopt;

  const std::size_t ip_start = r.Pos();
  const std::uint8_t ver_ihl = r.U8();
  if ((ver_ihl >> 4) != 4 || (ver_ihl & 0x0f) != 5) return std::nullopt;
  Ipv4Header ip;
  ip.dscp = r.U8() >> 2;
  ip.total_length = r.U16();
  ip.identification = r.U16();
  r.Skip(2);  // flags/fragment
  ip.ttl = r.U8();
  ip.protocol = static_cast<IpProto>(r.U8());
  r.Skip(2);  // checksum (validated below over the raw bytes)
  ip.src = Ipv4Addr(r.U32());
  ip.dst = Ipv4Addr(r.U32());
  if (!r.ok()) return std::nullopt;
  if (InternetChecksum(
          reinterpret_cast<const std::uint8_t*>(wire.data() + ip_start),
          Ipv4Header::kWireSize) != 0) {
    return std::nullopt;
  }
  p.ip = ip;
  if (ip.total_length < Ipv4Header::kWireSize) return std::nullopt;
  std::size_t l4_len = ip.total_length - Ipv4Header::kWireSize;

  std::size_t payload_len = 0;
  if (ip.protocol == IpProto::kUdp) {
    UdpHeader udp;
    udp.src_port = r.U16();
    udp.dst_port = r.U16();
    udp.length = r.U16();
    r.Skip(2);
    if (!r.ok() || udp.length < UdpHeader::kWireSize) return std::nullopt;
    // The UDP header's own length must agree with what the IP total length
    // leaves for L4; a mismatch used to be silently accepted, letting a
    // crafted datagram smuggle payload bytes past length-based accounting
    // (fuzz-found silent-accept).  Serialize always emits them equal.
    if (udp.length != l4_len) return std::nullopt;
    p.udp = udp;
    payload_len = udp.length - UdpHeader::kWireSize;
  } else if (ip.protocol == IpProto::kTcp) {
    TcpHeader tcp;
    tcp.src_port = r.U16();
    tcp.dst_port = r.U16();
    tcp.seq = r.U32();
    tcp.ack = r.U32();
    const std::uint8_t offset = r.U8() >> 4;
    tcp.flags = r.U8();
    tcp.window = r.U16();
    r.Skip(4);  // checksum + urgent
    if (!r.ok() || offset < 5) return std::nullopt;
    r.Skip((offset - 5) * 4);
    p.tcp = tcp;
    if (l4_len < static_cast<std::size_t>(offset) * 4) return std::nullopt;
    payload_len = l4_len - offset * 4;
  } else {
    return std::nullopt;
  }
  const std::size_t payload_off = r.Pos();
  r.Skip(payload_len);
  if (!r.ok()) return std::nullopt;
  p.payload = wire.Slice(payload_off, payload_len);
  return p;
}

}  // namespace redplane::net
