// Copy/alloc regression tests for the zero-copy message core.
//
// The contract under test (DESIGN.md §8): a replication request is encoded
// exactly once at the switch, chain replicas forward the same bytes after
// patching header fields in place, and hop-to-hop packet forwarding never
// duplicates payload bytes.  The Buffer instrumentation counters make any
// regression (an accidental re-encode or deep copy on the forwarding path)
// an immediate test failure instead of a silent slowdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "apps/counter.h"
#include "core/protocol.h"
#include "net/buffer.h"
#include "tests/rig.h"

namespace redplane {
namespace {

// --- Buffer/BufferView unit coverage ---------------------------------------

TEST(BufferTest, CopyAndSliceShareBackingStore) {
  std::vector<std::byte> bytes(64, std::byte{0x5c});
  net::BufferView v(std::move(bytes));  // adopts, no copy
  net::BufferView copy = v;
  net::BufferView slice = v.Slice(8, 16);
  EXPECT_EQ(copy.data(), v.data());
  EXPECT_EQ(slice.data(), v.data() + 8);
  EXPECT_EQ(slice.size(), 16u);
  EXPECT_EQ(v.Prefix(1000).size(), 64u);  // Prefix clamps
}

TEST(BufferTest, PatchInPlaceWhenUniqueCopiesWhenShared) {
  std::vector<std::byte> bytes(32, std::byte{0});
  net::BufferView unique_view(std::move(bytes));
  net::Buffer::ResetCounters();
  unique_view.PatchU16(4, 0xBEEF);  // sole owner: in place
  EXPECT_EQ(net::Buffer::DeepCopies(), 0u);
  EXPECT_EQ(unique_view.U16At(4), 0xBEEF);

  net::BufferView shared = unique_view;  // now two owners
  shared.PatchU16(4, 0x1234);            // must copy-on-write
  EXPECT_EQ(net::Buffer::DeepCopies(), 1u);
  EXPECT_EQ(shared.U16At(4), 0x1234);
  EXPECT_EQ(unique_view.U16At(4), 0xBEEF);  // original undisturbed
}

TEST(BufferTest, PacketCopySharesPayload) {
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 7, 8,
                 net::IpProto::kUdp};
  net::Packet pkt = net::MakeUdpPacket(f, 0);
  pkt.payload = std::vector<std::byte>(256, std::byte{0xab});
  net::Buffer::ResetCounters();
  net::Packet hop1 = pkt;  // what every link/pipeline hop does
  net::Packet hop2 = hop1;
  EXPECT_EQ(hop2.payload.data(), pkt.payload.data());
  EXPECT_EQ(net::Buffer::DeepCopies(), 0u);
  EXPECT_EQ(net::Buffer::Allocations(), 0u);
}

TEST(BufferTest, AllocateIsOneWritableBlock) {
  net::Buffer::ResetCounters();
  auto [buffer, out] = net::Buffer::Allocate(12);
  ASSERT_EQ(out.size(), 12u);
  EXPECT_EQ(out.data(), buffer.data());
  std::fill(out.begin(), out.end(), std::byte{0x42});
  EXPECT_EQ(buffer.size(), 12u);
  EXPECT_EQ(buffer.data()[11], std::byte{0x42});
  EXPECT_TRUE(buffer.unique());
  EXPECT_EQ(net::Buffer::Allocations(), 1u);
  EXPECT_EQ(net::Buffer::DeepCopies(), 0u);
}

// --- Piggybacked outputs are slices of their message ------------------------

core::Msg WriteWithOutput() {
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 7, 8,
                 net::IpProto::kUdp};
  net::Packet out = net::MakeUdpPacket(f, 0);
  out.payload = std::vector<std::byte>(48, std::byte{0x6d});
  core::Msg msg;
  msg.type = core::MsgType::kLeaseRenewReq;
  msg.key = net::PartitionKey::OfFlow(f);
  msg.seq = 5;
  msg.state = {std::byte{1}, std::byte{2}};
  msg.piggyback = std::move(out);
  return msg;
}

TEST(PiggybackZeroCopyTest, ParsingThePiggybackAllocatesNothing) {
  const auto view = core::MsgView::Parse(core::EncodeMsg(WriteWithOutput()));
  ASSERT_TRUE(view.has_value());
  net::Buffer::ResetCounters();
  const auto out = view->PiggybackPacket();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(net::Buffer::Allocations(), 0u);
  EXPECT_EQ(net::Buffer::DeepCopies(), 0u);
  // The payload windows the message's own bytes.
  EXPECT_TRUE(out->payload.SharesBuffer(view->bytes()));
  EXPECT_EQ(out->payload.size(), 48u);
}

TEST(PiggybackZeroCopyTest, ReleasedPayloadOutlivesItsMessage) {
  net::BufferView payload;
  {
    std::optional<core::MsgView> view =
        core::MsgView::Parse(core::EncodeMsg(WriteWithOutput()));
    ASSERT_TRUE(view.has_value());
    std::optional<net::Packet> out = view->PiggybackPacket();
    ASSERT_TRUE(out.has_value());
    payload = out->payload;
    // The view, the packet and every other handle on the message die here;
    // the slice alone keeps the bytes alive (ASan checks the reads below).
  }
  ASSERT_EQ(payload.size(), 48u);
  for (std::byte b : payload) EXPECT_EQ(b, std::byte{0x6d});
}

// --- End-to-end: multi-hop write replication -------------------------------

/// One RedPlane switch (seed 7) against a fixed store chain of `chain_size`
/// replicas, running a write-per-packet counter: every packet leaves the
/// switch as a replication request with the output piggybacked (the paper's
/// linearizable write path).
struct WriteChainHarness : rig::WithApp<apps::SyncCounterApp>, rig::Rig {
  explicit WriteChainHarness(int chain_size)
      : Rig(app, {.switches = 1, .stores = chain_size, .rp = Config()}) {}

  static core::RedPlaneConfig Config() {
    core::RedPlaneConfig rp_cfg;
    rp_cfg.lease_period = Seconds(2);
    rp_cfg.renew_interval = Seconds(1);
    rp_cfg.request_timeout = Milliseconds(5);  // no spurious retransmits
    return rp_cfg;
  }

  void SendPaced(int n) {
    for (int i = 0; i < n; ++i) {
      src->Send(net::MakeUdpPacket(rig::UdpFlow(), 20));
      sim.RunUntil(sim.Now() + Milliseconds(1));
    }
  }
};

struct WriteCosts {
  std::uint64_t encodes = 0;
  std::uint64_t deep_copies = 0;
};

/// Runs `writes` steady-state writes through a chain of `chain_size` and
/// returns the protocol-encode and byte-copy counts they incurred.
WriteCosts MeasureWrites(int chain_size, int writes) {
  WriteChainHarness h(chain_size);
  // Warm up: lease acquisition plus the first write settle out of band.
  h.SendPaced(2);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(20));
  EXPECT_EQ(h.delivered, 2);

  core::ResetEncodeCount();
  net::Buffer::ResetCounters();
  h.SendPaced(writes);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  EXPECT_EQ(h.delivered, 2 + writes);
  // Every write is durable at every replica before its output released.
  const auto key = net::PartitionKey::OfFlow(rig::UdpFlow());
  for (auto* replica : h.stores) {
    const auto* rec = replica->Find(key);
    EXPECT_NE(rec, nullptr);
    if (rec != nullptr) {
      EXPECT_EQ(rec->last_applied_seq, static_cast<std::uint64_t>(2 + writes));
    }
  }
  return {core::EncodeCount(), net::Buffer::DeepCopies()};
}

TEST(ZeroCopyWriteTest, OneEncodePerRequestZeroPerForward) {
  constexpr int kWrites = 10;
  const WriteCosts single = MeasureWrites(1, kWrites);
  const WriteCosts chain3 = MeasureWrites(3, kWrites);

  // Exactly two encodes per write — the request (once, at the switch) and
  // the tail's ack.  Replicas forward patched views, never re-encoding, so
  // the count is independent of chain length.
  EXPECT_EQ(single.encodes, 2u * kWrites);
  EXPECT_EQ(chain3.encodes, 2u * kWrites);

  // The only byte copy per write is the mirror's truncated retransmit copy
  // (header + state, never the piggybacked output).  Forwarding through two
  // extra replicas adds zero copies.
  EXPECT_EQ(single.deep_copies, static_cast<std::uint64_t>(kWrites));
  EXPECT_EQ(chain3.deep_copies, static_cast<std::uint64_t>(kWrites));
}

}  // namespace
}  // namespace redplane
