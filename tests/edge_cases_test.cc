// Edge cases across modules that the mainline tests don't reach: malformed
// and hostile inputs, boundary conditions, and failure-timing corners.
#include <gtest/gtest.h>

#include "apps/counter.h"
#include "apps/epc_sgw.h"
#include "core/flow_table.h"
#include "core/protocol.h"
#include "core/redplane_switch.h"
#include "dataplane/mirror.h"
#include "net/codec.h"
#include "routing/failure.h"
#include "routing/topology.h"
#include "sim/host.h"
#include "sim/network.h"
#include "statestore/server.h"

namespace redplane {
namespace {

TEST(FlowTableTest, NoteAckAdvancesLeaseFromSendTime) {
  core::FlowTable table;
  const auto key = net::PartitionKey::OfObject(1);
  const std::uint32_t slot = table.GetOrCreateSlot(key);
  table.NoteSend(slot, 1, Milliseconds(10));
  table.NoteSend(slot, 2, Milliseconds(20));
  table.NoteAck(slot, 2, Milliseconds(100));
  EXPECT_EQ(table.last_acked_seq(slot), 2u);
  // Expiry anchored at the newest acked *send* time (20 ms), not receipt.
  EXPECT_EQ(table.lease_expiry(slot), Milliseconds(120));
  EXPECT_EQ(table.Find(key).pending_send_count(), 0u);
}

TEST(FlowTableTest, NoteAckOutOfOrderKeepsNewerPendings) {
  core::FlowTable table;
  const auto key = net::PartitionKey::OfObject(2);
  const std::uint32_t slot = table.GetOrCreateSlot(key);
  table.NoteSend(slot, 1, Milliseconds(10));
  table.NoteSend(slot, 2, Milliseconds(20));
  table.NoteSend(slot, 3, Milliseconds(30));
  table.NoteAck(slot, 1, Milliseconds(50));
  EXPECT_EQ(table.Find(key).pending_send_count(), 2u);
  EXPECT_EQ(table.last_acked_seq(slot), 1u);
  // A stale (already covered) ack does not regress anything.
  table.NoteAck(slot, 1, Milliseconds(50));
  EXPECT_EQ(table.last_acked_seq(slot), 1u);
  EXPECT_EQ(table.Find(key).pending_send_count(), 2u);
}

TEST(FlowTableTest, WritesInFlightAndLeaseActive) {
  core::FlowTable table;
  const std::uint32_t slot =
      table.GetOrCreateSlot(net::PartitionKey::OfObject(3));
  EXPECT_FALSE(table.WritesInFlight(slot));
  table.set_cur_seq(slot, 3);
  table.set_last_acked_seq(slot, 2);
  EXPECT_TRUE(table.WritesInFlight(slot));
  table.set_status(slot, core::FlowStatus::kActive);
  table.set_lease_expiry(slot, Milliseconds(10));
  EXPECT_TRUE(table.LeaseActive(slot, Milliseconds(9)));
  EXPECT_FALSE(table.LeaseActive(slot, Milliseconds(10)));
}

TEST(FlowTableTest, NoteSendCompactsPastHorizonAndCapsDeque) {
  core::FlowTable table;
  const auto key = net::PartitionKey::OfObject(4);
  const std::uint32_t slot = table.GetOrCreateSlot(key);
  // Horizon compaction: sends older than now - horizon drop off the front.
  table.NoteSend(slot, 1, Milliseconds(1), Milliseconds(5));
  table.NoteSend(slot, 2, Milliseconds(2), Milliseconds(5));
  table.NoteSend(slot, 3, Milliseconds(10), Milliseconds(5));
  // Sends at 1 ms and 2 ms are older than 10 ms - 5 ms: both compacted.
  EXPECT_EQ(table.Find(key).pending_send_count(), 1u);
  // Hard cap: even with no horizon the deque stays bounded.
  for (std::uint64_t seq = 4; seq < 4 + 10'000; ++seq) {
    table.NoteSend(slot, seq, Milliseconds(11));
  }
  EXPECT_LE(table.Find(key).pending_send_count(), 256u);
}

TEST(FlowTableTest, SlotsAreStableAndGenerationsDetectReuse) {
  core::FlowTable table;
  const auto a = net::PartitionKey::OfObject(10);
  const auto b = net::PartitionKey::OfObject(11);
  const std::uint32_t sa = table.GetOrCreateSlot(a);
  const std::uint32_t sb = table.GetOrCreateSlot(b);
  ASSERT_NE(sa, sb);
  const std::uint32_t gen_a = table.gen(sa);
  EXPECT_TRUE(table.Alive(sa, gen_a));
  table.Erase(a);
  EXPECT_FALSE(table.Alive(sa, gen_a));
  // The freed slot is recycled with a bumped generation.
  const std::uint32_t sc = table.GetOrCreateSlot(net::PartitionKey::OfObject(12));
  EXPECT_EQ(sc, sa);
  EXPECT_FALSE(table.Alive(sa, gen_a));
  EXPECT_TRUE(table.Alive(sc, table.gen(sc)));
  EXPECT_EQ(table.FindSlot(b), sb);
}

TEST(MirrorTableTest, SlotsAreStableAndGenerationsDetectReuse) {
  dp::MirrorTable mirror("m", 64);
  const auto a = net::PartitionKey::OfObject(10);
  const auto b = net::PartitionKey::OfObject(11);
  const auto ha = mirror.Mirror(a, 1, std::vector<std::byte>(8), 0);
  const auto hb = mirror.Mirror(b, 1, std::vector<std::byte>(8), 0);
  ASSERT_NE(ha.slot, hb.slot);
  EXPECT_TRUE(mirror.Alive(ha));
  mirror.Acknowledge(a, 1);
  EXPECT_FALSE(mirror.Alive(ha));
  // The freed slot is recycled with a bumped generation.
  const auto hc =
      mirror.Mirror(net::PartitionKey::OfObject(12), 2,
                    std::vector<std::byte>(8), 0);
  EXPECT_EQ(hc.slot, ha.slot);
  EXPECT_NE(hc.gen, ha.gen);
  EXPECT_FALSE(mirror.Alive(ha));
  EXPECT_TRUE(mirror.Alive(hc));
  EXPECT_EQ(mirror.seq(hc), 2u);
  EXPECT_TRUE(mirror.Alive(hb));
  EXPECT_EQ(mirror.key(hb), b);
}

TEST(SlotTableResetTest, FlowTableDropsItsIndexMirrorKeepsItsCapacity) {
  core::FlowTable table;
  dp::MirrorTable mirror("m", 64);
  std::vector<dp::MirrorTable::Handle> handles;
  for (std::uint64_t i = 0; i < 20; ++i) {
    table.GetOrCreateSlot(net::PartitionKey::OfObject(i));
    handles.push_back(mirror.Mirror(net::PartitionKey::OfObject(i), 1,
                                    std::vector<std::byte>(8), 0));
  }
  EXPECT_EQ(table.IndexStatsNow().capacity, 32u);
  EXPECT_EQ(mirror.IndexStatsNow().capacity, 32u);
  table.Reset();
  mirror.Reset();
  EXPECT_EQ(table.IndexStatsNow().capacity, 0u);
  EXPECT_EQ(table.Size(), 0u);
  EXPECT_EQ(mirror.IndexStatsNow().capacity, 32u);
  EXPECT_EQ(mirror.IndexStatsNow().used, 0u);
  EXPECT_EQ(mirror.NumEntries(), 0u);
  for (const auto& h : handles) EXPECT_FALSE(mirror.Alive(h));
}

TEST(StoreEdgeTest, NonProtocolAndMalformedPacketsCounted) {
  sim::Simulator sim;
  sim::Network net(sim, 1);
  auto* store = net.AddNode<store::StateStoreServer>(
      "store", net::Ipv4Addr(172, 16, 1, 1));
  // Non-protocol UDP.
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(172, 16, 1, 1), 5,
                 80, net::IpProto::kUdp};
  store->HandlePacket(net::MakeUdpPacket(f, 10), 0);
  // Right port, garbage payload.
  net::FlowKey f2 = f;
  f2.dst_port = core::kRedPlaneUdpPort;
  auto junk = net::MakeUdpPacket(f2, 0);
  junk.payload = {std::byte{0x9d}, std::byte{0x1a}, std::byte{0xff}};
  store->HandlePacket(std::move(junk), 0);
  sim.Run();
  EXPECT_DOUBLE_EQ(store->counters().Get("non_protocol_drops"), 1.0);
  EXPECT_DOUBLE_EQ(store->counters().Get("malformed_drops"), 1.0);
}

TEST(StoreEdgeTest, MisdirectedRequestToNonHeadDropped) {
  sim::Simulator sim;
  sim::Network net(sim, 1);
  auto* replica = net.AddNode<store::StateStoreServer>(
      "mid", net::Ipv4Addr(172, 16, 1, 2));
  replica->SetIsHead(false);
  core::Msg msg;
  msg.type = core::MsgType::kLeaseNewReq;
  msg.key = net::PartitionKey::OfObject(1);
  msg.reply_to = net::Ipv4Addr(172, 16, 0, 1);
  replica->HandlePacket(
      core::MakeProtocolPacket(msg.reply_to, replica->ip(), msg), 0);
  sim.Run();
  EXPECT_DOUBLE_EQ(replica->counters().Get("misdirected_drops"), 1.0);
  EXPECT_EQ(replica->NumFlows(), 0u);
}

TEST(StoreEdgeTest, BufferedInitCapDenies) {
  sim::Simulator sim;
  sim::Network net(sim, 1);
  store::StoreConfig cfg;
  cfg.max_buffered_inits = 1;
  auto* store = net.AddNode<store::StateStoreServer>(
      "store", net::Ipv4Addr(172, 16, 1, 1), cfg);
  auto* sink = net.AddNode<sim::HostNode>("sink", net::Ipv4Addr(9, 9, 9, 9));
  net.Connect(store, 0, sink, 0);
  std::vector<core::AckKind> acks;
  sink->SetHandler([&](sim::HostNode&, net::Packet pkt) {
    auto msg = core::DecodeFromPacket(pkt);
    if (msg.has_value()) acks.push_back(msg->ack);
  });

  const auto key = net::PartitionKey::OfObject(7);
  auto send_init = [&](std::uint8_t owner_octet) {
    core::Msg msg;
    msg.type = core::MsgType::kLeaseNewReq;
    msg.key = key;
    msg.reply_to = net::Ipv4Addr(172, 16, 0, owner_octet);
    store->HandlePacket(
        core::MakeProtocolPacket(msg.reply_to, store->ip(), msg), 0);
  };
  send_init(1);  // granted
  sim.Run();
  send_init(2);  // buffered (slot 1 of 1)
  send_init(3);  // over the cap -> denied immediately
  sim.RunUntil(sim.Now() + Milliseconds(1));
  ASSERT_GE(acks.size(), 2u);
  EXPECT_EQ(acks.back(), core::AckKind::kLeaseDenied);
  // The buffered one is eventually granted when the lease lapses.
  sim.Run();
  EXPECT_EQ(acks.back(), core::AckKind::kLeaseGrantMigrate);
}

TEST(StoreEdgeTest, FailureClearsStateAndCancelsQueuedWork) {
  sim::Simulator sim;
  sim::Network net(sim, 1);
  store::StoreConfig cfg;
  cfg.service_time = Milliseconds(1);  // long, so work is queued
  auto* store = net.AddNode<store::StateStoreServer>(
      "store", net::Ipv4Addr(172, 16, 1, 1), cfg);
  auto* sink = net.AddNode<sim::HostNode>("sink", net::Ipv4Addr(9, 9, 9, 9));
  net.Connect(store, 0, sink, 0);
  int acked = 0;
  sink->SetHandler([&](sim::HostNode&, net::Packet) { ++acked; });

  core::Msg msg;
  msg.type = core::MsgType::kLeaseNewReq;
  msg.key = net::PartitionKey::OfObject(1);
  msg.reply_to = net::Ipv4Addr(9, 9, 9, 9);
  store->HandlePacket(core::MakeProtocolPacket(msg.reply_to, store->ip(), msg),
                      0);
  store->SetUp(false);  // crash before the queued request is served
  sim.Run();
  EXPECT_EQ(acked, 0);
  EXPECT_EQ(store->NumFlows(), 0u);
  store->SetUp(true);
  EXPECT_EQ(store->NumFlows(), 0u);  // DRAM lost
}

TEST(RoutingEdgeTest, NextHopForUnroutablePacket) {
  sim::Simulator sim;
  routing::Testbed tb = routing::BuildTestbed(sim);
  // Unknown destination: no route.
  net::FlowKey f{routing::ExternalHostIp(0), net::Ipv4Addr(9, 9, 9, 9), 1, 2,
                 net::IpProto::kUdp};
  EXPECT_FALSE(tb.fabric->NextHop(tb.core, net::MakeUdpPacket(f, 0))
                   .has_value());
  // Packet without an IP header: no route.
  net::Packet bare;
  EXPECT_FALSE(tb.fabric->NextHop(tb.core, bare).has_value());
  // Destination is the asking node itself: no route (terminates here).
  net::FlowKey self{routing::ExternalHostIp(0), routing::AggSwitchIp(0), 1, 2,
                    net::IpProto::kUdp};
  EXPECT_FALSE(
      tb.fabric->NextHop(tb.agg[0], net::MakeUdpPacket(self, 0)).has_value());
}

TEST(RoutingEdgeTest, IsolatedDestinationUnreachableUntilRecovery) {
  sim::Simulator sim;
  routing::TestbedConfig cfg;
  cfg.fabric.failure_detection_delay = Milliseconds(1);
  routing::Testbed tb = routing::BuildTestbed(sim, cfg);
  routing::FailureInjector injector(sim, *tb.fabric);
  // Cut both of rack 0's uplinks: its servers become unreachable.
  injector.FailLink(tb.network->FindLink(tb.agg[0], tb.tor[0]));
  injector.FailLink(tb.network->FindLink(tb.agg[1], tb.tor[0]));
  sim.RunUntil(Milliseconds(5));
  net::FlowKey f{routing::ExternalHostIp(0), routing::RackServerIp(0, 0), 1,
                 2, net::IpProto::kUdp};
  EXPECT_FALSE(tb.fabric->NextHop(tb.core, net::MakeUdpPacket(f, 0))
                   .has_value());
  injector.RecoverLink(tb.network->FindLink(tb.agg[0], tb.tor[0]));
  sim.RunUntil(Milliseconds(10));
  EXPECT_TRUE(tb.fabric->NextHop(tb.core, net::MakeUdpPacket(f, 0))
                  .has_value());
}

TEST(RedPlaneEdgeTest, MalformedAckCountedNotCrashed) {
  sim::Simulator sim;
  sim::Network net(sim, 1);
  dp::SwitchConfig cfg;
  cfg.switch_ip = net::Ipv4Addr(172, 16, 0, 1);
  auto* sw = net.AddNode<dp::SwitchNode>("sw", cfg);
  apps::SyncCounterApp app;
  core::RedPlaneSwitch rp(
      *sw, app, [](const net::PartitionKey&) { return net::Ipv4Addr(); });
  sw->SetPipeline(&rp);

  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), cfg.switch_ip, 5,
                 core::kRedPlaneUdpPort, net::IpProto::kUdp};
  auto pkt = net::MakeUdpPacket(f, 0);
  pkt.payload = {std::byte{0x9d}, std::byte{0x1a}, std::byte{0x00}};
  sw->HandlePacket(std::move(pkt), 0);
  sim.Run();
  EXPECT_DOUBLE_EQ(rp.stats().Get("malformed_acks"), 1.0);
}

TEST(RedPlaneEdgeTest, NonAppTrafficForwardedUntouched) {
  sim::Simulator sim;
  sim::Network net(sim, 1);
  dp::SwitchConfig cfg;
  cfg.switch_ip = net::Ipv4Addr(172, 16, 0, 1);
  auto* sw = net.AddNode<dp::SwitchNode>("sw", cfg);
  auto* sink = net.AddNode<sim::HostNode>("sink", net::Ipv4Addr(2, 2, 2, 2));
  net.Connect(sw, 0, sink, 0);
  sw->SetForwarder([](const net::Packet&, PortId) { return PortId{0}; });
  apps::EpcSgwApp app;  // claims only SGW ports
  core::RedPlaneSwitch rp(
      *sw, app, [](const net::PartitionKey&) { return net::Ipv4Addr(); });
  sw->SetPipeline(&rp);
  int delivered = 0;
  sink->SetHandler([&](sim::HostNode&, net::Packet) { ++delivered; });
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 5, 80,
                 net::IpProto::kUdp};
  sw->HandlePacket(net::MakeUdpPacket(f, 10), 0);
  sim.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_DOUBLE_EQ(rp.stats().Get("app_pkts"), 0.0);
}

TEST(ProtocolEdgeTest, OversizeStateStillRoundTrips) {
  core::Msg msg;
  msg.type = core::MsgType::kLeaseRenewReq;
  msg.key = net::PartitionKey::OfObject(1);
  msg.state.resize(60'000, std::byte{0x5a});  // near the u16 length cap
  const auto decoded = core::DecodeMsg(core::EncodeMsg(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->state.size(), 60'000u);
}

TEST(SgwEdgeTest, TruncatedSignalingIgnored) {
  apps::EpcSgwApp sgw;
  std::vector<std::byte> state;
  core::AppContext ctx;
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(100, 64, 0, 1),
                 9000, apps::kSgwSignalingPort, net::IpProto::kUdp};
  auto pkt = net::MakeUdpPacket(f, 0);
  pkt.payload = {std::byte{1}, std::byte{2}};  // too short for teid+enb
  const auto result = sgw.Process(ctx, std::move(pkt), state);
  EXPECT_TRUE(result.outputs.empty());
  EXPECT_FALSE(result.state_modified);
  EXPECT_TRUE(state.empty());
}

}  // namespace
}  // namespace redplane
