#include <gtest/gtest.h>

#include "apps/counter.h"
#include "baselines/controller_ft.h"
#include "baselines/plain_pipeline.h"
#include "baselines/rollback.h"
#include "baselines/server_nf.h"
#include "baselines/switch_chain.h"
#include "core/app.h"
#include "net/codec.h"
#include "sim/host.h"
#include "sim/network.h"

namespace redplane::baselines {
namespace {

constexpr net::Ipv4Addr kSrcIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kDstIp(192, 168, 10, 1);

net::FlowKey TestFlow(std::uint16_t port = 1000) {
  return {kSrcIp, kDstIp, port, 80, net::IpProto::kUdp};
}

/// Table-state echo app (forces control-plane installs for new flows).
class TableEchoApp : public core::SwitchApp {
 public:
  std::string_view name() const override { return "table_echo"; }
  bool StateInMatchTable() const override { return true; }
  core::ProcessResult Process(core::AppContext&, net::Packet pkt,
                              std::vector<std::byte>& state) override {
    (void)state;
    core::ProcessResult result;
    result.outputs.push_back(std::move(pkt));
    return result;
  }
};

struct BaselineHarness {
  BaselineHarness() {
    net = std::make_unique<sim::Network>(sim, 11);
    src = net->AddNode<sim::HostNode>("src", kSrcIp);
    dst = net->AddNode<sim::HostNode>("dst", kDstIp);
    dp::SwitchConfig cfg;
    cfg.switch_ip = net::Ipv4Addr(172, 16, 0, 1);
    sw = net->AddNode<dp::SwitchNode>("sw", cfg);
    net->Connect(src, 0, sw, 0);
    net->Connect(dst, 0, sw, 1);
    sw->SetForwarder(
        [](const net::Packet& pkt, PortId) -> std::optional<PortId> {
          if (!pkt.ip.has_value()) return std::nullopt;
          if (pkt.ip->dst == kSrcIp) return PortId{0};
          if (pkt.ip->dst == kDstIp) return PortId{1};
          return PortId{2};
        });
    dst->SetHandler([this](sim::HostNode&, net::Packet pkt) {
      ++delivered;
      last_arrival = sim.Now();
      (void)pkt;
    });
  }

  sim::Simulator sim;
  std::unique_ptr<sim::Network> net;
  sim::HostNode* src;
  sim::HostNode* dst;
  dp::SwitchNode* sw;
  int delivered = 0;
  SimTime last_arrival = 0;
};

TEST(PlainPipelineTest, ForwardsAndCountsLocally) {
  BaselineHarness h;
  apps::SyncCounterApp app;
  PlainAppPipeline plain(*h.sw, app);
  h.sw->SetPipeline(&plain);
  for (int i = 0; i < 5; ++i) {
    h.src->Send(net::MakeUdpPacket(TestFlow(), 0));
  }
  h.sim.Run();
  EXPECT_EQ(h.delivered, 5);
  EXPECT_EQ(plain.NumFlows(), 1u);
}

TEST(PlainPipelineTest, TableStateFirstPacketWaitsForControlPlane) {
  BaselineHarness h;
  TableEchoApp app;
  PlainAppPipeline plain(*h.sw, app);
  h.sw->SetPipeline(&plain);
  h.src->Send(net::MakeUdpPacket(TestFlow(), 0));
  h.sim.Run();
  EXPECT_EQ(h.delivered, 1);
  // Control-plane install dominates the first-packet latency (tens of µs).
  EXPECT_GT(h.last_arrival, Microseconds(50));
  const SimTime first = h.last_arrival;
  h.src->Send(net::MakeUdpPacket(TestFlow(), 0));
  h.sim.Run();
  // Subsequent packets are pure data plane.
  EXPECT_LT(h.last_arrival - first, Microseconds(20));
}

TEST(PlainPipelineTest, StateLostOnSwitchFailure) {
  BaselineHarness h;
  apps::SyncCounterApp app;
  PlainAppPipeline plain(*h.sw, app);
  h.sw->SetPipeline(&plain);
  h.src->Send(net::MakeUdpPacket(TestFlow(), 0));
  h.sim.Run();
  EXPECT_EQ(plain.NumFlows(), 1u);
  h.sw->SetUp(false);
  EXPECT_EQ(plain.NumFlows(), 0u);  // the paper's Fig. 1 problem
}

TEST(ControllerFtTest, NewFlowCommitsToControllerBeforeRelease) {
  BaselineHarness h;
  apps::SyncCounterApp app;
  auto* controller = h.net->AddNode<ControllerNode>("ctrl", Microseconds(30));
  ControllerFtPipeline pipeline(*h.sw, app, *controller, Microseconds(40));
  h.sw->SetPipeline(&pipeline);
  h.src->Send(net::MakeUdpPacket(TestFlow(), 0));
  h.sim.Run();
  EXPECT_EQ(h.delivered, 1);
  // First packet pays PCIe + management RTT: slower than plain CP install.
  EXPECT_GT(h.last_arrival, Microseconds(100));
}

TEST(ControllerFtTest, CommittedStateRestorableAfterFailure) {
  BaselineHarness h;
  apps::SyncCounterApp app;
  auto* controller = h.net->AddNode<ControllerNode>("ctrl", Microseconds(30));
  ControllerFtPipeline pipeline(*h.sw, app, *controller, Microseconds(40));
  h.sw->SetPipeline(&pipeline);
  // Pace packets so each finds the flow already committed.
  for (int i = 0; i < 3; ++i) {
    h.src->Send(net::MakeUdpPacket(TestFlow(), 0));
    h.sim.RunUntil(h.sim.Now() + Milliseconds(1));
  }
  h.sim.RunUntil(Milliseconds(10));
  EXPECT_EQ(h.delivered, 3);
  EXPECT_GE(controller->commits(), 1u);

  h.sw->SetUp(false);
  h.sw->SetUp(true);
  const std::size_t restored = pipeline.RestoreFromController();
  EXPECT_EQ(restored, 1u);
  h.src->Send(net::MakeUdpPacket(TestFlow(), 0));
  h.sim.Run();
  EXPECT_EQ(h.delivered, 4);  // no re-commit needed after restore
}

TEST(RollbackTest, LineRateOverwhelmsControlChannelLog) {
  BaselineHarness h;
  apps::SyncCounterApp app;
  RollbackPipeline rollback(*h.sw, app, /*max_queued_logs=*/8);
  h.sw->SetPipeline(&rollback);
  // A burst far beyond the PCIe channel's drain rate.
  for (int i = 0; i < 500; ++i) {
    h.src->Send(net::MakeUdpPacket(TestFlow(), 1000));
  }
  h.sim.Run();
  EXPECT_EQ(h.delivered, 500);  // forwarding itself keeps up
  EXPECT_GT(rollback.packets_not_logged(), 0u);  // the log does not

  // Replay reconstructs the WRONG state (the §2.2 incorrectness): the
  // rebuilt counter is below the live one.
  apps::SyncCounterApp fresh;
  const auto rebuilt = rollback.Replay(fresh);
  const auto key = net::PartitionKey::OfFlow(TestFlow());
  const auto it = rebuilt.find(key);
  const std::uint64_t rebuilt_count =
      it == rebuilt.end()
          ? 0
          : core::StateAs<std::uint64_t>(it->second).value_or(0);
  EXPECT_LT(rebuilt_count, 500u);
}

TEST(RollbackTest, LowRateTrafficReplaysCorrectly) {
  BaselineHarness h;
  apps::SyncCounterApp app;
  RollbackPipeline rollback(*h.sw, app, 64);
  h.sw->SetPipeline(&rollback);
  for (int i = 0; i < 10; ++i) {
    h.src->Send(net::MakeUdpPacket(TestFlow(), 0));
    h.sim.RunUntil(h.sim.Now() + Milliseconds(1));  // paced: log keeps up
  }
  h.sim.Run();
  EXPECT_EQ(rollback.packets_not_logged(), 0u);
  apps::SyncCounterApp fresh;
  const auto rebuilt = rollback.Replay(fresh);
  const auto key = net::PartitionKey::OfFlow(TestFlow());
  ASSERT_TRUE(rebuilt.count(key));
  EXPECT_EQ(core::StateAs<std::uint64_t>(rebuilt.at(key)), 10u);
}

TEST(ServerNfTest, AddsSoftwareLatencyOverSwitchPath) {
  BaselineHarness h;
  apps::SyncCounterApp app;
  // NF server hangs off switch port 2.
  auto* nf = h.net->AddNode<ServerNfNode>("nf", net::Ipv4Addr(172, 16, 2, 1),
                                          app, ServerNfConfig{});
  h.net->Connect(nf, 0, h.sw, 2);
  // Steer everything through the NF: src -> sw -> nf -> sw -> dst.
  h.sw->SetForwarder(
      [&](const net::Packet& pkt, PortId in_port) -> std::optional<PortId> {
        if (in_port == 0) return PortId{2};  // to the NF
        if (!pkt.ip.has_value()) return std::nullopt;
        return pkt.ip->dst == kDstIp ? PortId{1} : PortId{0};
      });
  h.src->Send(net::MakeUdpPacket(TestFlow(), 0));
  h.sim.Run();
  EXPECT_EQ(h.delivered, 1);
  // NIC in + service + NIC out ~ 8 µs on top of the fabric.
  EXPECT_GT(h.last_arrival, Microseconds(8));
}

TEST(ServerNfTest, FtVariantPaysReplicationOnWrites) {
  sim::Simulator sim;
  sim::Network net(sim, 2);
  apps::SyncCounterApp app1, app2;
  ServerNfConfig plain_cfg;
  ServerNfConfig ft_cfg;
  ft_cfg.replication_latency = Microseconds(25);
  auto* plain_nf = net.AddNode<ServerNfNode>(
      "plain", net::Ipv4Addr(1, 0, 0, 1), app1, plain_cfg);
  auto* ft_nf =
      net.AddNode<ServerNfNode>("ft", net::Ipv4Addr(1, 0, 0, 2), app2, ft_cfg);
  auto* sink1 = net.AddNode<sim::HostNode>("s1", net::Ipv4Addr(2, 0, 0, 1));
  auto* sink2 = net.AddNode<sim::HostNode>("s2", net::Ipv4Addr(2, 0, 0, 2));
  net.Connect(plain_nf, 0, sink1, 0);
  net.Connect(ft_nf, 0, sink2, 0);
  SimTime t_plain = 0, t_ft = 0;
  sink1->SetHandler([&](sim::HostNode&, net::Packet) { t_plain = sim.Now(); });
  sink2->SetHandler([&](sim::HostNode&, net::Packet) { t_ft = sim.Now(); });
  plain_nf->HandlePacket(net::MakeUdpPacket(TestFlow(), 0), 0);
  ft_nf->HandlePacket(net::MakeUdpPacket(TestFlow(), 0), 0);
  sim.Run();
  EXPECT_GT(t_ft, t_plain + Microseconds(20));
}

TEST(SwitchChainTest, TailReleasesAfterChainTraversal) {
  sim::Simulator sim;
  sim::Network net(sim, 7);
  apps::SyncCounterApp app;
  dp::SwitchConfig c1, c2;
  c1.switch_ip = net::Ipv4Addr(172, 16, 0, 1);
  c2.switch_ip = net::Ipv4Addr(172, 16, 0, 2);
  auto* head = net.AddNode<dp::SwitchNode>("head", c1);
  auto* tail = net.AddNode<dp::SwitchNode>("tail", c2);
  auto* src = net.AddNode<sim::HostNode>("src", kSrcIp);
  auto* dst = net.AddNode<sim::HostNode>("dst", kDstIp);
  net.Connect(src, 0, head, 0);
  net.Connect(head, 1, tail, 0);
  net.Connect(tail, 1, dst, 0);
  auto fwd = [](const net::Packet& pkt, PortId) -> std::optional<PortId> {
    if (!pkt.ip.has_value()) return std::nullopt;
    return pkt.ip->dst == kSrcIp ? PortId{0} : PortId{1};
  };
  head->SetForwarder(fwd);
  tail->SetForwarder(fwd);
  SwitchChainPipeline head_pipe(*head, app, c2.switch_ip);
  SwitchChainPipeline tail_pipe(*tail, app, std::nullopt);
  head->SetPipeline(&head_pipe);
  tail->SetPipeline(&tail_pipe);

  int delivered = 0;
  dst->SetHandler([&](sim::HostNode&, net::Packet) { ++delivered; });
  for (int i = 0; i < 4; ++i) src->Send(net::MakeUdpPacket(TestFlow(), 0));
  sim.Run();
  EXPECT_EQ(delivered, 4);
  // Both replicas hold the final state — and both paid SRAM for it.
  const auto key = net::PartitionKey::OfFlow(TestFlow());
  EXPECT_EQ(core::StateAs<std::uint64_t>(head_pipe.state().at(key)), 4u);
  EXPECT_EQ(core::StateAs<std::uint64_t>(tail_pipe.state().at(key)), 4u);
  EXPECT_GT(head_pipe.ReplicaStateBytes(), 0u);
  EXPECT_EQ(head_pipe.ReplicaStateBytes(), tail_pipe.ReplicaStateBytes());
}

TEST(SwitchChainTest, LossOnChainLinkSilentlyDiverges) {
  sim::Simulator sim;
  sim::Network net(sim, 13);
  apps::SyncCounterApp app;
  dp::SwitchConfig c1, c2;
  c1.switch_ip = net::Ipv4Addr(172, 16, 0, 1);
  c2.switch_ip = net::Ipv4Addr(172, 16, 0, 2);
  auto* head = net.AddNode<dp::SwitchNode>("head", c1);
  auto* tail = net.AddNode<dp::SwitchNode>("tail", c2);
  auto* src = net.AddNode<sim::HostNode>("src", kSrcIp);
  auto* dst = net.AddNode<sim::HostNode>("dst", kDstIp);
  net.Connect(src, 0, head, 0);
  sim::LinkConfig lossy;
  lossy.loss_rate = 0.25;
  net.Connect(head, 1, tail, 0, lossy);
  net.Connect(tail, 1, dst, 0);
  auto fwd = [](const net::Packet& pkt, PortId) -> std::optional<PortId> {
    if (!pkt.ip.has_value()) return std::nullopt;
    return pkt.ip->dst == kSrcIp ? PortId{0} : PortId{1};
  };
  head->SetForwarder(fwd);
  tail->SetForwarder(fwd);
  SwitchChainPipeline head_pipe(*head, app, c2.switch_ip);
  SwitchChainPipeline tail_pipe(*tail, app, std::nullopt);
  head->SetPipeline(&head_pipe);
  tail->SetPipeline(&tail_pipe);

  for (int i = 0; i < 200; ++i) src->Send(net::MakeUdpPacket(TestFlow(), 0));
  sim.Run();
  const auto key = net::PartitionKey::OfFlow(TestFlow());
  const auto head_count =
      core::StateAs<std::uint64_t>(head_pipe.state().at(key));
  EXPECT_EQ(*head_count, 200u);
  // The §2.2 flaw: updates vanish with no retransmission, so the replica
  // missed some fraction of them and was silently stale in between (and,
  // with high probability, at the end too).
  EXPECT_LT(tail_pipe.stats().Get("chain_updates_applied"), 200.0);
}

}  // namespace
}  // namespace redplane::baselines
