// Replication batching (DESIGN.md §10) and renew/retransmit-path fixes.
//
// Covers the per-shard coalescer end to end: burst writes leave as one
// batch envelope, the store unpacks and acks per sub-message, piggybacked
// outputs all come home, and the zero-copy cost model stays chain-length
// independent.  Alongside: regression tests for the wedged-renewal bug
// (renew_in_flight pinned forever by a lost renew) and the retransmit scan
// that kept rescheduling after draining its table, plus armed-auditor
// see-through checks (clean batched runs silent, mutations still caught).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "audit/auditor.h"
#include "core/protocol.h"
#include "core/redplane_switch.h"
#include "net/buffer.h"
#include "net/codec.h"
#include "obs/tracer.h"
#include "sim/host.h"
#include "sim/network.h"
#include "statestore/server.h"

namespace redplane {
namespace {

constexpr net::Ipv4Addr kSrcIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kDstIp(192, 168, 10, 1);
constexpr net::Ipv4Addr kSwIp(172, 16, 0, 1);

net::FlowKey TheFlow() {
  return {kSrcIp, kDstIp, 1000, 80, net::IpProto::kUdp};
}

/// Write-per-packet app: every packet leaves as a replication request.
class WriteApp : public core::SwitchApp {
 public:
  std::string_view name() const override { return "write_app"; }
  core::ProcessResult Process(core::AppContext&, net::Packet pkt,
                              std::vector<std::byte>& state) override {
    core::ProcessResult result;
    core::SetState(state,
                   core::StateAs<std::uint64_t>(state).value_or(0) + 1);
    result.state_modified = true;
    result.outputs.push_back(std::move(pkt));
    return result;
  }
};

/// Read-only echo: never writes state, so the flow is renew-driven.
class ReadApp : public core::SwitchApp {
 public:
  std::string_view name() const override { return "read_app"; }
  core::ProcessResult Process(core::AppContext&, net::Packet pkt,
                              std::vector<std::byte>&) override {
    core::ProcessResult result;
    result.outputs.push_back(std::move(pkt));
    return result;
  }
};

/// One RedPlane switch against a store chain, with a drop predicate on the
/// switch<->store hub and an optionally armed global tracer + auditor.
struct BatchHarness {
  struct Options {
    int chain_size = 1;
    core::RedPlaneConfig rp_cfg{};
    store::StoreConfig::ProtocolMutations head_mutations{};
    bool arm_audit = false;
  };

  BatchHarness(core::SwitchApp& app, Options opt) {
    net = std::make_unique<sim::Network>(sim, 7);
    src = net->AddNode<sim::HostNode>("src", kSrcIp);
    dst = net->AddNode<sim::HostNode>("dst", kDstIp);
    dp::SwitchConfig cfg;
    cfg.switch_ip = kSwIp;
    sw = net->AddNode<dp::SwitchNode>("sw", cfg);
    hub = net->AddNode<sim::HostNode>("hub", net::Ipv4Addr(9, 9, 9, 9));
    net->Connect(src, 0, sw, 0);
    net->Connect(dst, 0, sw, 1);
    net->Connect(sw, 2, hub, 0);
    for (int i = 0; i < opt.chain_size; ++i) {
      store::StoreConfig store_cfg;
      store_cfg.lease_period = opt.rp_cfg.lease_period;
      if (i == 0) store_cfg.mutations = opt.head_mutations;
      auto* server = net->AddNode<store::StateStoreServer>(
          "store" + std::to_string(i), net::Ipv4Addr(172, 16, 1, 1 + i),
          store_cfg);
      net->Connect(server, 0, hub, static_cast<PortId>(1 + i));
      replicas.push_back(server);
    }
    for (int i = 0; i < opt.chain_size; ++i) {
      replicas[i]->SetIsHead(i == 0);
      if (i + 1 < opt.chain_size) {
        replicas[i]->SetChainSuccessor(replicas[i + 1]->ip());
      }
    }
    hub->SetHandler([this](sim::HostNode& self, net::Packet pkt) {
      if (!pkt.ip.has_value()) return;
      if (drop_pred && drop_pred(pkt)) {
        ++dropped;
        return;
      }
      if (pkt.ip->dst == kSwIp) {
        self.SendTo(0, std::move(pkt));
        return;
      }
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        if (pkt.ip->dst == replicas[i]->ip()) {
          self.SendTo(static_cast<PortId>(1 + i), std::move(pkt));
          return;
        }
      }
    });
    sw->SetForwarder(
        [](const net::Packet& pkt, PortId) -> std::optional<PortId> {
          if (!pkt.ip.has_value()) return std::nullopt;
          if (pkt.ip->dst == kSrcIp) return PortId{0};
          if (pkt.ip->dst == kDstIp) return PortId{1};
          return PortId{2};
        });
    rp = std::make_unique<core::RedPlaneSwitch>(
        *sw, app,
        [this](const net::PartitionKey&) { return replicas[0]->ip(); },
        opt.rp_cfg);
    sw->SetPipeline(rp.get());
    dst->SetHandler([this](sim::HostNode&, net::Packet) { ++delivered; });

    if (opt.arm_audit) {
      tracer.SetClock([this] { return sim.Now(); });
      tracer.SetEnabled(true);
      prev_tracer = obs::SetGlobalTracer(&tracer);
      auditor.ArmStandardMonitors();
      tracer.Subscribe(auditor);
      audit_armed = true;
    }
  }

  ~BatchHarness() {
    if (audit_armed) obs::SetGlobalTracer(prev_tracer);
  }

  void SendBurst(int n) {
    for (int i = 0; i < n; ++i) {
      src->Send(net::MakeUdpPacket(TheFlow(), 20));
    }
  }

  void SendPaced(int n, SimDuration gap) {
    for (int i = 0; i < n; ++i) {
      src->Send(net::MakeUdpPacket(TheFlow(), 20));
      sim.RunUntil(sim.Now() + gap);
    }
  }

  double SwitchStat(const char* name) { return rp->stats().Get(name); }
  double StoreStat(int i, const char* name) {
    return replicas[static_cast<std::size_t>(i)]->counters().Get(name);
  }

  sim::Simulator sim;
  std::unique_ptr<sim::Network> net;
  sim::HostNode* src = nullptr;
  sim::HostNode* dst = nullptr;
  sim::HostNode* hub = nullptr;
  dp::SwitchNode* sw = nullptr;
  std::vector<store::StateStoreServer*> replicas;
  std::unique_ptr<core::RedPlaneSwitch> rp;
  std::function<bool(const net::Packet&)> drop_pred;
  int delivered = 0;
  int dropped = 0;

  obs::Tracer tracer;
  obs::Tracer* prev_tracer = nullptr;
  audit::Auditor auditor;
  bool audit_armed = false;
};

core::RedPlaneConfig BatchedConfig() {
  core::RedPlaneConfig cfg;
  cfg.lease_period = Seconds(2);
  cfg.renew_interval = Seconds(1);
  cfg.request_timeout = Milliseconds(5);
  cfg.coalesce_delay = Microseconds(20);
  return cfg;
}

// --- coalescer end-to-end ---------------------------------------------------

TEST(BatchingTest, BurstWritesCoalesceIntoEnvelopes) {
  WriteApp app;
  BatchHarness h(app, {.rp_cfg = BatchedConfig()});
  // Warm up: lease acquisition (Inits never batch) settles first.
  h.SendBurst(1);
  h.sim.Run();
  ASSERT_EQ(h.delivered, 1);

  constexpr int kWrites = 8;
  h.SendBurst(kWrites);
  h.sim.Run();

  // Every output came home and every write is durable, exactly per-packet
  // semantics...
  EXPECT_EQ(h.delivered, 1 + kWrites);
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  ASSERT_NE(h.replicas[0]->Find(key), nullptr);
  EXPECT_EQ(h.replicas[0]->Find(key)->last_applied_seq,
            static_cast<std::uint64_t>(1 + kWrites));
  // ...but the burst crossed the wire in envelopes, not per-packet.
  EXPECT_GE(h.SwitchStat("batch_envelopes"), 1.0);
  EXPECT_GE(h.StoreStat(0, "batch_envelopes"), 1.0);
  EXPECT_GE(h.StoreStat(0, "batch_subs"), 2.0);
  // The store still filtered/acked per sub-message.
  EXPECT_DOUBLE_EQ(h.StoreStat(0, "repl_reqs"),
                   static_cast<double>(1 + kWrites));
  EXPECT_DOUBLE_EQ(h.StoreStat(0, "responses"),
                   static_cast<double>(2 + kWrites));  // grant + write acks
}

TEST(BatchingTest, DelayZeroNeverWrapsEnvelopes) {
  WriteApp app;
  core::RedPlaneConfig cfg = BatchedConfig();
  cfg.coalesce_delay = 0;  // per-packet mode
  BatchHarness h(app, {.rp_cfg = cfg});
  h.SendBurst(1);
  h.sim.Run();
  h.SendBurst(8);
  h.sim.Run();
  EXPECT_EQ(h.delivered, 9);
  EXPECT_DOUBLE_EQ(h.SwitchStat("batch_envelopes"), 0.0);
  EXPECT_DOUBLE_EQ(h.StoreStat(0, "batch_envelopes"), 0.0);
}

TEST(BatchingTest, LonePendingMessageLeavesUnwrapped) {
  // Paced traffic never accumulates two messages in a window, so the
  // coalescer must emit plain (unwrapped) protocol packets.
  WriteApp app;
  BatchHarness h(app, {.rp_cfg = BatchedConfig()});
  h.SendPaced(10, Milliseconds(1));
  h.sim.Run();
  EXPECT_EQ(h.delivered, 10);
  EXPECT_DOUBLE_EQ(h.SwitchStat("batch_envelopes"), 0.0);
  EXPECT_DOUBLE_EQ(h.StoreStat(0, "batch_envelopes"), 0.0);
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  EXPECT_EQ(h.replicas[0]->Find(key)->last_applied_seq, 10u);
}

TEST(BatchingTest, CountCapFlushesEarly) {
  WriteApp app;
  core::RedPlaneConfig cfg = BatchedConfig();
  cfg.coalesce_delay = Milliseconds(10);  // timer would be far too slow
  cfg.coalesce_max_msgs = 4;
  BatchHarness h(app, {.rp_cfg = cfg});
  h.SendBurst(1);
  h.sim.Run();
  const SimTime t0 = h.sim.Now();
  h.SendBurst(8);
  // Run to well before the 10 ms timer: if only the timer could flush, no
  // write would be durable yet and no output released.
  h.sim.RunUntil(t0 + Milliseconds(2));
  EXPECT_EQ(h.delivered, 9);
  // Two cap-triggered envelopes of 4.
  EXPECT_GE(h.SwitchStat("batch_envelopes"), 2.0);
  h.sim.Run();  // drain the superseded (gen-guarded) flush timers
}

// --- zero-copy cost model under batching ------------------------------------

struct BatchedWriteCosts {
  std::uint64_t encodes = 0;
  std::uint64_t deep_copies = 0;
};

BatchedWriteCosts MeasureBatchedWrites(int chain_size, int writes) {
  WriteApp app;
  BatchHarness h(app, {.chain_size = chain_size, .rp_cfg = BatchedConfig()});
  h.SendBurst(1);
  h.sim.Run();
  EXPECT_EQ(h.delivered, 1);

  core::ResetEncodeCount();
  net::Buffer::ResetCounters();
  h.SendBurst(writes);
  h.sim.Run();
  EXPECT_EQ(h.delivered, 1 + writes);
  EXPECT_GE(h.SwitchStat("batch_envelopes"), 1.0);
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  for (auto* replica : h.replicas) {
    const auto* rec = replica->Find(key);
    EXPECT_NE(rec, nullptr);
    if (rec != nullptr) {
      EXPECT_EQ(rec->last_applied_seq,
                static_cast<std::uint64_t>(1 + writes));
    }
  }
  return {core::EncodeCount(), net::Buffer::DeepCopies()};
}

TEST(BatchingTest, BatchedWritesStayChainLengthIndependent) {
  // Mirrors zero_copy_test's invariant, through the envelope: exactly two
  // encodes per write (the request at the switch, the tail's per-sub ack) —
  // wrapping and unwrapping envelopes never re-serializes a message — and
  // byte copies stay flat as the chain grows (the mirror's truncation CoW
  // plus the head's per-sub decision stamp; replicas forward the envelope
  // verbatim).
  constexpr int kWrites = 8;
  const BatchedWriteCosts single = MeasureBatchedWrites(1, kWrites);
  const BatchedWriteCosts chain3 = MeasureBatchedWrites(3, kWrites);

  EXPECT_EQ(single.encodes, 2u * kWrites);
  EXPECT_EQ(chain3.encodes, 2u * kWrites);
  EXPECT_EQ(single.deep_copies, chain3.deep_copies)
      << "forwarding a batch through extra replicas must not copy bytes";
}

// --- renew-wedge regression (the headline bugfix) ---------------------------

TEST(BatchingTest, DroppedRenewDoesNotWedgeTheFlow) {
  ReadApp app;
  core::RedPlaneConfig cfg;
  // The renew window opens 4 ms before expiry and the renew times out after
  // 500 µs, so the un-wedge retry (at the next 1 ms-paced read) lands well
  // before the lease lapses.
  cfg.lease_period = Milliseconds(8);
  cfg.renew_interval = Milliseconds(4);
  cfg.request_timeout = Microseconds(500);
  BatchHarness h(app, {.rp_cfg = cfg});

  // Drop exactly the first kLeaseRenewOnly request on its way to the store.
  bool dropped_one = false;
  h.drop_pred = [&dropped_one, &h](const net::Packet& pkt) {
    if (dropped_one || !pkt.ip.has_value() ||
        pkt.ip->dst != h.replicas[0]->ip()) {
      return false;
    }
    auto msg = core::MsgView::Parse(pkt.payload);
    if (msg.has_value() && msg->type() == core::MsgType::kLeaseRenewOnly) {
      dropped_one = true;
      return true;
    }
    return false;
  };

  // Steady reads across many lease periods.
  h.SendPaced(40, Milliseconds(1));
  h.sim.Run();

  EXPECT_TRUE(dropped_one) << "scenario never exercised the drop";
  EXPECT_EQ(h.delivered, 40);
  // The wedge: before the fix the lost renew pinned renew_in_flight, no
  // further renewals went out, the lease silently expired, and the next
  // packet re-Inited the flow.  Fixed: the switch times the renew out,
  // retries, and the flow never re-Inits.
  EXPECT_DOUBLE_EQ(h.SwitchStat("inits_sent"), 1.0);
  EXPECT_GE(h.SwitchStat("renew_timeouts"), 1.0);
  EXPECT_GE(h.SwitchStat("renewals_sent"), 2.0);
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  const core::FlowRef entry = h.rp->flow_table().Find(key);
  ASSERT_TRUE(entry);
  EXPECT_TRUE(entry.LeaseActive(h.sim.Now()));
}

// --- retransmit scan idle-stop regression -----------------------------------

TEST(BatchingTest, RetxScanStopsWhenGiveUpDrainsTheTable) {
  WriteApp app;
  core::RedPlaneConfig cfg;
  cfg.lease_period = Seconds(2);
  cfg.renew_interval = Seconds(1);
  cfg.request_timeout = Microseconds(200);
  cfg.retx_scan_interval = Microseconds(50);
  cfg.max_retransmissions = 3;
  BatchHarness h(app, {.rp_cfg = cfg});
  h.SendBurst(1);
  h.sim.Run();
  ASSERT_EQ(h.delivered, 1);

  // Cut the store off: the next write retransmits, then gives up, draining
  // the mirror table inside one scan invocation.
  h.drop_pred = [&h](const net::Packet& pkt) {
    return pkt.ip.has_value() && pkt.ip->dst == h.replicas[0]->ip();
  };
  h.SendBurst(1);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(5));  // >> give-up horizon

  EXPECT_GE(h.SwitchStat("retx_give_ups"), 1.0);
  EXPECT_EQ(h.sw->mirror().NumEntries(), 0u);
  // The scan must have stopped with the table: an idle switch schedules
  // nothing.  (Before the fix it rescheduled itself forever, leaving one
  // pending no-op timer event per scan interval.)
  EXPECT_EQ(h.sim.PendingEvents(), 0u);
}

// --- audit see-through ------------------------------------------------------

TEST(BatchingTest, ArmedAuditorStaysSilentThroughEnvelopes) {
  WriteApp app;
  BatchHarness h(app,
                 {.chain_size = 3, .rp_cfg = BatchedConfig(),
                  .arm_audit = true});
  h.SendBurst(1);
  h.sim.Run();
  for (int round = 0; round < 5; ++round) {
    h.SendBurst(6);
    h.sim.Run();
  }
  EXPECT_EQ(h.delivered, 31);
  ASSERT_GE(h.SwitchStat("batch_envelopes"), 1.0);
  EXPECT_EQ(h.auditor.violations().size(), 0u)
      << h.auditor.violations()[0].detail;
}

TEST(BatchingTest, EarlyChainAckStillCaughtThroughEnvelopes) {
  // The chain-commit oracle must see through the envelope: a mutated head
  // that acks batched writes before chain-wide commit is still flagged.
  WriteApp app;
  BatchHarness h(app, {.chain_size = 3,
                       .rp_cfg = BatchedConfig(),
                       .head_mutations = {.early_chain_ack = true},
                       .arm_audit = true});
  h.SendBurst(1);
  h.sim.Run();
  h.SendBurst(6);
  h.sim.Run();
  ASSERT_GE(h.SwitchStat("batch_envelopes"), 1.0);
  EXPECT_GE(h.auditor.ViolationCount("chain_commit"), 1u);
  EXPECT_EQ(h.auditor.ViolationCount("chain_commit"),
            h.auditor.violations().size());
}

}  // namespace
}  // namespace redplane
