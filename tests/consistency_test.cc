// Consistency-mode spectrum tests (DESIGN.md §14).
//
// Covers the pluggable ConsistencyPolicy layer end to end:
//  * policy resolution from StateTraits (and the safe fallback when an app
//    elects mergeable mode without declaring a join),
//  * the offline per-mode oracles (bounded staleness, merge convergence),
//  * the A/B pin: selecting single-owner explicitly produces byte-identical
//    traces to the default path — the policy layer must not perturb the
//    paper's protocol,
//  * replicated-read end to end: reads served locally within the staleness
//    bound while writes are in flight, replica subscription at grant, and
//    store pushes keeping a standby switch's copy warm,
//  * mergeable end to end: zero-RTT writes on two switches concurrently,
//    with the store converging to the join of both contributions,
//  * the mode-aware monitors on live traffic: clean runs silent, the
//    stale-read mutation caught by bounded_staleness, the overwrite
//    mutation caught by merge_convergence.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/counter.h"
#include "apps/kv_store.h"
#include "audit/auditor.h"
#include "common/rng.h"
#include "core/consistency.h"
#include "core/redplane_switch.h"
#include "modelcheck/linearizability.h"
#include "net/codec.h"
#include "obs/tracer.h"
#include "sim/host.h"
#include "sim/network.h"
#include "statestore/server.h"

namespace redplane {
namespace {

using core::ConsistencyMode;
using core::ConsistencyPolicy;
using core::StateTraits;

/// The event stream armed with the standard auditor subscribed (the
/// tracer uninstalls itself from the global slot on destruction).
struct AuditedStream {
  explicit AuditedStream(sim::Simulator& sim) {
    tracer.SetClock([&sim] { return sim.Now(); });
    tracer.SetEnabled(true);
    obs::SetGlobalTracer(&tracer);
    auditor.ArmStandardMonitors();
    tracer.Subscribe(auditor);
  }
  obs::Tracer tracer;
  audit::Auditor auditor;
};

constexpr net::Ipv4Addr kSrcIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kDstIp(192, 168, 10, 1);
constexpr net::Ipv4Addr kSw1Ip(172, 16, 0, 1);
constexpr net::Ipv4Addr kSw2Ip(172, 16, 0, 2);
constexpr net::Ipv4Addr kStoreIp(172, 16, 1, 1);

// ------------------------------------------------ policy resolution ------

TEST(ConsistencyPolicyTest, DefaultTraitsResolveToSingleOwner) {
  auto policy = ConsistencyPolicy::Make(StateTraits{});
  EXPECT_EQ(policy->mode(), ConsistencyMode::kSingleOwner);
  EXPECT_TRUE(policy->LeaseRequired());
  EXPECT_FALSE(policy->AllowLocalRead(0));
}

TEST(ConsistencyPolicyTest, ReplicatedReadAllowsReadsWithinBound) {
  StateTraits traits;
  traits.mode = ConsistencyMode::kReplicatedRead;
  traits.staleness_bound = Microseconds(500);
  auto policy = ConsistencyPolicy::Make(traits);
  EXPECT_EQ(policy->mode(), ConsistencyMode::kReplicatedRead);
  EXPECT_TRUE(policy->LeaseRequired());  // writes stay lease-serialized
  EXPECT_TRUE(policy->AllowLocalRead(Microseconds(499)));
  EXPECT_TRUE(policy->AllowLocalRead(Microseconds(500)));
  EXPECT_FALSE(policy->AllowLocalRead(Microseconds(501)));
}

TEST(ConsistencyPolicyTest, MergeableUsesDeclaredJoin) {
  StateTraits traits;
  traits.mode = ConsistencyMode::kMergeable;
  traits.merge = core::MergeMaxU64;
  traits.measure = core::MeasureU64;
  traits.merge_interval = Microseconds(50);
  auto policy = ConsistencyPolicy::Make(traits);
  EXPECT_EQ(policy->mode(), ConsistencyMode::kMergeable);
  EXPECT_FALSE(policy->LeaseRequired());
  EXPECT_EQ(policy->merge_interval(), Microseconds(50));
  // States use the apps' native encoding (core::SetState).
  std::vector<std::byte> into, delta;
  core::SetState(into, std::uint64_t{3});
  core::SetState(delta, std::uint64_t{7});
  policy->Merge(into, std::span<const std::byte>(delta));
  EXPECT_EQ(core::StateAs<std::uint64_t>(into).value_or(0), 7u);
  EXPECT_EQ(policy->Measure(std::span<const std::byte>(into)), 7.0);
}

TEST(ConsistencyPolicyTest, MergeableWithoutJoinFallsBackToSingleOwner) {
  // Electing multi-writer mode without saying how writes merge would lose
  // updates silently; the factory refuses and keeps the strong mode.
  StateTraits traits;
  traits.mode = ConsistencyMode::kMergeable;
  auto policy = ConsistencyPolicy::Make(traits);
  EXPECT_EQ(policy->mode(), ConsistencyMode::kSingleOwner);
  EXPECT_TRUE(policy->LeaseRequired());
}

// ------------------------------------------------ offline oracles --------

TEST(ConsistencyOracleTest, BoundedStalenessAcceptsWithinBoundAndNoContract) {
  std::vector<modelcheck::StalenessSample> samples = {
      {1, 900, 1000},
      {1, 1000, 1000},      // exactly at the bound is legal
      {2, 5'000'000, 0},    // bound 0: no contract (mergeable-style read)
  };
  EXPECT_TRUE(modelcheck::CheckBoundedStaleness(samples));
}

TEST(ConsistencyOracleTest, BoundedStalenessRejectsBeyondBound) {
  std::vector<modelcheck::StalenessSample> samples = {{7, 1500, 1000}};
  std::string why;
  EXPECT_FALSE(modelcheck::CheckBoundedStaleness(samples, &why));
  EXPECT_NE(why.find("1500"), std::string::npos);
}

TEST(ConsistencyOracleTest, MergeConvergenceAcceptsMonotoneMeasures) {
  std::vector<modelcheck::MergeSample> samples = {
      {1, 42, 1.0}, {1, 42, 3.0}, {2, 42, 2.0}, {1, 42, 3.0}, {2, 42, 9.0},
  };
  EXPECT_TRUE(modelcheck::CheckMergeConvergence(samples));
}

TEST(ConsistencyOracleTest, MergeConvergenceRejectsLatticeDescent) {
  std::vector<modelcheck::MergeSample> samples = {
      {1, 42, 5.0}, {1, 42, 3.0},  // an overwrite erased a contribution
  };
  std::string why;
  EXPECT_FALSE(modelcheck::CheckMergeConvergence(samples, &why));
  EXPECT_NE(why.find("lattice"), std::string::npos);
}

// Bloom filters are cell arrays under the same OR-lattice the spreader
// bitmaps use. No app declares them, so core::MergeOrBytes is checked
// directly against raw bit bytes (property_test covers the apps' joins).
std::vector<std::byte> RandomCells(Rng& rng) {
  std::vector<std::byte> cells(4 + rng.NextBounded(29));
  for (std::byte& b : cells) b = static_cast<std::byte>(rng.NextBounded(256));
  return cells;
}

std::vector<std::byte> OrJoin(std::vector<std::byte> a,
                              const std::vector<std::byte>& b) {
  core::MergeOrBytes(a, std::span<const std::byte>(b.data(), b.size()));
  return a;
}

TEST(BloomMergeLaws, CommutativeAssociativeIdempotent) {
  Rng rng(0x9d1a0005);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = RandomCells(rng);
    const auto b = RandomCells(rng);
    const auto c = RandomCells(rng);
    EXPECT_EQ(OrJoin(a, b), OrJoin(b, a)) << "trial " << trial;
    EXPECT_EQ(OrJoin(OrJoin(a, b), c), OrJoin(a, OrJoin(b, c)))
        << "trial " << trial;
    EXPECT_EQ(OrJoin(a, a), a) << "trial " << trial;
    EXPECT_GE(core::MeasurePopcount(OrJoin(a, b)), core::MeasurePopcount(a))
        << "trial " << trial;
  }
}

TEST(BloomMergeLaws, ReplayAfterFailoverIsIdempotent) {
  // A resynced store replica may fold deltas a second time, in any order.
  Rng rng(0xfa110005);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::vector<std::byte>> deltas;
    for (int i = 0; i < 8; ++i) deltas.push_back(RandomCells(rng));
    std::vector<std::byte> merged;
    for (const auto& d : deltas) merged = OrJoin(merged, d);
    std::vector<std::byte> replayed = merged;
    const std::size_t replay = 1 + rng.NextBounded(deltas.size());
    for (std::size_t i = 0; i < replay; ++i) {
      replayed = OrJoin(replayed, deltas[rng.NextBounded(deltas.size())]);
    }
    EXPECT_EQ(replayed, merged) << "trial " << trial;
  }
}

// ------------------------------------------------ shared harness ---------

/// Two switches, one store, src/dst hosts, star-wired through a hub (the
/// audit_test topology, without loss).
struct Harness {
  Harness(core::SwitchApp& app, core::RedPlaneConfig rp_cfg,
          store::StoreConfig store_cfg, std::uint64_t seed = 7) {
    net::ResetPacketIds();
    net = std::make_unique<sim::Network>(sim, seed);
    src = net->AddNode<sim::HostNode>("src", kSrcIp);
    dst = net->AddNode<sim::HostNode>("dst", kDstIp);
    dp::SwitchConfig c1, c2;
    c1.switch_ip = kSw1Ip;
    c2.switch_ip = kSw2Ip;
    sw1 = net->AddNode<dp::SwitchNode>("sw1", c1);
    sw2 = net->AddNode<dp::SwitchNode>("sw2", c2);
    hub = net->AddNode<sim::HostNode>("hub", net::Ipv4Addr(9, 9, 9, 9));
    store = net->AddNode<store::StateStoreServer>("store0", kStoreIp,
                                                  store_cfg);
    net->Connect(src, 0, sw1, 0);
    net->Connect(src, 1, sw2, 0);
    net->Connect(dst, 0, sw1, 1);
    net->Connect(dst, 1, sw2, 1);
    net->Connect(sw1, 2, hub, 0);
    net->Connect(sw2, 2, hub, 1);
    net->Connect(store, 0, hub, 2);
    hub->SetHandler([this](sim::HostNode& self, net::Packet pkt) {
      if (!pkt.ip.has_value()) return;
      if (pkt.ip->dst == kStoreIp) self.SendTo(2, std::move(pkt));
      else if (pkt.ip->dst == kSw1Ip) self.SendTo(0, std::move(pkt));
      else if (pkt.ip->dst == kSw2Ip) self.SendTo(1, std::move(pkt));
    });
    auto forwarder = [](const net::Packet& pkt,
                        PortId) -> std::optional<PortId> {
      if (!pkt.ip.has_value()) return std::nullopt;
      if (pkt.ip->dst == kSrcIp) return PortId{0};
      if (pkt.ip->dst == kDstIp) return PortId{1};
      return PortId{2};
    };
    sw1->SetForwarder(forwarder);
    sw2->SetForwarder(forwarder);
    auto shard = [](const net::PartitionKey&) { return kStoreIp; };
    rp1 = std::make_unique<core::RedPlaneSwitch>(*sw1, app, shard, rp_cfg);
    rp2 = std::make_unique<core::RedPlaneSwitch>(*sw2, app, shard, rp_cfg);
    sw1->SetPipeline(rp1.get());
    sw2->SetPipeline(rp2.get());
    dst->SetHandler([this](sim::HostNode&, net::Packet pkt) {
      ++delivered;
      last_payload = pkt.payload.ToVector();
    });
  }

  void Run(SimDuration d) { sim.RunUntil(sim.Now() + d); }

  sim::Simulator sim;
  std::unique_ptr<sim::Network> net;
  sim::HostNode* src = nullptr;
  sim::HostNode* dst = nullptr;
  sim::HostNode* hub = nullptr;
  dp::SwitchNode* sw1 = nullptr;
  dp::SwitchNode* sw2 = nullptr;
  store::StateStoreServer* store = nullptr;
  std::unique_ptr<core::RedPlaneSwitch> rp1, rp2;
  int delivered = 0;
  std::vector<std::byte> last_payload;
};

net::FlowKey TheFlow() {
  return {kSrcIp, kDstIp, 1000, 80, net::IpProto::kUdp};
}

// ------------------------------------------------ A/B bit-identity -------

/// Runs the same single-owner counter scenario and returns the full trace
/// export.  `explicit_override` pins the mode instead of relying on the
/// app's default resolution.
std::string RunSingleOwnerScenario(bool explicit_override) {
  apps::SyncCounterApp app;
  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = Milliseconds(5);
  rp_cfg.renew_interval = Milliseconds(2);
  if (explicit_override) {
    rp_cfg.mode_override = ConsistencyMode::kSingleOwner;
  }
  store::StoreConfig store_cfg;
  store_cfg.lease_period = Milliseconds(5);

  obs::Tracer tracer;
  Harness h(app, rp_cfg, store_cfg);
  tracer.SetClock([&h] { return h.sim.Now(); });
  tracer.SetEnabled(true);
  obs::Tracer* prev = obs::SetGlobalTracer(&tracer);

  for (int i = 0; i < 20; ++i) {
    // Alternate switches so grants, migrations, and buffering all appear
    // in the trace being pinned.
    h.src->SendTo(i % 3 == 2 ? 1 : 0, net::MakeUdpPacket(TheFlow(), 20));
    h.Run(Microseconds(300));
  }
  h.sim.Run();
  obs::SetGlobalTracer(prev);
  return tracer.ChromeTraceJson();
}

TEST(ConsistencyAbTest, SingleOwnerTracesBitIdenticalUnderExplicitSelection) {
  // The refactor's pin: routing the legacy protocol through the policy
  // layer must not change a single emitted event.  Default resolution (the
  // app declares single-owner) and explicit selection run the identical
  // deterministic scenario; their trace exports must match byte for byte.
  const std::string default_trace = RunSingleOwnerScenario(false);
  const std::string selected_trace = RunSingleOwnerScenario(true);
  EXPECT_GT(default_trace.size(), 1000u) << "scenario produced no trace";
  EXPECT_EQ(default_trace, selected_trace);
}

// ------------------------------------------------ replicated-read --------

net::FlowKey KvFlow(std::uint16_t src_port = 3333) {
  return {kSrcIp, kDstIp, src_port, apps::kKvUdpPort, net::IpProto::kUdp};
}

TEST(ReplicatedReadTest, ReadsServedLocallyWhileWritesInFlight) {
  apps::KvStoreApp app;  // declares replicated-read with the default bound
  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = Milliseconds(5);
  store::StoreConfig store_cfg;
  store_cfg.lease_period = Milliseconds(5);
  Harness h(app, rp_cfg, store_cfg);
  // KV replies flow back toward the client, so count them at src.
  int replies = 0;
  std::vector<std::byte> last_reply;
  h.src->SetHandler([&](sim::HostNode&, net::Packet pkt) {
    ++replies;
    last_reply = pkt.payload.ToVector();
  });

  ASSERT_EQ(h.rp1->consistency_mode(), ConsistencyMode::kReplicatedRead);

  // Warm up: one write acquires the lease and installs state.
  h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kUpdate, 7, 1}));
  h.Run(Milliseconds(1));
  const int after_warmup = replies;

  // A write immediately followed by reads: the write's replication is in
  // flight, so single-owner would loop the reads through the store.  The
  // replicated-read policy serves them locally (staleness is a few µs,
  // far under the 1 ms default bound) and releases them at once.
  h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kUpdate, 7, 2}));
  h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kRead, 7, 0}));
  h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kRead, 7, 0}));
  h.Run(Microseconds(50));  // less than one switch->store round trip
  EXPECT_GE(h.rp1->stats().Get("local_reads_served"), 2.0);
  EXPECT_GE(replies, after_warmup + 2);  // reads did not wait for the ack

  h.sim.Run();
  // The local reads returned the freshest local value (the new write).
  net::ByteReader r(last_reply);
  r.U8();
  EXPECT_EQ(r.U64(), 7u);
  EXPECT_EQ(r.U64(), 2u);
}

TEST(ReplicatedReadTest, GrantRegistersSubscriberAndPushesOnWrites) {
  apps::KvStoreApp app;
  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = Milliseconds(2);
  rp_cfg.renew_interval = Milliseconds(1);
  store::StoreConfig store_cfg;
  store_cfg.lease_period = Milliseconds(2);
  Harness h(app, rp_cfg, store_cfg);

  // sw2 owns the flow first and subscribes at grant install.
  h.src->SendTo(1, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kUpdate, 9, 5}));
  h.Run(Milliseconds(1));
  const auto* rec = h.store->Find(*app.KeyOf(
      apps::MakeKvPacket(KvFlow(), {apps::KvOp::kRead, 9, 0})));
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->subscribers.size(), 1u);
  EXPECT_EQ(rec->subscribers[0], kSw2Ip);

  // Let sw2's lease lapse, then move the writer to sw1.  Each write sw1
  // replicates is pushed to the subscribed sw2, keeping its copy warm.
  h.Run(Milliseconds(3));
  h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kUpdate, 9, 6}));
  h.sim.Run();
  EXPECT_GE(h.rp2->stats().Get("replica_pushes_rx"), 1.0);
  const auto entry = h.rp2->flow_table().Find(*app.KeyOf(
      apps::MakeKvPacket(KvFlow(), {apps::KvOp::kRead, 9, 0})));
  ASSERT_TRUE(entry);
  const auto kv = core::StateAs<std::uint64_t>(entry.state());
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(*kv, 6u);
}

// ------------------------------------------------ mergeable --------------

TEST(MergeableTest, ZeroRttWritesOnTwoSwitchesConvergeAtStore) {
  apps::SyncCounterApp app;
  core::RedPlaneConfig rp_cfg;
  rp_cfg.mode_override = ConsistencyMode::kMergeable;
  rp_cfg.merge_interval = Microseconds(100);
  store::StoreConfig store_cfg;
  store_cfg.merger = app.Traits().merge;
  store_cfg.measure = app.Traits().measure;
  Harness h(app, rp_cfg, store_cfg);

  AuditedStream stream(h.sim);
  const audit::Auditor& auditor = stream.auditor;

  ASSERT_EQ(h.rp1->consistency_mode(), ConsistencyMode::kMergeable);

  // Both switches carry the same flow concurrently — illegal under a lease,
  // the design point here.  Every packet must release without any store
  // round trip.
  for (int i = 0; i < 10; ++i) {
    h.src->SendTo(i % 2, net::MakeUdpPacket(TheFlow(), 20));
    h.Run(Microseconds(10));
  }
  // All 10 outputs released while the first merge tick (100 µs) is still
  // pending: zero-RTT confirmed by construction.
  EXPECT_EQ(h.delivered, 10);
  h.sim.Run();

  // Both switches pushed deltas; the store converged to the join.  Each
  // switch counted its own 5 packets, so the max-join holds 5 — the
  // documented accuracy trade of mergeable counters under concurrent
  // writers (a per-switch-keyed counter would keep both).
  EXPECT_GE(h.rp1->stats().Get("merge_deltas_sent"), 1.0);
  EXPECT_GE(h.rp2->stats().Get("merge_deltas_sent"), 1.0);
  const auto* rec = h.store->Find(net::PartitionKey::OfFlow(TheFlow()));
  ASSERT_NE(rec, nullptr);
  std::uint64_t stored = 0;
  std::memcpy(&stored, rec->state.data(),
              std::min<std::size_t>(8, rec->state.size()));
  EXPECT_EQ(stored, 5u);

  // Clean mergeable traffic trips no monitor: the admission events exempted
  // the key from single-owner, and the merge measures only went up.
  EXPECT_EQ(auditor.violations().size(), 0u);
}

TEST(MergeableTest, OverwriteMutationTripsMergeConvergenceMonitor) {
  apps::SyncCounterApp app;
  core::RedPlaneConfig rp_cfg;
  rp_cfg.mode_override = ConsistencyMode::kMergeable;
  rp_cfg.merge_interval = Microseconds(100);
  store::StoreConfig store_cfg;
  store_cfg.merger = app.Traits().merge;
  store_cfg.measure = app.Traits().measure;
  store_cfg.mutations.overwrite_instead_of_merge = true;
  Harness h(app, rp_cfg, store_cfg);

  AuditedStream stream(h.sim);
  const audit::Auditor& auditor = stream.auditor;

  // Imbalanced concurrent writers: sw1 counts fast, sw2 slowly.  Under the
  // mutation, sw2's smaller delta overwrites sw1's larger contribution at
  // the store, so the merged measure decreases — merge_convergence fires.
  for (int i = 0; i < 30; ++i) {
    h.src->SendTo(i % 5 == 4 ? 1 : 0, net::MakeUdpPacket(TheFlow(), 20));
    h.Run(Microseconds(40));
  }
  h.sim.Run();
  EXPECT_GE(auditor.ViolationCount("merge_convergence"), 1u);
}

// ------------------------------------------------ staleness mutation -----

TEST(ReplicatedReadTest, StaleReadMutationTripsBoundedStalenessMonitor) {
  apps::KvStoreApp app;
  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = Milliseconds(5);
  rp_cfg.staleness_bound = Microseconds(50);  // tight, honest contract
  rp_cfg.mutation_stale_reads = true;         // ...which the switch ignores
  rp_cfg.request_timeout = Milliseconds(2);
  store::StoreConfig store_cfg;
  store_cfg.lease_period = Milliseconds(5);
  // Slow the store so write acks lag and local reads grow stale.
  store_cfg.service_time = Microseconds(400);
  Harness h(app, rp_cfg, store_cfg);

  AuditedStream stream(h.sim);
  const audit::Auditor& auditor = stream.auditor;

  h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kUpdate, 1, 1}));
  h.Run(Milliseconds(1));
  // Pile writes so acks stay outstanding, then keep reading: staleness of
  // the local serve climbs past 50 µs while the mutation serves anyway.
  for (int i = 0; i < 8; ++i) {
    h.src->SendTo(0, apps::MakeKvPacket(
                         KvFlow(), {apps::KvOp::kUpdate, 1, 2 + (unsigned)i}));
  }
  for (int i = 0; i < 6; ++i) {
    h.Run(Microseconds(100));
    h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kRead, 1, 0}));
  }
  h.sim.Run();
  EXPECT_GE(auditor.ViolationCount("bounded_staleness"), 1u);
  // The violation is mode-specific: nothing else fired.
  EXPECT_EQ(auditor.ViolationCount("bounded_staleness"),
            auditor.violations().size());
}

}  // namespace
}  // namespace redplane
