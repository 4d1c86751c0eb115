// Chain reconfiguration tests: the store keeps serving through replica
// failures (head, middle, tail), and recovered replicas rejoin as tails
// after a resync.
#include <gtest/gtest.h>

#include "apps/counter.h"
#include "statestore/chain_manager.h"
#include "tests/rig.h"

namespace redplane::store {
namespace {

/// One RedPlane switch (seed 31) against a chain of 3 that a ChainManager
/// reconfigures; the switch follows the manager's current head.
struct ChainHarness : rig::WithApp<apps::SyncCounterApp>, rig::Rig {
  ChainHarness()
      : Rig(app, {.seed = 31,
                  .switches = 1,
                  .stores = 3,
                  .rp = Config(),
                  .shard_for = [this](const net::PartitionKey&) {
                    return manager->HeadIp();
                  }}),
        manager(std::make_unique<ChainManager>(
            sim, stores,
            ChainManagerConfig{.probe_interval = Milliseconds(2),
                               .resync_delay = Milliseconds(1)})) {
    manager->Start();
  }

  static core::RedPlaneConfig Config() {
    core::RedPlaneConfig rp_cfg;
    rp_cfg.lease_period = Milliseconds(20);
    rp_cfg.renew_interval = Milliseconds(10);
    rp_cfg.request_timeout = Microseconds(300);
    return rp_cfg;
  }

  /// Sends `n` packets paced 1 ms apart.
  void SendPaced(int n) {
    for (int i = 0; i < n; ++i) {
      src->Send(net::MakeUdpPacket(rig::UdpFlow(), 20));
      sim.RunUntil(sim.Now() + Milliseconds(1));
    }
  }

  std::uint64_t StoreSeqAtHead() const {
    const auto* rec = manager->ActiveChain().front()->Find(
        net::PartitionKey::OfFlow(rig::UdpFlow()));
    return rec == nullptr ? 0 : rec->last_applied_seq;
  }

  std::unique_ptr<ChainManager> manager;
};

TEST(ChainManagerTest, InitialWiringHeadMiddleTail) {
  ChainHarness h;
  EXPECT_EQ(h.manager->HeadIp(), h.stores[0]->ip());
  EXPECT_FALSE(h.stores[0]->IsTail());
  EXPECT_FALSE(h.stores[1]->IsTail());
  EXPECT_TRUE(h.stores[2]->IsTail());
}

TEST(ChainManagerTest, TailFailureSplicedAndServiceContinues) {
  ChainHarness h;
  h.SendPaced(5);
  EXPECT_EQ(h.delivered, 5);
  h.stores[2]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  EXPECT_EQ(h.manager->ActiveChain().size(), 2u);
  EXPECT_TRUE(h.stores[1]->IsTail());
  h.SendPaced(5);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  EXPECT_EQ(h.delivered, 10);
  EXPECT_EQ(h.StoreSeqAtHead(), 10u);
}

TEST(ChainManagerTest, MiddleFailureResyncsTail) {
  ChainHarness h;
  h.SendPaced(5);
  h.stores[1]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  ASSERT_EQ(h.manager->ActiveChain().size(), 2u);
  EXPECT_EQ(h.manager->ActiveChain()[1], h.stores[2]);
  h.SendPaced(5);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  EXPECT_EQ(h.delivered, 10);
  // Both survivors agree on the flow.
  const auto key = net::PartitionKey::OfFlow(rig::UdpFlow());
  EXPECT_EQ(h.stores[0]->Find(key)->last_applied_seq, 10u);
  EXPECT_EQ(h.stores[2]->Find(key)->last_applied_seq, 10u);
}

TEST(ChainManagerTest, HeadFailurePromotesSuccessor) {
  ChainHarness h;
  h.SendPaced(5);
  h.stores[0]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  EXPECT_EQ(h.manager->HeadIp(), h.stores[1]->ip());
  // The switch's dynamic shard lookup sends new requests to the new head;
  // the counter continues from the replicated value.
  h.SendPaced(5);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(100));
  EXPECT_EQ(h.delivered, 10);
  EXPECT_EQ(h.StoreSeqAtHead(), 10u);
}

TEST(ChainManagerTest, RecoveredReplicaRejoinsAsTailWithState) {
  ChainHarness h;
  h.SendPaced(5);
  h.stores[2]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  EXPECT_EQ(h.manager->ActiveChain().size(), 2u);
  h.SendPaced(3);

  h.stores[2]->SetUp(true);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(20));
  ASSERT_EQ(h.manager->ActiveChain().size(), 3u);
  EXPECT_EQ(h.manager->ActiveChain().back(), h.stores[2]);
  EXPECT_TRUE(h.stores[2]->IsTail());
  // The rejoined tail was resynced: it already holds the flow.
  const auto key = net::PartitionKey::OfFlow(rig::UdpFlow());
  ASSERT_NE(h.stores[2]->Find(key), nullptr);
  EXPECT_GE(h.stores[2]->Find(key)->last_applied_seq, 8u);

  // And participates in new commits.
  h.SendPaced(2);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  EXPECT_EQ(h.stores[2]->Find(key)->last_applied_seq, 10u);
}

TEST(ChainManagerTest, ResyncDoesNotMutateSourceReplica) {
  ChainHarness h;
  h.SendPaced(5);

  // ExportFlows is a cheap const view, not a copy: same address every call.
  const auto* export1 = &h.stores[0]->ExportFlows();
  const auto* export2 = &h.stores[0]->ExportFlows();
  EXPECT_EQ(export1, export2);

  // Snapshot the head's records before a splice-triggered resync.
  const auto before = *export1;  // deliberate deep copy for comparison
  ASSERT_FALSE(before.empty());

  h.stores[1]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));  // probe + resync fire
  ASSERT_EQ(h.manager->ActiveChain().size(), 2u);

  // The resync copied state into the tail without disturbing the source.
  const auto& after = h.stores[0]->ExportFlows();
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [key, rec] : before) {
    const auto it = after.find(key);
    ASSERT_NE(it, after.end());
    EXPECT_EQ(it->second.last_applied_seq, rec.last_applied_seq);
    EXPECT_EQ(it->second.state, rec.state);
  }
  // The target really did receive the records.
  const auto key = net::PartitionKey::OfFlow(rig::UdpFlow());
  ASSERT_NE(h.stores[2]->Find(key), nullptr);
  EXPECT_EQ(h.stores[2]->Find(key)->last_applied_seq,
            before.at(key).last_applied_seq);
}

TEST(ChainManagerTest, SurvivesSequentialFailuresDownToOne) {
  ChainHarness h;
  ChainManagerConfig cfg;
  h.SendPaced(3);
  h.stores[2]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  h.stores[0]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  ASSERT_EQ(h.manager->ActiveChain().size(), 1u);
  EXPECT_EQ(h.manager->ActiveChain()[0], h.stores[1]);
  EXPECT_TRUE(h.stores[1]->IsTail());
  h.SendPaced(3);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(100));
  EXPECT_EQ(h.delivered, 6);
  EXPECT_EQ(h.StoreSeqAtHead(), 6u);
}

TEST(ChainManagerTest, WritesDuringReconfigurationEventuallyDurable) {
  ChainHarness h;
  // Fail the head mid-burst: requests in flight to the old head are lost;
  // retransmission redirects them to the new head.
  for (int i = 0; i < 3; ++i) {
    h.src->Send(net::MakeUdpPacket(rig::UdpFlow(), 20));
    h.sim.RunUntil(h.sim.Now() + Milliseconds(1));
  }
  h.stores[0]->SetUp(false);
  for (int i = 0; i < 3; ++i) {
    h.src->Send(net::MakeUdpPacket(rig::UdpFlow(), 20));
    h.sim.RunUntil(h.sim.Now() + Milliseconds(1));
  }
  h.sim.RunUntil(h.sim.Now() + Milliseconds(200));
  // All processed writes are durable at the current head; the mirror is
  // drained.
  const auto key = net::PartitionKey::OfFlow(rig::UdpFlow());
  const auto entry = h.rp[0]->flow_table().Find(key);
  ASSERT_TRUE(entry);
  EXPECT_EQ(h.StoreSeqAtHead(), entry.cur_seq());
  EXPECT_EQ(h.sw[0]->mirror().NumEntries(), 0u);
}

}  // namespace
}  // namespace redplane::store
