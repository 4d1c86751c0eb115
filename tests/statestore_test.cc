#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "core/protocol.h"
#include "obs/tracer.h"
#include "sim/host.h"
#include "sim/network.h"
#include "statestore/partition.h"
#include "statestore/pools.h"
#include "statestore/server.h"

namespace redplane::store {
namespace {

using core::AckKind;
using core::Msg;
using core::MsgType;

net::PartitionKey Key(int n) { return net::PartitionKey::OfObject(n); }

/// Harness: two pseudo-switch hosts wired to a chain of store servers
/// through a star hub that routes by destination IP; records every ack.
class StoreHarness {
 public:
  explicit StoreHarness(int chain_size, StoreConfig config = {}) {
    net_ = std::make_unique<sim::Network>(sim_, 5);
    hub_ = net_->AddNode<sim::HostNode>("hub", net::Ipv4Addr(9, 9, 9, 9));
    hub_->SetHandler([this](sim::HostNode& self, net::Packet pkt) {
      for (std::size_t port = 0; port < self.NumPorts(); ++port) {
        sim::Link* link = self.LinkAt(static_cast<PortId>(port));
        if (link == nullptr) continue;
        sim::Node* other = link->endpoint_a() == &self ? link->endpoint_b()
                                                       : link->endpoint_a();
        net::Ipv4Addr other_ip;
        if (auto* host = dynamic_cast<sim::HostNode*>(other)) {
          other_ip = host->ip();
        } else if (auto* server = dynamic_cast<StateStoreServer*>(other)) {
          other_ip = server->ip();
        } else {
          continue;
        }
        if (pkt.ip.has_value() && pkt.ip->dst == other_ip) {
          self.SendTo(static_cast<PortId>(port), std::move(pkt));
          return;
        }
      }
    });

    for (int i = 0; i < 2; ++i) {
      auto* sw = net_->AddNode<sim::HostNode>(
          "sw" + std::to_string(i), net::Ipv4Addr(172, 16, 0, 1 + i));
      sw->SetHandler([this, i](sim::HostNode&, net::Packet pkt) {
        if (!core::IsProtocolPacket(pkt)) return;
        auto msg = core::DecodeFromPacket(pkt);
        if (msg.has_value()) acks_[i].push_back(std::move(*msg));
      });
      net_->Connect(sw, 0, hub_, static_cast<PortId>(i));
      switches_[i] = sw;
    }

    for (int i = 0; i < chain_size; ++i) {
      auto* server = net_->AddNode<StateStoreServer>(
          "store" + std::to_string(i), net::Ipv4Addr(172, 16, 1, 1 + i),
          config);
      net_->Connect(server, 0, hub_, static_cast<PortId>(2 + i));
      servers_.push_back(server);
    }
    for (int i = 0; i < chain_size; ++i) {
      servers_[i]->SetIsHead(i == 0);
      if (i + 1 < chain_size) {
        servers_[i]->SetChainSuccessor(servers_[i + 1]->ip());
      }
    }
  }

  void Send(int sw, Msg msg) {
    msg.reply_to = switches_[sw]->ip();
    switches_[sw]->Send(core::MakeProtocolPacket(switches_[sw]->ip(),
                                                 servers_[0]->ip(), msg));
  }

  Msg MakeInit(int key) {
    Msg m;
    m.type = MsgType::kLeaseNewReq;
    m.key = Key(key);
    return m;
  }

  Msg MakeWrite(int key, std::uint64_t seq, std::uint8_t value) {
    Msg m;
    m.type = MsgType::kLeaseRenewReq;
    m.key = Key(key);
    m.seq = seq;
    m.state = {std::byte{value}};
    return m;
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  sim::HostNode* hub_;
  std::array<sim::HostNode*, 2> switches_{};
  std::vector<StateStoreServer*> servers_;
  std::vector<Msg> acks_[2];
};

TEST(StateStoreTest, GrantsLeaseToNewFlow) {
  StoreHarness h(1);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  ASSERT_EQ(h.acks_[0].size(), 1u);
  EXPECT_EQ(h.acks_[0][0].ack, AckKind::kLeaseGrantNew);
  const FlowRecord* rec = h.servers_[0]->Find(Key(1));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->owner, h.switches_[0]->ip());
  EXPECT_TRUE(rec->exists);
}

TEST(StateStoreTest, SecondSwitchInitBuffersUntilLeaseLapses) {
  StoreConfig cfg;
  cfg.lease_period = Milliseconds(10);
  StoreHarness h(1, cfg);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  h.Send(1, h.MakeInit(1));
  h.sim_.RunUntil(Milliseconds(5));
  EXPECT_TRUE(h.acks_[1].empty());  // buffered while switch 0 owns
  h.sim_.RunUntil(Milliseconds(20));
  ASSERT_EQ(h.acks_[1].size(), 1u);
  // Flow existed, so the grant carries migration semantics.
  EXPECT_EQ(h.acks_[1][0].ack, AckKind::kLeaseGrantMigrate);
  EXPECT_EQ(h.servers_[0]->Find(Key(1))->owner, h.switches_[1]->ip());
}

TEST(StateStoreTest, MigrationReturnsLatestState) {
  StoreConfig cfg;
  cfg.lease_period = Milliseconds(10);
  StoreHarness h(1, cfg);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0xaa));
  h.Send(0, h.MakeWrite(1, 2, 0xbb));
  h.sim_.Run();
  h.sim_.RunUntil(Milliseconds(30));  // lease lapses
  h.Send(1, h.MakeInit(1));
  h.sim_.Run();
  ASSERT_EQ(h.acks_[1].size(), 1u);
  EXPECT_EQ(h.acks_[1][0].ack, AckKind::kLeaseGrantMigrate);
  EXPECT_EQ(h.acks_[1][0].seq, 2u);
  ASSERT_EQ(h.acks_[1][0].state.size(), 1u);
  EXPECT_EQ(h.acks_[1][0].state[0], std::byte{0xbb});
}

TEST(StateStoreTest, StaleSequenceNumbersDiscarded) {
  StoreHarness h(1);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  // Out-of-order arrival: seq 2 before seq 1 (Fig. 6).
  h.Send(0, h.MakeWrite(1, 2, 0x22));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0x11));
  h.sim_.Run();
  const FlowRecord* rec = h.servers_[0]->Find(Key(1));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->last_applied_seq, 2u);
  EXPECT_EQ(rec->state[0], std::byte{0x22});  // newer value survives
  // Both writes were acked (the stale one so the switch clears its buffer).
  EXPECT_EQ(h.acks_[0].size(), 3u);  // grant + 2 write acks
  EXPECT_DOUBLE_EQ(h.servers_[0]->counters().Get("stale_writes"), 1.0);
}

TEST(StateStoreTest, DuplicateWriteIdempotent) {
  StoreHarness h(1);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0x11));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0x11));  // retransmission
  h.sim_.Run();
  EXPECT_EQ(h.servers_[0]->Find(Key(1))->last_applied_seq, 1u);
  ASSERT_EQ(h.acks_[0].size(), 3u);
  EXPECT_EQ(h.acks_[0][2].seq, 1u);  // duplicate still acked
}

// --- deny paths: each answers one kLeaseDenied ack and emits one
// kStoreDenied event carrying the request's span id ---

/// Arms a tracer on the harness clock for the life of the test.
struct DenyTrace {
  explicit DenyTrace(StoreHarness& h) {
    tracer.SetClock([&h] { return h.sim_.Now(); });
    tracer.SetEnabled(true);
    obs::SetGlobalTracer(&tracer);
  }
  std::vector<obs::TraceRecord> Denied() const {
    std::vector<obs::TraceRecord> out;
    for (const obs::TraceRecord& r : tracer.Records()) {
      if (r.ev == obs::Ev::kStoreDenied) out.push_back(r);
    }
    return out;
  }
  obs::Tracer tracer;  // uninstalls itself on destruction
};

/// Asserts switch `sw` got exactly one ack, a denial carrying `ack_seq`,
/// and the store emitted exactly one kStoreDenied for `key` with `span`
/// and `event_seq`.
void ExpectOneDenial(const StoreHarness& h, const DenyTrace& trace, int sw,
                     int key, std::uint64_t span, std::uint64_t ack_seq,
                     std::uint64_t event_seq) {
  ASSERT_EQ(h.acks_[sw].size(), 1u);
  EXPECT_EQ(h.acks_[sw][0].ack, AckKind::kLeaseDenied);
  EXPECT_EQ(h.acks_[sw][0].seq, ack_seq);
  EXPECT_EQ(h.acks_[sw][0].span_id, span);
  const auto denied = trace.Denied();
  ASSERT_EQ(denied.size(), 1u);
  EXPECT_EQ(denied[0].flow, net::HashPartitionKey(Key(key)));
  EXPECT_EQ(denied[0].span, span);
  EXPECT_EQ(denied[0].seq, event_seq);
  EXPECT_DOUBLE_EQ(h.servers_[0]->counters().Get("lease_denied"), 1.0);
}

TEST(StoreDenyTest, FlowTableCapDeniesNewFlow) {
  StoreHarness h(1);
  DenyTrace trace(h);
  h.servers_[0]->SetMaxFlows(1);
  h.Send(1, h.MakeInit(1));
  h.sim_.Run();
  Msg init = h.MakeInit(2);
  init.seq = 9;  // an Init denial reports seq 0 whatever the request carries
  init.span_id = 41;
  h.Send(0, init);
  h.sim_.Run();
  ExpectOneDenial(h, trace, 0, 2, 41, /*ack_seq=*/0, /*event_seq=*/0);
  EXPECT_EQ(h.servers_[0]->Find(Key(2)), nullptr);
}

TEST(StoreDenyTest, FullInitBufferDeniesInit) {
  StoreConfig cfg;
  cfg.max_buffered_inits = 0;
  StoreHarness h(1, cfg);
  DenyTrace trace(h);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0x11));
  h.sim_.Run();
  Msg init = h.MakeInit(1);
  init.seq = 9;
  init.span_id = 42;
  h.Send(1, init);
  h.sim_.Run();
  ExpectOneDenial(h, trace, 1, 1, 42, /*ack_seq=*/1, /*event_seq=*/0);
}

TEST(StateStoreTest, WriteDeniedWhileOtherSwitchHoldsLease) {
  StoreHarness h(1);
  DenyTrace trace(h);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  Msg write = h.MakeWrite(1, 5, 0x55);
  write.span_id = 43;
  h.Send(1, write);
  h.sim_.Run();
  ExpectOneDenial(h, trace, 1, 1, 43, /*ack_seq=*/0, /*event_seq=*/5);
  EXPECT_EQ(h.servers_[0]->Find(Key(1))->last_applied_seq, 0u);
}

TEST(StoreDenyTest, RenewDeniedWhileOtherSwitchHoldsLease) {
  StoreHarness h(1);
  DenyTrace trace(h);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0x11));
  h.sim_.Run();
  Msg renew;
  renew.type = MsgType::kLeaseRenewOnly;
  renew.key = Key(1);
  renew.seq = 7;
  renew.span_id = 44;
  h.Send(1, renew);
  h.sim_.Run();
  ExpectOneDenial(h, trace, 1, 1, 44, /*ack_seq=*/1, /*event_seq=*/7);
}

class ChainSizes : public ::testing::TestWithParam<int> {};

TEST_P(ChainSizes, WritePropagatesToEveryReplicaBeforeAck) {
  StoreHarness h(GetParam());
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0x77));
  h.sim_.Run();
  ASSERT_EQ(h.acks_[0].size(), 2u);
  EXPECT_EQ(h.acks_[0][1].ack, AckKind::kWriteAck);
  for (auto* server : h.servers_) {
    const FlowRecord* rec = server->Find(Key(1));
    ASSERT_NE(rec, nullptr) << server->name();
    EXPECT_EQ(rec->last_applied_seq, 1u) << server->name();
    ASSERT_EQ(rec->state.size(), 1u);
    EXPECT_EQ(rec->state[0], std::byte{0x77});
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChainSizes, ::testing::Values(1, 2, 3));

TEST(StateStoreTest, ChainAckTakesLongerThanSingleServer) {
  StoreHarness h1(1);
  StoreHarness h3(3);
  h1.Send(0, h1.MakeInit(1));
  h3.Send(0, h3.MakeInit(1));
  h1.sim_.Run();
  h3.sim_.Run();
  EXPECT_GT(h3.sim_.Now(), h1.sim_.Now());
}

TEST(StateStoreTest, PiggybackEchoedInWriteAck) {
  StoreHarness h(2);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  Msg w = h.MakeWrite(1, 1, 0x42);
  net::FlowKey inner{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 3,
                     4, net::IpProto::kUdp};
  w.piggyback = net::MakeUdpPacket(inner, 80);
  h.Send(0, w);
  h.sim_.Run();
  ASSERT_EQ(h.acks_[0].size(), 2u);
  ASSERT_TRUE(h.acks_[0][1].piggyback.has_value());
  EXPECT_EQ(*h.acks_[0][1].piggyback->Flow(), inner);
}

TEST(StateStoreTest, ReadBufferParksUntilAwaitedWriteApplied) {
  StoreHarness h(1);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  Msg read;
  read.type = MsgType::kReadBufferReq;
  read.key = Key(1);
  read.seq = 3;
  net::FlowKey inner{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 3,
                     4, net::IpProto::kUdp};
  read.piggyback = net::MakeUdpPacket(inner, 10);
  h.Send(0, read);
  h.sim_.Run();
  EXPECT_EQ(h.acks_[0].size(), 1u);  // only the grant: read parked
  h.Send(0, h.MakeWrite(1, 3, 0x33));
  h.sim_.Run();
  ASSERT_EQ(h.acks_[0].size(), 3u);
  bool saw_read_return = false;
  for (const Msg& m : h.acks_[0]) {
    if (m.ack == AckKind::kReadReturn) {
      saw_read_return = true;
      EXPECT_TRUE(m.piggyback.has_value());
    }
  }
  EXPECT_TRUE(saw_read_return);
}

TEST(StateStoreTest, SnapshotSlotsStoredWithRoundSequencing) {
  StoreHarness h(1);
  Msg snap;
  snap.type = MsgType::kSnapshotRepl;
  snap.key = net::PartitionKey::OfVlan(7);
  snap.seq = 2;
  snap.snapshot_index = 5;
  snap.state = {std::byte{0x05}};
  h.Send(0, snap);
  h.sim_.Run();
  // A stale round for the same slot must not overwrite.
  snap.seq = 1;
  snap.state = {std::byte{0x99}};
  h.Send(0, snap);
  h.sim_.Run();
  const FlowRecord* rec = h.servers_[0]->Find(net::PartitionKey::OfVlan(7));
  ASSERT_NE(rec, nullptr);
  const auto it = rec->snapshot_slots.find(5);
  ASSERT_NE(it, rec->snapshot_slots.end());
  EXPECT_EQ(it->second.first[0], std::byte{0x05});
  EXPECT_EQ(it->second.second, 2u);
  ASSERT_EQ(h.acks_[0].size(), 2u);
  EXPECT_EQ(h.acks_[0][1].ack, AckKind::kSnapshotAck);
}

TEST(StateStoreTest, InitializerSuppliesNewFlowState) {
  StoreConfig cfg;
  cfg.initializer = [](const net::PartitionKey&) {
    return std::vector<std::byte>{std::byte{0x5c}};
  };
  StoreHarness h(1, cfg);
  h.Send(0, h.MakeInit(3));
  h.sim_.Run();
  ASSERT_EQ(h.acks_[0].size(), 1u);
  ASSERT_EQ(h.acks_[0][0].state.size(), 1u);
  EXPECT_EQ(h.acks_[0][0].state[0], std::byte{0x5c});
}

TEST(StateStoreTest, ServiceTimeQueuesRequests) {
  StoreConfig cfg;
  cfg.service_time = Microseconds(10);
  StoreHarness h(1, cfg);
  for (int i = 0; i < 5; ++i) h.Send(0, h.MakeInit(i));
  h.sim_.Run();
  EXPECT_EQ(h.acks_[0].size(), 5u);
  EXPECT_EQ(h.servers_[0]->busy_time(), Microseconds(50));
}

TEST(PartitionMapTest, StableAndCoversAllShards) {
  std::vector<net::Ipv4Addr> shards = {net::Ipv4Addr(1, 0, 0, 1),
                                       net::Ipv4Addr(1, 0, 0, 2),
                                       net::Ipv4Addr(1, 0, 0, 3)};
  PartitionMap map(shards);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto key = Key(i);
    const auto idx = map.ShardIndexFor(key);
    EXPECT_EQ(map.ShardIndexFor(key), idx);  // deterministic
    EXPECT_EQ(map.ShardFor(key), shards[idx]);
    seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(PartitionMapTest, EmptyShardListThrowsInAllBuildModes) {
  // A throw, not an assert: the misconfiguration must be rejected in release
  // (NDEBUG) builds too, not only when assertions are compiled in.
  EXPECT_THROW(PartitionMap(std::vector<net::Ipv4Addr>{}),
               std::invalid_argument);
  PartitionMap empty;  // default-constructed: no shards either
  EXPECT_THROW(empty.ShardIndexFor(Key(1)), std::logic_error);
}

TEST(PortPoolTest, AllocateReleaseExhaustion) {
  PortPool pool(net::Ipv4Addr(10, 0, 0, 1), 1000, 3);
  auto a = pool.Allocate();
  auto b = pool.Allocate();
  auto c = pool.Allocate();
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(*a, 1000);
  EXPECT_FALSE(pool.Allocate().has_value());
  pool.Release(*b);
  EXPECT_EQ(pool.FreeCount(), 1u);
  EXPECT_EQ(pool.Allocate(), *b);
  pool.Release(9999);  // out of range: ignored
  pool.Release(*a);
  pool.Release(*a);  // double free: ignored
  EXPECT_EQ(pool.FreeCount(), 1u);
}

TEST(BackendPoolTest, WeightedRoundRobin) {
  BackendPool pool;
  pool.Add({net::Ipv4Addr(1, 1, 1, 1), 80, 2});
  pool.Add({net::Ipv4Addr(2, 2, 2, 2), 80, 1});
  std::map<std::uint32_t, int> counts;
  for (int i = 0; i < 300; ++i) {
    auto b = pool.Pick();
    ASSERT_TRUE(b.has_value());
    ++counts[b->ip.value];
  }
  EXPECT_EQ(counts[net::Ipv4Addr(1, 1, 1, 1).value], 200);
  EXPECT_EQ(counts[net::Ipv4Addr(2, 2, 2, 2).value], 100);
  pool.Remove(net::Ipv4Addr(1, 1, 1, 1), 80);
  EXPECT_EQ(pool.Pick()->ip, net::Ipv4Addr(2, 2, 2, 2));
}

}  // namespace
}  // namespace redplane::store
