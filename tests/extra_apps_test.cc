// Tests for the remaining Table 1 application classes: SYN-flood defense
// (Bloom-filter validated sources), in-network sequencer, and
// super-spreader detection — including each one's failure symptom and its
// RedPlane remedy.
#include <gtest/gtest.h>

#include "apps/bloom.h"
#include "apps/sequencer.h"
#include "apps/spreader.h"
#include "apps/syn_defense.h"
#include "common/rng.h"
#include "tests/rig.h"

namespace redplane::apps {
namespace {

// ---------------------------------------------------------------- Bloom --

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom("b", 512, 3);
  Rng rng(3);
  std::vector<std::uint64_t> members;
  for (int i = 0; i < 30; ++i) {
    members.push_back(rng.Next());
    bloom.Insert(members.back());
  }
  for (std::uint64_t m : members) {
    EXPECT_TRUE(bloom.Contains(m));
  }
}

TEST(BloomFilterTest, LowFalsePositiveRateWhenSparse) {
  BloomFilter bloom("b", 2048, 3);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) bloom.Insert(rng.Next());
  int false_positives = 0;
  for (int i = 0; i < 1000; ++i) {
    if (bloom.Contains(rng.Next())) ++false_positives;
  }
  EXPECT_LT(false_positives, 30);  // <3% at this load factor
}

TEST(BloomFilterTest, SnapshotFreezesBitsAtFlip) {
  BloomFilter bloom("b", 64, 2);
  bloom.Insert(42);
  bloom.BeginSnapshot();
  bloom.Insert(77);  // after the flip: not in the snapshot
  int snapshot_bits = 0;
  for (std::uint32_t i = 0; i < 64; ++i) {
    snapshot_bits += bloom.ReadSnapshotSlot(i);
  }
  EXPECT_LE(snapshot_bits, 2);  // only key 42's probes
  EXPECT_TRUE(bloom.Contains(77));  // live copy unaffected
}

// ---------------------------------------------------------- SYN defense --

net::Packet Syn(net::Ipv4Addr src) {
  net::FlowKey f{src, net::Ipv4Addr(192, 168, 10, 1), 1234, 80,
                 net::IpProto::kTcp};
  return net::MakeTcpPacket(f, net::TcpFlags::kSyn, 1, 0, 0);
}

net::Packet Ack(net::Ipv4Addr src) {
  net::FlowKey f{src, net::Ipv4Addr(192, 168, 10, 1), 1234, 80,
                 net::IpProto::kTcp};
  return net::MakeTcpPacket(f, net::TcpFlags::kAck, 2, 1, 0);
}

TEST(SynDefenseTest, UnvalidatedSynChallengedThenAdmitted) {
  SynDefenseApp app;
  core::AppContext ctx;
  std::vector<std::byte> state;
  const net::Ipv4Addr client(10, 0, 0, 1);

  auto first = app.Process(ctx, Syn(client), state);
  EXPECT_TRUE(first.outputs.empty());  // challenged
  EXPECT_EQ(app.challenges_sent(), 1u);

  auto proof = app.Process(ctx, Ack(client), state);
  EXPECT_EQ(proof.outputs.size(), 1u);  // handshake proof admits + validates
  EXPECT_TRUE(app.IsValidated(client));

  auto retry = app.Process(ctx, Syn(client), state);
  EXPECT_EQ(retry.outputs.size(), 1u);  // validated source passes
}

TEST(SynDefenseTest, FailureDropsValidSourcesWithoutSnapshotRestore) {
  SynDefenseApp app;
  core::AppContext ctx;
  std::vector<std::byte> state;
  const net::Ipv4Addr client(10, 0, 0, 1);
  app.Process(ctx, Ack(client), state);  // validate
  ASSERT_TRUE(app.IsValidated(client));

  // Capture a snapshot (what RedPlane would have replicated).
  app.BeginSnapshot(net::PartitionKey::OfObject(0x5f1d));
  std::vector<std::uint8_t> snapshot;
  for (std::uint32_t i = 0; i < app.NumSnapshotSlots(); ++i) {
    snapshot.push_back(
        static_cast<std::uint8_t>(app.ReadSnapshotSlot(
            net::PartitionKey::OfObject(0x5f1d), i)[0]));
  }

  // Switch failure: filter gone, valid client gets challenged again —
  // Table 1's "dropping valid packets".
  app.Reset();
  auto dropped = app.Process(ctx, Syn(client), state);
  EXPECT_TRUE(dropped.outputs.empty());

  // Failover restore from the replicated snapshot: client admitted.
  for (std::uint32_t i = 0; i < snapshot.size(); ++i) {
    app.RestoreSlot(i, snapshot[i]);
  }
  EXPECT_TRUE(app.IsValidated(client));
  auto admitted = app.Process(ctx, Syn(client), state);
  EXPECT_EQ(admitted.outputs.size(), 1u);
}

// ------------------------------------------------------------ Sequencer --

TEST(SequencerTest, StampsMonotonicallyPerGroup) {
  SequencerApp app;
  core::AppContext ctx;
  std::vector<std::byte> g1_state, g2_state;
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 5,
                 kSequencerPort, net::IpProto::kUdp};
  for (std::uint64_t i = 1; i <= 5; ++i) {
    auto result = app.Process(ctx, MakeSequencedPacket(f, 7), g1_state);
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_TRUE(result.state_modified);
    const auto hdr = ParseSequencedPacket(result.outputs[0]);
    ASSERT_TRUE(hdr.has_value());
    EXPECT_EQ(hdr->group, 7u);
    EXPECT_EQ(hdr->stamp, i);
  }
  // Independent group: its own sequence.
  auto other = app.Process(ctx, MakeSequencedPacket(f, 9), g2_state);
  EXPECT_EQ(ParseSequencedPacket(other.outputs[0])->stamp, 1u);
}

TEST(SequencerTest, KeyOfPartitionsByGroup) {
  SequencerApp app;
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 5,
                 kSequencerPort, net::IpProto::kUdp};
  EXPECT_EQ(*app.KeyOf(MakeSequencedPacket(f, 3)),
            net::PartitionKey::OfObject(3));
  EXPECT_NE(*app.KeyOf(MakeSequencedPacket(f, 3)),
            *app.KeyOf(MakeSequencedPacket(f, 4)));
  net::FlowKey other = f;
  other.dst_port = 80;
  EXPECT_FALSE(app.KeyOf(net::MakeUdpPacket(other, 20)).has_value());
}

/// End to end: the sequencer through RedPlane continues its sequence after
/// failover — no duplicate stamps (NOPaxos's correctness requirement).
TEST(SequencerTest, FailoverNeverDuplicatesStampsUnderRedPlane) {
  SequencerApp app;
  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = Milliseconds(5);
  rig::Rig h(app, {.seed = 9, .rp = rp_cfg});

  std::vector<std::uint64_t> stamps;
  h.dst->SetHandler([&](sim::HostNode&, net::Packet pkt) {
    const auto hdr = ParseSequencedPacket(pkt);
    if (hdr.has_value()) stamps.push_back(hdr->stamp);
  });

  net::FlowKey f{rig::kSrcIp, rig::kDstIp, 5, kSequencerPort,
                 net::IpProto::kUdp};
  for (int i = 0; i < 5; ++i) {
    h.src->SendTo(0, MakeSequencedPacket(f, 1));
    h.Run(Milliseconds(1));
  }
  h.sw[0]->SetUp(false);  // the sequencer's switch dies
  for (int i = 0; i < 5; ++i) {
    h.src->SendTo(1, MakeSequencedPacket(f, 1));
    h.Run(Milliseconds(2));
  }
  h.Run(Milliseconds(50));

  ASSERT_GE(stamps.size(), 9u);
  std::set<std::uint64_t> unique(stamps.begin(), stamps.end());
  EXPECT_EQ(unique.size(), stamps.size()) << "duplicate sequence stamps";
  EXPECT_EQ(*std::max_element(stamps.begin(), stamps.end()), stamps.size());
}

// -------------------------------------------------------------- Spreader --

TEST(SpreaderTest, FlagsScannersNotNormalSources) {
  SpreaderConfig cfg;
  cfg.threshold = 12;
  SpreaderApp app(cfg);
  core::AppContext ctx;
  std::vector<std::byte> state;
  const net::Ipv4Addr scanner(10, 0, 0, 66);
  const net::Ipv4Addr normal(10, 0, 0, 7);

  // The scanner touches 30 distinct destinations, the normal source one.
  for (int i = 0; i < 30; ++i) {
    net::FlowKey f{scanner, net::Ipv4Addr(192, 168, 1, static_cast<std::uint8_t>(i + 1)),
                   1000, 80, net::IpProto::kTcp};
    app.Process(ctx, net::MakeTcpPacket(f, net::TcpFlags::kSyn, 1, 0, 0),
                state);
  }
  for (int i = 0; i < 30; ++i) {
    net::FlowKey f{normal, net::Ipv4Addr(192, 168, 1, 1), 1000, 80,
                   net::IpProto::kTcp};
    app.Process(ctx, net::MakeTcpPacket(f, net::TcpFlags::kSyn, 1, 0, 0),
                state);
  }
  EXPECT_GE(app.EstimateDistinct(scanner), cfg.threshold);
  EXPECT_LT(app.EstimateDistinct(normal), 3.0);
  EXPECT_EQ(app.Spreaders().count(scanner.value), 1u);
  EXPECT_EQ(app.Spreaders().count(normal.value), 0u);
}

TEST(SpreaderTest, EstimateTracksDistinctCount) {
  SpreaderApp app;
  core::AppContext ctx;
  std::vector<std::byte> state;
  const net::Ipv4Addr src(10, 0, 0, 1);
  double prev = 0;
  for (int n = 1; n <= 12; ++n) {
    net::FlowKey f{src, net::Ipv4Addr(192, 168, 2, static_cast<std::uint8_t>(n)),
                   1000, 80, net::IpProto::kUdp};
    app.Process(ctx, net::MakeUdpPacket(f, 0), state);
    const double est = app.EstimateDistinct(src);
    EXPECT_GE(est, prev - 0.01);  // monotone non-decreasing
    prev = est;
  }
  // Repeating a destination does not move the estimate.
  net::FlowKey f{src, net::Ipv4Addr(192, 168, 2, 1), 1000, 80,
                 net::IpProto::kUdp};
  for (int i = 0; i < 20; ++i) {
    app.Process(ctx, net::MakeUdpPacket(f, 0), state);
  }
  EXPECT_NEAR(app.EstimateDistinct(src), prev, 0.01);
  // And the estimate is in the right ballpark for 12 distinct.
  EXPECT_GT(prev, 7.0);
  EXPECT_LT(prev, 20.0);
}

TEST(SpreaderTest, SnapshotCoversWholeBitmap) {
  SpreaderApp app;
  EXPECT_EQ(app.NumSnapshotSlots(),
            app.config().sources * app.config().bits_per_source);
  app.BeginSnapshot(net::PartitionKey::OfObject(0x51c4));
  EXPECT_EQ(app.ReadSnapshotSlot(net::PartitionKey::OfObject(0x51c4), 0)
                .size(),
            1u);
}

TEST(SpreaderTest, ResetModelsFailureLoss) {
  SpreaderApp app;
  core::AppContext ctx;
  std::vector<std::byte> state;
  const net::Ipv4Addr scanner(10, 0, 0, 66);
  for (int i = 0; i < 30; ++i) {
    net::FlowKey f{scanner,
                   net::Ipv4Addr(192, 168, 1, static_cast<std::uint8_t>(i + 1)),
                   1000, 80, net::IpProto::kTcp};
    app.Process(ctx, net::MakeTcpPacket(f, net::TcpFlags::kSyn, 1, 0, 0),
                state);
  }
  EXPECT_GT(app.EstimateDistinct(scanner), 10.0);
  app.Reset();  // switch failure: statistics gone -> inaccurate detection
  EXPECT_DOUBLE_EQ(app.EstimateDistinct(scanner), 0.0);
  EXPECT_TRUE(app.Spreaders().empty());
}

}  // namespace
}  // namespace redplane::apps
