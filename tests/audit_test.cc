// Online protocol auditor: monitor unit tests, causal-slice extraction,
// tracer orphan-end marking, the linearizability feed, and — the core of
// the suite — mutation-detection tests: each protocol mutation seeded
// behind a test-only hook must be caught by exactly the expected monitor
// with a non-empty happens-before-closed causal slice, while the identical
// clean configuration stays silent.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "apps/counter.h"
#include "audit/auditor.h"
#include "audit/diag.h"
#include "audit/lin_feed.h"
#include "audit/monitors.h"
#include "audit/slice.h"
#include "core/consistency.h"
#include "obs/json.h"
#include "obs/recovery.h"
#include "obs/tracer.h"
#include "sim/link.h"
#include "tests/audit_diag.h"
#include "tests/rig.h"

namespace redplane {
namespace {

using audit::Auditor;
using obs::Ev;

// ---------------------------------------------------------------------------
// Monitor unit tests: feed events straight into a stream the auditor
// subscribes to.

struct AuditorFixture : public ::testing::Test {
  void SetUp() override {
    tracer.SetClock([this] { return now; });
    tracer.SetEnabled(true);
    auditor.ArmStandardMonitors();
    tracer.Subscribe(auditor);
    sw1 = tracer.Intern("sw1");
    sw2 = tracer.Intern("sw2");
    store = tracer.Intern("store0");
  }

  /// Emits one event from `component`: `aux` is the integer payload
  /// (expiry, bound, mode), `arg` the real one (staleness, measure).
  void Emit(std::uint16_t component, Ev ev, std::uint64_t key,
            std::uint64_t seq = 0, std::uint64_t aux = 0, double arg = 0.0) {
    tracer.Emit(component, ev, key, seq, arg, 0, aux);
  }

  std::size_t Total() const { return auditor.violations().size(); }

  obs::Tracer tracer;
  Auditor auditor;
  SimTime now = 0;
  std::uint16_t sw1 = 0, sw2 = 0, store = 0;
};

constexpr std::uint64_t kKey = 0xabcdef0123456789ull;

TEST_F(AuditorFixture, SingleOwnerFlagsTwoLiveClaims) {
  now = 100;
  Emit(sw1, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/1'000'000);
  now = 200;
  Emit(sw2, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/2'000'000);
  EXPECT_EQ(auditor.ViolationCount("single_owner"), 1u);
  EXPECT_EQ(Total(), 1u);
  const auto& v = auditor.violations()[0];
  EXPECT_EQ(v.at.flow, kKey);
  EXPECT_NE(v.detail.find("sw1"), std::string::npos);
  EXPECT_NE(v.detail.find("sw2"), std::string::npos);
}

TEST_F(AuditorFixture, SingleOwnerPrunesExpiredClaims) {
  now = 100;
  Emit(sw1, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/500);
  now = 1000;  // sw1's believed expiry has certainly passed
  Emit(sw2, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/5000);
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, SingleOwnerReleaseAllClearsComponent) {
  now = 100;
  Emit(sw1, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/1'000'000);
  Emit(sw1, Ev::kLeaseReleased, 0);  // key 0: dropped everything
  now = 200;
  Emit(sw2, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/2'000'000);
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, SingleOwnerSameComponentRenewIsFine) {
  now = 100;
  Emit(sw1, Ev::kLeaseAcquired, kKey, 1, 1'000'000);
  now = 500'000;
  Emit(sw1, Ev::kLeaseAcquired, kKey, 2, 1'500'000);  // renewal
  EXPECT_EQ(Total(), 0u);
}

// --- per-mode monitor subscription (DESIGN.md §14) -------------------------
// Monitors subscribe per consistency mode: a flow admitted under a weaker
// mode must not be judged by a stronger mode's invariant.

TEST_F(AuditorFixture, SingleOwnerSkipsFlowsAdmittedUnderMergeable) {
  const auto mergeable =
      static_cast<std::uint64_t>(core::ConsistencyMode::kMergeable);
  Emit(sw1, Ev::kFlowAdmitted, kKey, 0, mergeable);
  now = 100;
  Emit(sw1, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/1'000'000);
  now = 200;
  Emit(sw2, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/2'000'000);
  // Two concurrent writers are the point of mergeable mode, not a violation.
  EXPECT_EQ(Total(), 0u);
  // The exemption is per-key: an unannounced key still gets the invariant.
  now = 300;
  Emit(sw1, Ev::kLeaseAcquired, kKey + 1, 1, 1'000'000);
  Emit(sw2, Ev::kLeaseAcquired, kKey + 1, 1, 2'000'000);
  EXPECT_EQ(auditor.ViolationCount("single_owner"), 1u);
}

TEST_F(AuditorFixture, SingleOwnerExemptionAppliesToEarlierClaims) {
  // Admission can reach the auditor after a lease claim (the events are
  // emitted by different components); the exemption must retroactively drop any
  // holders already recorded for the key.
  now = 100;
  Emit(sw1, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/1'000'000);
  Emit(sw2, Ev::kFlowAdmitted, kKey, 0,
       static_cast<std::uint64_t>(core::ConsistencyMode::kMergeable));
  now = 200;
  Emit(sw2, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/2'000'000);
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, SingleOwnerStillBindsSingleOwnerAdmissions) {
  Emit(sw1, Ev::kFlowAdmitted, kKey, 0,
       static_cast<std::uint64_t>(core::ConsistencyMode::kSingleOwner));
  now = 100;
  Emit(sw1, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/1'000'000);
  now = 200;
  Emit(sw2, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/2'000'000);
  EXPECT_EQ(auditor.ViolationCount("single_owner"), 1u);
}

TEST_F(AuditorFixture, BoundedStalenessBindsOnlyReplicatedReadFlows) {
  const auto replicated =
      static_cast<std::uint64_t>(core::ConsistencyMode::kReplicatedRead);
  const auto mergeable =
      static_cast<std::uint64_t>(core::ConsistencyMode::kMergeable);
  // A mergeable flow serves arbitrarily stale local reads legally.
  Emit(sw1, Ev::kFlowAdmitted, kKey, 0, mergeable);
  Emit(sw1, Ev::kLocalReadServed, kKey, 0, /*bound=*/1'000,
                  /*staleness=*/9e12);
  EXPECT_EQ(Total(), 0u);
  // A replicated-read flow with the same staleness violates its contract.
  Emit(sw2, Ev::kFlowAdmitted, kKey + 1, 0, replicated);
  Emit(sw2, Ev::kLocalReadServed, kKey + 1, 0, /*bound=*/1'000,
                  /*staleness=*/2'000.0);
  EXPECT_EQ(auditor.ViolationCount("bounded_staleness"), 1u);
  // Latched per episode: repeat violations don't double-count, recovery
  // re-arms.
  Emit(sw2, Ev::kLocalReadServed, kKey + 1, 0, 1'000, 3'000.0);
  EXPECT_EQ(auditor.ViolationCount("bounded_staleness"), 1u);
  Emit(sw2, Ev::kLocalReadServed, kKey + 1, 0, 1'000, 500.0);
  Emit(sw2, Ev::kLocalReadServed, kKey + 1, 0, 1'000, 2'000.0);
  EXPECT_EQ(auditor.ViolationCount("bounded_staleness"), 2u);
}

TEST_F(AuditorFixture, MergeConvergenceFlagsLatticeRegression) {
  Emit(store, Ev::kMergeApplied, kKey, 1, 0, /*measure=*/5.0);
  Emit(store, Ev::kMergeApplied, kKey, 2, 0, 7.0);
  Emit(store, Ev::kMergeApplied, kKey, 3, 0, 6.0);  // went down
  EXPECT_EQ(auditor.ViolationCount("merge_convergence"), 1u);
  // A store reset re-baselines: the rebuilt state may start lower.
  Emit(store, Ev::kNodeFailure, 0);
  Emit(store, Ev::kMergeApplied, kKey, 4, 0, 1.0);
  EXPECT_EQ(auditor.ViolationCount("merge_convergence"), 1u);
}

TEST_F(AuditorFixture, SeqMonotonicFlagsReapply) {
  Emit(store, Ev::kStoreApplied, kKey, 1);
  Emit(store, Ev::kStoreApplied, kKey, 2);
  Emit(store, Ev::kStoreApplied, kKey, 2);  // filter regressed
  EXPECT_EQ(auditor.ViolationCount("seq_monotonic"), 1u);
  EXPECT_EQ(Total(), 1u);
}

TEST_F(AuditorFixture, SeqMonotonicTracksReplicasIndependently) {
  const std::uint16_t replica = tracer.Intern("store1");
  Emit(store, Ev::kStoreApplied, kKey, 5);
  Emit(replica, Ev::kStoreApplied, kKey, 5);  // chain forward
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, SeqMonotonicForgivesFailStoppedReplica) {
  Emit(store, Ev::kStoreApplied, kKey, 5);
  Emit(store, Ev::kNodeFailure, 0);  // DRAM records gone
  Emit(store, Ev::kStoreApplied, kKey, 3);  // resync re-baseline
  EXPECT_EQ(Total(), 0u);
  Emit(store, Ev::kStoreApplied, kKey, 3);  // but still monotonic
  EXPECT_EQ(auditor.ViolationCount("seq_monotonic"), 1u);
}

TEST_F(AuditorFixture, ChainCommitFlagsAckBeforeTailCommit) {
  Emit(sw1, Ev::kAckReleased, kKey, 3);
  EXPECT_EQ(auditor.ViolationCount("chain_commit"), 1u);
  EXPECT_EQ(Total(), 1u);
}

TEST_F(AuditorFixture, ChainCommitSilentAfterTailCommit) {
  Emit(store, Ev::kTailCommit, kKey, 3);
  Emit(sw1, Ev::kAckReleased, kKey, 3);
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, ChainCommitAcceptsDuplicateAndResyncEvidence) {
  Emit(store, Ev::kDupAckDurable, kKey, 2);
  Emit(sw1, Ev::kAckReleased, kKey, 2);
  Emit(store, Ev::kResyncCommit, kKey, 4);
  Emit(sw1, Ev::kAckReleased, kKey, 4);
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, ChainCommitIgnoresSeqZeroAcks) {
  Emit(sw1, Ev::kAckReleased, kKey, 0);  // read / lease-only ack
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, EpsilonBoundLatchesPerEpisode) {
  Emit(sw1, Ev::kEpsilonSample, kKey, 0, /*bound=*/1'000'000,
                  /*staleness=*/2'000'000.0);
  Emit(sw1, Ev::kEpsilonSample, kKey, 0, 1'000'000, 3'000'000.0);
  EXPECT_EQ(auditor.ViolationCount("epsilon_bound"), 1u);  // one episode
  Emit(sw1, Ev::kEpsilonSample, kKey, 0, 1'000'000, 500'000.0);
  Emit(sw1, Ev::kEpsilonSample, kKey, 0, 1'000'000, 2'000'000.0);
  EXPECT_EQ(auditor.ViolationCount("epsilon_bound"), 2u);  // new episode
}

TEST_F(AuditorFixture, EpsilonBoundZeroBoundIsUnbounded) {
  Emit(sw1, Ev::kEpsilonSample, kKey, 0, /*bound=*/0,
                  /*staleness=*/9e12);
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, ClearFindingsDropsViolationsAndMonitorState) {
  Emit(sw1, Ev::kAckReleased, kKey, 3);
  ASSERT_EQ(Total(), 1u);
  auditor.ClearFindings();
  EXPECT_EQ(Total(), 0u);
  // Monitor state was reset too: the same ack violates again.
  Emit(sw1, Ev::kAckReleased, kKey, 3);
  EXPECT_EQ(Total(), 1u);
}

TEST_F(AuditorFixture, StoredViolationsAreCapped) {
  for (int i = 0; i < 200; ++i) {
    Emit(sw1, Ev::kAckReleased, kKey + i, 1);
  }
  EXPECT_EQ(auditor.violations().size(), Auditor::kMaxStoredViolations);
  EXPECT_EQ(auditor.ViolationCount("chain_commit"), 200u);  // still counted
}

TEST_F(AuditorFixture, ViolationCarriesSliceWhenTracerAttached) {
  now = 100;
  Emit(sw1, Ev::kReplicationSent, kKey, 3);
  now = 300;
  Emit(sw1, Ev::kAckReleased, kKey, 3);  // no tail commit: a violation
  ASSERT_EQ(Total(), 1u);
  const auto& slice = auditor.violations()[0].slice;
  EXPECT_FALSE(slice.empty());
  EXPECT_LE(slice.events.size(), audit::kMaxSliceEvents);
  EXPECT_TRUE(audit::IsHappensBeforeClosed(slice));
}

// ---------------------------------------------------------------------------
// Causal-slice extraction.

TEST(SliceTest, KeepsFlowEventsAndDropsOthers) {
  obs::Tracer tracer;
  SimTime t = 0;
  tracer.SetClock([&t] { return t; });
  tracer.SetEnabled(true);
  const std::uint16_t c = tracer.Intern("sw");
  t = 100;
  tracer.Emit(c, obs::Ev::kReplicationSent, /*flow=*/0xAB, /*seq=*/7);
  t = 200;
  tracer.Emit(c, obs::Ev::kIngress, /*flow=*/0xCD);  // unrelated flow
  t = 300;
  tracer.Emit(c, obs::Ev::kAckReleased, 0xAB, 7);

  const audit::CausalSlice slice = audit::ExtractSlice(tracer, 0xAB, 300);
  ASSERT_EQ(slice.events.size(), 2u);
  EXPECT_EQ(slice.events[0].ev, obs::Ev::kReplicationSent);
  EXPECT_EQ(slice.events[1].ev, obs::Ev::kAckReleased);
  EXPECT_FALSE(slice.truncated);
  EXPECT_TRUE(audit::IsHappensBeforeClosed(slice));
  EXPECT_TRUE(obs::ValidateJson(slice.PerfettoJson()));
  EXPECT_NE(slice.Text().find("ack_released"), std::string::npos);
}

TEST(SliceTest, MergesInfraEventsInsideWindow) {
  obs::Tracer tracer;
  SimTime t = 0;
  tracer.SetClock([&t] { return t; });
  tracer.SetEnabled(true);
  const std::uint16_t c = tracer.Intern("sw");
  const std::uint16_t inj = tracer.Intern("injector");
  t = 50;
  tracer.Emit(inj, obs::Ev::kNodeFailure);  // before window: excluded
  t = 100;
  tracer.Emit(c, obs::Ev::kLeaseMiss, 0xAB);
  t = 150;
  tracer.Emit(inj, obs::Ev::kLinkDown);  // inside window: a global cause
  t = 300;
  tracer.Emit(c, obs::Ev::kFailoverRehome, 0xAB);

  const audit::CausalSlice slice = audit::ExtractSlice(tracer, 0xAB, 300);
  ASSERT_EQ(slice.events.size(), 3u);
  EXPECT_EQ(slice.events[1].ev, obs::Ev::kLinkDown);
  EXPECT_TRUE(audit::IsHappensBeforeClosed(slice));
}

TEST(SliceTest, BudgetTruncationKeepsClosure) {
  obs::Tracer tracer;
  SimTime t = 0;
  tracer.SetClock([&t] { return t; });
  tracer.SetEnabled(true);
  const std::uint16_t c = tracer.Intern("sw");
  for (std::uint64_t i = 0; i < 150; ++i) {
    t = 100 * (2 * i + 1);
    tracer.Emit(c, obs::Ev::kReplicationSent, 0xAB, i + 1);
    t = 100 * (2 * i + 2);
    tracer.Emit(c, obs::Ev::kAckReleased, 0xAB, i + 1);
  }
  const audit::CausalSlice slice = audit::ExtractSlice(tracer, 0xAB, t);
  EXPECT_TRUE(slice.truncated);
  EXPECT_LE(slice.events.size(), audit::kMaxSliceEvents);
  EXPECT_GT(slice.events.size(), 0u);
  EXPECT_TRUE(audit::IsHappensBeforeClosed(slice));
}

TEST(SliceTest, EmptyWhenTracerHasNothingRelevant) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  const audit::CausalSlice slice = audit::ExtractSlice(tracer, 0xAB, 1000);
  EXPECT_TRUE(slice.empty());
}

TEST(SliceTest, ComponentTableIsRemappedToSliceLocalIds) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  // Intern several components; only one appears in the slice.
  tracer.Intern("unused0");
  tracer.Intern("unused1");
  const std::uint16_t c = tracer.Intern("the_switch");
  tracer.Emit(c, obs::Ev::kAckReleased, 0xAB, 0);
  const audit::CausalSlice slice = audit::ExtractSlice(tracer, 0xAB, 1000);
  ASSERT_EQ(slice.events.size(), 1u);
  ASSERT_LT(slice.events[0].component, slice.components.size());
  EXPECT_EQ(slice.components[slice.events[0].component], "the_switch");
}

// ---------------------------------------------------------------------------
// Tracer orphan-end marking (ring eviction must not fake protocol phases).

TEST(TracerOrphanTest, EvictedBeginMarksEndAsOrphan) {
  obs::Tracer tracer(/*capacity=*/4);
  SimTime t = 0;
  tracer.SetClock([&t] { return t; });
  tracer.SetEnabled(true);
  const std::uint16_t c = tracer.Intern("sw");
  t = 100;
  tracer.Emit(c, obs::Ev::kReplicationSent, 0xF1, 1);
  for (int i = 0; i < 4; ++i) {  // evict the begin
    t += 10;
    tracer.Emit(c, obs::Ev::kIngress, 0xF1);
  }
  t = 900;
  tracer.Emit(c, obs::Ev::kAckReleased, 0xF1, 1);

  EXPECT_GT(tracer.evicted(), 0u);
  EXPECT_EQ(tracer.CountOrphanedEnds(), 1u);
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"orphan\": true"), std::string::npos);
  EXPECT_TRUE(obs::ValidateJson(json));
  // The orphaned end must not fabricate a latency sample: its begin's
  // timestamp is unknown, so no write_replication_rtt phase may appear.
  for (const auto& phase : tracer.LatencyBreakdown()) {
    EXPECT_NE(phase.name, "write_replication_rtt");
  }
}

TEST(TracerOrphanTest, CompletedSpanIsNotOrphan) {
  obs::Tracer tracer(/*capacity=*/16);
  SimTime t = 0;
  tracer.SetClock([&t] { return t; });
  tracer.SetEnabled(true);
  const std::uint16_t c = tracer.Intern("sw");
  t = 100;
  tracer.Emit(c, obs::Ev::kReplicationSent, 0xF1, 1);
  t = 300;
  tracer.Emit(c, obs::Ev::kAckReleased, 0xF1, 1);
  EXPECT_EQ(tracer.evicted(), 0u);
  EXPECT_EQ(tracer.CountOrphanedEnds(), 0u);
  EXPECT_EQ(tracer.ChromeTraceJson().find("\"orphan\""), std::string::npos);
  bool found = false;
  for (const auto& phase : tracer.LatencyBreakdown()) {
    if (phase.name == "write_replication_rtt") {
      found = true;
      EXPECT_EQ(phase.samples_us.Count(), 1u);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Linearizability feed.

TEST(LinFeedTest, LinearCounterHistoryPasses) {
  audit::LinearizabilityFeed feed;
  feed.Input(1, 101, 10);
  feed.Output(1, 101, 20, 1);
  feed.Input(1, 102, 30);
  feed.Output(1, 102, 40, 2);
  EXPECT_TRUE(feed.CloseFlow(1));
  EXPECT_EQ(feed.OpenFlows(), 0u);
}

TEST(LinFeedTest, LostUpdateIsReportedThroughAuditor) {
  Auditor auditor;
  audit::LinearizabilityFeed feed(&auditor);
  feed.Input(7, 201, 10);
  feed.Output(7, 201, 20, 1);
  feed.Input(7, 202, 30);
  feed.Output(7, 202, 40, 1);  // the counter failed to advance: lost update
  EXPECT_EQ(feed.CloseAll(), 1u);
  EXPECT_EQ(auditor.ViolationCount("linearizability"), 1u);
  EXPECT_EQ(auditor.violations()[0].at.flow, 7u);
}

TEST(LinFeedTest, FlowsAreIndependent) {
  audit::LinearizabilityFeed feed;
  feed.Input(1, 101, 10);
  feed.Output(1, 101, 20, 1);
  feed.Input(2, 201, 10);
  feed.Output(2, 201, 20, 1);  // value 1 again — fine, different flow
  EXPECT_EQ(feed.CloseAll(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end mutation detection.
//
// Harness: two RedPlane switches in front of a (possibly chained) state
// store, the global tracer armed with the auditor subscribed, protocol
// mutations injectable via
// the test-only config hooks.  Clean twins of every mutated scenario run
// the same traffic and must stay silent.

/// The two-switch rig (seed 77) in front of a chain of `chain_len` stores,
/// audited; the renew window opens only near expiry, so scenario traffic
/// produces exactly the protocol messages each scenario scripts.
struct AuditHarness : rig::WithApp<apps::SyncCounterApp>, rig::Rig {
  struct Options {
    int chain_len = 1;
    store::StoreConfig::ProtocolMutations head_mutations{};
    SimDuration lease_extension = 0;
  };

  explicit AuditHarness(Options opt) : Rig(app, RigOptionsFor(opt)) {}

  static rig::RigOptions RigOptionsFor(const Options& opt) {
    rig::RigOptions o{.seed = 77, .stores = opt.chain_len, .audit = true};
    o.store.mutations = opt.head_mutations;
    o.rp.lease_period = Milliseconds(10);
    o.rp.renew_interval = Milliseconds(1);
    o.rp.mutation_lease_extension = opt.lease_extension;
    return o;
  }

  net::FlowKey Flow() const { return rig::UdpFlow(4242); }

  std::size_t TotalViolations() const { return auditor.violations().size(); }

  /// Asserts exactly `monitor` fired, with a non-empty HB-closed slice
  /// within budget on every stored violation.
  void ExpectOnly(std::string_view monitor) const {
    EXPECT_GE(auditor.ViolationCount(monitor), 1u) << monitor;
    EXPECT_EQ(auditor.ViolationCount(monitor), TotalViolations())
        << "a monitor other than " << monitor << " fired";
    for (const auto& v : auditor.violations()) {
      EXPECT_EQ(v.monitor, monitor);
      EXPECT_FALSE(v.slice.empty()) << "violation has no causal slice";
      EXPECT_LE(v.slice.events.size(), audit::kMaxSliceEvents);
      EXPECT_TRUE(audit::IsHappensBeforeClosed(v.slice));
      EXPECT_TRUE(obs::ValidateJson(v.slice.PerfettoJson()));
    }
  }
};

// --- lease mutation: the switch believes its lease outlives the store's ---
//
// sw1 acquires the flow's lease, then loses its link to the store fabric
// (but stays alive, so it never publishes a reset).  After the store-side
// lease lapses, traffic arrives through sw2, which legitimately acquires
// the lease.  Clean: sw1's conservative believed expiry has passed, so its
// stale claim is pruned.  Mutated: sw1's belief was inflated past the
// store's grant, so two live claims coexist — single_owner must fire.

void DriveLeaseScenario(AuditHarness& h) {
  h.src->SendTo(0, net::MakeUdpPacket(h.Flow(), 20));
  h.Run(Milliseconds(5));  // write acked; sw1 holds the lease
  sim::Link* link = h.net->FindLink(h.sw[0], h.hub);
  ASSERT_NE(link, nullptr);
  link->SetUp(false);  // sw1 is isolated from the store but still alive
  h.Run(Milliseconds(30));  // store-side lease lapses
  h.src->SendTo(1, net::MakeUdpPacket(h.Flow(), 20));  // arrive via sw2
  h.Run(Milliseconds(40));
  EXPECT_EQ(h.delivered, 2);
}

TEST(MutationDetectionTest, InflatedLeaseBeliefTripsSingleOwner) {
  AuditHarness h({.lease_extension = Seconds(10)});
  DriveLeaseScenario(h);
  h.ExpectOnly("single_owner");
}

TEST(MutationDetectionTest, LeaseScenarioCleanTwinIsSilent) {
  AuditHarness h({});
  DriveLeaseScenario(h);
  EXPECT_EQ(h.TotalViolations(), 0u) << h.auditor.violations()[0].detail;
}

// --- seq mutation: the store's duplicate filter is disabled ---
//
// The hub drops the ack of the flow's second write, forcing the switch to
// retransmit from its mirror buffer.  Clean: the store filters the
// duplicate and answers from durable state.  Mutated: the store re-applies
// the duplicate write — seq_monotonic must fire.

void DriveSeqScenario(AuditHarness& h) {
  h.src->SendTo(0, net::MakeUdpPacket(h.Flow(), 20));
  h.Run(Milliseconds(3));  // lease + first write settled
  // Swallow the next store→sw1 ack.
  h.drop = [armed = true](const net::Packet& pkt) mutable {
    if (!armed || pkt.ip->dst != rig::kSw1Ip) return false;
    armed = false;
    return true;
  };
  h.src->SendTo(0, net::MakeUdpPacket(h.Flow(), 20));
  h.Run(Milliseconds(5));  // retransmit fires and is answered
  EXPECT_EQ(h.dropped, 1);
  // The dropped ack carried the write's piggybacked output with it; the
  // retransmitted ack restores durability, not delivery — so only the
  // first write's output reaches the receiver.
  EXPECT_EQ(h.delivered, 1);
}

TEST(MutationDetectionTest, DisabledSeqFilterTripsSeqMonotonic) {
  AuditHarness h({.head_mutations = {.disable_seq_filter = true}});
  DriveSeqScenario(h);
  h.ExpectOnly("seq_monotonic");
}

TEST(MutationDetectionTest, SeqScenarioCleanTwinIsSilent) {
  AuditHarness h({});
  DriveSeqScenario(h);
  EXPECT_EQ(h.TotalViolations(), 0u) << h.auditor.violations()[0].detail;
}

// --- chain mutation: the head acks before chain-wide commit ---
//
// A 3-replica chain; the mutated head responds to the switch directly
// instead of forwarding down the chain, so the ack escapes before the tail
// committed.  chain_commit must fire on the very first released output.

void DriveChainScenario(AuditHarness& h) {
  h.src->SendTo(0, net::MakeUdpPacket(h.Flow(), 20));
  h.Run(Milliseconds(5));
  h.src->SendTo(0, net::MakeUdpPacket(h.Flow(), 20));
  h.Run(Milliseconds(5));
  EXPECT_EQ(h.delivered, 2);
}

TEST(MutationDetectionTest, EarlyChainAckTripsChainCommit) {
  AuditHarness h({.chain_len = 3,
                  .head_mutations = {.early_chain_ack = true}});
  DriveChainScenario(h);
  h.ExpectOnly("chain_commit");
}

TEST(MutationDetectionTest, ChainScenarioCleanTwinIsSilent) {
  AuditHarness h({.chain_len = 3});
  DriveChainScenario(h);
  EXPECT_EQ(h.TotalViolations(), 0u) << h.auditor.violations()[0].detail;
}

// ---------------------------------------------------------------------------
// One fact, one event: a write ack is published once, and the ring, the
// auditor and the recovery tracker all see that one record, stamped alike.

struct AckSpyMonitor : audit::Monitor {
  AckSpyMonitor() : Monitor("ack_spy") {}
  void OnEvent(Auditor&, const obs::TraceRecord& ev) override {
    if (ev.ev == Ev::kAckReleased) seen.push_back(ev);
  }
  std::vector<obs::TraceRecord> seen;
};

struct AckSpyTracker : obs::RecoveryTracker {
  void OnEvent(const obs::TraceRecord& ev) override {
    if (ev.ev == Ev::kAckReleased) seen.push_back(ev);
    RecoveryTracker::OnEvent(ev);
  }
  std::vector<obs::TraceRecord> seen;
};

TEST(SingleStreamTest, WriteAckIsOneEventSeenAlikeByEverySubscriber) {
  AuditHarness h({});
  auto spy = std::make_unique<AckSpyMonitor>();
  const AckSpyMonitor* monitor = spy.get();
  h.auditor.AddMonitor(std::move(spy));
  AckSpyTracker tracker;
  h.tracer.Subscribe(tracker);

  // One packet: lease grant, then one replicated write and its ack.
  h.src->SendTo(0, net::MakeUdpPacket(h.Flow(), 20));
  h.Run(Milliseconds(5));
  ASSERT_EQ(h.delivered, 1);
  EXPECT_EQ(h.TotalViolations(), 0u);

  std::vector<obs::TraceRecord> ring;
  for (const obs::TraceRecord& r : h.tracer.Records()) {
    if (r.ev == Ev::kAckReleased) ring.push_back(r);
  }
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_NE(ring[0].seq, 0u);  // the write's ack, not a lease control ack
  const std::vector<obs::TraceRecord>* subscribers_saw[] = {&monitor->seen,
                                                           &tracker.seen};
  for (const auto* seen : subscribers_saw) {
    ASSERT_EQ(seen->size(), 1u);
    EXPECT_EQ(seen->front().t, ring[0].t);
    EXPECT_EQ(seen->front().order, ring[0].order);
    EXPECT_EQ(seen->front().component, ring[0].component);
  }
}

// ---------------------------------------------------------------------------
// Failure diagnostics dump (what the gtest listener prints on failure).

TEST(DiagnosticsTest, DumpIncludesTracerTailLeaseTableAndViolations) {
  AuditHarness h({});
  h.src->SendTo(0, net::MakeUdpPacket(h.Flow(), 20));
  h.Run(Milliseconds(5));
  // Seed one synthetic violation so the dump has findings to show.
  h.tracer.Emit(h.tracer.Intern("synthetic"), Ev::kAckReleased, 0x99, 5);
  std::ostringstream os;
  audit::DumpDiagnostics(os, /*last_n=*/16);
  const std::string text = os.str();
  EXPECT_NE(text.find("redplane diagnostics"), std::string::npos);
  EXPECT_NE(text.find("sw1/rp lease table"), std::string::npos);
  EXPECT_NE(text.find("chain_commit"), std::string::npos);
  EXPECT_NE(text.find("ack_released"), std::string::npos);
}

}  // namespace
}  // namespace redplane
