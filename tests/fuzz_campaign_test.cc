// Adversarial scenario engine (DESIGN.md §15): schedule generator
// well-formedness, JSON round-trip, ddmin minimization, deterministic
// replay, the campaign verdict, and the committed schedules under
// tests/schedules/ (named failure scenarios and minimized repros).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/campaign/minimizer.h"
#include "tools/campaign/runner.h"
#include "tools/campaign/schedule.h"
#include "tools/campaign/verdict.h"

namespace redplane::campaign {
namespace {

std::string TempOutDir(const char* leaf) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / leaf;
  std::filesystem::create_directories(dir);
  return dir.string();
}

// --- generator -------------------------------------------------------------

TEST(ScheduleGenerator, DrawsWellFormedSchedulesAcrossAllClasses) {
  // The fault window must stay non-empty and inside the base traffic down
  // to the CLI floor of 10 rounds per flow.
  for (const int ppf : {kMinPacketsPerFlow, 12, 24, 40, 120}) {
    EXPECT_GT(FaultWindowEnd(ppf), kFaultWindowStart) << ppf;
    EXPECT_LT(FaultWindowEnd(ppf), BaseTrafficSpan(ppf)) << ppf;
  }
  EXPECT_EQ(FaultWindowEnd(40), BaseTrafficSpan(40) - Milliseconds(4));
  for (const FuzzClass focus :
       {FuzzClass::kMixed, FuzzClass::kGray, FuzzClass::kChurn,
        FuzzClass::kFlash, FuzzClass::kCapacity}) {
    for (const int ppf : {kMinPacketsPerFlow, 24, 40, 120}) {
      for (std::uint64_t seed = 100; seed < 140; ++seed) {
        GeneratorConfig config;
        config.focus = focus;
        config.packets_per_flow = ppf;
        const Schedule s = GenerateSchedule(seed, config);
        SCOPED_TRACE(std::string(FuzzClassName(focus)) + " ppf " +
                     std::to_string(ppf) + " seed " + std::to_string(seed));
        EXPECT_FALSE(s.Empty());
        EXPECT_EQ(s.seed, seed);
        EXPECT_EQ(s.packets_per_flow, ppf);
        for (const FaultEvent& ev : s.faults) {
          // Faults land while base traffic still flows, so a fail-stop
          // fault's recovery episode can complete before the traffic ends.
          EXPECT_GE(ev.at, kFaultWindowStart);
          EXPECT_LT(ev.at, FaultWindowEnd(ppf));
          // The generator promises survivable schedules: every fault heals
          // inside the run, after it was injected.
          EXPECT_GT(ev.clear_at, ev.at);
          switch (ev.kind) {
            case FaultKind::kSlowShard:
              EXPECT_GE(ev.magnitude, 1.0);
              EXPECT_LE(ev.magnitude, 20.0);
              break;
            case FaultKind::kAsymLoss:
              EXPECT_GT(ev.magnitude, 0.0);
              EXPECT_LE(ev.magnitude, 1.0);
              break;
            case FaultKind::kCapacity:
              EXPECT_GE(ev.magnitude, 8.0);
              break;
            default:
              break;
          }
        }
        for (const LoadPhase& ph : s.loads) {
          EXPECT_GE(ph.at, 0);
          EXPECT_GT(ph.duration, 0);
          EXPECT_GT(ph.intensity, 0u);
        }
      }
    }
  }
}

TEST(ScheduleGenerator, ClassFocusShapesTheDraw) {
  // Gray runs must contain at least one gray fault; churn runs at least one
  // rehash + a churn phase; capacity runs a capacity fault.  This is what
  // makes --fuzz-class a meaningful coverage knob rather than a label.
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    GeneratorConfig config;
    config.focus = FuzzClass::kGray;
    const Schedule gray = GenerateSchedule(seed, config);
    EXPECT_TRUE(std::any_of(gray.faults.begin(), gray.faults.end(),
                            [](const FaultEvent& e) {
                              return e.kind == FaultKind::kSlowShard ||
                                     e.kind == FaultKind::kAsymLoss ||
                                     e.kind == FaultKind::kPartition;
                            }));

    config.focus = FuzzClass::kChurn;
    const Schedule churn = GenerateSchedule(seed, config);
    EXPECT_TRUE(std::any_of(
        churn.faults.begin(), churn.faults.end(),
        [](const FaultEvent& e) { return e.kind == FaultKind::kEcmpRehash; }));
    EXPECT_TRUE(std::any_of(
        churn.loads.begin(), churn.loads.end(),
        [](const LoadPhase& p) { return p.kind == LoadKind::kLeaseChurn; }));

    // Flash schedules always carry the crash-mid-crowd pair: the crash is
    // what forces failover replay under admission pile-up, and the CI
    // class self-test (flash + mutate=seq) must reach it from any seed.
    config.focus = FuzzClass::kFlash;
    const Schedule flash = GenerateSchedule(seed, config);
    EXPECT_TRUE(std::any_of(
        flash.faults.begin(), flash.faults.end(),
        [](const FaultEvent& e) { return e.kind == FaultKind::kSwitchCrash; }));
    EXPECT_TRUE(std::any_of(
        flash.loads.begin(), flash.loads.end(),
        [](const LoadPhase& p) { return p.kind == LoadKind::kFlashCrowd; }));

    config.focus = FuzzClass::kCapacity;
    const Schedule cap = GenerateSchedule(seed, config);
    EXPECT_TRUE(std::any_of(
        cap.faults.begin(), cap.faults.end(),
        [](const FaultEvent& e) { return e.kind == FaultKind::kCapacity; }));
  }
}

TEST(ScheduleGenerator, SameSeedSameScheduleDifferentSeedsDiffer) {
  const Schedule a = GenerateSchedule(1234);
  const Schedule b = GenerateSchedule(1234);
  EXPECT_EQ(ToJson(a), ToJson(b));
  std::set<std::string> distinct;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    distinct.insert(ToJson(GenerateSchedule(seed)));
  }
  EXPECT_GT(distinct.size(), 8u);
}

// --- JSON round-trip -------------------------------------------------------

TEST(ScheduleJson, RoundTripsExactly) {
  for (std::uint64_t seed = 900; seed < 930; ++seed) {
    const Schedule s = GenerateSchedule(seed);
    const std::string json = ToJson(s);
    const auto back = ScheduleFromJson(json);
    ASSERT_TRUE(back.has_value()) << json;
    EXPECT_EQ(ToJson(*back), json);
    EXPECT_EQ(back->seed, s.seed);
    EXPECT_EQ(back->packets_per_flow, s.packets_per_flow);
    EXPECT_EQ(back->lease_period, s.lease_period);
    ASSERT_EQ(back->faults.size(), s.faults.size());
    ASSERT_EQ(back->loads.size(), s.loads.size());
  }
}

TEST(ScheduleJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(ScheduleFromJson("").has_value());
  EXPECT_FALSE(ScheduleFromJson("not json").has_value());
  EXPECT_FALSE(ScheduleFromJson("[1, 2]").has_value());
  // Unknown fault kind: a repro written by a newer binary must not silently
  // replay with the unknown event dropped — that would "pass" a regression
  // without exercising it.
  EXPECT_FALSE(ScheduleFromJson(
                   R"({"faults": [{"kind": "warp_core_breach", "at_ns": 1}]})")
                   .has_value());
  EXPECT_FALSE(
      ScheduleFromJson(R"({"loads": [{"kind": "dance_party", "at_ns": 1}]})")
          .has_value());
  // Negative injection time / non-positive traffic are nonsense timelines.
  EXPECT_FALSE(ScheduleFromJson(
                   R"({"faults": [{"kind": "link_cut", "at_ns": -5}]})")
                   .has_value());
  EXPECT_FALSE(ScheduleFromJson(R"({"packets_per_flow": 0})").has_value());
  EXPECT_FALSE(ScheduleFromJson(R"({"lease_period_ns": 0})").has_value());
  EXPECT_FALSE(ScheduleFromJson(R"({"lease_period_ns": -1})").has_value());
  // Well-formed minimal document parses, with the default 50 ms lease.
  const auto minimal =
      ScheduleFromJson(R"({"seed": 1, "faults": [], "loads": []})");
  ASSERT_TRUE(minimal.has_value());
  EXPECT_EQ(minimal->lease_period, Milliseconds(50));
  const auto short_lease = ScheduleFromJson(R"({"lease_period_ns": 10000000})");
  ASSERT_TRUE(short_lease.has_value());
  EXPECT_EQ(short_lease->lease_period, Milliseconds(10));
  EXPECT_NE(ToJson(*short_lease).find("\"lease_period_ns\": 10000000"),
            std::string::npos);
}

// --- minimizer -------------------------------------------------------------

TEST(Minimizer, IsolatesTheCausalPairOutOfManyEvents) {
  // Synthetic oracle: the "bug" needs a store crash AND a SYN flood in the
  // same schedule; the other six events are noise.  ddmin must delete the
  // noise and keep exactly the causal pair.
  Schedule full;
  full.seed = 77;
  for (int i = 0; i < 5; ++i) {
    FaultEvent ev;
    ev.kind = i == 2 ? FaultKind::kStoreCrash : FaultKind::kEcmpRehash;
    ev.at = Milliseconds(2 + i);
    ev.clear_at = Milliseconds(20 + i);
    ev.magnitude = 3;
    full.faults.push_back(ev);
  }
  for (int i = 0; i < 3; ++i) {
    LoadPhase ph;
    ph.kind = i == 1 ? LoadKind::kSynFlood : LoadKind::kFlashCrowd;
    ph.at = Milliseconds(4 + i);
    ph.intensity = 8;
    full.loads.push_back(ph);
  }
  const auto oracle = [](const Schedule& s) {
    const bool crash = std::any_of(
        s.faults.begin(), s.faults.end(),
        [](const FaultEvent& e) { return e.kind == FaultKind::kStoreCrash; });
    const bool flood = std::any_of(
        s.loads.begin(), s.loads.end(),
        [](const LoadPhase& p) { return p.kind == LoadKind::kSynFlood; });
    return crash && flood;
  };
  ASSERT_TRUE(oracle(full));

  const MinimizeResult result = MinimizeSchedule(full, oracle);
  EXPECT_EQ(result.schedule.NumEvents(), 2u);
  ASSERT_EQ(result.schedule.faults.size(), 1u);
  ASSERT_EQ(result.schedule.loads.size(), 1u);
  EXPECT_EQ(result.schedule.faults[0].kind, FaultKind::kStoreCrash);
  EXPECT_EQ(result.schedule.loads[0].kind, LoadKind::kSynFlood);
  EXPECT_TRUE(result.one_minimal);
  // Seed and traffic shape survive minimization (replayability).
  EXPECT_EQ(result.schedule.seed, full.seed);
  EXPECT_EQ(result.schedule.packets_per_flow, full.packets_per_flow);
  // ddmin on 8 events should need far fewer probes than 2^8 subsets.
  EXPECT_LE(result.probes, 40);
}

TEST(Minimizer, SingleCulpritReducesToOneEvent) {
  Schedule full = GenerateSchedule(4242);
  ASSERT_GE(full.NumEvents(), 1u);
  FaultEvent culprit;
  culprit.kind = FaultKind::kPartition;
  culprit.at = Milliseconds(3);
  culprit.clear_at = Milliseconds(9);
  culprit.magnitude = 1.0;
  full.faults.push_back(culprit);
  const auto oracle = [](const Schedule& s) {
    return std::any_of(
        s.faults.begin(), s.faults.end(),
        [](const FaultEvent& e) { return e.kind == FaultKind::kPartition; });
  };
  const MinimizeResult result = MinimizeSchedule(full, oracle);
  EXPECT_EQ(result.schedule.NumEvents(), 1u);
  ASSERT_EQ(result.schedule.faults.size(), 1u);
  EXPECT_EQ(result.schedule.faults[0].kind, FaultKind::kPartition);
}

TEST(Minimizer, RespectsTheProbeBudget) {
  Schedule full = GenerateSchedule(5555);
  int calls = 0;
  const auto oracle = [&calls](const Schedule&) {
    ++calls;
    return true;  // pathological: everything "fails"
  };
  const MinimizeResult result = MinimizeSchedule(full, oracle, /*max_probes=*/7);
  EXPECT_LE(result.probes, 7);
  EXPECT_EQ(result.probes, calls);
}

// --- deterministic replay --------------------------------------------------

TEST(DeterministicReplay, SameSeedAndScheduleGiveIdenticalTraceHash) {
  Schedule s;
  s.seed = 31337;
  s.packets_per_flow = 12;
  FaultEvent cut;
  cut.kind = FaultKind::kLinkCut;
  cut.at = Milliseconds(2);
  cut.clear_at = Milliseconds(12);
  s.faults.push_back(cut);
  LoadPhase crowd;
  crowd.kind = LoadKind::kFlashCrowd;
  crowd.at = Milliseconds(3);
  crowd.duration = Milliseconds(4);
  crowd.intensity = 8;
  s.loads.push_back(crowd);

  const std::string out_dir = TempOutDir("fuzz_replay");
  for (const core::ConsistencyMode mode :
       {core::ConsistencyMode::kSingleOwner,
        core::ConsistencyMode::kReplicatedRead,
        core::ConsistencyMode::kMergeable}) {
    std::uint64_t unbatched_hash = 0;
    for (const SimDuration coalesce : {SimDuration{0}, Microseconds(16)}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(mode)) + " coalesce " +
                   std::to_string(coalesce));
      const RunResult first =
          RunSchedule(s, mode, {}, out_dir, "replay_a", coalesce);
      const RunResult second =
          RunSchedule(s, mode, {}, out_dir, "replay_b", coalesce);
      EXPECT_TRUE(first.Clean()) << first.oracle_why;
      EXPECT_TRUE(second.Clean()) << second.oracle_why;
      EXPECT_NE(first.trace_hash, 0u);
      // The replay contract: bit-identical delivery stream, not merely the
      // same counters.  This is what makes a minimized schedule a *repro*.
      EXPECT_EQ(first.trace_hash, second.trace_hash);
      EXPECT_EQ(first.sent, second.sent);
      EXPECT_EQ(first.delivered, second.delivered);
      if (coalesce == 0) {
        unbatched_hash = first.trace_hash;
      } else if (mode != core::ConsistencyMode::kMergeable) {
        // The coalesce delay reaches the switches: batched write acks
        // shift delivery times.  Mergeable writes are zero-RTT deltas that
        // never batch, so its stream is the same either way.
        EXPECT_NE(first.trace_hash, unbatched_hash);
      }
    }
  }
}

// --- verdict ---------------------------------------------------------------

Schedule OneFault(FaultKind kind) {
  Schedule s;
  FaultEvent ev;
  ev.kind = kind;
  ev.at = Milliseconds(2);
  ev.clear_at = Milliseconds(20);
  s.faults.push_back(ev);
  return s;
}

RunResult CleanRun(std::size_t episodes) {
  RunResult r;
  r.scenario = "synthetic";
  r.delivered = 100;
  for (std::size_t i = 0; i < episodes; ++i) {
    EpisodeOut eo;
    eo.complete = true;
    eo.phase_sum_ok = true;
    r.episodes.push_back(eo);
  }
  return r;
}

RunResult WithViolation(RunResult r, const std::string& monitor) {
  ViolationOut v;
  v.monitor = monitor;
  r.violations.push_back(v);
  return r;
}

constexpr core::ConsistencyMode kSingle = core::ConsistencyMode::kSingleOwner;
constexpr core::ConsistencyMode kReplicated =
    core::ConsistencyMode::kReplicatedRead;
constexpr core::ConsistencyMode kMergeable = core::ConsistencyMode::kMergeable;

TEST(CampaignVerdict, EpisodeRuleIsDerivedFromTheSchedule) {
  EXPECT_TRUE(ExpectsOneEpisode(OneFault(FaultKind::kSwitchCrash)));
  EXPECT_TRUE(ExpectsOneEpisode(OneFault(FaultKind::kLinkCut)));
  EXPECT_TRUE(ExpectsOneEpisode(OneFault(FaultKind::kStoreCrash)));
  EXPECT_FALSE(ExpectsOneEpisode(OneFault(FaultKind::kSlowShard)));
  EXPECT_FALSE(ExpectsOneEpisode(OneFault(FaultKind::kEcmpRehash)));
  Schedule two = OneFault(FaultKind::kSwitchCrash);
  two.faults.push_back(two.faults.front());
  EXPECT_FALSE(ExpectsOneEpisode(two));
  Schedule loaded = OneFault(FaultKind::kSwitchCrash);
  loaded.loads.push_back(LoadPhase{});
  EXPECT_FALSE(ExpectsOneEpisode(loaded));
  EXPECT_FALSE(ExpectsOneEpisode(Schedule{}));
}

TEST(CampaignVerdict, CleanBatchNeedsOnePhaseConsistentEpisodePerGatedFault) {
  const Schedule crash = OneFault(FaultKind::kSwitchCrash);
  const Schedule gray = OneFault(FaultKind::kSlowShard);
  EXPECT_EQ(Judge({crash, gray}, {CleanRun(1), CleanRun(0)}, kSingle, {})
                .exit_code,
            kExitOk);
  // Zero or two episodes, an incomplete one, or a phase-sum mismatch fail.
  EXPECT_EQ(Judge({crash}, {CleanRun(0)}, kSingle, {}).exit_code,
            kExitViolation);
  EXPECT_EQ(Judge({crash}, {CleanRun(2)}, kReplicated, {}).exit_code,
            kExitViolation);
  RunResult incomplete = CleanRun(1);
  incomplete.episodes.front().complete = false;
  EXPECT_EQ(Judge({crash}, {incomplete}, kSingle, {}).exit_code,
            kExitViolation);
  RunResult bad_sum = CleanRun(1);
  bad_sum.episodes.front().phase_sum_ok = false;
  EXPECT_EQ(Judge({crash}, {bad_sum}, kSingle, {}).exit_code, kExitViolation);
  // Mergeable flows never pause on failover: no episode rule there.
  EXPECT_EQ(Judge({crash}, {CleanRun(0)}, kMergeable, {}).exit_code, kExitOk);
  // Any violation or a run with no deliveries fails a clean batch.
  EXPECT_EQ(Judge({gray}, {WithViolation(CleanRun(0), "single_owner")},
                  kSingle, {})
                .exit_code,
            kExitViolation);
  RunResult lin = CleanRun(0);
  lin.lin_failures = 1;
  EXPECT_EQ(Judge({gray}, {lin}, kSingle, {}).exit_code, kExitViolation);
  RunResult silent = CleanRun(0);
  silent.delivered = 0;
  EXPECT_EQ(Judge({gray, gray}, {CleanRun(0), silent}, kSingle, {}).exit_code,
            kExitViolation);
}

TEST(CampaignVerdict, MutationMustTripItsMonitorOrStaySilentWhereLegal) {
  const Schedule crash = OneFault(FaultKind::kSwitchCrash);
  MutationSpec stale;
  stale.stale = true;
  // Replicated-read: bounded_staleness must fire somewhere in the batch;
  // another monitor does not count for the mode-specific mutations.
  const RunResult caught = WithViolation(CleanRun(1), "bounded_staleness");
  EXPECT_EQ(
      Judge({crash, crash}, {CleanRun(1), caught}, kReplicated, stale).exit_code,
      kExitOk);
  EXPECT_EQ(Judge({crash}, {WithViolation(CleanRun(1), "seq_monotonic")},
                  kReplicated, stale)
                .exit_code,
            kExitMutationSilent);
  // Legal elsewhere: silence passes, any violation fails.
  EXPECT_EQ(Judge({crash}, {CleanRun(1)}, kMergeable, stale).exit_code,
            kExitOk);
  EXPECT_EQ(Judge({crash}, {caught}, kMergeable, stale).exit_code,
            kExitViolation);
  MutationSpec merge;
  merge.merge = true;
  EXPECT_EQ(Judge({crash}, {CleanRun(0)}, kMergeable, merge).exit_code,
            kExitMutationSilent);
  EXPECT_EQ(Judge({crash}, {CleanRun(1)}, kSingle, merge).exit_code, kExitOk);

  // The legacy three: any violation counts (a seq corruption may surface
  // first as a linearizability failure); silence is a broken oracle.  A
  // mutated batch is not held to the episode rule.
  MutationSpec seq;
  seq.seq = true;
  RunResult lin = CleanRun(0);
  lin.lin_failures = 2;
  EXPECT_EQ(Judge({crash}, {lin}, kSingle, seq).exit_code, kExitOk);
  EXPECT_EQ(Judge({crash}, {CleanRun(0)}, kSingle, seq).exit_code,
            kExitMutationSilent);
  EXPECT_EQ(Judge({crash}, {CleanRun(1)}, kMergeable, seq).exit_code, kExitOk);
  EXPECT_EQ(ExpectationFor(seq, kSingle).monitor, "seq_monotonic");
  EXPECT_TRUE(ExpectationFor(seq, kMergeable).silence);
}

// --- committed repros ------------------------------------------------------

TEST(CommittedSchedules, EveryReproParsesAndReplaysClean) {
  const std::filesystem::path dir =
      std::filesystem::path(REDPLANE_SOURCE_DIR) / "tests" / "schedules";
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  const std::string out_dir = TempOutDir("fuzz_repro");
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++count;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    const auto schedule = ScheduleFromJson(buf.str());
    ASSERT_TRUE(schedule.has_value());
    EXPECT_FALSE(schedule->Empty());
    // Round-trip stability keeps the committed artifacts diff-friendly.
    const auto again = ScheduleFromJson(ToJson(*schedule));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(ToJson(*again), ToJson(*schedule));
    // Replay under the campaign verdict: the named scenarios and the
    // minimized repros of fixed bugs must run clean, and a single fail-stop
    // fault must give one phase-consistent recovery episode.  The schedule
    // does not pin a consistency mode and some bugs only reproduce under a
    // weaker one (the tail-crash commit gap needs replicated buffered
    // reads; the stale-resync rollback needs mergeable deltas), so replay
    // all three.
    for (const core::ConsistencyMode mode :
         {core::ConsistencyMode::kSingleOwner,
          core::ConsistencyMode::kReplicatedRead,
          core::ConsistencyMode::kMergeable}) {
      SCOPED_TRACE(static_cast<int>(mode));
      const RunResult result = RunSchedule(*schedule, mode, {}, out_dir,
                                           entry.path().stem().string());
      const Verdict verdict = Judge({*schedule}, {result}, mode, {});
      EXPECT_EQ(verdict.exit_code, kExitOk) << verdict.message;
    }
  }
  // Four named scenarios + six minimized repros.
  EXPECT_GE(count, 10u);
}

}  // namespace
}  // namespace redplane::campaign
