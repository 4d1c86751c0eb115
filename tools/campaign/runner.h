// Campaign run harness: builds the paper's testbed with the auditor armed,
// drives traffic, injects faults, and harvests violations + forensics.
//
// Two entry points share the harness:
//   RunOne      — the four legacy named scenarios (switch_crash, link_flap,
//                 lease_race, store_failover), unchanged semantics.
//   RunSchedule — executes a fuzz Schedule (tools/campaign/schedule.h):
//                 each FaultEvent maps onto the failure injector or the
//                 gray-failure hooks, each LoadPhase onto a src/trace
//                 adversarial generator injected on top of the audited base
//                 traffic.  The result carries a trace hash (FNV-1a over
//                 every delivered (time, marker, value) tuple) so the same
//                 (seed, schedule) pair is checkably bit-identical across
//                 replays — the deterministic-replay contract the minimizer
//                 and the committed regression schedules rely on.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/consistency.h"
#include "obs/recovery.h"
#include "tools/campaign/schedule.h"

namespace redplane::campaign {

struct MutationSpec {
  bool lease = false;  // switch lease belief inflated past the store's
  bool seq = false;    // store sequence filter disabled
  bool chain = false;  // head acks before chain-wide commit
  bool stale = false;  // replicated-read serves local reads past the bound
  bool merge = false;  // store overwrites merge deltas instead of joining
  bool any() const { return lease || seq || chain || stale || merge; }
};

struct ViolationOut {
  std::string monitor;
  std::string detail;
  SimTime at = 0;
  std::size_t slice_events = 0;
  bool slice_closed = false;
  std::string slice_json_path;
  std::string slice_text_path;
};

struct PhaseOut {
  std::string name;
  std::size_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Flattened view of one obs::RecoveryEpisode for the campaign report.
struct EpisodeOut {
  std::uint64_t id = 0;
  std::string trigger;
  bool complete = false;
  bool phase_sum_ok = false;
  SimDuration downtime = 0;
  std::array<SimDuration, obs::kNumRecoveryPhases> phase{};
  std::size_t flows = 0;
  double flow_p50_us = 0;
  double flow_p99_us = 0;
  double flow_max_us = 0;
  std::uint32_t extra_faults = 0;
};

struct RunResult {
  std::string scenario;
  std::uint64_t seed = 0;
  int sent = 0;
  int delivered = 0;
  std::uint64_t audit_events = 0;
  std::size_t lin_failures = 0;
  /// Offline per-mode oracle verdicts (modelcheck/linearizability.h):
  /// staleness and merge-convergence samples are collected from the stream
  /// and re-judged by an implementation independent of the online monitors.
  std::size_t oracle_failures = 0;
  std::string oracle_why;
  std::size_t staleness_samples = 0;
  std::size_t merge_samples = 0;
  std::vector<ViolationOut> violations;
  std::vector<PhaseOut> phases;
  double write_rtt_p50_us = 0;
  double write_rtt_p99_us = 0;
  std::vector<EpisodeOut> episodes;
  std::string recovery_json_path;
  std::string fleet_csv_path;
  std::size_t fleet_samples = 0;
  /// FNV-1a over every delivered (time, marker, value); the deterministic-
  /// replay fingerprint.  Only RunSchedule fills it.
  std::uint64_t trace_hash = 0;

  /// The fuzz oracle: no monitor violations, no linearizability failures,
  /// no offline-oracle failures, and traffic actually flowed.
  bool Clean() const {
    return violations.empty() && lin_failures == 0 && oracle_failures == 0 &&
           delivered > 0;
  }
};

struct Scenario {
  std::string name;
  const char* description;
};

const std::vector<Scenario>& Scenarios();

/// Runs one legacy named scenario.
RunResult RunOne(const Scenario& sc, std::uint64_t seed,
                 core::ConsistencyMode mode, const MutationSpec& mut,
                 const std::string& out_dir, int packets_per_flow,
                 SimDuration coalesce_delay);

/// Executes a fuzz schedule.  `label` stems the artifact filenames.
RunResult RunSchedule(const Schedule& schedule, core::ConsistencyMode mode,
                      const MutationSpec& mut, const std::string& out_dir,
                      const std::string& label);

void WriteJsonReport(std::ostream& os, const std::vector<RunResult>& runs,
                     core::ConsistencyMode mode, const MutationSpec& mut);
void WriteMarkdownReport(std::ostream& os, const std::vector<RunResult>& runs);

}  // namespace redplane::campaign
