#include "tools/campaign/verdict.h"

#include <sstream>

namespace redplane::campaign {
namespace {

const char* MutationName(const MutationSpec& mut) {
  if (mut.lease) return "lease";
  if (mut.seq) return "seq";
  if (mut.chain) return "chain";
  if (mut.stale) return "stale";
  if (mut.merge) return "merge";
  return "none";
}

std::string RunName(const RunResult& r) {
  return r.scenario + " seed " + std::to_string(r.seed);
}

}  // namespace

/// Stale reads are the mergeable mode's normal operation; merge overwrites
/// are unreachable without merge traffic; and lease/seq/chain corruptions
/// have nothing to corrupt on the lease-free mergeable path.
Expectation ExpectationFor(const MutationSpec& mut, core::ConsistencyMode mode) {
  const bool mergeable = mode == core::ConsistencyMode::kMergeable;
  Expectation ex;
  if (mut.lease) ex.monitor = "single_owner";
  if (mut.seq) ex.monitor = "seq_monotonic";
  if (mut.chain) ex.monitor = "chain_commit";
  if ((mut.lease || mut.seq || mut.chain) && mergeable) ex.silence = true;
  if (mut.stale) {
    ex.monitor = "bounded_staleness";
    ex.silence = mode != core::ConsistencyMode::kReplicatedRead;
  }
  if (mut.merge) {
    ex.monitor = "merge_convergence";
    ex.silence = !mergeable;
  }
  return ex;
}

std::size_t TotalViolations(const RunResult& r) {
  return r.violations.size() + r.lin_failures + r.oracle_failures;
}

bool ExpectsOneEpisode(const Schedule& schedule) {
  if (!schedule.loads.empty() || schedule.faults.size() != 1) return false;
  const FaultKind kind = schedule.faults.front().kind;
  return kind == FaultKind::kSwitchCrash || kind == FaultKind::kLinkCut ||
         kind == FaultKind::kStoreCrash;
}

Verdict Judge(const std::vector<Schedule>& schedules,
              const std::vector<RunResult>& runs, core::ConsistencyMode mode,
              const MutationSpec& mut) {
  const std::string consistency = core::ConsistencyModeName(mode);
  const std::string mutate = MutationName(mut);
  std::size_t violations = 0;
  int delivered = 0;
  for (const RunResult& r : runs) {
    violations += TotalViolations(r);
    delivered += r.delivered;
  }
  std::ostringstream msg;
  if (delivered == 0) {
    return {kExitViolation, "no traffic delivered in any run"};
  }

  if (mut.any()) {
    const Expectation ex = ExpectationFor(mut, mode);
    if (ex.silence) {
      if (violations > 0) {
        msg << "mutation '" << mutate << "' is legal under consistency "
            << consistency << " but the auditor reported " << violations
            << " violation(s)";
        return {kExitViolation, msg.str()};
      }
      msg << "mutation '" << mutate << "' is legal under consistency "
          << consistency << "; auditor stayed silent across " << runs.size()
          << " run(s)";
      return {kExitOk, msg.str()};
    }
    std::size_t expected_fired = 0;
    for (const RunResult& r : runs) {
      for (const ViolationOut& v : r.violations) {
        if (v.monitor == ex.monitor) ++expected_fired;
      }
    }
    const bool legacy = mut.lease || mut.seq || mut.chain;
    if (expected_fired == 0 && !(legacy && violations > 0)) {
      msg << "mutation '" << mutate << "' active but " << ex.monitor
          << " stayed silent across " << runs.size() << " run(s)";
      return {kExitMutationSilent, msg.str()};
    }
    msg << "mutation detected (" << violations << " violation(s), "
        << expected_fired << " from " << ex.monitor << ")";
    return {kExitOk, msg.str()};
  }

  for (const RunResult& r : runs) {
    if (!r.Clean()) {
      msg << RunName(r) << ": " << TotalViolations(r)
          << " invariant violation(s) on a clean run, delivered "
          << r.delivered;
      return {kExitViolation, msg.str()};
    }
  }
  std::size_t gated = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (mode == core::ConsistencyMode::kMergeable ||
        !ExpectsOneEpisode(schedules[i])) {
      continue;
    }
    ++gated;
    const RunResult& r = runs[i];
    if (r.episodes.size() != 1) {
      msg << RunName(r) << ": expected exactly one recovery episode, got "
          << r.episodes.size();
      return {kExitViolation, msg.str()};
    }
    if (!r.episodes.front().complete) {
      msg << RunName(r) << ": recovery episode incomplete (service never "
          << "resumed)";
      return {kExitViolation, msg.str()};
    }
    if (!r.episodes.front().phase_sum_ok) {
      msg << RunName(r) << ": phase durations do not sum to measured "
          << "downtime (see " << r.recovery_json_path << ")";
      return {kExitViolation, msg.str()};
    }
  }
  msg << runs.size() << " run(s) clean under consistency " << consistency
      << "; " << gated << " single-fault run(s) produced one "
      << "phase-consistent recovery episode";
  return {kExitOk, msg.str()};
}

}  // namespace redplane::campaign
