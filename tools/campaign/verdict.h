// Campaign verdict: the one rule set that turns a batch of runs into a
// pass/fail exit code, whichever way the schedules were sourced (fuzz
// generator or schedule files).
//
//   mutated batch — the mode-aware expectation (DESIGN.md §14): the
//     mutation's monitor must fire somewhere in the batch, or, where the
//     mutation is legal under the mode, the auditor must stay silent.  The
//     legacy three (lease, seq, chain) keep the looser rule that any
//     violation counts: a seq corruption may surface first as a
//     linearizability failure.
//   clean batch — every run Clean(), and every run whose schedule's only
//     event is one fail-stop fault (switch_crash, link_cut, store_crash)
//     yields exactly one complete recovery episode whose phases sum to the
//     measured downtime (DESIGN.md §13).  Mergeable mode is exempt from the
//     episode rule: flows never pause on failover there.
#pragma once

#include <string>
#include <vector>

#include "core/consistency.h"
#include "tools/campaign/runner.h"
#include "tools/campaign/schedule.h"

namespace redplane::campaign {

/// Exit codes of the campaign binary.
inline constexpr int kExitOk = 0;
/// A clean run violated, an episode is missing or inconsistent, a legal
/// mutation was flagged, or a replay hash diverged.
inline constexpr int kExitViolation = 1;
/// A mutation's expected monitor stayed silent: the oracle is broken.
inline constexpr int kExitMutationSilent = 2;
inline constexpr int kExitUsage = 64;

struct Expectation {
  std::string monitor;   // monitor that must fire, empty = none
  bool silence = false;  // mutation is legal under this mode
};

/// Which monitor a mutation must trip under `mode`, or whether the
/// mutation is legal there (expected silence).
Expectation ExpectationFor(const MutationSpec& mut, core::ConsistencyMode mode);

/// Monitor violations + linearizability failures + offline-oracle failures.
std::size_t TotalViolations(const RunResult& r);

/// True when the schedule's only event is one fail-stop fault, so its run
/// must show exactly one recovery episode.
bool ExpectsOneEpisode(const Schedule& schedule);

struct Verdict {
  int exit_code = kExitOk;
  std::string message;
};

/// Judges `runs[i]`, the result of `schedules[i]`, as one batch; the two
/// vectors have the same length.
Verdict Judge(const std::vector<Schedule>& schedules,
              const std::vector<RunResult>& runs, core::ConsistencyMode mode,
              const MutationSpec& mut);

}  // namespace redplane::campaign
