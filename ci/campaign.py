#!/usr/bin/env python3
"""Fault-campaign CI driver: run the audited failure campaign and gate on it.

Every gate is one invocation of the campaign binary, which runs a batch of
schedules with the protocol auditor armed and applies one verdict to it
(tools/campaign/verdict.h); this script only chooses the batches.  Three
gates:

 1. Schedule replay — every schedule under tests/schedules/ (the four named
    failure scenarios switch_crash, link_flap, lease_race and
    store_failover, plus the minimized repros of fuzz-found bugs), each
    re-seeded --seeds times, in each consistency mode (single, replicated,
    mergeable; DESIGN.md section 14) and once more single-owner with
    replication batching on (--batching=16).  Every run must finish with
    zero monitor violations, linearizability failures and offline-oracle
    failures; a schedule whose only event is one fail-stop fault must also
    yield exactly one complete recovery episode whose phase durations sum
    to the measured downtime (DESIGN.md section 13; mergeable exempt).
    Causal slices, recovery timelines and fleet time-series land in
    --out-dir for upload.

 2. Oracle self-test — the same directory, at each file's own seed, under
    each seeded protocol mutation.  lease/seq/chain must be caught, per
    packet and batched; --mutate=stale must trip bounded_staleness under
    replicated but is legal (auditor silent) under mergeable;
    --mutate=merge must trip merge_convergence under mergeable and is a
    no-op under single-owner.  A silent mutated batch means the monitors
    have gone blind, and the job fails even though nothing "broke".

 3. Adversarial fuzz (--fuzz N, DESIGN.md section 15) — N randomized
    fault+load schedules drawn by the seeded generator, split across the
    three consistency modes and judged like gate 1.  On a violation the
    binary ddmin-minimizes the schedule, so the artifact in --out-dir
    (minimized_<seed>.schedule.json) is a replayable repro.  A per-class
    mutation self-test then proves each scenario class still reaches its
    oracle: gray schedules must trip chain_commit under --mutate=chain,
    churn schedules single_owner under --mutate=lease, flash schedules
    seq_monotonic under --mutate=seq, capacity schedules single_owner under
    --mutate=lease.

Usage:
  ci/campaign.py --campaign build/tools/campaign --out-dir campaign-out
                 [--seeds 5] [--packets 40] [--fuzz N] [--fuzz-seed BASE]
                 [--schedules-dir tests/schedules] [--skip-selftest]
                 [--skip-batching] [--skip-modes]
"""

import argparse
import pathlib
import subprocess
import sys

# Campaign binary exit codes (tools/campaign/verdict.h).
EXIT_OK = 0
EXIT_MUTATION_SILENT = 2

MODES = ["single", "replicated", "mergeable"]

# (mutation, mode, expectation label) — the binary itself decides pass/fail
# from its mode-aware mapping; the label is for the failure message only.
MODE_MUTATIONS = [
    ("stale", "replicated", "bounded_staleness must fire"),
    ("stale", "mergeable", "legal: auditor must stay silent"),
    ("merge", "mergeable", "merge_convergence must fire"),
    ("merge", "single", "legal: auditor must stay silent"),
]

# (fuzz class, mutation, monitor) — each scenario class must demonstrably
# reach its oracle when the matching protocol bug is seeded (gate 3).
FUZZ_CLASS_MUTATIONS = [
    ("gray", "chain", "chain_commit"),
    ("churn", "lease", "single_owner"),
    ("flash", "seq", "seq_monotonic"),
    ("capacity", "lease", "single_owner"),
]


def run(campaign, out_dir, extra, label):
    cmd = [campaign, f"--out-dir={out_dir}"] + extra
    print(f"\n=== {label}: {' '.join(cmd)}", flush=True)
    return subprocess.run(cmd).returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--campaign", required=True,
                    help="path to the built tools/campaign binary")
    ap.add_argument("--out-dir", required=True,
                    help="report + causal-slice artifact directory")
    ap.add_argument("--seeds", type=int, default=5,
                    help="re-seeds of each schedule file in gate 1")
    ap.add_argument("--packets", type=int, default=40,
                    help="base rounds per flow of the fuzz schedules")
    ap.add_argument("--fuzz", type=int, default=0,
                    help="number of randomized fault+load schedules to run "
                         "(split across the three consistency modes; 0 = "
                         "skip the fuzz gate)")
    ap.add_argument("--fuzz-seed", type=int, default=1000,
                    help="base seed for the fuzz schedule generator")
    ap.add_argument("--schedules-dir",
                    default=str(pathlib.Path(__file__).resolve().parent.parent
                                / "tests" / "schedules"),
                    help="named scenarios + minimized repros to replay")
    ap.add_argument("--skip-selftest", action="store_true",
                    help="skip the mutation oracle self-test runs")
    ap.add_argument("--skip-batching", action="store_true",
                    help="skip the batching-enabled (--batching=16) passes")
    ap.add_argument("--skip-modes", action="store_true",
                    help="skip the replicated/mergeable consistency passes")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = []

    def gate(out_name, extra, label, expectation="clean"):
        rc = run(args.campaign, out / out_name, extra, label)
        if rc == EXIT_MUTATION_SILENT:
            failures.append(f"{label}: expected monitor stayed silent "
                            f"({expectation})")
        elif rc != EXIT_OK:
            failures.append(f"{label} exited {rc} ({expectation}; see "
                            f"{out / out_name})")

    modes = MODES[:1] if args.skip_modes else MODES
    schedules = [f"--schedule={args.schedules_dir}"]
    batch_axes = [[]] if args.skip_batching else [[], ["--batching=16"]]

    def axis(batch):
        return ("-batched", ", batching on") if batch else ("", "")

    # Gate 1: schedule replay, every mode, plus single-owner batched.
    passes = [(mode, []) for mode in modes]
    passes += [("single", batch) for batch in batch_axes if batch]
    for mode, batch in passes:
        suffix, note = axis(batch)
        gate(f"clean-{mode}{suffix}",
             schedules + [f"--seeds={args.seeds}", f"--consistency={mode}"]
             + batch,
             f"schedule replay ({args.seeds} seeds, consistency={mode}{note})")

    # Gate 2: each seeded protocol mutation must trip its monitor (or stay
    # silent where the mode makes it legal).
    if not args.skip_selftest:
        for mut in ["lease", "seq", "chain"]:
            for batch in batch_axes:
                suffix, note = axis(batch)
                gate(f"mutate-{mut}{suffix}",
                     schedules + [f"--mutate={mut}"] + batch,
                     f"oracle self-test (mutate={mut}{note})",
                     "the monitors must catch a seeded protocol bug")
        if not args.skip_modes:
            for mut, mode, expectation in MODE_MUTATIONS:
                gate(f"mutate-{mut}-{mode}",
                     schedules + [f"--mutate={mut}", f"--consistency={mode}"],
                     f"mode-aware oracle self-test (mutate={mut}, "
                     f"consistency={mode})", expectation)

    # Gate 3: randomized fault+load fuzzing, budget split across the modes,
    # then each scenario class must still reach its oracle when the
    # matching protocol bug is seeded.
    if args.fuzz > 0:
        per_mode = max(1, args.fuzz // 3)
        for i, mode in enumerate(MODES):
            gate(f"fuzz-{mode}",
                 [f"--fuzz={per_mode}", "--fuzz-class=mixed",
                  f"--fuzz-seed={args.fuzz_seed + 10000 * i}",
                  f"--packets={args.packets}", f"--consistency={mode}"],
                 f"adversarial fuzz ({per_mode} schedules, "
                 f"consistency={mode})",
                 "minimized repro in the out dir")
        if not args.skip_selftest:
            for cls, mut, monitor in FUZZ_CLASS_MUTATIONS:
                gate(f"fuzz-{cls}-{mut}",
                     ["--fuzz=2", f"--fuzz-class={cls}",
                      f"--fuzz-seed={args.fuzz_seed}",
                      f"--packets={args.packets}", f"--mutate={mut}"],
                     f"fuzz-class oracle self-test ({cls} + mutate={mut})",
                     f"{monitor} must fire")

    if failures:
        print("\nFAULT CAMPAIGN FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nfault campaign OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
