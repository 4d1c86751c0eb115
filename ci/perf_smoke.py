#!/usr/bin/env python3
"""Perf smoke test: run bench_micro and fail on regression.

Two kinds of checks:

 1. Machine-independent invariants of the zero-copy core, the online
    auditor, and the timing-wheel retransmit path — these must hold on any
    hardware:
      * steady-state event dispatch performs zero heap allocations,
      * a protocol encode is exactly one heap allocation
        (BM_ProtocolEncode's allocs_per_op is 1: sized first, written in
        place), and parsing a piggybacked output is zero
        (BM_PiggybackParse's allocs_per_op is 0: its payload is a slice),
      * a switch hop costs exactly one simulator event (BM_SwitchHop's
        events_per_hop is 1.0: link arrival and pipeline pass share it),
      * zero-copy hop forwarding beats the deep-copy/re-encode path by at
        least 2x (the PR's acceptance bar),
      * an armed-but-silent auditor adds at most 5% to the hop-forward and
        chain-hop paths (plus a small absolute epsilon to absorb timer
        granularity on sub-10ns benches),
      * the per-tick retransmit check is O(due entries), not O(table):
        BM_MirrorDueScan per-item cost at 1M parked flows stays within 10%
        of the 10k-flow cost, and beats the whole-table-walk before-twin
        (BM_MirrorFullScan) by at least 50x at 1M flows,
      * the pluggable ConsistencyPolicy layer does not tax the default mode:
        the single-owner sequencing core routed through the policy object
        (BM_SingleOwnerSequencingPolicy) stays within 2% of the hard-wired
        before-twin (BM_SingleOwnerSequencingInline), plus a small absolute
        epsilon for timer granularity on the ~9 ns region.
 2. Absolute regression against the recorded baselines (by default every
    BENCH_PR*.json at the repo root that carries a reference_ns map;
    --baseline is repeatable and replaces that list): each benchmark must
    stay within --tolerance (default 25%) of its baseline time.  Skipped
    with --no-absolute on hardware that does not match the baseline
    machine.

When a regression fires, --profile (a profile JSON written by a bench run's
--profile-out, or by rpreport) turns the failure from "something got slower"
into "THIS subsystem got slower": the script prints per-subsystem wall-clock
self-time attribution, and — when --profile-baseline gives a profile from the
last good run — the share diff, sorted by who grew the most.

Usage:
  ci/perf_smoke.py --bench build/bench/bench_micro [--baseline BENCH_PR2.json]
                   [--tolerance 0.25]
                   [--no-absolute] [--table-out perf-report/timer_table.md]
                   [--profile run/profile.json]
                   [--profile-baseline good/profile.json]

--table-out writes a markdown before/after table for the timing-wheel
retransmit path (whole-table walk vs due-slot pop at 10k and 1M flows, plus
the wheel primitives) — CI uploads it as an artifact.
"""

import argparse
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def default_baselines():
    """Every BENCH_PR*.json at the repo root that has a reference_ns map."""
    paths = []
    for path in sorted(REPO_ROOT.glob("BENCH_PR*.json")):
        with open(path) as f:
            if json.load(f).get("reference_ns"):
                paths.append(str(path))
    return paths


def subsystem_self_ns(profile_path):
    """Per-subsystem self-time from a profiler JSON ({"sites": [...]}).

    The subsystem is the site-name prefix before the first '.', the same
    rollup key rpreport uses.
    """
    with open(profile_path) as f:
        doc = json.load(f)
    rollup = {}
    for site in doc.get("sites", []):
        subsystem = site.get("name", "?").split(".", 1)[0]
        rollup[subsystem] = rollup.get(subsystem, 0.0) + site.get("self_ns", 0)
    return rollup


def print_attribution(profile_path, baseline_path):
    try:
        current = subsystem_self_ns(profile_path)
    except (OSError, json.JSONDecodeError, AttributeError) as e:
        print(f"  (could not read profile {profile_path}: {e})")
        return
    total = sum(current.values()) or 1.0
    baseline = {}
    if baseline_path:
        try:
            baseline = subsystem_self_ns(baseline_path)
        except (OSError, json.JSONDecodeError, AttributeError) as e:
            print(f"  (could not read baseline profile {baseline_path}: {e})")
    base_total = sum(baseline.values()) or 1.0

    print("\nPer-subsystem wall-clock attribution"
          + (" (share vs baseline):" if baseline else ":"))
    rows = []
    for subsystem in sorted(set(current) | set(baseline)):
        share = current.get(subsystem, 0.0) / total
        if baseline:
            base_share = baseline.get(subsystem, 0.0) / base_total
            rows.append((share - base_share, subsystem, share, base_share))
        else:
            rows.append((share, subsystem, share, None))
    rows.sort(reverse=True)
    for delta, subsystem, share, base_share in rows:
        if base_share is None:
            print(f"  {subsystem:12s} {share * 100:6.1f}%")
        else:
            print(f"  {subsystem:12s} {share * 100:6.1f}%  "
                  f"(was {base_share * 100:5.1f}%, "
                  f"{'+' if delta >= 0 else ''}{delta * 100:.1f} pts)")
    if rows and base_share is not None:
        top = rows[0]
        if top[0] > 0.01:
            print(f"  => largest growth: {top[1]} "
                  f"(+{top[0] * 100:.1f} pts of total self time)")


def run_bench(bench_path):
    out = subprocess.run(
        [
            bench_path,
            "--benchmark_format=json",
            "--benchmark_min_time=0.2",
            "--benchmark_repetitions=3",
            "--benchmark_report_aggregates_only=true",
            # Run the repetitions of all benchmarks in random order, so each
            # A/B twin is measured interleaved with its partner rather than
            # minutes apart under a different machine load.
            "--benchmark_enable_random_interleaving=true",
        ],
        check=True,
        capture_output=True,
        text=True,
    )
    results = {}
    counters = {}
    for b in json.loads(out.stdout)["benchmarks"]:
        if b.get("aggregate_name") != "median":
            continue
        name = b["run_name"]
        results[name] = b["real_time"]
        for key in ("heap_allocs_per_dispatch", "items_per_second",
                    "events_per_hop", "allocs_per_op"):
            if key in b:
                counters.setdefault(name, {})[key] = b[key]
    return results, counters


def write_timer_table(path, results, counters):
    """Markdown before/after table for the retransmit-check refactor."""

    def fmt(name):
        ns = results.get(name)
        return f"{ns:,.1f} ns" if ns is not None else "n/a"

    lines = [
        "# Retransmit check: whole-table walk vs per-entry wheel timers",
        "",
        "Per-tick cost of finding due retransmissions.  'Before' walks every",
        "mirror entry comparing its last-send time (the retired"
        " ScanRetransmits",
        "design, kept as the BM_MirrorFullScan before-twin); 'after' pops the",
        "earliest due timing-wheel slot while the parked majority never gets",
        "touched.",
        "",
        "| Flows | Before: full walk | After: due-slot pop | Ratio |",
        "|---|---|---|---|",
    ]
    for flows, arg in [("10k", "10240"), ("1M", "1048576")]:
        before = results.get(f"BM_MirrorFullScan/{arg}")
        after = results.get(f"BM_MirrorDueScan/{arg}")
        ratio = (f"{before / after:,.0f}x"
                 if before is not None and after is not None else "n/a")
        lines.append(f"| {flows} | {fmt(f'BM_MirrorFullScan/{arg}')} "
                     f"| {fmt(f'BM_MirrorDueScan/{arg}')} | {ratio} |")
    rate_10k = counters.get("BM_MirrorDueScan/10240", {}).get(
        "items_per_second")
    rate_1m = counters.get("BM_MirrorDueScan/1048576", {}).get(
        "items_per_second")
    if rate_10k and rate_1m:
        lines += [
            "",
            f"Due-scan throughput: {rate_10k / 1e6:.1f} M items/s at 10k "
            f"flows vs {rate_1m / 1e6:.1f} M items/s at 1M flows "
            f"({abs(rate_10k / rate_1m - 1) * 100:.1f}% apart — the check "
            "is flat in table size).",
        ]
    lines += [
        "",
        "## Wheel and table primitives",
        "",
        "| Benchmark | Time |",
        "|---|---|",
    ]
    for name in ["BM_TimerWheelSchedule", "BM_TimerWheelAdvance",
                 "BM_TimerWheelCancel", "BM_FlowTableLookup/10240",
                 "BM_FlowTableLookup/1048576"]:
        lines.append(f"| {name} | {fmt(name)} |")
    lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines))
    print(f"wrote before/after table to {path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True)
    ap.add_argument("--baseline", action="append", default=None,
                    help="baseline JSON with a reference_ns map; repeatable "
                         "(default: every BENCH_PR*.json with one)")
    ap.add_argument("--tolerance", type=float, default=0.25)
    ap.add_argument("--no-absolute", action="store_true")
    ap.add_argument("--table-out", default=None,
                    help="write the timing-wheel before/after markdown "
                         "table here")
    ap.add_argument("--profile", default=None,
                    help="profile JSON from this run; on failure, prints "
                         "per-subsystem attribution")
    ap.add_argument("--profile-baseline", default=None,
                    help="profile JSON from the last good run; prints the "
                         "attribution diff to name the regressing subsystem")
    args = ap.parse_args()

    results, counters = run_bench(args.bench)
    failures = []

    # --- Invariant checks (machine-independent) ---
    allocs = counters.get("BM_EventDispatchSteadyState", {}).get(
        "heap_allocs_per_dispatch"
    )
    if allocs is None:
        failures.append("BM_EventDispatchSteadyState did not report "
                        "heap_allocs_per_dispatch")
    elif allocs != 0:
        failures.append(
            f"steady-state event dispatch allocates ({allocs}/dispatch)")

    # Deterministic allocation counts of the message codec, gated exactly.
    for name, want in [("BM_ProtocolEncode", 1.0), ("BM_PiggybackParse", 0.0)]:
        got = counters.get(name, {}).get("allocs_per_op")
        if got is None:
            failures.append(f"{name} did not report allocs_per_op")
        elif got != want:
            failures.append(
                f"{name} makes {got} heap allocations per op, not {want:g}")

    # Deterministic count, gated exactly.
    events_per_hop = counters.get("BM_SwitchHop", {}).get("events_per_hop")
    if events_per_hop is None:
        failures.append("BM_SwitchHop did not report events_per_hop")
    elif events_per_hop != 1.0:
        failures.append(
            f"a switch hop costs {events_per_hop} simulator events, not 1")

    for fast, slow, label in [
        ("BM_LinkHopForward", "BM_LinkHopForwardDeepCopy", "hop-forward"),
        ("BM_ChainHopForwardZeroCopy", "BM_ChainHopReencode", "chain-hop"),
    ]:
        if fast not in results or slow not in results:
            failures.append(f"missing benchmark pair for {label}")
            continue
        if results[fast] * 2 > results[slow]:
            failures.append(
                f"{label}: zero-copy path ({results[fast]:.1f} ns) is not "
                f">=2x faster than copy path ({results[slow]:.1f} ns)")

    # Batch envelope invariants: the envelope is framing, not serialization.
    # Wrapping a sub-message into a batch (BM_BatchEncode, per item) must be
    # cheaper than encoding a message from scratch (BM_ProtocolEncode) — if
    # it is not, EncodeBatchEnvelope has started re-serializing its subs.
    batch_benches = ["BM_BatchEncode/4", "BM_BatchEncode/16",
                     "BM_BatchChainHop/4", "BM_BatchChainHop/16"]
    missing = [b for b in batch_benches if b not in results]
    if missing:
        failures.append(f"missing batch benchmarks: {', '.join(missing)}")
    elif "BM_ProtocolEncode" in results:
        per_sub = results["BM_BatchEncode/16"] / 16
        if per_sub >= results["BM_ProtocolEncode"]:
            failures.append(
                f"batch encode per sub-message ({per_sub:.1f} ns) costs as "
                f"much as a full message encode "
                f"({results['BM_ProtocolEncode']:.1f} ns) — the envelope is "
                f"re-serializing")

    # Armed-but-silent auditor overhead on the hop paths: the emit guard is
    # one global load + predictable branch, so the armed bench must stay
    # within 5% of its unarmed twin.  The +0.5 ns epsilon absorbs timer
    # granularity: on a ~5 ns bench a single tick of run-to-run noise is
    # already >5%, and we are guarding the guard, not the scheduler.
    for base, armed, label in [
        ("BM_LinkHopForward", "BM_LinkHopForwardAuditorArmed", "hop-forward"),
        ("BM_ChainHopForwardZeroCopy", "BM_ChainHopForwardAuditorArmed",
         "chain-hop"),
    ]:
        if base not in results or armed not in results:
            failures.append(f"missing auditor-overhead pair for {label}")
            continue
        budget = results[base] * 1.05 + 0.5
        if results[armed] > budget:
            failures.append(
                f"{label}: auditor-armed path ({results[armed]:.1f} ns) "
                f"exceeds 5% overhead budget over unarmed "
                f"({results[base]:.1f} ns)")

    # Armed-profiler overhead on the same hop paths: a sampled ProfSite at
    # stride 256 amortizes its clock reads to well under a nanosecond per
    # entry, leaving a constant ~2 ns armed-not-sampled cost (one global
    # load, the stride-countdown decrement, two branches) that does not
    # scale with region size.  The +3 ns epsilon absorbs that constant on
    # these nanosecond-scale microbench regions; the 5% relative term is
    # what binds on real instrumented regions (switch/store process paths
    # are hundreds of ns, where 5% >> the constant).
    for base, armed, label in [
        ("BM_LinkHopForward", "BM_LinkHopForwardProfilerArmed",
         "hop-forward profiler"),
        ("BM_ChainHopForwardZeroCopy", "BM_ChainHopForwardProfilerArmed",
         "chain-hop profiler"),
    ]:
        if base not in results or armed not in results:
            failures.append(f"missing profiler-overhead pair for {label}")
            continue
        budget = results[base] * 1.05 + 3.0
        if results[armed] > budget:
            failures.append(
                f"{label}: profiler-armed path ({results[armed]:.1f} ns) "
                f"exceeds 5% + 3 ns overhead budget over unarmed "
                f"({results[base]:.1f} ns)")

    # Timing-wheel retransmit-check invariants (the PR 7 acceptance bar).
    # Flatness: the per-item due-scan cost must not depend on how many
    # non-due entries sit in the table — 1M parked flows vs 10k within 10%.
    due_rates = {}
    for arg in ("10240", "1048576"):
        rate = counters.get(f"BM_MirrorDueScan/{arg}", {}).get(
            "items_per_second")
        if rate is None:
            failures.append(
                f"BM_MirrorDueScan/{arg} did not report items_per_second")
        else:
            due_rates[arg] = rate
    if len(due_rates) == 2:
        ratio = due_rates["10240"] / due_rates["1048576"]
        if abs(ratio - 1.0) > 0.10:
            failures.append(
                f"retransmit check is not flat in table size: "
                f"{due_rates['10240'] / 1e6:.1f} M items/s at 10k flows vs "
                f"{due_rates['1048576'] / 1e6:.1f} M items/s at 1M "
                f"({abs(ratio - 1) * 100:.0f}% apart, budget 10%)")
    # Consistency-policy single-owner A/B (DESIGN.md §14): selecting the
    # single-owner policy explicitly must be free — the sequencing core
    # routed through the ConsistencyPolicy object stays within 2% of the
    # hard-wired before-twin.  The +0.5 ns epsilon absorbs timer granularity
    # on a ~9 ns region, as for the auditor-overhead pairs above.
    so_inline = results.get("BM_SingleOwnerSequencingInline")
    so_policy = results.get("BM_SingleOwnerSequencingPolicy")
    if so_inline is None or so_policy is None:
        failures.append("missing single-owner consistency A/B pair "
                        "(BM_SingleOwnerSequencing{Inline,Policy})")
    elif so_policy > so_inline * 1.02 + 0.5:
        failures.append(
            f"single-owner A/B: policy-layer path ({so_policy:.2f} ns) "
            f"exceeds the 2% budget over the hard-wired twin "
            f"({so_inline:.2f} ns)")

    # O(due) vs O(table): at 1M flows the due-slot pop must beat the
    # whole-table walk by orders of magnitude; 50x is a loose floor (the
    # measured gap is ~27000x) that still catches any accidental
    # reintroduction of a full scan on the due path.
    full_1m = results.get("BM_MirrorFullScan/1048576")
    due_1m = results.get("BM_MirrorDueScan/1048576")
    if full_1m is None or due_1m is None:
        failures.append("missing BM_MirrorFullScan/BM_MirrorDueScan at 1M")
    elif due_1m * 50 > full_1m:
        failures.append(
            f"due scan at 1M flows ({due_1m:.1f} ns) is not >=50x faster "
            f"than the full-table walk ({full_1m:.1f} ns)")

    # --- Absolute regression vs recorded baselines ---
    if not args.no_absolute:
        baseline_paths = args.baseline or default_baselines()
        baseline = {}
        for path in baseline_paths:
            with open(path) as f:
                baseline.update(json.load(f)["reference_ns"])
        for name, base_ns in baseline.items():
            got = results.get(name)
            if got is None:
                failures.append(f"baseline benchmark {name} missing from run")
            elif got > base_ns * (1.0 + args.tolerance):
                failures.append(
                    f"{name}: {got:.1f} ns vs baseline {base_ns:.1f} ns "
                    f"(+{(got / base_ns - 1) * 100:.0f}%, tolerance "
                    f"{args.tolerance * 100:.0f}%)")

    for name in sorted(results):
        print(f"  {name}: {results[name]:.2f} ns")
    if args.table_out:
        write_timer_table(args.table_out, results, counters)
    if failures:
        print("\nPERF SMOKE FAILED:")
        for f in failures:
            print(f"  - {f}")
        if args.profile:
            print_attribution(args.profile, args.profile_baseline)
        return 1
    print("\nperf smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
