#!/usr/bin/env python3
"""Performance-trajectory table: diff the checked-in BENCH_PR*.json baselines.

Each optimization PR checks in a BENCH_PR<N>.json recording what it sped up
(before/after medians on the baseline machine).  This script joins them into
one markdown trajectory table so a reviewer can see the repo's performance
story at a glance — which PR bought which speedup, and what the current
headline numbers are — without digging through git history.

The baselines are heterogeneous by design (each PR measured what it
changed): entries may have benchmark before/after pairs with ns medians
(BENCH_PR2/PR7 "headline" style), before/after pairs in other units
(perfbench medians), after-only measurements, or experiment
counters (BENCH_PR5's bytes-on-the-wire shape).  Missing fields render as
"-" rather than failing: the table is a record, not a gate (the regression
gate is ci/perf_smoke.py).

Usage:
  ci/bench_trend.py [--glob 'BENCH_PR*.json'] [--out trend.md]
"""

import argparse
import glob
import json
import pathlib
import re
import sys


def fmt(value, decimals=1):
    if value is None:
        return "-"
    if isinstance(value, (int, float)):
        if float(value).is_integer() and abs(value) >= 1000:
            return f"{int(value):,}"
        return f"{value:.{decimals}f}".rstrip("0").rstrip(".")
    return str(value)


def pr_number(path):
    m = re.search(r"PR(\d+)", path.name)
    return int(m.group(1)) if m else 0


def headline_rows(pr, doc):
    """BENCH_PR2/PR7 style: {"headline": {key: {before_ns, after_ns, ...}}}.

    Entries in other units carry "before"/"after" plus "unit", and
    "better": "higher" for rates, whose speedup is after / before.
    """
    rows = []
    for key, entry in doc.get("headline", {}).items():
        if not isinstance(entry, dict):
            continue
        before = entry.get("before_ns", entry.get("before"))
        after = entry.get("after_ns", entry.get("after"))
        speedup = entry.get("speedup")
        if speedup is None and before and after:
            speedup = (after / before if entry.get("better") == "higher"
                       else before / after)
        if entry.get("unit"):
            key = f"{key} ({entry['unit']})"
        # After-only entries (new capability, no before-twin) still list.
        if after is None:
            numeric = [v for k, v in entry.items()
                       if k.startswith("after_ns") and
                       isinstance(v, (int, float))]
            after = numeric[0] if numeric else None
        rows.append({
            "pr": pr,
            "metric": key,
            "before": fmt(before),
            "after": fmt(after),
            "speedup": fmt(speedup) + ("x" if speedup is not None else ""),
            "note": entry.get("note", ""),
        })
    return rows


def experiment_rows(pr, doc):
    """BENCH_PR5 style: {"experiment": ..., "before": {...}, "after": {...}}."""
    before = doc.get("before")
    after = doc.get("after")
    if not isinstance(before, dict) or not isinstance(after, dict):
        return []
    rows = []
    name = doc.get("experiment", f"PR{pr} experiment")
    for key in before:
        if key not in after:
            continue
        b, a = before[key], after[key]
        if not isinstance(b, (int, float)) or not isinstance(a, (int, float)):
            continue
        ratio = (b / a) if a else None
        rows.append({
            "pr": pr,
            "metric": f"{name}.{key}",
            "before": fmt(b),
            "after": fmt(a),
            "speedup": fmt(ratio) + ("x" if ratio is not None else ""),
            "note": "",
        })
    return rows


def build_table(paths):
    rows = []
    for path in sorted(paths, key=pr_number):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_trend: skipping {path}: {err}", file=sys.stderr)
            continue
        pr = pr_number(path)
        from_headline = headline_rows(pr, doc)
        rows.extend(from_headline if from_headline
                    else experiment_rows(pr, doc))

    lines = ["# Performance trajectory", "",
             "One row per headline metric of each optimization PR "
             "(before/after medians from the checked-in BENCH_PR*.json "
             "baselines).", "",
             "| PR | Metric | Before | After | Speedup | Note |",
             "|---:|---|---:|---:|---:|---|"]
    for r in rows:
        lines.append(f"| {r['pr']} | {r['metric']} | {r['before']} "
                     f"| {r['after']} | {r['speedup']} | {r['note']} |")
    if not rows:
        lines.append("| - | (no baselines found) | - | - | - | - |")
    return "\n".join(lines) + "\n", len(rows)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--glob", default="BENCH_PR*.json",
                    help="baseline files to join (default: BENCH_PR*.json)")
    ap.add_argument("--out", default="",
                    help="write the markdown here (default: stdout)")
    args = ap.parse_args()

    paths = [pathlib.Path(p) for p in glob.glob(args.glob)]
    if not paths:
        print(f"bench_trend: no files match {args.glob}", file=sys.stderr)
        return 1
    table, n = build_table(paths)
    if args.out:
        pathlib.Path(args.out).write_text(table)
        print(f"bench_trend: wrote {n} rows from {len(paths)} baselines "
              f"to {args.out}")
    else:
        print(table, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
