#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root:

    python3 perfbench/selftest.py            # everything (about two minutes)
    python3 perfbench/selftest.py --quick    # skip the held-out seed runs

Checks, in order:
  1. a short run of each workload, untraced and traced, reports exactly the
     metrics BENCHMARK.json names and passes its own correctness checks;
  2. a deliberately wrong expected counter (counter_sync) or NAT mapping
     (nat_steady, nat_failover) makes the correctness check fail;
  3. the allocation counter counts exactly the allocations made;
  4. a full-size run on a held-out seed stays within every deterministic
     end-to-end metric's bound of the same run on seed 1.
Exits non-zero if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: builds the binary)

HELD_OUT_SEED = 9001
# Host-time metrics vary with the machine, not the seed; the held-out check
# covers the simulated and counted ones.
HOST_METRICS = {"sim_pps", "setup_s", "peak_rss_mb"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def invoke(binary, workload, seed, trace, scale, mutate=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", trace, "--scale", str(scale)]
    if mutate:
        cmd += ["--mutate", mutate]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170,
                         check=False)
    if out.returncode != 0:
        raise RuntimeError("%s exited %d" % (" ".join(cmd), out.returncode))
    return json.loads(out.stdout.rstrip("\n").split("\n")[-1])


class Checker:
    def __init__(self):
        self.failures = 0

    def check(self, ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            self.failures += 1


def main():
    parser = argparse.ArgumentParser(description="perfbench self-tests")
    parser.add_argument("--quick", action="store_true",
                        help="skip the full-size held-out seed runs")
    args = parser.parse_args()

    spec = load_spec()
    binary = run.build()
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer_names = sorted(m["name"] for m in spec["per_layer"])
    c = Checker()

    for w in workloads:
        for trace, names in (("0", sorted(e2e)), ("1", layer_names)):
            res = invoke(binary, w, 1, trace, 0.05)
            c.check(res["correct"] and res["attempted"] > 0,
                    "%s trace=%s short run is correct" % (w, trace))
            c.check(sorted(res["metrics"]) == names,
                    "%s trace=%s reports exactly the named metrics" % (w, trace))

    for w, mutate in (("counter_sync", "counter"), ("nat_steady", "mapping"),
                      ("nat_failover", "mapping")):
        res = invoke(binary, w, 1, "0", 0.05, mutate)
        c.check(not res["correct"],
                "%s: a wrong expected %s fails the check" % (w, mutate))

    alloc = subprocess.run([binary, "--selftest", "alloc"], check=False)
    c.check(alloc.returncode == 0, "allocation counter is exact")

    if not args.quick:
        for w in workloads:
            base = invoke(binary, w, 1, "0", 1.0)["metrics"]
            held = invoke(binary, w, HELD_OUT_SEED, "0", 1.0)["metrics"]
            for name, m in sorted(e2e.items()):
                if name in HOST_METRICS:
                    continue
                a, b = base[name]["value"], held[name]["value"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                c.check(worse <= m["bound"],
                        "%s held-out seed %d: %s %.6g vs %.6g (bound %.2f)" %
                        (w, HELD_OUT_SEED, name, b, a, m["bound"]))

    print("%d check(s) failed" % c.failures)
    return 1 if c.failures else 0


if __name__ == "__main__":
    sys.exit(main())
