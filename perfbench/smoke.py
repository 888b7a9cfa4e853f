#!/usr/bin/env python3
"""Short smoke test of the benchmark: every workload, untraced and traced.

    python3 perfbench/smoke.py [--seconds 2]

Run from the repository root. Fails (exit 1) unless every run exits 0,
reports `correct: true` with no failed requests, and prints exactly the
metrics BENCHMARK.json lists for its mode.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    with open(os.path.join(BENCH, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            r = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                                "--workload", w["name"], "--seed", "1",
                                "--seconds", str(args.seconds), "--trace", str(trace)],
                               stdout=subprocess.PIPE, timeout=900)
            label = "%s --trace %d" % (w["name"], trace)
            lines = r.stdout.decode().strip().splitlines()
            if r.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (label, r.returncode))
                continue
            result = json.loads(lines[-1])
            wanted = {m["name"] for m in spec[group]}
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s: correct=%s failed=%d attempted=%d"
                                % (label, result["correct"], result["failed"],
                                   result["attempted"]))
            if set(result["metrics"]) != wanted:
                problems.append("%s: metrics %s" % (label, sorted(set(result["metrics"]) ^ wanted)))
            print("%-28s ok=%s attempted=%d" % (label, not problems, result["attempted"]),
                  flush=True)
    for p in problems:
        print("SMOKE FAILED: " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
