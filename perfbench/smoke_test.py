#!/usr/bin/env python3
"""Smoke test of the BI-run benchmark harness; finishes in well under a minute.

Run from the root of a checkout:  python3 perfbench/smoke_test.py

At 300 persons it runs both workloads untraced and traced and checks that
every metric BENCHMARK.json declares is printed with its unit, that the
correctness gate passes with no failed operation, and that a run with one
deliberately corrupted reference fingerprint reports failed operations and
correct = false. Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--persons", "300"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit("FAIL: %s exited with %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("FAIL: result keys %s" % sorted(result))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    sys.exit("FAIL: %s trace=%d: metric %s missing or wrong "
                             "unit: %s" % (workload, trace, metric["name"],
                                           got))
                if not isinstance(got["value"], (int, float)):
                    sys.exit("FAIL: %s: %s is not a number"
                             % (workload, metric["name"]))
            if not result["correct"] or result["failed"] != 0:
                sys.exit("FAIL: %s trace=%d: correctness gate: %s"
                         % (workload, trace, result))
            if result["attempted"] < 1000:
                sys.exit("FAIL: %s: only %d operations attempted"
                         % (workload, result["attempted"]))
            print("ok   %s trace=%d: %d metrics, %d operations"
                  % (workload, trace, len(result["metrics"]),
                     result["attempted"]))

        corrupted = run(workload, 0, "--corrupt-fingerprint")
        if corrupted["correct"] or corrupted["failed"] < 1:
            sys.exit("FAIL: %s: corrupted fingerprint not counted: "
                     "correct=%s failed=%d" % (workload, corrupted["correct"],
                                               corrupted["failed"]))
        print("ok   %s: corrupted fingerprint -> %d failed operations"
              % (workload, corrupted["failed"]))
    print("PASS")


if __name__ == "__main__":
    main()
