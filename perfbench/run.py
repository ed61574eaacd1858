#!/usr/bin/env python3
"""Builds and runs one BI-run benchmark measurement (see README.md here).

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload bi-daily --seed 1 --seconds 20 --trace 0

The first run configures and compiles the library sources and the
benchmark binary into .bench_build/ (CMake, Release); later runs reuse that
build. The binary writes its inputs and store under .bench_build/ and
removes them afterwards. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it is the binary's full report, including host context. A traced
run (--trace 1) also leaves its spans in .bench_build/traces/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "bi_run")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns False on error."""
    tree = os.path.join(BUILD, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", tree, "--target", "bi_run", "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--persons", type=int, default=0,
                        help="override the workload's person count (smoke)")
    parser.add_argument("--corrupt-fingerprint", action="store_true",
                        help="corrupt one reference fingerprint (smoke)")
    args = parser.parse_args()

    if not build():
        return 1

    work = os.path.join(BUILD, "runs",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", work]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    if args.persons:
        cmd += ["--persons", str(args.persons)]
    if args.corrupt_fingerprint:
        cmd.append("--corrupt-fingerprint")
    # Own process group, so a timeout also stops the setup repetitions the
    # binary forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("benchmark binary timed out")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("benchmark binary exited with %d" % proc.returncode)
        return 1
    lines = stdout.strip().splitlines()
    if not lines:
        log("benchmark binary printed no report")
        return 1
    report = json.loads(lines[-1])

    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in report["metrics"].items()}
        if got != expected:
            log("metric set differs from BENCHMARK.json: %s"
                % sorted(set(got.items()) ^ set(expected.items())))
            return 1

    print(json.dumps(report, sort_keys=True))
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
