#!/usr/bin/env python3
"""Build and run the bfpp end-to-end benchmark.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-digests

The benchmark is a C++ program (perfbench/*.cpp) built from this
checkout's sources with perfbench/CMakeLists.txt into
.bench_build/perfbench. A run prints "# ..." notes and, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"} -
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. See perfbench/README.md.

Everything the benchmark writes stays under .bench_build/ in the
checkout: the build, a per-run scratch directory (removed afterwards)
and, for traced runs, the span file .bench_build/perfbench-traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
DIGESTS = os.path.join(HERE, "search_sweep.digests")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "server.h")):
        log("no library sources at %s/src - run from a bfpp checkout" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    steps = [["cmake", "--build", BUILD, "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(step))
            return False
    return True


def run_bench(workload, seed, seconds, trace):
    """Runs one benchmark pass; returns (exit code, stdout text)."""
    work = os.path.join(ROOT, ".bench_build", "perfbench-run",
                        "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work, "--digests", DIGESTS]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file",
                    os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
        return done.returncode, done.stdout
    except subprocess.TimeoutExpired as e:  # run() kills and reaps the child
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, e.stdout or ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_test():
    """A tiny run of every workload, traced and untraced: every metric of
    BENCHMARK.json printed by name with its unit, every output correct."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    workloads = [w["name"] for w in spec["workloads"]]
    # search_sweep is not in BENCHMARK.json (see README.md), but its
    # digest check belongs to the self-test all the same.
    if "search_sweep" not in workloads:
        workloads.append("search_sweep")
    for workload in workloads:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out = run_bench(workload, 1, 1, trace)
            lines = out.strip().splitlines()
            problems = []
            if code != 0 or not lines:
                problems.append("exit code %d" % code)
            else:
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("result keys %s" % sorted(result))
                if not result.get("correct") or result.get("failed"):
                    problems.append("outputs or digests do not match")
                if result.get("attempted", 0) < 1:
                    problems.append("no ops attempted")
                want = {m["name"]: m["unit"] for m in metrics}
                got = {k: v.get("unit") for k, v in result["metrics"].items()}
                if got != want:
                    problems.append("metrics differ: missing %s, extra %s, "
                                    "unit mismatches %s" % (
                                        sorted(set(want) - set(got)),
                                        sorted(set(got) - set(want)),
                                        sorted(k for k in want if k in got
                                               and got[k] != want[k])))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("self-test %-20s trace=%d %s" % (workload, trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite search_sweep.digests from this build")
    args = parser.parse_args()
    if not build():
        return 2
    if args.self_test:
        return self_test()
    if args.record_digests:
        return subprocess.run([BINARY, "--record-digests", DIGESTS]).returncode
    if not args.workload:
        parser.error("--workload is required")
    code, out = run_bench(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
