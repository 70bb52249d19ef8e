#!/usr/bin/env python3
"""Entry point of the repository benchmark (BENCHMARK.json at the root).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Builds perfbench/ -- and through it the libraries in src/ -- with CMake into
.bench_build/perfbench under the repository root, then runs the driver once.
The driver's report goes to stderr; the last line of stdout is its JSON
result. Exits non-zero without printing a result when the build or the run
fails, and prints the result but exits non-zero when the run's outputs were
wrong ("correct": false). With --trace 1 the spans of the run are written to
.bench_build/perfbench-spans/<workload>-seed<n>.json. "--workload all" runs
every workload untraced, one process each, and prints one table of the
end-to-end metrics; its last line is a JSON object keyed by workload.

WORKLOADS are the ones BENCHMARK.json lists. pingpong_wc (the paper's Fig. 8
WC-FP ping-pong) runs the same way but is not listed: on a shared host its
wall time flips between two speeds in spells longer than a run, so two sets
of its runs can differ by more than the largest bound allowed (0.25). It stays
for the self-tests (the fig8 cross-check and the planted C1/C2 failures)
and for reading the conflict counters by hand.
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
SPANS = os.path.join(ROOT, ".bench_build", "perfbench-spans")
DRIVER = os.path.join(BUILD, "otm_perfbench")
WORKLOADS = ("storm_8b_coalesced", "replay_bigfft_r1024", "analyze_boxlib_cns")
UNLISTED = ("pingpong_wc",)
RUN_TIMEOUT_S = 170


def configured_for_this_tree():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip() == HERE
    return False


def build(targets=("otm_perfbench",)):
    """Configure (once per tree) and build; True on success."""
    if not configured_for_this_tree():
        shutil.rmtree(BUILD, ignore_errors=True)
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    for target in targets:
        res = subprocess.run(
            ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            return False
    return True


def run_driver(workload, seed, seconds, trace, extra=()):
    """Run the driver; return (exit code, parsed JSON result or None)."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(SPANS, "%s-seed%d.json" % (workload, seed))]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return res.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return 1, None
    return 0, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + UNLISTED + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, result = run_driver(args.workload, args.seed, args.seconds,
                              args.trace)
    if code != 0 or result is None:
        print("perfbench: driver failed", file=sys.stderr)
        return code or 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed, seconds):
    results = {}
    for workload in WORKLOADS + UNLISTED:
        code, result = run_driver(workload, seed, seconds, 0)
        if code != 0 or result is None:
            print("perfbench: driver failed on %s" % workload, file=sys.stderr)
            return code or 1
        results[workload] = result
    names = list(next(iter(results.values()))["metrics"])
    print("%-20s" % "workload" + "".join("%22s" % n for n in names) + "  fail_ratio")
    for workload, r in results.items():
        cells = "".join("%15.6g %-6s" % (r["metrics"][n]["value"],
                                         r["metrics"][n]["unit"]) for n in names)
        print("%-20s%s  %.3g" % (workload, cells, r["failed"] / r["attempted"]))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
