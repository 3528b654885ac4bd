#!/usr/bin/env python3
"""Builds the nowbench binary from this checkout's sources and runs one workload.

    python3 nowbench/run.py --workload bld_serve --seed 1 --seconds 20 --trace 0

Run from the repository root.  The build lives in .bench_build/nowbench.
Everything the binary prints is passed through, followed by every metric
with its unit from BENCHMARK.json and a `sim_identical=` line that compares
the run's digest with the one recorded in nowbench/BASELINE.json for that
seed.  The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}.  Build output
goes to stderr.  Any failure exits non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "nowbench")
BINARY = os.path.join(BUILD, "nowbench")
WORKLOADS = ("bld_serve", "xfs_crash_mix", "table3_replay")
# A measured run takes --seconds plus at most one iteration.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"nowbench: error: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "nowbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed ({r.returncode}): {' '.join(cmd)}")


def with_units(result, trace):
    """Gives each of the binary's bare metric values its BENCHMARK.json unit.

    With --trace 0 the binary must report exactly the end-to-end metrics.
    With --trace 1 it reports the layers the workload exercises; a layer it
    bypasses reads 0.  Raises ValueError on a metric BENCHMARK.json lacks.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    unknown = set(got) - {m["name"] for m in spec}
    if unknown:
        raise ValueError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    missing = [m["name"] for m in spec if m["name"] not in got]
    if missing and not trace:
        raise ValueError(f"metrics not reported: {missing}")
    metrics = {m["name"]: {"value": got.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec}
    return {**result, "metrics": metrics}


def recorded_digest(workload, seed):
    with open(os.path.join(HERE, "BASELINE.json")) as f:
        digests = json.load(f)["digests"]
    return digests.get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be in [1, 60]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-file", os.path.join(BUILD, f"table3-{args.seed}.trace"),
           "--spans-out",
           os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    if r.returncode != 0:
        fail(f"benchmark exited with {r.returncode}")
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")
    try:
        result = with_units(result, args.trace)
    except ValueError as e:
        fail(str(e))

    digest = next(l.split()[3] for l in lines if l.startswith("digest "))
    want = recorded_digest(args.workload, args.seed)
    identical = "unrecorded" if want is None else str(digest == want).lower()
    print("\n".join(lines[:-1]))
    for name, m in result["metrics"].items():
        print(f"{name:44} {m['value']:.6g} {m['unit']}")
    print(f"sim_identical={identical}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
