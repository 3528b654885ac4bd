#!/usr/bin/env python3
"""Measures the current commit and rewrites nowbench/BASELINE.json.

    python3 nowbench/record_baseline.py [--out PATH]

Makes two sets of runs, one after the other.  A set is one untraced run
per seed in SEEDS of every workload through run.py: the figures a user
sees.  For each end-to-end metric it records the median, the quartiles and
the spread (q3 - q1) / median of the first set, and how far the second
set's median is worse than the first's.  Then one traced run per workload
for the per-layer numbers, and the simulated-output digest of every seed in
DIGEST_SEEDS.  Prints the table and exits non-zero if a run fails, reports
correct=false or a failed op, or a spread (setup_s aside) or a set-to-set
change exceeds the metric's bound in BENCHMARK.json.  About 45 minutes.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


SEEDS = range(1, 11)
DIGEST_SEEDS = range(0, 32)


LANES_NOTE = (
    "bld_serve's traced run uses 2 lanes, half of nproc on the 4-core "
    "machine the benchmark was defined on: three consecutive 4-lane runs of "
    "the building study there took 29.2, 28.1 and 6.0 s, while four 2-lane "
    "runs stayed within 3.9-4.7 s.  Its timed runs use 1 lane: on that "
    "shared machine the 2-lane wall time spread by 0.086 and then 0.99 "
    "((q3-q1)/median over ten seeds) in two sets an hour apart.")


def bench_run(workload, seed, seconds, trace):
    r = subprocess.run([sys.executable, run.__file__, "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)],
                       stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {r.returncode}")
    lines = r.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: correct=false\n{r.stdout}")
    if result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} ops failed\n{r.stdout}")
    digest = next(l.split()[3] for l in lines if l.startswith("digest "))
    return result, digest


def digest_of(workload, seed):
    r = subprocess.run([run.BINARY, "--workload", workload, "--seed", str(seed),
                        "--iterations", "1", "--lanes", "1"],
                       stdout=subprocess.PIPE, text=True, check=True,
                       cwd=run.BUILD)
    return next(l.split()[3] for l in r.stdout.split("\n")
                if l.startswith("digest "))


def compiler():
    with open(os.path.join(run.BUILD, "CMakeCache.txt")) as f:
        cache = dict(l.strip().split("=", 1) for l in f
                     if l.startswith(("CMAKE_CXX_COMPILER:",
                                      "CMAKE_BUILD_TYPE:")))
    cxx = cache["CMAKE_CXX_COMPILER:FILEPATH"]
    version = subprocess.run([cxx, "--version"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout.split("\n")[0]
    return version, cache["CMAKE_BUILD_TYPE:STRING"]


def measure_set(workloads, seconds):
    """One untraced run per seed of each workload.

    Returns {workload: {metric: [values]}} and {workload: {seed: digest}}.
    """
    values = {}
    digests = {}
    for name in workloads:
        values[name] = {}
        digests[name] = {}
        for seed in SEEDS:
            result, digests[name][str(seed)] = bench_run(name, seed, seconds,
                                                         0)
            for metric, v in result["metrics"].items():
                values[name].setdefault(metric, []).append(v["value"])
    return values, digests


def summary(vs):
    q1, _, q3 = statistics.quantiles(vs, n=4)
    med = statistics.median(vs)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": vs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(run.HERE, "BASELINE.json"))
    args = ap.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    run.build()
    version, build_type = compiler()

    out = {"nproc": os.cpu_count(), "machine": platform.machine(),
           "compiler": version, "build_type": build_type,
           "run_seconds": seconds, "seeds": list(SEEDS),
           "bld_serve_lanes": {"timed": 1, "traced": 2},
           "bld_serve_lanes_note": LANES_NOTE,
           "end_to_end": {}, "per_layer": {},
           "digests": {}}
    sets = [measure_set(workloads, seconds), measure_set(workloads, seconds)]
    problems = []
    for name in workloads:
        if sets[1][1][name] != sets[0][1][name]:
            problems.append(f"{name}: digests differ between sets")
        table = {}
        for m in spec["end_to_end"]:
            metric = m["name"]
            first, second = (summary(s[0][name][metric]) for s in sets)
            change = (second["median"] - first["median"]) / first["median"]
            worse = change if m["better"] == "lower" else -change
            table[metric] = {**first, "second_set": second,
                             "second_worse_by": worse}
            print(f"{name:14} {metric:17} median {first['median']:<11.6g} "
                  f"spread {first['spread']:.4f} / {second['spread']:.4f}  "
                  f"second worse by {worse:+.4f}  (bound {m['bound']})")
            spreads = (first["spread"], second["spread"])
            if metric != "setup_s" and max(spreads) > m["bound"]:
                problems.append(f"{name} {metric}: spread {max(spreads):.4f}")
            if worse > m["bound"]:
                problems.append(f"{name} {metric}: second set worse by "
                                f"{worse:.4f}")
        out["end_to_end"][name] = table
        traced, _ = bench_run(name, SEEDS[0], seconds, 1)
        out["per_layer"][name] = {"seed": SEEDS[0], **{
            k: v["value"] for k, v in traced["metrics"].items()}}
        digests = dict(sets[0][1][name])
        for seed in DIGEST_SEEDS:
            digests.setdefault(str(seed), digest_of(name, seed))
        out["digests"][name] = dict(sorted(digests.items(),
                                           key=lambda kv: int(kv[0])))
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    for p in problems:
        print(f"OUT OF BOUND: {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
