#!/usr/bin/env python3
"""Tests of the nowbench benchmark itself.

    python3 nowbench/test_nowbench.py

Builds the binary (as run.py does) and runs each workload at a shortened
horizon (--scale), so the whole file takes well under a minute.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SHORT = {"bld_serve": "0.1", "xfs_crash_mix": "0.1", "table3_replay": "0.05"}


def bench(*args, check=True):
    r = subprocess.run([run.BINARY, *args], capture_output=True, text=True,
                       cwd=run.BUILD)
    if check and r.returncode != 0:
        raise AssertionError(f"nowbench {args} failed: {r.stderr}")
    return r


def short_run(workload, seed, *extra):
    """Runs one short iteration; returns (digest, result object)."""
    r = bench("--workload", workload, "--seed", str(seed), "--iterations", "1",
              "--scale", SHORT[workload], *extra)
    lines = r.stdout.strip().split("\n")
    digest = next(l.split()[3] for l in lines if l.startswith("digest "))
    trace = "--trace" in extra and extra[extra.index("--trace") + 1] == "1"
    return digest, run.with_units(json.loads(lines[-1]), trace)


def deterministic(result):
    """The metrics that must repeat exactly for one seed."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in ("s", "ns", "1/s", "MB")
            and k != "bench.trace_overhead_frac"}


class NowbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_bld_serve_digest_same_at_one_and_two_lanes(self):
        one, r1 = short_run("bld_serve", 3, "--lanes", "1")
        two, r2 = short_run("bld_serve", 3, "--lanes", "2")
        self.assertTrue(r1["correct"] and r2["correct"])
        self.assertEqual(one, two)
        self.assertEqual(deterministic(r1), deterministic(r2))

    def test_same_seed_repeats_deterministic_metrics(self):
        for workload in SHORT:
            for trace in ("0", "1"):
                a_digest, a = short_run(workload, 5, "--trace", trace)
                b_digest, b = short_run(workload, 5, "--trace", trace)
                self.assertTrue(a["correct"], workload)
                self.assertEqual(a_digest, b_digest, workload)
                self.assertEqual(deterministic(a), deterministic(b), workload)

    def test_traced_run_reports_parallel_engine_layers(self):
        _, r = short_run("bld_serve", 1, "--trace", "1")
        m = r["metrics"]
        self.assertTrue(r["correct"])
        self.assertGreater(m["pe.epochs"]["value"], 0)
        self.assertGreater(m["pe.events_per_epoch"]["value"], 0)
        self.assertGreater(m["pe.wall_s"]["value"], 0)

    def test_different_seed_changes_inputs(self):
        for workload in SHORT:
            self.assertNotEqual(short_run(workload, 1)[0],
                                short_run(workload, 2)[0], workload)

    def test_bad_flags_fail_loudly(self):
        for args in (["--workload", "bld_serve", "--seed", "1", "--bogus", "1"],
                     ["--workload", "nope", "--seed", "1"],
                     ["--workload", "bld_serve", "--seed", "x"],
                     ["--workload", "bld_serve", "--seed", "1", "--trace", "2"],
                     ["--workload", "bld_serve"]):
            r = bench(*args, check=False)
            self.assertEqual(r.returncode, 2, args)
            self.assertIn("nowbench: error:", r.stderr)
            self.assertEqual(r.stdout, "")
        r = subprocess.run([sys.executable, run.__file__, "--workload", "nope",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 2)
        self.assertIn("invalid choice", r.stderr)

    def test_unwritable_paths_fail_loudly(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as d:
            missing = os.path.join(d, "no-such-dir", "out")
            r = bench("--workload", "table3_replay", "--seed", "1",
                      "--iterations", "1", "--scale", "0.05",
                      "--trace-file", missing, check=False)
            self.assertEqual(r.returncode, 1)
            self.assertIn("cannot write trace file", r.stderr)
            self.assertNotIn("correct", r.stdout)
            r = bench("--workload", "bld_serve", "--seed", "1", "--trace", "1",
                      "--iterations", "1", "--scale", "0.1",
                      "--spans-out", missing, check=False)
            self.assertEqual(r.returncode, 1)
            self.assertIn("cannot write spans", r.stderr)


if __name__ == "__main__":
    unittest.main()
