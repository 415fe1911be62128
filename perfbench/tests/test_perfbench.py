#!/usr/bin/env python3
"""Self-test of the repository benchmark, on tiny inputs (a few seconds per case).

    python3 perfbench/tests/test_perfbench.py

Checks that every workload prints every metric BENCHMARK.json names, with its unit, in
both the untraced and the traced run; that a deliberately corrupted output is counted as
failed; that compare.py refuses results from different hosts; and that the benchmark
fails without a result where the library sources are missing. The first case builds the
benchmark if no build exists yet.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("exchange", "barrier", "stream", "pagerank")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def scratch_dir():
    """A temporary directory inside the build directory, so tests write nowhere else."""
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(bdir, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=bdir)


def run_bench(workload, trace, *extra, cwd=ROOT, run=RUN):
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, spec_key):
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = result_of(proc)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in result["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]), name)
                    # barrier moves no record across a process, so no codec runs there
                    if workload == "barrier" and name.startswith("ser."):
                        self.assertEqual(m["value"], 0, name)
                fp =proc.stdout.strip().splitlines()[-2]
                self.assertTrue(fp.startswith("fingerprint "))

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")


class CorruptedOutput(unittest.TestCase):
    def test_counted_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, 0, "--corrupt")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class Compare(unittest.TestCase):
    def test_refuses_other_host(self):
        with scratch_dir() as tmp:
            base = os.path.join(tmp, "base.jsonl")
            new = os.path.join(tmp, "new.jsonl")
            proc = run_bench("barrier", 0, "--record", base)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            with open(base) as f:
                record = json.loads(f.readline())
            same = subprocess.run([sys.executable, os.path.join(BENCH, "compare.py"), base,
                                   base], capture_output=True, text=True)
            self.assertEqual(same.returncode, 0, same.stderr)
            record["fingerprint"]["cpu_model"] = "some other cpu"
            with open(new, "w") as f:
                f.write(json.dumps(record) + "\n")
            other = subprocess.run([sys.executable, os.path.join(BENCH, "compare.py"), base,
                                    new], capture_output=True, text=True)
            self.assertEqual(other.returncode, 2)
            self.assertIn("refusing", other.stderr)


class MissingSources(unittest.TestCase):
    def test_fails_without_result(self):
        with scratch_dir() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "barrier", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
