#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload exchange|barrier|stream|pagerank \\
        --seed N --seconds S --trace 0|1 [--smoke] [--corrupt] [--record FILE]

Run from the repository root. The first run configures and builds perfbench/ (which
compiles the naiad libraries from src/) with CMake into $CARGO_TARGET_DIR, default
.bench_build. The benchmark program then runs the workload for S seconds on a
2-process x 2-worker cluster and checks every output against an oracle.

Standard output ends with a host fingerprint line and, last, the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
--record FILE appends the fingerprint, the share of the machine's CPU time the hypervisor
stole during the run, and the result as one JSON line, for compare.py.
Build output and progress go to standard error. Exits non-zero, without a result, when
the build, the run or the result's check against BENCHMARK.json fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(bdir):
    """Configures (once) and builds the benchmark program; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "naiadbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "naiadbench")


def source_digest():
    """SHA-256 over the benchmark's and the library's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_ticks():
    """(stolen, total) CPU ticks of the machine so far, from /proc/stat; (0, 0) where the
    kernel does not report them. README.md ("Host steal") says why this matters."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7], sum(ticks)) if len(ticks) == 8 else (0, 0)


def fingerprint(binary):
    """Host and build identity. compare.py refuses to diff results whose HOST_KEYS differ;
    git_rev and source_digest say which code ran."""
    out = subprocess.run([binary, "--fingerprint"], capture_output=True, text=True,
                         timeout=30)
    if out.returncode != 0:
        fail("cannot read the build fingerprint")
    fp = {"nproc": os.cpu_count(), "cpu_model": cpu_model()}
    fp.update(json.loads(out.stdout))
    fp["git_rev"] = git_rev()
    fp["source_digest"] = source_digest()
    return fp


def check_result(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json names, with their units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result attempted no operation")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"wrong unit {wrong}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="alter one output; the oracle must count it as failed")
    ap.add_argument("--record", help="append fingerprint + result to this JSON-lines file")
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd.append("--corrupt")
    steal0 = steal_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    steal1 = steal_ticks()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    check_result(result, args.trace)

    fp = fingerprint(binary)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "smoke": args.smoke, "fingerprint": fp,
                                "steal_share": (steal1[0] - steal0[0]) /
                                               max(1, steal1[1] - steal0[1]),
                                "result": result}) + "\n")
    print("fingerprint " + json.dumps(fp))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
