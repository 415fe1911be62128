#!/usr/bin/env python3
"""Diffs two run labels inside a BENCH_<figure>.json perf trajectory file.

Matches rows between a fresh run and a baseline run by identity fields
(``name`` for google-benchmark rows; ``kind``, ``variant``, ``procs`` or
``processes`` and the like for the figure drivers) and compares
``records_per_sec``. A row regresses when the fresh throughput falls below
``baseline * (1 - threshold)``.

The CI perf-smoke job runs this record-only: regressions print WARN and the
exit code stays 0 unless --strict is given, because a one-core CI runner is
far too noisy to gate merges on — the check exists so a throughput cliff is
visible in the job log, not to block. (See EXPERIMENTS.md "Bench labels".)

Usage:
  tools/check_bench.py BENCH_fig7a.json --run ci --baseline ci-baseline \
      [--threshold 0.5] [--strict]
"""

import argparse
import json
import sys


def row_key(row):
    if "name" in row:
        return ("name", row["name"])
    parts = [row.get("kind", "?")]
    for field in ("variant", "procs", "processes", "cluster_edges", "metric"):
        if field in row:
            parts.append(f"{field}={row[field]}")
    return ("kv", "/".join(str(p) for p in parts))


def rows_by_key(doc, label):
    for run in doc.get("runs", []):
        if run.get("label") == label:
            out = {}
            for row in run.get("rows", []):
                if isinstance(row.get("records_per_sec"), (int, float)):
                    out[row_key(row)] = float(row["records_per_sec"])
            return out
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="path to a BENCH_<figure>.json file")
    parser.add_argument("--run", required=True, help="label of the fresh run")
    parser.add_argument("--baseline", required=True, help="label to compare against")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="warn when fresh records_per_sec < baseline * (1 - threshold); "
        "default 0.5 (i.e. flag a >2x slowdown)",
    )
    parser.add_argument(
        "--strict", action="store_true", help="exit non-zero on any regression"
    )
    args = parser.parse_args()

    with open(args.bench, "r", encoding="utf-8") as f:
        doc = json.load(f)

    fresh = rows_by_key(doc, args.run)
    base = rows_by_key(doc, args.baseline)
    if fresh is None:
        print(f"FAIL: no run labeled '{args.run}' in {args.bench}", file=sys.stderr)
        return 1
    if base is None:
        print(f"FAIL: no run labeled '{args.baseline}' in {args.bench}", file=sys.stderr)
        return 1

    compared = 0
    regressions = []
    for key, base_rps in sorted(base.items()):
        if key not in fresh:
            print(f"note: '{key[1]}' in baseline but not in fresh run; skipped")
            continue
        compared += 1
        got = fresh[key]
        floor = base_rps * (1.0 - args.threshold)
        verdict = "ok"
        if got < floor:
            verdict = "WARN regression"
            regressions.append(key)
        print(
            f"{verdict}: {key[1]}: {got:.3g} rec/s vs baseline {base_rps:.3g} "
            f"({got / base_rps:.2f}x)"
        )
    if compared == 0:
        print(
            f"FAIL: labels '{args.run}' and '{args.baseline}' share no comparable rows",
            file=sys.stderr,
        )
        return 1

    if regressions:
        print(
            f"{len(regressions)}/{compared} rows regressed past the "
            f"{args.threshold:.0%} threshold"
        )
        return 1 if args.strict else 0
    print(f"OK: {compared} rows within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
