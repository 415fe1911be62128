#!/usr/bin/env python3
"""Diffs two run labels inside a BENCH_<figure>.json perf trajectory file.

Matches rows between a fresh run and a baseline run by identity fields
(``name`` for google-benchmark rows; ``kind``, ``variant``, ``procs``,
``processes``, ``mode`` and the like for the figure drivers). Rows of one run
that share a key are repeated trials and are reduced to their median. A row is
compared on ``records_per_sec`` (higher is better) and regresses when the fresh
value falls below ``baseline * (1 - threshold)``; a row without it, such as a
BENCH_recovery.json trial, is compared on ``survivor_stall_s`` (lower is
better) and regresses when the fresh value exceeds ``baseline * (1 + threshold)``;
a BENCH_job_turnaround.json trial is compared on ``jobs_per_sec`` (higher is
better).

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
import statistics
import sys

# The compared metric of a row, in order of preference, and whether higher is better.
METRICS = (("records_per_sec", True), ("survivor_stall_s", False), ("jobs_per_sec", True))


def row_key(row):
    if "name" in row:
        return ("name", row["name"])
    parts = [row.get("kind", "?")]
    for field in ("variant", "procs", "processes", "mode", "cluster_edges", "metric"):
        if field in row:
            parts.append(f"{field}={row[field]}")
    return ("kv", "/".join(str(p) for p in parts))


def row_metric(row):
    for metric, _ in METRICS:
        if isinstance(row.get(metric), (int, float)):
            return metric
    return None


def rows_by_key(doc, label):
    """Maps each (row key, metric) of run `label` to the median over its trials."""
    for run in doc.get("runs", []):
        if run.get("label") == label:
            samples = {}
            for row in run.get("rows", []):
                metric = row_metric(row)
                if metric is not None:
                    samples.setdefault((row_key(row), metric), []).append(float(row[metric]))
            return {key: statistics.median(vals) for key, vals in samples.items()}
    return None


def regressed(metric, got, base, threshold):
    if dict(METRICS)[metric]:
        return got < base * (1.0 - threshold)
    return got > base * (1.0 + threshold)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="path to a BENCH_<figure>.json file")
    parser.add_argument("--run", required=True, help="label of the fresh run")
    parser.add_argument("--baseline", required=True, help="label to compare against")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="warn when fresh records_per_sec < baseline * (1 - threshold), or fresh "
        "survivor_stall_s > baseline * (1 + threshold); default 0.5 (i.e. flag a >2x "
        "throughput drop)",
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
    for key, base_val in sorted(base.items()):
        (_, name), metric = key
        if key not in fresh:
            print(f"note: '{name}' in baseline but not in fresh run; skipped")
            continue
        compared += 1
        got = fresh[key]
        verdict = "ok"
        if regressed(metric, got, base_val, args.threshold):
            verdict = "WARN regression"
            regressions.append(key)
        print(
            f"{verdict}: {name}: {metric} {got:.3g} vs baseline {base_val:.3g} "
            f"({got / base_val:.2f}x)"
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
