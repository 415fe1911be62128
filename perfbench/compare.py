#!/usr/bin/env python3
"""Compares two sets of benchmark records written by run.py --record.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Numbers from different hosts or builds are never compared: if any record's host
fingerprint (HOST_KEYS) differs from the others, this refuses and exits 2. Otherwise it
prints, per workload and metric, the median of each side, the change, and the spread of
each side (interquartile range over median). An end-to-end metric whose NEW median is
worse than its BASE median by more than its bound in BENCHMARK.json is marked REGRESSED,
and the exit code is then 1. Where either side's median run lost more than 2% of the
machine's CPU time to hypervisor steal, the workload is flagged: such numbers are slowed
by the host, not the code (README.md, "Host steal").
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def host(record):
    return tuple(record["fingerprint"].get(k) for k in HOST_KEYS)


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    hosts = {host(r) for r in base + new}
    if len(hosts) != 1:
        print("compare.py: refusing to compare results from different hosts or builds:",
              file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + json.dumps(dict(zip(HOST_KEYS, h))), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    keys = sorted({(r["workload"], r["trace"]) for r in base} &
                  {(r["workload"], r["trace"]) for r in new})
    for workload, trace in keys:
        print(f"== {workload} (trace {trace})")
        b = [r["result"] for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        n = [r["result"] for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        print(f"   runs {len(b)} vs {len(n)}; failed {sum(r['failed'] for r in b)} vs "
              f"{sum(r['failed'] for r in n)}")
        steal = [statistics.median(r.get("steal_share", 0) for r in side
                                   if (r["workload"], r["trace"]) == (workload, trace))
                 for side in (base, new)]
        print(f"   host steal {steal[0]:.1%} vs {steal[1]:.1%}" +
              ("  HOST-STEAL: repeat on a quiet host" if max(steal) > 0.02 else ""))
        for name in b[0]["metrics"]:
            bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n if name in r["metrics"]]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            mark = ""
            m = e2e.get(name)
            if m is not None and trace == 0:
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    mark = "  REGRESSED"
                    regressed = True
            unit = b[0]["metrics"][name]["unit"]
            print(f"   {name:40s} {bm:14.6g} -> {nm:14.6g} {unit:9s} {change:+8.2%}"
                  f"  spread {spread(bv):.3f}/{spread(nv):.3f}{mark}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
