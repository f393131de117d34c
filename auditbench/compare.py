#!/usr/bin/env python3
"""Compare two sets of audit benchmark records.

    python3 auditbench/compare.py BASE NEW

BASE and NEW are directories of records written by run.py (its
.bench_results/ directory, copied aside) or single record files.  For each
workload and metric it prints both medians, the quartile spread of each side
as a share of its median, and the change; an end-to-end metric whose median
got worse by more than the bound in BENCHMARK.json is marked WORSE.

Records taken under different search engines (compiled and pure-python
kernels) or with different run lengths (--seconds) are never compared: the
script exits 2 instead.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    if not records:
        raise SystemExit(f"error: no records in {path}")
    return records


def by_metric(records):
    values = defaultdict(list)
    for r in records:
        for name, m in r["metrics"].items():
            values[(r["workload"], r["trace"], name)].append(m["value"])
    return values


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = quantiles(values, n=4)
    return (q[2] - q[0]) / median(values) if median(values) else float("nan")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    engines = {r["engine"] for r in base} | {r["engine"] for r in new}
    if len(engines) > 1:
        print(f"error: records mix search engines {sorted(engines)}; results "
              "taken under different engines are not comparable",
              file=sys.stderr)
        return 2
    lengths = {r["seconds"] for r in base} | {r["seconds"] for r in new}
    if len(lengths) > 1:
        print(f"error: records mix run lengths {sorted(lengths)} s; runs of "
              "different lengths are not comparable", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old_values, new_values = by_metric(base), by_metric(new)
    worse = 0
    print(f"{'workload':15s} {'metric':28s} {'base':>14s} {'spread':>7s} "
          f"{'new':>14s} {'spread':>7s} {'change':>8s}")
    for key in sorted(old_values.keys() & new_values.keys()):
        workload, trace, name = key
        a, b = old_values[key], new_values[key]
        ma, mb = median(a), median(b)
        change = (mb - ma) / ma if ma else float("nan")
        flag = ""
        if not trace and name in bounds:
            sign = -1 if bounds[name]["better"] == "higher" else 1
            if sign * change > bounds[name]["bound"]:
                flag = "WORSE"
                worse += 1
        print(f"{workload:15s} {name:28s} {ma:>14.6g} {spread(a):>7.3f} "
              f"{mb:>14.6g} {spread(b):>7.3f} {change:>+8.3f} {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
