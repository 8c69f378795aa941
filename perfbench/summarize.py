"""Aggregate benchmark result files into one BENCH record.

Usage::

    python3 perfbench/summarize.py --label <commit> .perfbench/result-*.json > BENCH.json

For every workload it keeps each end-to-end metric's per-seed values, the
median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread (interquartile distance / median).  It also keeps ``failed_frac``
and the failing items of every seed, and the per-layer metrics of the
traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def summarize(label: str, paths: list[str]) -> dict:
    runs = [json.load(open(path, encoding="utf-8")) for path in sorted(paths)]
    if not runs:
        raise SystemExit("summarize: no result files given")
    untraced, traced = defaultdict(list), defaultdict(list)
    for run in runs:
        (traced if run["trace"] else untraced)[run["workload"]].append(run)
    out = {"label": label, "env": runs[0]["env"], "workloads": {}}
    for workload in sorted(set(untraced) | set(traced)):
        entry = {}
        plain = sorted(untraced[workload], key=lambda r: r["seed"])
        if plain:
            entry["seeds"] = [r["seed"] for r in plain]
            entry["correct"] = [r["correct"] for r in plain]
            metrics = {}
            for name in plain[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in plain]
                median = statistics.median(values)
                row = {"unit": plain[0]["metrics"][name]["unit"], "values": values,
                       "median": median}
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    row.update(q1=q1, q3=q3, spread=(q3 - q1) / median)
                metrics[name] = row
            entry["end_to_end"] = metrics
            entry["failed_frac"] = {str(r["seed"]): r["failed_frac"] for r in plain}
            entry["failed_items"] = {str(r["seed"]): r["failed_items"] for r in plain}
        if traced[workload]:
            run = traced[workload][0]
            entry["traced_seed"] = run["seed"]
            entry["per_layer"] = {k: v["value"] for k, v in run["metrics"].items()}
            entry["counts_per_item"] = run.get("counts_per_item", {})
        out["workloads"][workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("results", nargs="+")
    args = parser.parse_args(argv)
    json.dump(summarize(args.label, args.results), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
