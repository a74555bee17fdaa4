"""Summarise one set of benchmark runs, or compare two.

    python3 bench/compare.py BASE_DIR             # spread of each metric
    python3 bench/compare.py BASE_DIR CHANGE_DIR  # parent vs change

A set is a directory of ``run.py`` outputs (as ``sweep.py`` writes them).
For one set it prints, per workload and metric, the median, the quartiles
and the spread (interquartile distance over the median) against the
metric's bound in ``BENCHMARK.json``.  For two sets it prints both sides'
median and quartiles, the change's wins out of all pairs (runs paired by
seed; ties count for neither side) and one label:

- improved: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile distance;
- worse: the change's median is worse than the parent's by more than the
  bound times the parent's median (per-layer metrics have no bound: worse
  means it loses 9/10 of the pairs by more than the parent's interquartile
  distance);
- unresolved: not worse, but the parent's spread exceeds the bound and not
  every change run beats every parent run;
- unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
HEADER = re.compile(r"^run workload=(\S+) seed=(\S+) seconds=\S+ trace=(\d)$")

Runs = Dict[Tuple[str, str], Dict[int, float]]  # (workload, metric) -> seed -> value


def load(directory: Path) -> Runs:
    runs: Runs = defaultdict(dict)
    for log in sorted(directory.glob("*.log")):
        lines = log.read_text().splitlines()
        match = HEADER.match(lines[0]) if lines else None
        if not match or not lines[-1].startswith("{"):
            print(f"skipping {log}: not a complete run", file=sys.stderr)
            continue
        workload, seed = match.group(1), int(match.group(2))
        for name, metric in json.loads(lines[-1])["metrics"].items():
            runs[(workload, name)][seed] = metric["value"]
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def label(base: List[float], change: List[float], pairs, lower_better: bool, bound: Optional[float]):
    """(label, wins) for one workload and metric."""
    def better(a: float, b: float) -> bool:  # is a better than b
        return a < b if lower_better else a > b

    wins = sum(better(c, b) for b, c in pairs)
    losses = sum(better(b, c) for b, c in pairs)
    b_q1, b_median, b_q3 = quartiles(base)
    c_median = quartiles(change)[1]
    gap = abs(c_median - b_median)
    if pairs and wins >= 0.9 * len(pairs) and gap > b_q3 - b_q1:
        return "improved", wins
    if bound is None:
        worse = pairs and losses >= 0.9 * len(pairs) and gap > b_q3 - b_q1
        return ("worse" if worse else "unchanged"), wins
    worse_by = (c_median - b_median) if lower_better else (b_median - c_median)
    if worse_by > bound * abs(b_median):
        return "worse", wins
    if spread(base) > bound and not all(better(c, b) for c in change for b in base):
        return "unresolved", wins
    return "unchanged", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}

    base = load(args.base)
    change = load(args.change) if args.change else None
    for key in sorted(base):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        bound = spec.get("bound")
        b_values = list(base[key].values())
        b_q1, b_median, b_q3 = quartiles(b_values)
        head = f"{workload:10} {name:32} {spec['unit']:6}"
        side = f"base {b_median:.6g} [{b_q1:.6g}, {b_q3:.6g}] n={len(b_values)}"
        if change is None:
            limit = f" bound {bound}" if bound is not None else ""
            print(f"{head} {side} spread {spread(b_values):.4f}{limit}")
            continue
        c_runs = change.get(key, {})
        if not c_runs:
            print(f"{head} {side} change: no runs")
            continue
        c_values = list(c_runs.values())
        common = sorted(set(base[key]) & set(c_runs))
        if common:
            pairs = [(base[key][s], c_runs[s]) for s in common]
        else:
            pairs = list(zip(b_values, c_values))
        verdict, wins = label(b_values, c_values, pairs, spec["better"] == "lower", bound)
        c_q1, c_median, c_q3 = quartiles(c_values)
        print(f"{head} {side} change {c_median:.6g} [{c_q1:.6g}, {c_q3:.6g}] n={len(c_values)} "
              f"wins {wins}/{len(pairs)} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
