"""Run the benchmark over several seeds and keep each run's output.

    python3 bench/sweep.py --out runs/base --workloads corpus generated --seeds 1-10

Runs ``bench/run.py`` once per workload and seed, one at a time, and
writes its standard output to ``<out>/<workload>-s<seed>-t<trace>.log``.
Seconds default to ``run_seconds`` in ``BENCHMARK.json``.  Feed one or two
output directories to ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        for workload in args.workloads:
            log = args.out / f"{workload}-s{seed}-t{args.trace}.log"
            command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            with log.open("w") as handle:
                code = subprocess.run(command, cwd=ROOT, stdout=handle, timeout=600).returncode
            last = log.read_text().rstrip().splitlines()[-1:]
            print(f"{workload} seed {seed}: exit {code}; {last[0][:160] if last else 'no output'}", flush=True)
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
