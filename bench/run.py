"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs the workload's seeded instance stream in a closed loop, one instance
at a time on one thread, until the timed calls add up to ``--seconds``
(on the workloads that repeat a fixed set, to the nearest whole number of
passes over it, at least one); checks every output against its reference;
prints one line per distinct instance (verdict, sha256 of witness JSON and
DOT), the failures, a summary, and as its last line one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  ``attempted`` and ``failed`` count distinct instances;
an instance fails if any of its calls does.

Times are reported at a reference machine speed: each is scaled by a
speed probe run between instances (``speed.py``); the wall-clock values
are printed beside them.

With ``--trace 1`` every instance runs twice, untraced and with spans
around the ``qsta`` layers, in random order; the difference between the
two is reported as the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Set, Tuple

import speed

UNITS = {
    "instances_per_s": "1/s",
    "instance_p50_ms": "ms",
    "instance_tail_ms": "ms",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Tail percentile per workload, fixed so that a faster program (more
# samples) is compared at the same percentile.  Each leaves at least ten
# samples above it in baseline runs and falls inside a group of similar
# instances rather than on a group's edge: on corpus the top 10.5% are the
# two constraints4 calls of each pass; on generated the top 2% are the ten
# slowest of each pass's 500 decides; on networks the top fifth are the
# calls on planted 12-variable networks; on fallback, whose instances form
# one cluster, p75 keeps about 18 samples above it.
TAIL_PERCENTILE = {"corpus": 91, "generated": 98, "fallback": 75, "networks": 80}

FAIL_FREE = {"corpus", "fallback", "networks"}

SETUP_SAMPLES = 15

# The speed probe (``speed.py``) runs before an instance when this much
# time has passed since the last one.
PROBE_EVERY_NS = 50_000_000


@dataclass
class Pass:
    durations_ns: List[int] = field(default_factory=list)
    starts_ns: List[int] = field(default_factory=list)  # of the untraced calls
    probes: List[Tuple[int, int]] = field(default_factory=list)  # (time, speed probe) in ns
    traced_ns: List[int] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    failed_ids: Set[str] = field(default_factory=set)
    seen: Set[str] = field(default_factory=set)  # ids of the distinct instances run
    unchecked: int = 0


def _timed(instance, tracer=None):
    """(result or None, exception or None, elapsed ns, start ns) of one call."""
    if tracer is not None:
        tracer.enabled = True
    error = result = None
    start = time.perf_counter_ns()
    try:
        result = instance.call()
    except Exception as exc:  # a raising instance is a failed instance
        error = exc
    elapsed = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.enabled = False
    return result, error, elapsed, start


def run_pass(stream, budget_ns: int, tracer=None, pass_size: int = 1) -> Pass:
    """Time instances from the stream until their calls add up to budget_ns,
    stopping only after a multiple of pass_size instances: at the pass end
    nearest to the budget, after at least one pass.

    With a tracer, every instance is called twice, untraced and traced, in
    an order picked by a fixed coin (the streams interleave instance kinds,
    so strict alternation could put one kind always first), and the traced
    call's output is the one checked."""
    out = Pass()
    spent = 0
    coin = random.Random(0)
    probe_at = -PROBE_EVERY_NS
    for instance in stream:
        if time.perf_counter_ns() - probe_at >= PROBE_EVERY_NS:
            probe = speed.probe_ns()
            probe_at = time.perf_counter_ns()
            out.probes.append((probe_at, probe))
        if tracer is None:
            result, error, elapsed, start = _timed(instance)
        else:
            if coin.random() < 0.5:
                result, error, elapsed, _ = _timed(instance, tracer)
                untraced, start = _timed(instance)[2:]
            else:
                untraced, start = _timed(instance)[2:]
                result, error, elapsed, _ = _timed(instance, tracer)
            out.traced_ns.append(elapsed)
            spent += elapsed
            elapsed = untraced
        spent += elapsed
        out.durations_ns.append(elapsed)
        out.starts_ns.append(start)
        hashes = ("-", "-")
        if error is not None:
            verdict, problem = "error", f"raised {type(error).__name__}: {error}"
        else:
            try:
                outcome = instance.check(result)
                verdict, problem = outcome.verdict, outcome.problem
                hashes = (outcome.witness_sha, outcome.dot_sha)
            except Exception as exc:
                out.unchecked += 1
                verdict, problem = "unchecked", f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            out.failures.append(f"fail {instance.id} {problem}")
            out.failed_ids.add(instance.id)
        if instance.id not in out.seen:
            out.seen.add(instance.id)
            print(f"inst {instance.id} {verdict} {hashes[0][:16]} {hashes[1][:16]}")
        passes, within = divmod(len(out.durations_ns), pass_size)
        if not within and spent + spent / passes / 2 >= budget_ns:
            break
    return out


def setup_seconds(root: Path) -> Tuple[float, float]:
    """Median time of ``import qsta`` in a fresh interpreter, after one
    warm-up import that also leaves the bytecode cache in place: (scaled
    by the mean of speed probes run in the same interpreter just before
    and after, wall)."""
    code = (
        f"import sys, time; sys.path[:0] = [{str(root / 'src')!r}, {str(Path(__file__).parent)!r}]; "
        "import speed; p = speed.probe_ns(); "
        "t = time.perf_counter(); import qsta; t = time.perf_counter() - t; "
        "print(t, (p + speed.probe_ns()) / 2)"
    )
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=60, check=True
        )
        seconds, probe = done.stdout.split()
        wall.append(float(seconds))
        scaled.append(float(seconds) * speed.REFERENCE_NS / float(probe))
    return statistics.median(scaled[1:]), statistics.median(wall[1:])


def time_metrics(sorted_ms: List[float], percentile: int, setup_s: float) -> Dict[str, float]:
    return {
        "instances_per_s": len(sorted_ms) / (sum(sorted_ms) / 1e3),
        "instance_p50_ms": statistics.median(sorted_ms),
        "instance_tail_ms": tail(sorted_ms, percentile)[0],
        "setup_s": setup_s,
    }


def tail(sorted_ms: List[float], percentile: int):
    """(value, samples above it) at a nearest-rank percentile."""
    rank = max(1, -(-len(sorted_ms) * percentile // 100))
    return sorted_ms[rank - 1], len(sorted_ms) - rank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import workloads  # imports qsta and the oracles from the checkout
    except ImportError as exc:
        print(f"error: cannot load the program or its oracles: {exc}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workdir = workloads.ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        done = run_pass(
            workloads.instances(args.workload, args.seed, workdir),
            int(args.seconds * 1e9),
            tracer,
            workloads.pass_size(args.workload),
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    calls = len(done.durations_ns)
    attempted, failed = len(done.seen), len(done.failed_ids)
    for line in done.failures:
        print(line)
    print(f"calls {calls} failed {len(done.failures)}; instances attempted {attempted} "
          f"failed {failed} failed_share {failed / attempted:.6f}")

    if args.trace:
        untraced_ns, traced_ns = sum(done.durations_ns), sum(done.traced_ns)
        for name, row in sorted(tracer.totals().items()):
            print(f"span {name} calls={row['calls']} total_ms={row['ns'] / 1e6:.3f} self_ms={row['self_ns'] / 1e6:.3f}")
        print(f"{calls} calls: untraced {untraced_ns / 1e6:.1f} ms, traced {traced_ns / 1e6:.1f} ms")
        values = spans.layer_metrics(tracer, calls, traced_ns - untraced_ns, untraced_ns)
        metrics = {name: {"value": value, "unit": spans.unit(name)} for name, value in values.items()}
    else:
        percentile = TAIL_PERCENTILE[args.workload]
        scaled_setup_s, wall_setup_s = setup_seconds(workloads.ROOT)
        wall = time_metrics(sorted(d / 1e6 for d in done.durations_ns), percentile, wall_setup_s)
        for name, value in wall.items():
            print(f"wall {name} {value:.6g} {UNITS[name]}")
        print(f"speed probe median {statistics.median(p for _, p in done.probes) / 1e3:.1f} us "
              f"over {len(done.probes)} probes, reference {speed.REFERENCE_NS / 1e3:.1f} us")
        scaled = speed.scale(list(zip(done.starts_ns, done.durations_ns)), done.probes)
        values = time_metrics(sorted(d / 1e6 for d in scaled), percentile, scaled_setup_s)
        above = tail(sorted(scaled), percentile)[1]
        values.update({
            "ok_share": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        print(f"instance_p50_ms over {calls} samples")
        print(f"instance_tail_ms is p{percentile}, {above} samples above it")
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    # On the workloads whose references are exact and which fail nothing
    # at the baseline, any failed instance is a correctness regression and
    # voids the run.  generated keeps its known false verdicts (ROADMAP
    # item 1) as counted failures.
    correct = done.unchecked == 0 and not (failed and args.workload in FAIL_FREE)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
