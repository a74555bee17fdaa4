"""Machine-speed probe: the yardstick every reported time is scaled by.

The small shared virtual machines this benchmark was written on change
speed by up to half for seconds at a time (a fixed loop took 25 ms in
some seconds and 36 ms in others, in CPU time as in wall time), so the
wall time of a 25 s run says as much about the machine's minute as about
the program.  The probe is a fixed pure-Python loop, independent of
``qsta``, timed between instances, and a duration is reported "at
reference speed":

    scaled = measured * REFERENCE_NS / (mean probe within WINDOW_NS of it)

A change to the program moves the measured time and not the probe, so it
moves the scaled time by the same factor.  ``REFERENCE_NS`` is the
probe's median time on the machine the baseline in ``README.md`` was
measured on, so that scaled times read as that machine's typical
milliseconds.  Of the probes tried (integer arithmetic, object and dict
work, the RCC8 reference search of ``refs.py``) and the ways to apply
them (latest probe, run mean or median, windows of 0.25-4 s around the
instance's midpoint), this loop with a 1 s window left the smallest
worst-case run-to-run spread over the workloads' time metrics.  The window
was later widened to span the whole instance: a single decide of about
11 s in the generated set had been scaled by the one probe before it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

REFERENCE_NS = 160_000
WINDOW_NS = 1_000_000_000
ROUNDS = 3


def _work() -> int:
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


def probe_ns() -> int:
    """Fastest of a few timings of the fixed loop, in ns."""
    best = None
    for _ in range(ROUNDS):
        start = time.perf_counter_ns()
        _work()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def scale(durations: List[Tuple[int, int]], probes: List[Tuple[int, int]]) -> List[float]:
    """Scale each (start ns, duration ns) by the mean of the probes, given
    as (time ns, probe ns) in time order, within WINDOW_NS of the instance:
    from WINDOW_NS before its start to WINDOW_NS after its end, so that an
    instance of many seconds is scaled by the probes on both sides of it.
    A probe runs before the first instance, so when none is that close the
    last one before it is used."""
    times = [at for at, _ in probes]
    out = []
    for start, duration in durations:
        low = bisect.bisect_left(times, start - WINDOW_NS)
        high = bisect.bisect_right(times, start + duration + WINDOW_NS)
        near = [p for _, p in probes[low:high]] or [probes[low - 1][1]]
        out.append(duration * REFERENCE_NS / statistics.fmean(near))
    return out
