"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over seconds and minutes, at times by 2x.  Timing this kernel on
each usable CPU beside the workload tells how fast the host was at that
moment; it is fixed code that no change to ``repro`` can speed up.  It mixes the two kinds of work the workloads do:
an interpreter-bound half (attribute access, method calls, dict and list
traffic, like the command-level path) and an array-bound half (sorting,
elementwise arithmetic and reductions, like the analyzer).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Seconds :func:`reading` gives on a quiet host (2-vCPU Intel Xeon VM,
#: Python 3.11, numpy 2.4).  Scaling a time by ``NOMINAL_S`` over the
#: readings taken around it puts it in seconds on such a host.
NOMINAL_S = 0.06

#: CPUs a reading visits at most, so that it stays short on large hosts.
MAX_CPUS = 4


class _Row:
    __slots__ = ("index", "charge")

    def __init__(self, index: int) -> None:
        self.index = index
        self.charge = 0

    def disturb(self, amount: int) -> int:
        self.charge = (self.charge + amount * self.index) % 65_521
        return self.charge


def _interpreted(steps: int = 110_000) -> int:
    rows = [_Row(i) for i in range(256)]
    seen = {}
    log = []
    total = 0
    for step in range(steps):
        row = rows[step & 255]
        charge = row.disturb(step)
        seen[charge & 4095] = step
        if charge & 63 == 0:
            log.append((step, charge))
        total += charge
    return total + len(seen) + len(log)


def _arrays(rounds: int = 6) -> float:
    values = np.random.default_rng(0).random(262_144)
    total = 0.0
    for _ in range(rounds):
        ordered = np.sort(values)
        weights = np.exp(-ordered) * ordered
        bins = np.bincount((ordered * 1023).astype(np.int64), weights=weights)
        total += float(bins.max() + np.cumsum(weights)[-1])
        values = ordered[::-1] * 0.999 + 0.0005
    return total


def kernel() -> None:
    """One reference unit: the interpreted half, then the array half."""
    _interpreted()
    _arrays()


def reading() -> float:
    """Mean seconds of one kernel call on each usable CPU.

    The process is pinned to one CPU at a time, so every CPU a pool
    worker may land on weighs in.
    """
    usable = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in usable[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            kernel()
            per_cpu.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, usable)
    return statistics.mean(per_cpu)
