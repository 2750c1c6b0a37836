"""Command-level ("honest") measurement path.

This path measures ACmin the way the real infrastructure does: it
compiles the pattern into DRAM Bender programs, executes them against the
simulated chip (initialize -> hammer N iterations -> read back), and
searches for the smallest N that induces at least one bitflip, using a
geometric ramp followed by bisection.

It interprets every command, so it is far slower than the closed form in
:mod:`repro.core.acmin`.  The interpreter lowers each program once per
run into pre-decoded commands (opcode, resolved bank, physical row,
folded wait; loops as nested lists), but still makes one timing check
and one device call per command, and the tracker only memoizes
per-activation increments, so every activation is still applied on its
own, in command order.  It exists for two reasons: (1) it validates that
the closed form and the command-level device model agree (the test suite
does exactly that), and (2) it is the only path that can evaluate
mitigation mechanisms (TRR/PARA/Graphene), which react to the actual
command stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.bender.softmc import SoftMCSession
from repro.constants import (
    DDR4Timings,
    DEFAULT_TIMINGS,
    ITERATION_RUNTIME_BOUND,
)
from repro.core.bitflips import BitflipCensus, flip_keys
from repro.dram.datapattern import DataPattern
from repro.patterns.base import AccessPattern, PatternPlacement
from repro.patterns.compiler import (
    compile_hammer_loop,
    compile_init,
    compile_readback,
)


@dataclass
class HonestMeasurement:
    """Result of one command-level ACmin search.

    Attributes:
        acmin: minimum total activations to the first bitflip, or ``None``
            if no bitflip occurred within the iteration budget.
        iterations: the corresponding iteration count.
        census: the bitflips observed at the found minimum.
        probes: number of (init, hammer, readback) probes executed.
    """

    acmin: Optional[int]
    iterations: Optional[int]
    census: BitflipCensus
    probes: int


class HonestLocationProbe:
    """Repeatedly probes one pattern location with increasing hammer counts."""

    def __init__(
        self,
        session: SoftMCSession,
        pattern: AccessPattern,
        base_row: int,
        t_on: float,
        data_pattern: DataPattern,
        timings: DDR4Timings = DEFAULT_TIMINGS,
    ) -> None:
        self._session = session
        self._pattern = pattern
        self._t_on = t_on
        self._data_pattern = data_pattern
        self._timings = timings
        chip = session.chip
        self._to_logical = chip.to_logical
        self._placement: PatternPlacement = pattern.place(
            base_row, t_on, chip.geometry.rows, timings
        )
        n_bits = chip.geometry.cols_simulated
        self._expected: Dict[int, np.ndarray] = {
            row: data_pattern.victim_bits(row, n_bits)
            for row in self._placement.victims
        }
        self._init_program = compile_init(
            self._placement,
            data_pattern,
            n_bits,
            bank=session.bank,
            timings=timings,
            to_logical=self._to_logical,
        )
        self._readback_program = compile_readback(
            self._placement,
            bank=session.bank,
            timings=timings,
            to_logical=self._to_logical,
        )

    @property
    def placement(self) -> PatternPlacement:
        return self._placement

    def budget_iterations(
        self, runtime_bound_ns: float = ITERATION_RUNTIME_BOUND
    ) -> int:
        return int(runtime_bound_ns // self._placement.iteration_latency(self._timings))

    def probe(self, iterations: int) -> BitflipCensus:
        """One init -> hammer(iterations) -> readback probe."""
        session = self._session
        session.run(self._init_program)
        hammer = compile_hammer_loop(
            self._placement,
            iterations,
            bank=session.bank,
            timings=self._timings,
            to_logical=self._to_logical,
        )
        session.run(hammer)
        result = session.run(self._readback_program)
        keys: List[np.ndarray] = []
        stored: List[np.ndarray] = []
        for _bank, phys_row, bits in result.reads:
            expected = self._expected[phys_row]
            flipped = np.flatnonzero(bits != expected)
            keys.append(flip_keys(phys_row, flipped))
            stored.append(expected[flipped])
        if not keys:
            return BitflipCensus()
        return BitflipCensus.from_flips(np.concatenate(keys), np.concatenate(stored))


def measure_location_honest(
    session: SoftMCSession,
    pattern: AccessPattern,
    base_row: int,
    t_on: float,
    data_pattern: DataPattern,
    timings: DDR4Timings = DEFAULT_TIMINGS,
    runtime_bound_ns: float = ITERATION_RUNTIME_BOUND,
    max_budget_iterations: Optional[int] = None,
    ramp_start: int = 1,
) -> HonestMeasurement:
    """Command-level ACmin search at one location.

    Geometric ramp (doubling from ``ramp_start``) to bracket the first
    flip, then bisection for the exact minimum iteration count.
    ``max_budget_iterations`` optionally caps the budget below what the
    runtime bound allows (useful to keep tests fast).
    """
    prober = HonestLocationProbe(
        session, pattern, base_row, t_on, data_pattern, timings
    )
    budget = prober.budget_iterations(runtime_bound_ns)
    if max_budget_iterations is not None:
        budget = min(budget, max_budget_iterations)
    probes = 0

    # Geometric ramp to find an upper bracket.
    lo, hi, hi_census = 0, None, None
    n = max(1, ramp_start)
    while n <= budget:
        census = prober.probe(n)
        probes += 1
        if census.n_flips:
            hi, hi_census = n, census
            break
        lo = n
        n *= 2
    if hi is None:
        # One last probe exactly at the budget (the ramp may overshoot it).
        if lo < budget:
            census = prober.probe(budget)
            probes += 1
            if census.n_flips:
                hi, hi_census = budget, census
        if hi is None:
            return HonestMeasurement(
                acmin=None, iterations=None, census=BitflipCensus(), probes=probes
            )

    # Bisection for the exact minimum.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        census = prober.probe(mid)
        probes += 1
        if census.n_flips:
            hi, hi_census = mid, census
        else:
            lo = mid
    return HonestMeasurement(
        acmin=hi * prober.placement.acts_per_iteration,
        iterations=hi,
        census=hi_census,
        probes=probes,
    )
