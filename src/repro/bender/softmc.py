"""SoftMC-style host session.

A :class:`SoftMCSession` wraps one chip + interpreter + timing checker and
exposes the host-side conveniences the characterization harness needs:
row writes/reads as one-liners, raw program execution, and (for the
methodology ablations) an auto-refresh mode that interleaves REF commands
the way a normal memory controller would -- which is exactly what the
paper's methodology *disables* (Section 3.1) to keep timings precise and
to avoid triggering in-DRAM TRR.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.bender.interpreter import ExecutionResult, Interpreter, Observer
from repro.bender.program import ProgramBuilder
from repro.bender.timing import TimingChecker
from repro.constants import DDR4Timings, DEFAULT_TIMINGS
from repro.dram.chip import Chip


class SoftMCSession:
    """Host session for driving one simulated DRAM chip.

    Args:
        chip: device under test.
        bank: default bank used by the convenience helpers.
        timings: JEDEC parameter set to validate against.
        temperature: callable returning the device temperature (C); wire a
            :class:`repro.thermal.TemperatureController` here for
            closed-loop experiments.
        auto_refresh: if ``True``, :meth:`run` interleaves a REF command
            every ``tREFI`` of simulated time *before* running each
            program (normal-controller behaviour; off for characterization).
    """

    def __init__(
        self,
        chip: Chip,
        bank: int = 0,
        timings: DDR4Timings = DEFAULT_TIMINGS,
        temperature: Optional[Callable[[], float]] = None,
        auto_refresh: bool = False,
    ) -> None:
        self._chip = chip
        self._bank = bank
        self._timings = timings
        self._auto_refresh = auto_refresh
        self._rows_per_ref = max(1, chip.geometry.rows // 8192)
        self._refresh_pointer = 0
        self._refreshes_issued = 0
        self._interp = Interpreter(
            chip,
            checker=TimingChecker(timings),
            temperature=temperature,
            refresh_hook=self._on_refresh,
        )

    # ------------------------------------------------------------- properties

    @property
    def chip(self) -> Chip:
        return self._chip

    @property
    def bank(self) -> int:
        return self._bank

    @property
    def timings(self) -> DDR4Timings:
        return self._timings

    @property
    def now(self) -> float:
        return self._interp.now

    def add_observer(self, observer: Observer) -> None:
        """Attach an ACT/REF observer (e.g. a TRR sampler)."""
        self._interp.add_observer(observer)

    # ------------------------------------------------------------ convenience

    def write_row(self, row: int, bits: np.ndarray, bank: Optional[int] = None) -> None:
        """Open ``row``, write ``bits``, close it (timing-legal)."""
        bank_idx = self._bank if bank is None else bank
        t = self._timings
        builder = ProgramBuilder()
        builder.act(bank_idx, row)
        builder.wait(t.tRCD)
        builder.wr(bank_idx, np.asarray(bits, dtype=np.uint8))
        builder.wait(max(t.tRAS - t.tRCD, t.tWR))
        builder.pre(bank_idx)
        builder.wait(t.tRP)
        self.run(builder.build())

    def read_row(self, row: int, bank: Optional[int] = None) -> np.ndarray:
        """Open ``row``, read it, close it; returns the row bits."""
        bank_idx = self._bank if bank is None else bank
        t = self._timings
        builder = ProgramBuilder()
        builder.act(bank_idx, row)
        builder.wait(t.tRCD)
        builder.rd(bank_idx)
        builder.wait(t.tRAS - t.tRCD)
        builder.pre(bank_idx)
        builder.wait(t.tRP)
        result = self.run(builder.build())
        return result.reads[-1][2]

    def run(self, program) -> ExecutionResult:
        """Execute a program (optionally preceded by catch-up refreshes)."""
        if self._auto_refresh:
            self._catch_up_refresh()
        return self._interp.run(program)

    def refresh(self, n: int = 1) -> None:
        """Issue ``n`` explicit REF commands."""
        builder = ProgramBuilder()
        for _ in range(n):
            builder.ref()
            builder.wait(self._timings.tREFI - self._timings.tRFC)
        self.run(builder.build())

    # ----------------------------------------------------------------- REF

    def _catch_up_refresh(self) -> None:
        """Issue the REFs a normal controller would have issued by now."""
        due = int(self._interp.now / self._timings.tREFI) - self._refreshes_issued
        if due > 0:
            builder = ProgramBuilder()
            for _ in range(due):
                builder.ref()
                builder.wait(1.0)
            self._interp.run(builder.build())

    def _on_refresh(self, now: float) -> None:
        """Advance the rolling refresh pointer by one REF's worth of rows.

        The timing checker rejects a REF while any bank has a row open,
        so the bank is precharged here.
        """
        self._refreshes_issued += 1
        bank = self._chip.bank(self._bank)
        for _ in range(self._rows_per_ref):
            row = self._refresh_pointer
            self._refresh_pointer = (self._refresh_pointer + 1) % self._chip.geometry.rows
            bank.refresh_row(row, now)
