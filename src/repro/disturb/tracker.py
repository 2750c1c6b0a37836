"""Command-level disturbance accumulation.

The :class:`DisturbanceTracker` is attached to a simulated DRAM bank and is
notified of every aggressor activation (on precharge, when the actual
row-open time is known).  It maintains two non-negative accumulators per
victim cell -- hammer charge *gain* and press charge *loss* -- and decides
which stored bits have flipped when the row is read back.

This is the "honest" execution path: patterns compiled to DRAM Bender
programs drive it one activation at a time.  The closed-form fast path in
:mod:`repro.core.acmin` computes the same quantities analytically; the test
suite asserts the two agree.

An activation's per-victim increments depend only on ``(aggressor_row,
t_on, solo, temperature_c)``, which a hammer loop repeats every iteration,
so each key's increments are computed once (same expressions, same operand
order) and memoized.  Adding identical operands gives identical floats, so
the accumulators stay bit-identical to recomputing every increment.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

import numpy as np

from repro.constants import CHARACTERIZATION_TEMPERATURE_C
from repro.disturb.model import DisturbanceModel
from repro.disturb.population import VictimRowCells

#: Increment-memo entries a tracker holds before it clears the memo.
_MEMO_CAP = 256


class DisturbanceTracker:
    """Accumulates read disturbance on victim rows of one bank.

    Args:
        model: the disturbance model supplying per-activation magnitudes.
        cells_for_row: provider of the per-cell susceptibility arrays of a
            physical row (typically a closure over the chip's population
            parameters).
        n_rows: number of rows in the bank (victims outside are ignored).
    """

    def __init__(
        self,
        model: DisturbanceModel,
        cells_for_row: Callable[[int], VictimRowCells],
        n_rows: int,
    ) -> None:
        self._model = model
        self._cells_for_row = cells_for_row
        self._n_rows = n_rows
        # victim row -> (2, n_cells) array: row 0 hammer gain, row 1 press loss.
        self._acc: Dict[int, np.ndarray] = {}
        self._increments: Dict[tuple, Tuple[Tuple[int, np.ndarray], ...]] = {}

    # ------------------------------------------------------------------ events

    def on_activation(
        self,
        aggressor_row: int,
        t_on: float,
        solo: bool,
        temperature_c: float = CHARACTERIZATION_TEMPERATURE_C,
    ) -> None:
        """Record one aggressor activation of duration ``t_on`` ns.

        ``solo`` marks a back-to-back re-activation of the same row
        (single-sided pattern), which weakens the hammer kick and applies
        the cell-dependent solo press efficiency -- see
        :mod:`repro.disturb.model`.
        """
        key = (aggressor_row, t_on, solo, temperature_c)
        increments = self._increments.get(key)
        if increments is None:
            if len(self._increments) >= _MEMO_CAP:
                self._increments.clear()
            increments = self._increments[key] = self._compute_increments(*key)
        accumulators = self._acc
        for victim, increment in increments:
            acc = accumulators.get(victim)
            if acc is None:
                # First touch: the sum so far is the increment itself.
                accumulators[victim] = increment.copy()
            else:
                acc += increment

    def reset(self, rows: Iterable[int] = None) -> None:
        """Clear accumulated disturbance (all rows, or a subset).

        Used when rows are rewritten/refreshed: restoring the charge of a
        row erases its accumulated disturbance.
        """
        if rows is None:
            self._acc.clear()
            return
        for row in rows:
            self._acc.pop(row, None)

    # ----------------------------------------------------------------- queries

    def disturbed_rows(self) -> Iterable[int]:
        """Rows that have received any disturbance since the last reset."""
        return sorted(self._acc)

    def is_disturbed(self, row: int) -> bool:
        """Whether ``row`` has received any disturbance since its last reset."""
        return row in self._acc

    def flip_mask(self, row: int, stored_bits: np.ndarray) -> np.ndarray:
        """Boolean mask of cells in ``row`` whose stored bit has flipped.

        A *discharged* cell flips when its accumulated hammer gain crosses
        its threshold; a *charged* cell flips when its accumulated press
        loss does.
        """
        acc = self._acc.get(row)
        if acc is None:
            return np.zeros(np.shape(stored_bits), dtype=bool)
        cells = self._cells_for_row(row)
        charged = cells.charged_mask(stored_bits)
        return np.where(charged, acc[1], acc[0]) >= cells.theta

    # ----------------------------------------------------------------- helpers

    def _compute_increments(
        self, aggressor_row: int, t_on: float, solo: bool, temperature_c: float
    ) -> Tuple[Tuple[int, np.ndarray], ...]:
        """Per-victim ``(victim, [gain, loss])`` increments of one activation."""
        h = self._model.hammer_kick(temperature_c)
        p = self._model.press_loss(t_on, temperature_c)
        alpha = self._model.alpha(t_on)
        gamma = self._model.solo_press_gamma(t_on) if solo else 1.0
        delta = self._model.solo_hammer_factor if solo else 1.0
        increments = []
        for victim, agg_above in ((aggressor_row - 1, True), (aggressor_row + 1, False)):
            if not 0 <= victim < self._n_rows:
                continue
            cells = self._cells_for_row(victim)
            if agg_above:
                # The aggressor sits *above* this victim: weak press coupling.
                gain = cells.g_h_hi * h
                loss = cells.g_p_hi * alpha * p
            else:
                # Aggressor *below* the victim: dominant press coupling.
                gain = cells.g_h_lo * h
                loss = cells.g_p_lo * p
            if solo:
                gain = gain * delta * cells.solo_hammer_mod
                loss = loss * gamma**cells.solo_press_exp
            increments.append((victim, np.stack((gain, loss))))
        return tuple(increments)
