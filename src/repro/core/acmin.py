"""Closed-form ACmin / time-to-first-bitflip / bitflip-census analysis.

Because both disturbance mechanisms accumulate linearly with iterations,
the first iteration at which each cell flips has the closed form

``n(cell) = theta / (per-iteration gain)``   for discharged cells (hammer)
``n(cell) = theta / (per-iteration loss)``   for charged cells (press)

and a die's ``ACmin`` is the per-iteration activation count times the
minimum (ceiled) ``n`` over every victim cell of every tested location --
subject to the paper's 60 ms iteration-runtime bound (Section 3.1): if
even the weakest cell needs more iterations than fit in the bound, the
measurement reports *No Bitflip*, exactly like the empty cells of Table 2.

This module is the vectorized fast path; :mod:`repro.core.honest` performs
the same measurement by actually executing DRAM Bender programs, and the
test suite asserts the two agree.

Multi-trial fast path
---------------------

Trial-to-trial variation is a multiplicative threshold jitter, so

``n_trial(cell) = (theta * jitter) / denom = (theta / denom) * jitter``.

:meth:`DieSweepAnalyzer.analyze_trials` exploits this: the base
``theta / denom`` division is computed once per (die, pattern, tAggON)
and every trial is derived by scaling with its jitter field.
:func:`analyze_die` routes through the same code, so the per-trial and
batched paths are bit-identical by construction.  The per-role pattern
weights are memoized per (pattern, tAggON, model, temperature, timings)
-- they are pattern geometry, not die state -- and the hammer-gain
arrays, which do not depend on tAggON, are cached per pattern across a
sweep of one die.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.constants import (
    CHARACTERIZATION_TEMPERATURE_C,
    DDR4Timings,
    DEFAULT_TIMINGS,
    ITERATION_RUNTIME_BOUND,
)
from repro.core.bitflips import BitflipCensus, flip_keys
from repro.core.stacked import DEFAULT_OFFSETS, StackedDie, role_name
from repro.disturb.model import DisturbanceModel
from repro.errors import ExperimentError
from repro.patterns.base import AccessPattern

#: Base row used to evaluate role weights (any legal base works: the
#: contribution weights depend only on the victim's role offset, not its
#: address).  Probes place against a deliberately huge bank so patterns
#: of any width fit; only the low rows might be constrained (offset -1
#: with base 1 lands on row 0, which every placement accepts).
_PROBE_BASE = 1

_PROBE_ROWS = 1 << 30


def _role_weights(
    pattern: AccessPattern,
    t_on: float,
    model: DisturbanceModel,
    temperature_c: float,
    timings: DDR4Timings,
):
    """Per-offset (w_gh_lo, w_gh_hi, v_gp_lo, v_gp_hi) for one iteration.

    Weights are keyed by the victim's row offset from the base -- the
    footprint vocabulary of :class:`~repro.core.stacked.StackedDie` --
    so any pattern geometry the DSL can express analyzes through the
    same table, not just the paper's canonical triple.
    """
    placement = pattern.place(
        _PROBE_BASE, t_on, rows_in_bank=_PROBE_ROWS, timings=timings
    )
    contribs = pattern.iteration_contributions(placement, model, temperature_c)
    weights = {}
    for contrib in contribs:
        weights[contrib.row - _PROBE_BASE] = (
            contrib.w_gh_lo,
            contrib.w_gh_hi,
            contrib.v_gp_lo,
            contrib.v_gp_hi,
        )
    return placement, weights


def pattern_footprint(
    pattern: AccessPattern, timings: DDR4Timings = DEFAULT_TIMINGS
) -> tuple:
    """The victim-offset footprint a pattern needs its stacks built over.

    Patterns exposing ``victim_offsets`` (DSL specs) answer directly;
    anything else is probed with one placement at ``tAggON = tRAS``
    (victim geometry never depends on the on-time).  Footprints contained
    in the canonical triple are normalized to
    :data:`~repro.core.stacked.DEFAULT_OFFSETS` so the paper's patterns
    -- and any DSL twin of them -- share one stack, one cache entry, and
    bit-identical populations.
    """
    offsets = getattr(pattern, "victim_offsets", None)
    if offsets is None:
        placement = pattern.place(
            _PROBE_BASE, timings.tRAS, rows_in_bank=_PROBE_ROWS, timings=timings
        )
        offsets = tuple(row - _PROBE_BASE for row in placement.victims)
    offsets = tuple(sorted({int(offset) for offset in offsets}))
    if set(offsets) <= set(DEFAULT_OFFSETS):
        return DEFAULT_OFFSETS
    return offsets


@lru_cache(maxsize=8192)
def _cached_role_weights(
    pattern: AccessPattern,
    t_on: float,
    model: DisturbanceModel,
    temperature_c: float,
    timings: DDR4Timings,
):
    """Memoized role weights.

    The weights are pattern geometry evaluated through the model's scalar
    responses -- they do not depend on any die state, yet the seed runner
    recomputed them for every (die, trial).  Models hash by identity, so
    entries are exact; the cache is bounded and shared process-wide.
    """
    return _role_weights(pattern, t_on, model, temperature_c, timings)


@dataclass
class DieAnalysis:
    """Per-die closed-form analysis of one (pattern, tAggON, trial) point.

    Attributes:
        n_iters: per role, the (n_locations, n_cells) array of iterations
            to first flip (``inf`` for cells the pattern cannot flip).
        acts_per_iteration: aggressor activations per pattern iteration.
        iteration_latency_ns: simulated time per iteration.
        fused: the role-fused ``(3 * n_locations, n_cells)`` n_iters stack
            (roles the pattern does not disturb are ``inf``); the per-role
            ``n_iters`` entries are views into it.  ``None`` when the
            analysis was constructed from per-role arrays directly, in
            which case the aggregate methods fall back to the dict.
    """

    stacked: StackedDie
    n_iters: Dict[str, np.ndarray]
    acts_per_iteration: int
    iteration_latency_ns: float
    fused: Optional[np.ndarray] = None
    _loc_min: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------- aggregates

    def min_iters_per_location(self) -> np.ndarray:
        """Weakest-cell iteration count per location (float, inf-safe)."""
        if self._loc_min is None:
            if self.fused is not None:
                n_loc = len(self.stacked.base_rows)
                n_roles = self.fused.shape[0] // n_loc
                self._loc_min = self.fused.reshape(
                    n_roles, n_loc, self.fused.shape[1]
                ).min(axis=(0, 2))
            else:
                mins = [arr.min(axis=1) for arr in self.n_iters.values()]
                self._loc_min = np.minimum.reduce(mins)
        return self._loc_min

    def die_min_iters(self) -> float:
        return float(self.min_iters_per_location().min())

    def budget_iterations(
        self, runtime_bound_ns: float = ITERATION_RUNTIME_BOUND
    ) -> int:
        """Iterations that fit in the experiment-runtime bound."""
        return int(runtime_bound_ns // self.iteration_latency_ns)

    def acmin(
        self, runtime_bound_ns: float = ITERATION_RUNTIME_BOUND
    ) -> Optional[int]:
        """Minimum total activations to the first bitflip, or ``None`` if
        no cell flips within the runtime bound ("No Bitflip")."""
        min_iters = self.die_min_iters()
        if not math.isfinite(min_iters):
            return None
        iters = max(1, math.ceil(min_iters))
        if iters > self.budget_iterations(runtime_bound_ns):
            return None
        return iters * self.acts_per_iteration

    def time_to_first_bitflip_ns(
        self, runtime_bound_ns: float = ITERATION_RUNTIME_BOUND
    ) -> Optional[float]:
        acmin = self.acmin(runtime_bound_ns)
        if acmin is None:
            return None
        return (acmin / self.acts_per_iteration) * self.iteration_latency_ns

    # ----------------------------------------------------------------- census

    def census(
        self,
        multiplier: float = 1.5,
        runtime_bound_ns: float = ITERATION_RUNTIME_BOUND,
    ) -> BitflipCensus:
        """Bitflips observed while measuring this point.

        Per location, cells that flip within ``multiplier`` times the
        location's own first-flip iteration count (capped at the runtime
        bound) are counted -- modeling the flips the ACmin search procedure
        observes around each location's minimum.
        """
        budget = self.budget_iterations(runtime_bound_ns)
        loc_min = self.min_iters_per_location()
        finite = np.isfinite(loc_min)
        if not finite.any():
            # No location flips within the bound: nothing to census.
            return BitflipCensus()
        with np.errstate(invalid="ignore"):
            loc_census_iters = np.minimum(
                np.where(finite, np.ceil(loc_min * multiplier), 0.0),
                budget,
            )
        if self.fused is not None:
            n_loc = loc_census_iters.size
            n_cells = self.fused.shape[1]
            n_roles = self.fused.shape[0] // n_loc
            arrays = self.stacked.fused
            live = np.flatnonzero(loc_census_iters > 0.0)
            if 2 * live.size < n_loc:
                # Few locations flip at this point: compare only their
                # rows (across every role block) instead of scanning the
                # whole stack.
                row_sel = (live[None, :] + n_loc * np.arange(n_roles)[:, None]).ravel()
                arr = self.fused[row_sel]
                cutoff = np.tile(loc_census_iters[live], n_roles)[:, None]
                loc_map = row_sel
            else:
                # Broadcast the per-location cutoffs across the role
                # blocks via a 3-D view: no tiled copy.
                arr = self.fused.reshape(n_roles, n_loc, n_cells)
                cutoff = loc_census_iters[None, :, None]
                loc_map = None
            # ravel().nonzero() is an order of magnitude faster than a
            # 2-D np.nonzero for these mask shapes; recover (loc, col)
            # from the flat index afterwards.
            (flat,) = (arr <= cutoff).ravel().nonzero()
            if not flat.size:
                return BitflipCensus()
            loc_idx, col_idx = np.divmod(flat, n_cells)
            if loc_map is not None:
                loc_idx = loc_map[loc_idx]
            return BitflipCensus.from_flips(
                flip_keys(arrays.rows[loc_idx], col_idx),
                arrays.stored_bool[loc_idx, col_idx],
            )
        keys: List[np.ndarray] = []
        stored: List[np.ndarray] = []
        for role, arr in self.n_iters.items():
            arrays = self.stacked.roles[role]
            (flat,) = (arr <= loc_census_iters[:, None]).ravel().nonzero()
            loc_idx, col_idx = np.divmod(flat, arr.shape[1])
            keys.append(flip_keys(arrays.rows[loc_idx], col_idx))
            stored.append(arrays.stored_bool[loc_idx, col_idx])
        return BitflipCensus.from_flips(np.concatenate(keys), np.concatenate(stored))


class DieSweepAnalyzer:
    """Amortizes closed-form analysis across a sweep of one die.

    Three quantities are reused across the points of a sweep:

    * the per-role pattern weights (memoized process-wide, see
      :func:`_cached_role_weights`);
    * the hammer-gain arrays, which are independent of ``tAggON`` and are
      cached per pattern for the analyzer's lifetime;
    * the base ``theta / denom`` division of a (pattern, tAggON) point,
      from which all trials are derived by jitter scaling
      (:meth:`analyze_trials`).  Bases are kept in a bounded FIFO cache so
      a later campaign revisiting the same points (anchor sweeps re-tread
      the tAggON sweep) skips the division entirely.

    The analyzer holds references to one die's stacked arrays; create one
    per (die, sweep), or keep it alive across campaigns of the same
    configuration to reuse its caches.
    """

    #: Bound of the per-analyzer base cache (FIFO-evicted).  A base array
    #: is ~0.4 MB at the default geometry; the bound caps an analyzer at
    #: a few tens of MB even under very fine tAggON grids.
    BASE_CACHE_POINTS = 64

    def __init__(
        self,
        stacked: StackedDie,
        model: DisturbanceModel,
        temperature_c: float = CHARACTERIZATION_TEMPERATURE_C,
        timings: DDR4Timings = DEFAULT_TIMINGS,
    ) -> None:
        self._stacked = stacked
        self._model = model
        self._temperature_c = temperature_c
        self._timings = timings
        self._gains: Dict[str, np.ndarray] = {}
        self._bases: Dict[Tuple[str, float], np.ndarray] = {}

    @property
    def stacked(self) -> StackedDie:
        """The stacked die this analyzer analyzes (read-only)."""
        return self._stacked

    # -------------------------------------------------------------- internals

    def _active_rows(self, weights) -> int:
        """Rows of the fused stack covering every role the pattern touches.

        Roles are fused in the stack's own footprint order
        (``role_offsets``); a pattern that leaves the trailing role(s)
        undisturbed (single-sided has no ``outer_hi``) only needs the
        leading prefix of the stack, and every whole-array op below
        shrinks accordingly.  Trailing absent roles simply never enter
        the computation -- their n_iters would be uniformly inf.  A
        pattern disturbing an offset the stack was not built over is a
        configuration error (its flips would be silently invisible).
        """
        offsets = self._stacked.role_offsets
        missing = sorted(set(weights) - set(offsets))
        if missing:
            raise ExperimentError(
                f"pattern disturbs victim offsets {missing} absent from "
                f"the stack footprint {tuple(offsets)}; build the stack "
                "over the pattern's footprint (see pattern_footprint())"
            )
        n_active = 1 + max(offsets.index(offset) for offset in weights)
        return n_active * self._stacked.n_locations

    def _weight_cols(self, weights, n_rows: int):
        """Per-row weight columns for the leading ``n_rows`` fused rows.

        Roles absent from ``weights`` (the pattern does not disturb them)
        get zero weights: their denominator is 0 and their n_iters inf.
        """
        n_loc = self._stacked.n_locations
        offsets = self._stacked.role_offsets
        per_role = [
            weights.get(offset, (0.0, 0.0, 0.0, 0.0))
            for offset in offsets[: n_rows // n_loc]
        ]
        cols = np.repeat(np.array(per_role), n_loc, axis=0)
        return cols[:, 0:1], cols[:, 1:2], cols[:, 2:3], cols[:, 3:4]

    def _pattern_gains(self, pattern: AccessPattern, weights, n_rows: int):
        """Fused hammer-gain stack (tAggON-independent, cached).

        The gains are pre-masked to discharged cells so the denominator of
        :meth:`_base` is a plain ``press + gain`` sum (press is masked to
        charged cells at build time): no per-point ``np.where`` select.
        """
        cached = self._gains.get(pattern.name)
        if cached is None:
            fused = self._stacked.fused
            w_lo, w_hi, _v_lo, _v_hi = self._weight_cols(weights, n_rows)
            gain = w_lo * fused.g_h_lo[:n_rows] + w_hi * fused.g_h_hi[:n_rows]
            if pattern.solo:
                gain = (
                    gain
                    * self._model.solo_hammer_factor
                    * fused.solo_hammer_mod[:n_rows]
                )
            cached = np.where(fused.charged[:n_rows], 0.0, gain)
            self._gains[pattern.name] = cached
        return cached

    def _base(self, pattern: AccessPattern, t_on: float):
        """Placement, role weights, and the trial-0 fused n_iters stack."""
        placement, weights = _cached_role_weights(
            pattern, t_on, self._model, self._temperature_c, self._timings
        )
        cached = self._bases.get((pattern.name, t_on))
        if cached is not None:
            return placement, weights, cached
        n_rows = self._active_rows(weights)
        gain = self._pattern_gains(pattern, weights, n_rows)
        fused = self._stacked.fused
        if any(v_lo or v_hi for (_, _, v_lo, v_hi) in weights.values()):
            _w_lo, _w_hi, v_lo, v_hi = self._weight_cols(weights, n_rows)
            press = v_lo * fused.press_lo[:n_rows] + v_hi * fused.press_hi[:n_rows]
            if pattern.solo:
                gamma = self._model.solo_press_gamma(t_on)
                if gamma > 0.0:
                    # gamma ** e == exp(e * ln gamma); the exp form is
                    # several times faster than npy pow on the stack.
                    press *= np.exp(math.log(gamma) * fused.solo_press_exp[:n_rows])
                else:
                    press *= gamma ** fused.solo_press_exp[:n_rows]
            denom = press + gain
        else:
            # All press weights are zero (minimal tAggON): the
            # denominator is the cached gain stack itself.
            denom = gain
        # Cells the pattern cannot disturb have denom == 0; division
        # yields inf there (theta is strictly positive), matching the
        # "never flips" semantics without a masked divide.
        with np.errstate(divide="ignore"):
            base = fused.theta[:n_rows] / denom
        if len(self._bases) >= self.BASE_CACHE_POINTS:
            self._bases.pop(next(iter(self._bases)))
        self._bases[(pattern.name, t_on)] = base
        return placement, weights, base

    def _analysis(
        self,
        placement,
        weights,
        fused_n_iters: np.ndarray,
    ) -> DieAnalysis:
        n_loc = self._stacked.n_locations
        n_iters = {
            role_name(offset): fused_n_iters[k * n_loc : (k + 1) * n_loc]
            for k, offset in enumerate(self._stacked.role_offsets)
            if offset in weights
        }
        return DieAnalysis(
            stacked=self._stacked,
            n_iters=n_iters,
            acts_per_iteration=placement.acts_per_iteration,
            iteration_latency_ns=placement.iteration_latency(self._timings),
            fused=fused_n_iters,
        )

    def _jittered(
        self, base: np.ndarray, trial: int, jitter_sigma: float
    ) -> np.ndarray:
        if trial == 0 or jitter_sigma == 0.0:
            return base
        jitter = self._stacked.fused_jitter(trial, sigma=jitter_sigma)
        if jitter.shape[0] != base.shape[0]:  # role-prefix-trimmed base
            jitter = jitter[: base.shape[0]]
        return base * jitter

    # ------------------------------------------------------------------- API

    def analyze(
        self,
        pattern: AccessPattern,
        t_on: float,
        trial: int = 0,
        jitter_sigma: float = 0.02,
    ) -> DieAnalysis:
        """Closed-form analysis of one (pattern, tAggON, trial) point."""
        placement, weights, base = self._base(pattern, t_on)
        return self._analysis(
            placement, weights, self._jittered(base, trial, jitter_sigma)
        )

    def analyze_trials(
        self,
        pattern: AccessPattern,
        t_on: float,
        trials: Sequence[int],
        jitter_sigma: float = 0.02,
    ) -> List[DieAnalysis]:
        """Analyses of arbitrary trial indices of one (pattern, tAggON).

        The base division is performed once; each trial applies its
        jitter as a multiplicative scale, so any trial subset (the
        engine passes the trials of a point missing from its memo) is
        bit-identical to calling :meth:`analyze` per trial.
        """
        placement, weights, base = self._base(pattern, t_on)
        return [
            self._analysis(
                placement, weights, self._jittered(base, trial, jitter_sigma)
            )
            for trial in trials
        ]


def analyze_die(
    stacked: StackedDie,
    pattern: AccessPattern,
    t_on: float,
    model: DisturbanceModel,
    temperature_c: float = CHARACTERIZATION_TEMPERATURE_C,
    timings: DDR4Timings = DEFAULT_TIMINGS,
    trial: int = 0,
    jitter_sigma: float = 0.02,
) -> DieAnalysis:
    """Closed-form analysis of one (die, pattern, tAggON, trial) point."""
    return DieSweepAnalyzer(stacked, model, temperature_c, timings).analyze(
        pattern, t_on, trial, jitter_sigma
    )
