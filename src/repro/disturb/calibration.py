"""Calibration of the disturbance model against the paper's measurements.

For every module profile, the solver determines:

* ``theta_scale`` -- global flip-threshold scale, from the double-sided
  RowHammer anchor (Table 2, tAggON = 36 ns);
* per-die threshold scales (hammer spread), from the avg-vs-min ACmin
  spread of Table 2 at the RowHammer anchor;
* per-die press-coupling scales, pinning the per-die combined-pattern
  ACmin distribution at the 7.8 us reference anchor (the paper's
  avg/min/budget arithmetic implies a top-clustered, hammer-independent
  press spread across dies);
* the press-loss anchors ``P(t)`` and the Hypothesis-1 asymmetry
  ``alpha(t)`` at tAggON = 636 ns (from the Observation 1/2 text
  percentages), 7.8 us and 70.2 us (from Table 2), solved *jointly* per
  anchor against the combined and double-sided targets on a 2-D grid;
* the single-sided press efficiency ``gamma(t)``, solved against the
  single-sided RowPress times reported in the text (Observations 1/3).

All targets use *censored* averaging -- the mean over dies whose ACmin
fits the activation budget of the 60 ms iteration-runtime bound -- which
is the semantics of both our measurement and (per its own arithmetic) the
paper's reported averages.  Everything is solved on the same stacked cell
population the characterization runner later measures, so anchors are
matched by construction wherever the published numbers are jointly
feasible (the few infeasible cells are listed in EXPERIMENTS.md).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.constants import DEFAULT_TIMINGS
from repro.core.experiment import CharacterizationConfig
from repro.core.stacked import build_stacked_die
from repro.disturb.calibrated import CalibratedDisturbanceModel
from repro.disturb.interpolant import LogTimeInterpolant
from repro.disturb.population import PopulationParams
from repro.dram.chip import Chip
from repro.dram.profiles import (
    MFR_TEXT_ANCHORS,
    MODULE_PROFILES,
    ModuleProfile,
    get_profile,
    profiles_by_manufacturer,
)
from repro.errors import CalibrationError

#: Anchor on-times (ns): 636 ns (text), tREFI, 9 x tREFI (Table 2).
ANCHOR_TIMES: Tuple[float, ...] = (636.0, 7_800.0, 70_200.0)

#: The press reference anchor where Table 2 pins the per-die distribution.
T_REF: float = 7_800.0

#: Headroom factor for "No Bitflip" cells: the weakest die's ACmin is
#: placed at least this far above the 60 ms activation budget.
_NO_BITFLIP_HEADROOM = 1.05

#: Per-activation hammer efficiency of solo (single-sided) activations;
#: reproduces the several-fold ACmin gap between single- and double-sided
#: RowHammer established by prior characterization work.
_SOLO_HAMMER_FACTOR = 0.2

#: Physical cap on the Hypothesis-1 asymmetry: the press coupling of the
#: far aggressor cannot exceed the near aggressor's.  A couple of modules
#: (notably H2) would need alpha > 1 to match their double-sided anchor
#: exactly; the cap trades a small documented deviation there for a model
#: that preserves the paper's Hypothesis 1 everywhere.
_ALPHA_CAP = 1.0

#: Relative weight of the combined-pattern target in the joint anchor
#: solve (the combined pattern is the paper's headline contribution).
_COMBINED_WEIGHT = 3.0

#: Alpha rows per (alpha, die, P) cube in the joint anchor solve: keeps
#: each cube near 0.16 MB (8 dies x 321 press candidates), so scoring
#: the grid barely moves peak memory.
_ALPHA_BLOCK = 8


# ---------------------------------------------------------------------------
# Die spread
# ---------------------------------------------------------------------------


#: Standard-normal quantiles at the 8-die midpoints ``(d + 0.5) / 8``,
#: pinned bit for bit: ``NormalDist().inv_cdf`` lands up to 2 ulp away
#: from the values every calibrated 8-die module (and so every pinned
#: campaign digest) was derived from.
_Z_8_DIES = tuple(
    float.fromhex(h)
    for h in (
        "-0x1.88bc1fbe1dabep+0", "-0x1.c63812e37d717p-1",
        "-0x1.f481cdb32cce8p-2", "-0x1.422c1aadb2493p-3",
        "0x1.422c1aadb2493p-3", "0x1.f481cdb32cce8p-2",
        "0x1.c63812e37d717p-1", "0x1.88bc1fbe1dabep+0",
    )
)


def die_quantiles(n_dies: int) -> np.ndarray:
    """Standard-normal quantiles at the die midpoints ``(d + 0.5) / n``."""
    if n_dies == 8:
        return np.array(_Z_8_DIES)
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf((d + 0.5) / n_dies) for d in range(n_dies)])


def solve_die_scales(n_dies: int, min_avg_ratio: float) -> Tuple[float, ...]:
    """Deterministic per-die threshold scales with mean 1.

    Scales are lognormal quantiles ``exp(sigma * z_d)`` (normalized to
    mean 1) with ``sigma`` solved so that ``min/mean`` equals the target
    ratio -- reproducing Table 2's avg-vs-min ACmin spread across dies at
    the RowHammer anchor.
    """
    if n_dies < 1:
        raise CalibrationError("a module needs at least one die")
    if not 0.0 < min_avg_ratio <= 1.0:
        raise CalibrationError("min/avg ratio must be in (0, 1]")
    if n_dies == 1 or min_avg_ratio == 1.0:
        return tuple([1.0] * n_dies)
    z = die_quantiles(n_dies)

    def ratio(sigma: float) -> float:
        s = np.exp(sigma * z)
        return float(s.min() / s.mean())

    lo, hi = 0.0, 5.0
    if ratio(hi) > min_avg_ratio:
        raise CalibrationError(
            f"die spread ratio {min_avg_ratio} unreachable with {n_dies} dies"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ratio(mid) > min_avg_ratio:
            lo = mid
        else:
            hi = mid
    scales = np.exp(0.5 * (lo + hi) * z)
    scales /= scales.mean()
    return tuple(float(s) for s in scales)


# ---------------------------------------------------------------------------
# Per-die aggregates
# ---------------------------------------------------------------------------


@dataclass
class _DieAggregates:
    """Extreme-value aggregates of one die's stacked victim population.

    All quantities are expressed with hammer kick ``h = 1``; the press
    loss ``P``, asymmetry ``alpha`` and solo press efficiency ``gamma``
    enter the ACmin formulas as scalars, so the solvers evaluate every
    path over a whole alpha or gamma grid in one numpy broadcast.
    """

    # Hammer (gain) path minima of theta / gain-combination:
    a_inner_both: float  # inner victim, both aggressors: theta/(ghlo+ghhi)
    a_outer_lo: float  # outer-lo victim: theta/ghhi
    a_outer_hi: float  # outer-hi victim: theta/ghlo
    # Press (loss) path minima of theta / press-coupling:
    b_inner_lo: float  # inner victim: theta/gplo
    b_outer_lo: float  # outer-lo victim: theta/gphi
    b_outer_hi: float  # outer-hi victim: theta/gplo
    # Charged inner-victim vectors for the alpha-dependent DS minimum:
    inner_theta_c: np.ndarray
    inner_gplo_c: np.ndarray
    inner_gphi_c: np.ndarray
    # Solo (single-sided) hammer-path minima of theta/(g_h * solo_mod):
    a_inner_lo_solo: float
    a_outer_lo_solo: float
    # Solo press candidates (theta/g_p ratio, solo exponent) for the
    # gamma-dependent single-sided press minimum, candidate-reduced:
    ss_inner_r: np.ndarray
    ss_inner_e: np.ndarray
    ss_outer_r: np.ndarray
    ss_outer_e: np.ndarray

    # ------------------------------------------------------------ primitives

    @property
    def hammer_min(self) -> float:
        """Hammer-path iteration minimum over all two-sided victims."""
        return min(self.a_inner_both, self.a_outer_lo, self.a_outer_hi)

    def ds_inner_press_grid(self, alphas: np.ndarray) -> np.ndarray:
        """Per alpha (all > 0): min over charged inner cells of
        ``theta / (gplo + alpha*gphi)``.

        With non-negative couplings each cell's value is non-increasing in
        alpha (correctly rounded ``*``, ``+`` and ``/`` are monotone), so
        a cell whose value at the largest alpha is still above the
        smallest-alpha minimum can never be the minimum anywhere on the
        grid: dropping it is exact.
        """
        theta, lo, hi = self.inner_theta_c, self.inner_gplo_c, self.inner_gphi_c
        if not theta.size:
            return np.full(alphas.shape, math.inf)
        ceiling = (theta / (lo + alphas.min() * hi)).min()
        keep = theta / (lo + alphas.max() * hi) <= ceiling
        theta, lo, hi = theta[keep], lo[keep], hi[keep]
        return (theta / (lo + alphas[:, None] * hi)).min(axis=1)

    # -------------------------------------------------------- ACmin formulas

    def rh36(self) -> float:
        """Double-sided RowHammer ACmin (activations, continuous)."""
        return 2.0 * self.hammer_min

    def combined_press_grid(self, alphas: np.ndarray) -> np.ndarray:
        """Press-path minimum (per unit P) of the combined pattern, per
        alpha (all > 0)."""
        return np.minimum(self.b_inner_lo, self.b_outer_lo / alphas)

    def ds_press_grid(self, alphas: np.ndarray) -> np.ndarray:
        """Press-path minimum (per unit P) of the double-sided pattern, per
        alpha (all > 0)."""
        out = np.minimum(self.ds_inner_press_grid(alphas), self.b_outer_hi)
        return np.minimum(out, self.b_outer_lo / alphas)

    def ss_press_grid(self, alpha: float, gammas: np.ndarray) -> np.ndarray:
        """Press-path minimum (per unit P) of the single-sided pattern, per
        gamma (all > 0).

        Each cell's solo press coupling is ``g_p * gamma**e``, so the
        path value is ``min_j r_j * gamma**(-e_j)`` over the reduced
        candidate set.  Unlike the alpha grid this is not pruned: SIMD
        ``pow`` is not guaranteed monotone, so no envelope test is exact.
        """

        def power_min(r: np.ndarray, e: np.ndarray) -> np.ndarray:
            # One (candidates, gammas) temporary: multiplied in place.
            values = gammas[None, :] ** (-e)[:, None]
            values *= r[:, None]
            return values.min(axis=0)

        out = np.full(gammas.shape, math.inf)
        if self.ss_inner_r.size:
            out = power_min(self.ss_inner_r, self.ss_inner_e)
        if alpha > 0 and self.ss_outer_r.size:
            out = np.minimum(
                out, power_min(self.ss_outer_r, self.ss_outer_e) / alpha
            )
        return out

    def single_sided_grid(
        self, press: float, alpha: float, gammas: np.ndarray, delta: float
    ) -> np.ndarray:
        """Conventional single-sided RowPress ACmin, per gamma (all > 0).

        ``delta`` is the solo-activation hammer efficiency and ``gamma``
        the solo-activation press efficiency (all single-sided
        activations are back-to-back re-opens of the same row).
        """
        hammer = math.inf
        if delta > 0:
            hammer = min(
                self.a_inner_lo_solo / delta, self.a_outer_lo_solo / delta
            )
        out = np.full(gammas.shape, hammer)
        if press > 0:
            out = np.minimum(out, self.ss_press_grid(alpha, gammas) / press)
        return out

    # ---------------------------------------------------------------- scaling

    def scaled(self, factor: float) -> "_DieAggregates":
        """Aggregates with every threshold multiplied by ``factor``."""
        return _DieAggregates(
            a_inner_both=self.a_inner_both * factor,
            a_outer_lo=self.a_outer_lo * factor,
            a_outer_hi=self.a_outer_hi * factor,
            b_inner_lo=self.b_inner_lo * factor,
            b_outer_lo=self.b_outer_lo * factor,
            b_outer_hi=self.b_outer_hi * factor,
            inner_theta_c=self.inner_theta_c * factor,
            inner_gplo_c=self.inner_gplo_c,
            inner_gphi_c=self.inner_gphi_c,
            a_inner_lo_solo=self.a_inner_lo_solo * factor,
            a_outer_lo_solo=self.a_outer_lo_solo * factor,
            ss_inner_r=self.ss_inner_r * factor,
            ss_inner_e=self.ss_inner_e,
            ss_outer_r=self.ss_outer_r * factor,
            ss_outer_e=self.ss_outer_e,
        )

    def with_press_scale(self, press_scale: float) -> "_DieAggregates":
        """Aggregates with every press coupling multiplied by the die's
        press scale (press-path ACmin divides by it)."""
        return _DieAggregates(
            a_inner_both=self.a_inner_both,
            a_outer_lo=self.a_outer_lo,
            a_outer_hi=self.a_outer_hi,
            b_inner_lo=self.b_inner_lo / press_scale,
            b_outer_lo=self.b_outer_lo / press_scale,
            b_outer_hi=self.b_outer_hi / press_scale,
            inner_theta_c=self.inner_theta_c,
            inner_gplo_c=self.inner_gplo_c * press_scale,
            inner_gphi_c=self.inner_gphi_c * press_scale,
            a_inner_lo_solo=self.a_inner_lo_solo,
            a_outer_lo_solo=self.a_outer_lo_solo,
            ss_inner_r=self.ss_inner_r / press_scale,
            ss_inner_e=self.ss_inner_e,
            ss_outer_r=self.ss_outer_r / press_scale,
            ss_outer_e=self.ss_outer_e,
        )


def _safe_min(values: np.ndarray) -> float:
    return float(values.min()) if values.size else math.inf


def _reduce_candidates(
    r: np.ndarray, e: np.ndarray, keep: int = 200
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep only cells that can be minimal somewhere on the gamma grid.

    ``r * gamma**(-e)`` is log-linear in ``ln gamma``; a cell can only be
    the minimum if it is near-minimal at one of the grid endpoints, so
    keeping the ``keep`` smallest cells at each endpoint (union) is exact
    for practical purposes and shrinks the candidate set ~50x.
    """
    if r.size <= keep:
        return r, e
    log_r = np.log(r)
    picks = set()
    for x in (math.log(1e-3), math.log(1e3)):
        values = log_r - e * x
        picks.update(np.argpartition(values, keep)[:keep].tolist())
    idx = np.fromiter(picks, dtype=int)
    return r[idx], e[idx]


def _die_aggregates(
    profile: ModuleProfile,
    die: int,
    die_scale: float,
    config: CharacterizationConfig,
    population: PopulationParams,
) -> _DieAggregates:
    chip = Chip(
        module_key=profile.key,
        die_index=die,
        geometry=config.geometry,
        model=CalibratedDisturbanceModel(),  # placeholder; cells only
        population=population.with_die_scale(die_scale),
    )
    stacked = build_stacked_die(
        chip, config.bank, config.selection, config.data_pattern
    )
    inner = stacked.roles["inner"]
    outer_lo = stacked.roles["outer_lo"]
    outer_hi = stacked.roles["outer_hi"]
    inner_d = ~inner.charged
    inner_c = inner.charged
    outer_lo_c = outer_lo.charged
    ss_inner_r, ss_inner_e = _reduce_candidates(
        (inner.theta / inner.g_p_lo)[inner_c], inner.solo_press_exp[inner_c]
    )
    ss_outer_r, ss_outer_e = _reduce_candidates(
        (outer_lo.theta / outer_lo.g_p_hi)[outer_lo_c],
        outer_lo.solo_press_exp[outer_lo_c],
    )
    return _DieAggregates(
        a_inner_both=_safe_min(
            (inner.theta / (inner.g_h_lo + inner.g_h_hi))[inner_d]
        ),
        a_outer_lo=_safe_min(
            (outer_lo.theta / outer_lo.g_h_hi)[~outer_lo.charged]
        ),
        a_outer_hi=_safe_min(
            (outer_hi.theta / outer_hi.g_h_lo)[~outer_hi.charged]
        ),
        b_inner_lo=_safe_min((inner.theta / inner.g_p_lo)[inner_c]),
        b_outer_lo=_safe_min(
            (outer_lo.theta / outer_lo.g_p_hi)[outer_lo_c]
        ),
        b_outer_hi=_safe_min(
            (outer_hi.theta / outer_hi.g_p_lo)[outer_hi.charged]
        ),
        inner_theta_c=inner.theta[inner_c],
        inner_gplo_c=inner.g_p_lo[inner_c],
        inner_gphi_c=inner.g_p_hi[inner_c],
        a_inner_lo_solo=_safe_min(
            (inner.theta / (inner.g_h_lo * inner.solo_hammer_mod))[inner_d]
        ),
        a_outer_lo_solo=_safe_min(
            (outer_lo.theta / (outer_lo.g_h_hi * outer_lo.solo_hammer_mod))[
                ~outer_lo.charged
            ]
        ),
        ss_inner_r=ss_inner_r,
        ss_inner_e=ss_inner_e,
        ss_outer_r=ss_outer_r,
        ss_outer_e=ss_outer_e,
    )


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------


def _target_at(
    table: Dict[float, Optional[Tuple[float, float]]], t_on: float
) -> Optional[float]:
    pair = table.get(t_on)
    return None if pair is None else float(pair[0])


def _combined_targets(profile: ModuleProfile) -> Dict[float, Optional[float]]:
    """Per-anchor average-ACmin targets for the combined pattern."""
    text = MFR_TEXT_ANCHORS[profile.manufacturer]
    targets: Dict[float, Optional[float]] = {
        636.0: profile.acmin_rh36[0] * (1.0 - text.comb_reduction_636),
    }
    for t_on in (7_800.0, 70_200.0):
        targets[t_on] = _target_at(profile.acmin_combined, t_on)
    return targets


def _double_sided_targets(profile: ModuleProfile) -> Dict[float, Optional[float]]:
    text = MFR_TEXT_ANCHORS[profile.manufacturer]
    targets: Dict[float, Optional[float]] = {
        636.0: profile.acmin_rh36[0] * (1.0 - text.ds_rp_reduction_636),
    }
    for t_on in (7_800.0, 70_200.0):
        pair = profile.acmin_rp.get(t_on)
        targets[t_on] = None if pair is None else float(pair[0])
    return targets


def _single_sided_targets(profile: ModuleProfile) -> Dict[float, float]:
    """SS ACmin targets from the text's manufacturer-average times.

    Per-module targets scale the manufacturer average by the module's
    relative RowHammer strength.  The text reports single-sided times at
    636 ns and 70.2 us; the 7.8 us anchor interpolates the time linearly
    in log on-time between them (the measured SS time curve is nearly
    flat over this range, see Fig. 4).
    """
    text = MFR_TEXT_ANCHORS[profile.manufacturer]
    peers = [
        p
        for p in profiles_by_manufacturer(profile.manufacturer)
        if not p.press_immune
    ]
    # Module-relative press strength: single-sided RowPress susceptibility
    # tracks the module's *press* anchors (Table 2's per-module RowPress
    # times are uncorrelated with RowHammer strength), so scale by the
    # combined-pattern 7.8 us anchor relative to the manufacturer mean.
    mfr_mean_press = sum(p.acmin_combined[T_REF][0] for p in peers) / len(peers)
    rel = profile.acmin_combined[T_REF][0] / mfr_mean_press
    t_rp = DEFAULT_TIMINGS.tRP
    frac = math.log(7_800.0 / 636.0) / math.log(70_200.0 / 636.0)
    time_7p8_ms = text.ss_time_ms_636 + frac * (
        text.ss_time_ms_70p2 - text.ss_time_ms_636
    )
    raw = {
        636.0: text.ss_time_ms_636 * 1e6 / (636.0 + t_rp) * rel,
        7_800.0: time_7p8_ms * 1e6 / (7_800.0 + t_rp) * rel,
        70_200.0: text.ss_time_ms_70p2 * 1e6 / (70_200.0 + t_rp) * rel,
    }
    # Relative scaling can push a strong module's target past the 60 ms
    # activation budget (an unmeasurable value); cap just below it so the
    # module reports a near-budget time instead of No Bitflip.
    from repro.constants import ITERATION_RUNTIME_BOUND

    return {
        t_on: min(target, 0.93 * _ss_budget_acts(t_on, ITERATION_RUNTIME_BOUND))
        for t_on, target in raw.items()
    }


# ---------------------------------------------------------------------------
# Activation budgets of the 60 ms iteration-runtime bound
# ---------------------------------------------------------------------------


def _ds_budget_acts(t_on: float, runtime_bound_ns: float) -> float:
    iteration = 2.0 * (t_on + DEFAULT_TIMINGS.tRP)
    return 2.0 * math.floor(runtime_bound_ns / iteration)


def _comb_budget_acts(t_on: float, runtime_bound_ns: float) -> float:
    iteration = t_on + DEFAULT_TIMINGS.tRAS + 2.0 * DEFAULT_TIMINGS.tRP
    return 2.0 * math.floor(runtime_bound_ns / iteration)


def _ss_budget_acts(t_on: float, runtime_bound_ns: float) -> float:
    return float(math.floor(runtime_bound_ns / (t_on + DEFAULT_TIMINGS.tRP)))


# ---------------------------------------------------------------------------
# Per-die press shape
# ---------------------------------------------------------------------------


def _press_shape_targets(
    avg: float, minimum: float, n_dies: int, budget: float
) -> np.ndarray:
    """Per-die combined-pattern ACmin targets at the press reference anchor.

    The reported (avg, min) under the 60 ms budget censoring implies a
    top-clustered per-die distribution: the weakest die sits at the
    minimum, ``k`` dies cluster at a common value ``C <= 0.98 * budget``
    chosen so the mean of the flipping dies matches the average, and any
    remaining dies sit above the budget (they report "No Bitflip" at this
    anchor, as the paper's own avg/min/budget arithmetic requires).
    """
    cap = 0.98 * budget
    if n_dies == 1:
        return np.array([min(avg, cap)])
    best: Optional[Tuple[float, int, float]] = None
    # Prefer the largest k (most dies flipping) among equally good fits.
    for k in range(n_dies - 1, 0, -1):
        c_exact = ((k + 1) * avg - minimum) / k
        c = min(max(c_exact, minimum), cap)
        mean_flipping = (minimum + k * c) / (k + 1)
        err = abs(mean_flipping - avg)
        if best is None or err < best[0] - 1e-12:
            best = (err, k, c)
    _, k, c = best
    targets = [minimum] + [c] * k + [2.0 * budget] * (n_dies - 1 - k)
    return np.array(targets)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _censored_mean_dies(
    values: np.ndarray, budget: float, axis: int
) -> np.ndarray:
    """Censored mean over the die axis ``axis`` (inf where no die fits).

    ``values`` is C-contiguous with the die axis ahead of the last
    (column) axis.  numpy's summation order over dies then depends only
    on the column count, so a stack of (n_dies, n_cols) matrices sums
    bit for bit like each matrix on its own.
    """
    mask = values <= budget
    counts = mask.sum(axis=axis)
    sums = np.where(mask, values, 0.0).sum(axis=axis)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts
    means[counts == 0] = math.inf
    return means


@dataclass(frozen=True)
class _AnchorSolution:
    press: float
    alpha: float


def _solve_anchor_joint(
    aggs: List[_DieAggregates],
    comb_target: float,
    ds_target: Optional[float],
    t_on: float,
    runtime_bound_ns: float,
    pinned_press: Optional[float] = None,
    what: str = "anchor",
) -> _AnchorSolution:
    """Jointly solve (P, alpha) at one anchor on a 2-D grid.

    Minimizes the weighted relative error of the censored combined-pattern
    mean (weight :data:`_COMBINED_WEIGHT`) and the censored double-sided
    mean (or, for a "No Bitflip" double-sided cell, a penalty unless the
    weakest die stays above the double-sided activation budget).

    The grid evaluation is vectorized: every per-die ACmin is
    ``2 * min(hammer_min, press_min(alpha) / P)``, so a block of alpha
    rows costs a few numpy broadcasts over an (alpha, die, P) cube.
    Alpha rows are scanned in grid order and the first strictly best
    finite row wins.
    """
    comb_budget = _comb_budget_acts(t_on, runtime_bound_ns)
    ds_budget = _ds_budget_acts(t_on, runtime_bound_ns)
    hammer = np.array([a.hammer_min for a in aggs])[None, :, None]

    alpha_grid = np.concatenate([[1e-4], np.logspace(-2, 0, 120)])
    alpha_grid = alpha_grid[alpha_grid <= _ALPHA_CAP]
    if pinned_press is not None:
        press_grid = np.array([pinned_press])
    else:
        base = 2.0 * float(np.median([a.b_inner_lo for a in aggs])) / comb_target
        press_grid = base * np.logspace(-2.5, 2.5, 321)
    # (n_alpha, n_dies) press-path minima.
    comb_press = np.stack([a.combined_press_grid(alpha_grid) for a in aggs], 1)
    ds_press = np.stack([a.ds_press_grid(alpha_grid) for a in aggs], 1)

    def acmin(press_min: np.ndarray) -> np.ndarray:
        """C-contiguous (n_rows, n_dies, n_press) ACmin cube."""
        return 2.0 * np.minimum(
            hammer, press_min[:, :, None] / press_grid[None, None, :]
        )

    best: Optional[Tuple[float, float, float]] = None  # (score, press, alpha)
    for start in range(0, alpha_grid.size, _ALPHA_BLOCK):
        rows = slice(start, start + _ALPHA_BLOCK)
        comb_vals = acmin(comb_press[rows])
        ds_vals = acmin(ds_press[rows])
        comb_means = _censored_mean_dies(comb_vals, comb_budget, axis=1)
        with np.errstate(invalid="ignore"):
            comb_err = np.abs(comb_means - comb_target) / comb_target
        if ds_target is not None:
            ds_means = _censored_mean_dies(ds_vals, ds_budget, axis=1)
            with np.errstate(invalid="ignore"):
                ds_err = np.abs(ds_means - ds_target) / ds_target
            ds_err[~np.isfinite(ds_means)] = 4.0  # nothing flips: poor fit
        else:
            # "No Bitflip": penalize if the weakest die would flip.
            ds_min = ds_vals.min(axis=1)
            margin = ds_min / (ds_budget * _NO_BITFLIP_HEADROOM)
            ds_err = np.where(margin >= 1.0, 0.0, 2.0 * (1.0 - margin))
        score = _COMBINED_WEIGHT * comb_err + ds_err
        score[~np.isfinite(comb_means)] = math.inf
        for alpha, row, idx in zip(
            alpha_grid[rows], score, np.argmin(score, axis=1)
        ):
            if math.isfinite(row[idx]) and (best is None or row[idx] < best[0]):
                best = (float(row[idx]), float(press_grid[idx]), float(alpha))
    if best is None:
        raise CalibrationError(
            f"cannot solve {what}: no (press, alpha) candidate produced a "
            "flipping combined-pattern measurement"
        )
    return _AnchorSolution(press=best[1], alpha=best[2])


def _solve_gamma(
    aggs: List[_DieAggregates],
    press: float,
    alpha: float,
    ss_target: float,
    t_on: float,
    runtime_bound_ns: float,
    what: str,
) -> float:
    """Gamma whose censored single-sided mean is closest to the target."""
    budget = _ss_budget_acts(t_on, runtime_bound_ns)
    gamma_grid = np.logspace(-3, 3, 361)
    ss_vals = np.array(
        [
            agg.single_sided_grid(press, alpha, gamma_grid, _SOLO_HAMMER_FACTOR)
            for agg in aggs
        ]
    )
    means = _censored_mean_dies(ss_vals, budget, axis=0)
    with np.errstate(invalid="ignore"):
        err = np.abs(means - ss_target) / ss_target
    err[~np.isfinite(means)] = math.inf
    idx = int(np.argmin(err))
    if not math.isfinite(err[idx]):
        raise CalibrationError(f"cannot solve {what}: no die ever flips")
    return float(gamma_grid[idx])


# ---------------------------------------------------------------------------
# Module calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleCalibration:
    """Output of :func:`calibrate_module`."""

    model: CalibratedDisturbanceModel
    population: PopulationParams
    die_scales: Tuple[float, ...]
    die_press_scales: Tuple[float, ...]


def calibrate_module(
    key: str, config: Optional[CharacterizationConfig] = None
) -> ModuleCalibration:
    """Calibrate the disturbance model of module ``key`` for ``config``."""
    if config is None:
        config = CharacterizationConfig()
    return _calibrate_cached(key, config)


#: Hand-off slots into :func:`_calibrate_cached`, keyed like its
#: arguments: a calibration solved elsewhere (a pool worker) to enter as
#: the cached value, or :data:`_PEEK` to ask whether one is cached
#: without solving.  Filled and emptied around one call, never shared
#: across threads.
_HANDOFF: Dict[Tuple[str, CharacterizationConfig], object] = {}
_PEEK = object()


class _NotCached(Exception):
    """A peek found no cached calibration (never cached: it is raised)."""


@lru_cache(maxsize=256)
def _calibrate_cached(
    key: str, config: CharacterizationConfig
) -> ModuleCalibration:
    handoff = _HANDOFF.pop((key, config), None)
    if handoff is _PEEK:
        raise _NotCached
    if handoff is not None:
        return handoff
    return solve_module(key, config)


def is_calibrated(key: str, config: CharacterizationConfig) -> bool:
    """Whether module ``key`` is in the calibration cache for ``config``."""
    _HANDOFF[(key, config)] = _PEEK
    try:
        _calibrate_cached(key, config)
    except _NotCached:
        return False
    finally:
        _HANDOFF.pop((key, config), None)
    return True


def adopt_calibration(
    key: str, config: CharacterizationConfig, calibration: ModuleCalibration
) -> ModuleCalibration:
    """Enter ``calibration``, solved by :func:`solve_module` elsewhere, into
    the cache; returns the cached value (an earlier entry wins)."""
    _HANDOFF[(key, config)] = calibration
    try:
        return _calibrate_cached(key, config)
    finally:
        _HANDOFF.pop((key, config), None)


def solve_module(
    key: str,
    config: CharacterizationConfig,
    die_seconds: Optional[List[float]] = None,
) -> ModuleCalibration:
    """Solve module ``key``'s calibration from scratch (no cache).

    A pure function of ``key`` and ``config``, so a pool worker's result
    is bit for bit the in-process one.  With a ``die_seconds`` list, the
    seconds each die's aggregates took are appended to it, in die order.
    """
    profile = get_profile(key)
    base_population = PopulationParams(
        anti_cell_fraction=profile.anti_cell_fraction
    )
    die_scales = solve_die_scales(profile.n_dies, profile.die_spread_ratio)
    raw = []
    for die, scale in enumerate(die_scales):
        start = time.perf_counter()
        raw.append(_die_aggregates(profile, die, scale, config, base_population))
        if die_seconds is not None:
            die_seconds.append(time.perf_counter() - start)

    # ---- Threshold scale: match the RowHammer (36 ns) average exactly.
    rh36_raw = float(np.mean([agg.rh36() for agg in raw]))
    if not math.isfinite(rh36_raw) or rh36_raw <= 0:
        raise CalibrationError(
            f"{key}: hammer path has no flippable cells (population too small?)"
        )
    theta_scale = profile.acmin_rh36[0] / rh36_raw
    aggs = [agg.scaled(theta_scale) for agg in raw]
    population = base_population.with_theta_scale(theta_scale)

    if profile.press_immune:
        zero_press = LogTimeInterpolant(
            [(t, 0.0) for t in ANCHOR_TIMES],
            zero_at=DEFAULT_TIMINGS.tRAS,
            extrapolate=False,
        )
        model = CalibratedDisturbanceModel(
            hammer=1.0,
            press=zero_press,
            alpha_curve=LogTimeInterpolant([(DEFAULT_TIMINGS.tRAS, 1.0)]),
            gamma_curve=LogTimeInterpolant([(DEFAULT_TIMINGS.tRAS, 1.0)]),
            solo_hammer_factor=_SOLO_HAMMER_FACTOR,
        )
        return ModuleCalibration(
            model, population, die_scales, tuple([1.0] * profile.n_dies)
        )

    comb_targets = _combined_targets(profile)
    ds_targets = _double_sided_targets(profile)
    ss_targets = _single_sided_targets(profile)

    # ---- Per-die press scales: pin the per-die combined-pattern ACmin
    # vector at the press reference anchor (7.8 us), where Table 2 gives
    # both the average and the minimum.  The press loss at the reference
    # anchor is defined to be exactly 1 model unit; other anchors are
    # solved relative to it.
    ref_target = comb_targets[T_REF]
    if ref_target is None:  # pragma: no cover - all non-immune rows have it
        raise CalibrationError(f"{key}: missing combined reference anchor")
    ref_min = float(profile.acmin_combined[T_REF][1])
    shape = _press_shape_targets(
        ref_target,
        ref_min,
        profile.n_dies,
        _comb_budget_acts(T_REF, config.runtime_bound_ns),
    )
    press_scales = tuple(
        float(2.0 * agg.b_inner_lo / v) for agg, v in zip(aggs, shape)
    )
    aggs = [agg.with_press_scale(q) for agg, q in zip(aggs, press_scales)]

    # ---- Press and alpha anchors (joint 2-D solve per anchor time).
    press_anchors: List[Tuple[float, float]] = []
    alpha_anchors: List[Tuple[float, float]] = []
    for t_on in ANCHOR_TIMES:
        comb_target = comb_targets.get(t_on)
        if comb_target is None:
            continue
        solution = _solve_anchor_joint(
            aggs,
            comb_target,
            ds_targets.get(t_on),
            t_on,
            config.runtime_bound_ns,
            pinned_press=1.0 if t_on == T_REF else None,
            what=f"{key} anchor@{t_on}ns",
        )
        press_anchors.append((t_on, solution.press))
        alpha_anchors.append((t_on, solution.alpha))

    if any(
        p1 >= p2 for (_, p1), (_, p2) in zip(press_anchors, press_anchors[1:])
    ):
        raise CalibrationError(
            f"{key}: press anchors are not monotone: {press_anchors}"
        )

    # ---- Gamma anchors from the single-sided targets.
    press_curve = LogTimeInterpolant(
        press_anchors, zero_at=DEFAULT_TIMINGS.tRAS, extrapolate=True
    )
    alpha_curve = LogTimeInterpolant(alpha_anchors)
    gamma_anchors: List[Tuple[float, float]] = []
    for t_on, ss_target in sorted(ss_targets.items()):
        gamma = _solve_gamma(
            aggs,
            press_curve(t_on),
            alpha_curve(t_on),
            ss_target,
            t_on,
            config.runtime_bound_ns,
            what=f"{key} gamma@{t_on}ns",
        )
        gamma_anchors.append((t_on, gamma))
    gamma_curve = LogTimeInterpolant(gamma_anchors)

    model = CalibratedDisturbanceModel(
        hammer=1.0,
        press=press_curve,
        alpha_curve=alpha_curve,
        gamma_curve=gamma_curve,
        solo_hammer_factor=_SOLO_HAMMER_FACTOR,
    )
    return ModuleCalibration(model, population, die_scales, press_scales)


def calibrated_modules() -> List[str]:
    """Keys of all modules that can be calibrated (all of Table 2)."""
    return sorted(MODULE_PROFILES)
