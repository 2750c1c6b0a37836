"""Tests for the Table 2 calibration solver."""

import hashlib
import math

import numpy as np
import pytest

from repro.disturb.calibration import (
    _DieAggregates,
    _press_shape_targets,
    _reduce_candidates,
    calibrate_module,
    calibrated_modules,
    die_quantiles,
    solve_die_scales,
)
from repro.errors import CalibrationError


# ------------------------------------------------------------- die scales


def test_die_scales_mean_one_and_ratio():
    scales = np.array(solve_die_scales(8, 0.5))
    assert scales.mean() == pytest.approx(1.0)
    assert scales.min() / scales.mean() == pytest.approx(0.5, abs=0.01)


def test_die_scales_single_die():
    assert solve_die_scales(1, 0.4) == (1.0,)


def test_die_scales_ratio_one_is_uniform():
    assert solve_die_scales(4, 1.0) == (1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("n_dies", [1, 2, 4, 8])
def test_die_quantiles_match_the_standard_normal(n_dies):
    """The pinned 8-die quantiles (and the computed ones) sit within
    2 ulp of ``NormalDist().inv_cdf`` at the die midpoints."""
    from statistics import NormalDist

    z = die_quantiles(n_dies)
    exact = np.array(
        [NormalDist().inv_cdf((d + 0.5) / n_dies) for d in range(n_dies)]
    )
    assert np.all(np.abs(z - exact) <= 2 * np.spacing(np.abs(exact)))
    assert np.array_equal(z, -z[::-1])  # symmetric about the median


def test_die_scales_validation():
    with pytest.raises(CalibrationError):
        solve_die_scales(0, 0.5)
    with pytest.raises(CalibrationError):
        solve_die_scales(4, 1.5)


# ----------------------------------------------------------- press shapes


def test_press_shape_all_dies_fit_when_feasible():
    shape = _press_shape_targets(avg=11_400, minimum=3_200, n_dies=8,
                                 budget=15_256)
    assert shape.shape == (8,)
    assert shape[0] == 3_200
    assert shape.mean() == pytest.approx(11_400, rel=0.01)
    assert (shape <= 0.98 * 15_256).all()


def test_press_shape_clamps_when_infeasible():
    # The exact cluster value would exceed the budget; it is clamped to
    # 0.98 x budget and the achievable mean undershoots the target (the
    # published H2/M0 cells are infeasible in exactly this way).
    shape = _press_shape_targets(avg=14_000, minimum=2_000, n_dies=4,
                                 budget=15_256)
    assert shape[0] == 2_000
    assert (shape <= 0.98 * 15_256 + 1e-9).all()
    assert shape.mean() < 14_000


def test_press_shape_single_die():
    shape = _press_shape_targets(avg=5_000, minimum=5_000, n_dies=1,
                                 budget=10_000)
    assert shape.tolist() == [5_000]


# ----------------------------------------------------- full module solves


def test_calibration_is_cached(fast_config):
    a = calibrate_module("S0", fast_config)
    b = calibrate_module("S0", fast_config)
    assert a is b


def test_calibration_press_anchors_monotone(fast_config):
    cal = calibrate_module("S0", fast_config)
    anchors = cal.model.press.anchors
    values = [v for _, v in anchors]
    assert values == sorted(values)
    assert len(anchors) == 3


def test_calibration_alpha_respects_hypothesis_1(fast_config):
    for key in ("S0", "H1", "M4"):
        cal = calibrate_module(key, fast_config)
        for _, alpha in cal.model.alpha_curve.anchors:
            assert 0.0 <= alpha <= 1.0


def test_calibration_press_immune_module(fast_config):
    cal = calibrate_module("M1", fast_config)
    assert cal.model.press_loss(70_200.0) == 0.0
    assert cal.die_press_scales == tuple([1.0] * 8)


def test_calibration_die_counts(fast_config):
    cal = calibrate_module("H0", fast_config)
    assert len(cal.die_scales) == 4
    assert len(cal.die_press_scales) == 4


def test_calibrated_modules_lists_all():
    assert len(calibrated_modules()) == 14


def test_press_reference_anchor_is_unity(fast_config):
    """The 7.8 us anchor defines the press unit: P(7.8 us) == 1."""
    cal = calibrate_module("S0", fast_config)
    assert cal.model.press(7_800.0) == pytest.approx(1.0)


def test_unknown_module_calibration_fails(fast_config):
    from repro.errors import ProfileError

    with pytest.raises(ProfileError):
        calibrate_module("Z1", fast_config)


# ------------------------------------------------------ pinned solver output


def _calibration_fingerprint(config) -> str:
    """sha256 over ``float.hex`` of every solved quantity of all modules."""
    lines = []
    for key in calibrated_modules():
        cal = calibrate_module(key, config)
        values = [
            *cal.die_scales,
            *cal.die_press_scales,
            cal.population.theta_scale,
        ]
        for curve in (cal.model.press, cal.model.alpha_curve,
                      cal.model.gamma_curve):
            for t_on, value in curve.anchors:
                values += [t_on, value]
        lines.append(key + " " + " ".join(float(v).hex() for v in values))
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


#: Fingerprint of all 14 modules' calibration under ``fast_config``.
_PINNED_FINGERPRINT = (
    "a7c07968d93d2b7f510eaeb4fef9254388a6054adcb719db00c1148258a5237d"
)


def test_calibration_outputs_are_pinned(fast_config):
    """The solvers' outputs are pinned bit for bit: an ulp of drift in
    any scale or anchor would move every downstream campaign digest."""
    assert _calibration_fingerprint(fast_config) == _PINNED_FINGERPRINT


# ------------------------------------------------- grid solvers are exact


_ALPHAS = np.concatenate([[1e-4], np.logspace(-2, 0, 120)])
_GAMMAS = np.logspace(-3, 3, 361)


def _synthetic_aggregates(rng, n_inner: int, n_solo: int) -> _DieAggregates:
    theta = rng.lognormal(0.0, 0.3, n_inner)
    lo = rng.lognormal(0.0, 0.5, n_inner)
    hi = rng.lognormal(0.0, 0.5, n_inner)
    if n_inner:
        # Near-ties around the smallest-alpha minimum (value 1 at
        # alpha -> 0): an exact tie stays in the pruned set, the next
        # float up must not change any minimum, and a cell crossing it
        # one ulp above at alpha = 1e-4 wins at every larger alpha.
        theta[:4] = [0.5, 0.5, np.nextafter(0.5, 1.0),
                     np.nextafter(0.5 * (1.0 + 1e-4), 1.0)]
        lo[:4] = [0.5, 0.5, 0.5, 0.5]
        hi[:4] = [0.0, 0.0, 0.0, 0.5]
    ss_r, ss_e = _reduce_candidates(
        rng.lognormal(0.0, 1.0, n_solo), rng.uniform(0.0, 2.0, n_solo)
    )
    return _DieAggregates(
        a_inner_both=2.0, a_outer_lo=3.0, a_outer_hi=2.5,
        b_inner_lo=1.5, b_outer_lo=0.05, b_outer_hi=1.2,
        inner_theta_c=theta, inner_gplo_c=lo, inner_gphi_c=hi,
        a_inner_lo_solo=40.0, a_outer_lo_solo=45.0,
        ss_inner_r=ss_r, ss_inner_e=ss_e,
        ss_outer_r=ss_r[::-1] * 1.5, ss_outer_e=ss_e[::-1],
    )


def _ds_press_reference(agg: _DieAggregates, alpha: float) -> float:
    """Double-sided press minimum at one alpha, over every inner cell."""
    out = agg.b_outer_hi
    if agg.inner_theta_c.size:
        denom = agg.inner_gplo_c + alpha * agg.inner_gphi_c
        out = min(out, float((agg.inner_theta_c / denom).min()))
    return min(out, agg.b_outer_lo / alpha)


def _single_sided_reference(agg, press, alpha, gamma, delta) -> float:
    """Single-sided ACmin at one gamma, one candidate vector at a time."""
    press_min = math.inf
    if agg.ss_inner_r.size:
        press_min = float((agg.ss_inner_r * gamma ** (-agg.ss_inner_e)).min())
    if alpha > 0 and agg.ss_outer_r.size:
        outer = float((agg.ss_outer_r * gamma ** (-agg.ss_outer_e)).min())
        press_min = min(press_min, outer / alpha)
    return min(agg.a_inner_lo_solo / delta, agg.a_outer_lo_solo / delta,
               press_min / press)


@pytest.mark.parametrize("n_inner", [0, 4, 9_000])
def test_grid_solvers_match_per_point_reference(n_inner):
    rng = np.random.default_rng(n_inner)
    agg = _synthetic_aggregates(rng, n_inner, n_solo=1_000)
    assert agg.ss_inner_r.size > 200  # above the candidate-reduction limit

    ds = agg.ds_press_grid(_ALPHAS)
    assert np.array_equal(ds, [_ds_press_reference(agg, a) for a in _ALPHAS])
    combined = agg.combined_press_grid(_ALPHAS)
    assert np.array_equal(
        combined,
        [min(agg.b_inner_lo, agg.b_outer_lo / a) for a in _ALPHAS],
    )
    for press, alpha in ((0.7, 0.3), (2.0, 1e-4), (1.0, 0.0)):
        grid = agg.single_sided_grid(press, alpha, _GAMMAS, 0.2)
        reference = [
            _single_sided_reference(agg, press, alpha, float(g), 0.2)
            for g in _GAMMAS
        ]
        assert np.array_equal(grid, reference)


def test_inner_press_prune_keeps_near_ties():
    """The envelope prune never changes an inner-cell minimum, even when
    the candidates sit an ulp apart."""
    rng = np.random.default_rng(7)
    agg = _synthetic_aggregates(rng, 4, n_solo=0)
    inner = agg.ds_inner_press_grid(_ALPHAS)
    brute = [
        float((agg.inner_theta_c / (agg.inner_gplo_c + a * agg.inner_gphi_c)).min())
        for a in _ALPHAS
    ]
    assert np.array_equal(inner, brute)
    # The tie wins at alpha = 1e-4, the one-ulp-above cell everywhere else.
    assert inner[0] == 1.0 and (inner[1:] < 1.0).all()
