"""Tests for the Table 2 calibration solver."""

import numpy as np
import pytest

from repro.disturb.calibration import (
    _press_shape_targets,
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
