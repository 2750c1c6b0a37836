"""Tests for the closed-form ACmin analysis."""

import math

import numpy as np
import pytest

from repro.core.acmin import analyze_die
from repro.core.stacked import build_stacked_die
from repro.dram.datapattern import CHECKERBOARD
from repro.dram.rowselect import RowSelection
from repro.patterns import COMBINED, DOUBLE_SIDED, SINGLE_SIDED

from repro.testing import make_synthetic_chip, make_synthetic_model

SEL = RowSelection(locations_per_region=6, n_regions=1, stride=8)


def analysis(pattern, t_on, theta_scale=200.0, model=None, trial=0):
    model = model or make_synthetic_model()
    chip = make_synthetic_chip(rows=256, theta_scale=theta_scale, model=model)
    stacked = build_stacked_die(chip, 0, SEL, CHECKERBOARD)
    return analyze_die(stacked, pattern, t_on, model, trial=trial)


def test_acmin_counts_total_activations():
    an = analysis(DOUBLE_SIDED, 36.0)
    assert an.acts_per_iteration == 2
    assert an.acmin() == 2 * math.ceil(an.die_min_iters())


def test_acmin_decreases_with_t_on():
    """RowPress: larger tAggON means fewer activations (paper Fig. 4)."""
    values = [analysis(DOUBLE_SIDED, t).acmin() for t in (36.0, 636.0, 7_800.0)]
    assert values[0] >= values[1] >= values[2]


def test_combined_equals_double_sided_at_tras():
    a = analysis(COMBINED, 36.0)
    b = analysis(DOUBLE_SIDED, 36.0)
    assert a.acmin() == b.acmin()
    assert a.census().all_flips == b.census().all_flips


def test_combined_needs_more_acts_than_double_sided_at_large_t():
    """Observation 2: the combined pattern gives up R2's press."""
    a = analysis(COMBINED, 7_800.0)
    b = analysis(DOUBLE_SIDED, 7_800.0)
    assert a.acmin() >= b.acmin()


def test_time_to_first_bitflip_consistent_with_acmin():
    an = analysis(COMBINED, 7_800.0)
    expected = (
        an.acmin() / an.acts_per_iteration
    ) * an.iteration_latency_ns
    assert an.time_to_first_bitflip_ns() == pytest.approx(expected)


def test_budget_produces_no_bitflip():
    an = analysis(DOUBLE_SIDED, 7_800.0, theta_scale=1e9)
    assert an.acmin() is None
    assert an.time_to_first_bitflip_ns() is None


def test_budget_iterations_respects_bound():
    an = analysis(DOUBLE_SIDED, 7_800.0)
    assert an.budget_iterations(60e6) == int(60e6 // (2 * 7_815.0))


def test_census_contains_weakest_cell():
    an = analysis(COMBINED, 7_800.0)
    census = an.census(multiplier=1.0)
    assert census.n_flips >= 1


def test_census_grows_with_multiplier():
    an = analysis(COMBINED, 7_800.0)
    small = an.census(multiplier=1.0)
    large = an.census(multiplier=2.0)
    assert small.all_flips <= large.all_flips
    assert large.n_flips >= small.n_flips


def test_press_immune_model_never_flips_under_press_budget():
    model = make_synthetic_model(press_scale=1e-12)
    an = analysis(DOUBLE_SIDED, 70_200.0, theta_scale=20_000.0, model=model)
    # Hammer alone cannot reach the threshold within the 70.2 us budget
    # (854 activations), though it would flip eventually at 36 ns.
    assert an.acmin() is None
    assert analysis(DOUBLE_SIDED, 36.0, theta_scale=20_000.0, model=model).acmin()


def test_trial_jitter_changes_results_slightly():
    a = analysis(COMBINED, 7_800.0, trial=0)
    b = analysis(COMBINED, 7_800.0, trial=1)
    ratio = b.die_min_iters() / a.die_min_iters()
    assert ratio != 1.0
    assert 0.8 < ratio < 1.2


def test_single_sided_weaker_per_activation():
    """Solo hammer inefficiency: SS RowHammer needs several times more
    total activations than double-sided."""
    ss = analysis(SINGLE_SIDED, 36.0).acmin()
    ds = analysis(DOUBLE_SIDED, 36.0).acmin()
    assert ss > 2 * ds


def test_min_iters_per_location_shape():
    an = analysis(DOUBLE_SIDED, 636.0)
    per_loc = an.min_iters_per_location()
    assert per_loc.shape == (SEL.total_locations,)
    assert per_loc.min() == an.die_min_iters()
