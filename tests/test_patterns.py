"""Tests for the access-pattern definitions (paper Fig. 3)."""

import pytest

from repro.constants import DEFAULT_TIMINGS
from repro.errors import ExperimentError
from repro.patterns import ALL_PATTERNS, COMBINED, DOUBLE_SIDED, SINGLE_SIDED

from repro.testing import make_synthetic_model

T = DEFAULT_TIMINGS


def test_single_sided_placement():
    p = SINGLE_SIDED.place(10, 500.0, rows_in_bank=64)
    assert p.aggressors == ((10, 500.0),)
    assert p.victims == (9, 11)
    assert p.inner_victim == 11
    assert p.acts_per_iteration == 1


def test_double_sided_placement():
    p = DOUBLE_SIDED.place(10, 500.0, rows_in_bank=64)
    assert p.aggressors == ((10, 500.0), (12, 500.0))
    assert p.victims == (9, 11, 13)


def test_combined_placement_asymmetric_on_times():
    """Fig. 3c: R0 open tAggON, R2 open only tRAS."""
    p = COMBINED.place(10, 7_800.0, rows_in_bank=64)
    assert p.aggressors == ((10, 7_800.0), (12, T.tRAS))


def test_combined_at_tras_equals_double_sided():
    """Both patterns degenerate to double-sided RowHammer at tRAS."""
    a = COMBINED.place(10, T.tRAS, rows_in_bank=64)
    b = DOUBLE_SIDED.place(10, T.tRAS, rows_in_bank=64)
    assert a.aggressors == b.aggressors


def test_iteration_latencies_match_paper_timing_model():
    t_on = 7_800.0
    ss = SINGLE_SIDED.place(10, t_on, 64)
    ds = DOUBLE_SIDED.place(10, t_on, 64)
    comb = COMBINED.place(10, t_on, 64)
    assert ss.iteration_latency() == pytest.approx(t_on + T.tRP)
    assert ds.iteration_latency() == pytest.approx(2 * (t_on + T.tRP))
    assert comb.iteration_latency() == pytest.approx(t_on + T.tRAS + 2 * T.tRP)
    # Observation 1's speed advantage: the combined pattern's
    # per-activation latency is roughly half the double-sided pattern's.
    assert comb.per_activation_latency() < ds.per_activation_latency() * 0.55


def test_t_on_below_tras_rejected():
    with pytest.raises(ExperimentError):
        SINGLE_SIDED.place(10, 20.0, rows_in_bank=64)


def test_placement_requires_outer_victim_room():
    with pytest.raises(ExperimentError):
        DOUBLE_SIDED.place(0, 36.0, rows_in_bank=64)  # needs row -1
    with pytest.raises(ExperimentError):
        DOUBLE_SIDED.place(61, 36.0, rows_in_bank=64)  # needs row 64


def test_solo_flag():
    assert SINGLE_SIDED.solo
    assert not DOUBLE_SIDED.solo
    assert not COMBINED.solo


def test_contributions_cover_all_victims():
    model = make_synthetic_model()
    for pattern in ALL_PATTERNS:
        placement = pattern.place(10, 7_800.0, 64)
        contribs = pattern.iteration_contributions(placement, model)
        assert {c.row for c in contribs} == set(placement.victims)


def test_combined_inner_victim_press_comes_only_from_r0():
    """Hypothesis 1 encoded: in the combined pattern the inner victim's
    press contribution from R2 (open only tRAS) is zero."""
    model = make_synthetic_model(alpha=0.5)
    placement = COMBINED.place(10, 7_800.0, 64)
    contribs = {c.row: c for c in COMBINED.iteration_contributions(placement, model)}
    inner = contribs[11]
    assert inner.v_gp_lo > 0.0  # press from R0 (below)
    assert inner.v_gp_hi == 0.0  # press from R2 (above, open only tRAS)
    # Hammer kicks arrive from both sides.
    assert inner.w_gh_lo > 0.0 and inner.w_gh_hi > 0.0


def test_double_sided_inner_press_asymmetry():
    model = make_synthetic_model(alpha=0.25)
    placement = DOUBLE_SIDED.place(10, 7_800.0, 64)
    contribs = {c.row: c for c in DOUBLE_SIDED.iteration_contributions(placement, model)}
    inner = contribs[11]
    assert inner.v_gp_hi == pytest.approx(0.25 * inner.v_gp_lo)


def test_outer_victims_single_sided_contributions():
    model = make_synthetic_model(alpha=0.5)
    placement = DOUBLE_SIDED.place(10, 7_800.0, 64)
    contribs = {c.row: c for c in DOUBLE_SIDED.iteration_contributions(placement, model)}
    outer_lo, outer_hi = contribs[9], contribs[13]
    # Outer-lo sits below R0 (aggressor above): attenuated press.
    assert outer_lo.v_gp_hi == pytest.approx(0.5 * outer_hi.v_gp_lo)
    assert outer_lo.v_gp_lo == 0.0
    # Outer-hi sits above R2 (aggressor below): full press coupling.
    assert outer_hi.v_gp_lo > 0.0
    assert outer_hi.v_gp_hi == 0.0
