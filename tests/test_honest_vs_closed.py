"""Cross-validation: the command-level path agrees with the closed form.

The closed-form fast path (repro.core.acmin) and the DRAM Bender
interpreter path (repro.core.honest) must measure the same ACmin -- the
only allowed slack is a few activations from boundary semantics (the very
first activation of a single-sided loop is not yet a same-row re-open,
and initialization writes deposit one stray kick on the outer-lo victim).
"""

import pytest

from repro.bender.softmc import SoftMCSession
from repro.core.acmin import analyze_die
from repro.core.honest import measure_location_honest
from repro.core.stacked import build_stacked_die
from repro.dram.datapattern import CHECKERBOARD, ROW_STRIPE
from repro.dram.rowselect import RowSelection
from repro.patterns import COMBINED, DOUBLE_SIDED, SINGLE_SIDED

from repro.testing import make_synthetic_chip, make_synthetic_model

SEL = RowSelection(locations_per_region=1, n_regions=1, stride=8)


def closed_and_honest(pattern, t_on, data_pattern=CHECKERBOARD, theta=200.0):
    model = make_synthetic_model()
    chip = make_synthetic_chip(theta_scale=theta, model=model)
    stacked = build_stacked_die(chip, 0, SEL, data_pattern)
    closed = analyze_die(stacked, pattern, t_on, model).acmin()
    session = SoftMCSession(make_synthetic_chip(theta_scale=theta, model=model))
    honest = measure_location_honest(
        session,
        pattern,
        stacked.base_rows[0],
        t_on,
        data_pattern,
        max_budget_iterations=20_000,
    )
    return closed, honest


@pytest.mark.parametrize("pattern", [DOUBLE_SIDED, COMBINED])
@pytest.mark.parametrize("t_on", [36.0, 636.0, 7_800.0])
def test_two_sided_agreement_exact(pattern, t_on):
    closed, honest = closed_and_honest(pattern, t_on)
    assert honest.acmin == closed


@pytest.mark.parametrize("t_on", [36.0, 7_800.0])
def test_single_sided_agreement_close(t_on):
    # The very first activation of the honest single-sided loop is not a
    # same-row re-open, so it deposits a full (non-solo) kick worth up to
    # ~1/solo_hammer_factor solo activations: allow that slack.
    closed, honest = closed_and_honest(SINGLE_SIDED, t_on)
    assert honest.acmin is not None
    assert abs(honest.acmin - closed) <= 8


def test_agreement_on_other_data_pattern():
    closed, honest = closed_and_honest(DOUBLE_SIDED, 7_800.0, ROW_STRIPE)
    assert honest.acmin == closed


def test_honest_census_matches_closed_census():
    model = make_synthetic_model()
    chip = make_synthetic_chip(theta_scale=200.0, model=model)
    stacked = build_stacked_die(chip, 0, SEL, CHECKERBOARD)
    analysis = analyze_die(stacked, DOUBLE_SIDED, 7_800.0, model)
    closed_census = analysis.census(multiplier=1.0)
    session = SoftMCSession(make_synthetic_chip(theta_scale=200.0, model=model))
    honest = measure_location_honest(
        session,
        DOUBLE_SIDED,
        stacked.base_rows[0],
        7_800.0,
        CHECKERBOARD,
        max_budget_iterations=20_000,
    )
    # The honest flips at the exact minimum are a subset of the closed
    # census at multiplier 1 (same iteration count).
    assert honest.census.all_flips <= closed_census.all_flips
    assert honest.census.n_flips >= 1


def test_honest_no_bitflip_on_strong_chip():
    model = make_synthetic_model()
    session = SoftMCSession(make_synthetic_chip(theta_scale=1e9, model=model))
    honest = measure_location_honest(
        session, DOUBLE_SIDED, 10, 7_800.0, CHECKERBOARD, max_budget_iterations=200
    )
    assert honest.acmin is None
    assert honest.census.n_flips == 0


def test_honest_probe_counts_are_logarithmic():
    _closed, honest = closed_and_honest(DOUBLE_SIDED, 7_800.0)
    # Geometric ramp + bisection: ~2 log2(ACmin) probes.
    assert honest.probes <= 30
