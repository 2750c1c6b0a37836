"""Tests for the crossover analysis and the refresh-window mitigation."""

import pytest

from repro.analysis.crossover import (
    advantage_series,
    convergence_point,
    peak_advantage,
)
from repro.constants import DEFAULT_TIMINGS
from repro.core.bitflips import BitflipCensus
from repro.core.results import DieMeasurement, ResultSet
from repro.mitigations import MitigationEvaluator
from repro.patterns import COMBINED, DOUBLE_SIDED
from repro.testing import make_synthetic_chip


def meas(pattern, t_on, time_ms):
    return DieMeasurement(
        module_key="S0",
        manufacturer="S",
        die=0,
        pattern=pattern,
        t_on=t_on,
        trial=0,
        acmin=1,
        time_to_first_ns=time_ms * 1e6,
        census=BitflipCensus(),
    )


@pytest.fixture
def synthetic_sweep():
    rs = ResultSet()
    # Combined fast in the middle, converging to single-sided at the top.
    data = {
        36.0: (2.0, 2.0, 9.0),
        636.0: (7.0, 11.0, 32.0),
        7_800.0: (40.0, 52.0, 46.0),
        70_200.0: (41.0, 53.0, 40.0),
    }
    for t_on, (comb, ds, ss) in data.items():
        rs.add(meas("combined", t_on, comb))
        rs.add(meas("double-sided", t_on, ds))
        rs.add(meas("single-sided", t_on, ss))
    return rs


def test_advantage_series(synthetic_sweep):
    series = advantage_series(synthetic_sweep)
    assert [p.t_on for p in series] == [36.0, 636.0, 7_800.0, 70_200.0]
    assert series[0].advantage == pytest.approx(0.0)
    assert series[1].advantage == pytest.approx(4.0 / 11.0)


def test_peak_advantage(synthetic_sweep):
    peak = peak_advantage(synthetic_sweep)
    assert peak.t_on == 636.0


def test_convergence_point(synthetic_sweep):
    # vs single-sided: within 15% from 7.8 us onwards.
    assert convergence_point(synthetic_sweep) == 7_800.0


def test_convergence_never(synthetic_sweep):
    assert convergence_point(synthetic_sweep, tolerance=0.001) is None


def test_empty_results():
    assert advantage_series(ResultSet()) == []
    assert peak_advantage(ResultSet()) is None
    assert convergence_point(ResultSet()) is None


def test_crossover_on_calibrated_module(s0_module, fast_runner):
    """On the calibrated S0 module the combined pattern's peak advantage
    falls in the sub-microsecond band (Observation 1) and the combined
    and single-sided curves converge by the 70.2 us anchor."""
    results = fast_runner.characterize(
        [s0_module], [36.0, 636.0, 7_800.0, 70_200.0], trials=1
    )
    peak = peak_advantage(results)
    assert peak is not None
    assert peak.t_on == 636.0
    assert peak.advantage > 0.25
    assert convergence_point(results, tolerance=0.35) is not None


# ----------------------------------------------------- refresh-window route


@pytest.fixture
def evaluator():
    # Threshold and press strength scaled so the synthetic chip's
    # time-to-first-bitflip sits at ~11 ms (2 us) and ~25 ms (70.2 us).
    from repro.testing import make_synthetic_model

    model = make_synthetic_model(press_scale=3.0)
    return MitigationEvaluator(
        lambda: make_synthetic_chip(theta_scale=30_000.0, rows=64, model=model),
        base_row=10,
    )


def test_refresh_window_protects_iff_longer_than_time_to_flip(evaluator):
    """The refresh-window mitigation is exactly a race against the time
    to first bitflip (~25 ms at 70.2 us on this chip)."""
    assert evaluator.protected_by_refresh_window(COMBINED, 70_200.0, 20e6)
    assert not evaluator.protected_by_refresh_window(COMBINED, 70_200.0, 30e6)


def test_refresh_window_misses_fast_combined(evaluator):
    """At moderate tAggON the combined pattern flips inside even a
    quarter refresh window (16 ms): refresh-rate increases alone are not
    a fix -- the paper's architectural point."""
    quarter_window = DEFAULT_TIMINGS.tREFW / 4.0
    assert not evaluator.protected_by_refresh_window(
        COMBINED, 2_000.0, quarter_window
    )


def test_zero_window_trivially_protects(evaluator):
    assert evaluator.protected_by_refresh_window(DOUBLE_SIDED, 36.0, 10.0)


def test_refresh_window_on_calibrated_module(s0_module, fast_runner):
    """With the calibrated S0 numbers: doubling the refresh rate (32 ms
    window) beats the 70.2 us combined corner (~45 ms to first flip) but
    not the 636 ns corner (~9 ms)."""
    results = fast_runner.characterize(
        [s0_module], [636.0, 70_200.0], patterns=[COMBINED], trials=1
    )
    half_window_ms = DEFAULT_TIMINGS.tREFW / 2.0 / 1e6

    def min_time_ms(t_on):
        return min(
            m.time_to_first_ms
            for m in results.where(t_on=t_on)
            if m.time_to_first_ms is not None
        )

    assert min_time_ms(70_200.0) > half_window_ms
    assert min_time_ms(636.0) < half_window_ms
