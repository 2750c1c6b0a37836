"""Tests for the characterization runner on a calibrated module."""

import pytest

from repro.core.acmin import analyze_die
from repro.core.engine import measurement_from_analysis
from repro.core.runner import CharacterizationRunner
from repro.patterns import COMBINED, DOUBLE_SIDED


def test_measure_matches_table2_rh_anchor(s0_module, fast_runner):
    """The calibrated S0 module reproduces the Table 2 RowHammer average."""
    values = [
        fast_runner.measure(s0_module, die, DOUBLE_SIDED, 36.0).acmin
        for die in range(s0_module.n_dies)
    ]
    avg = sum(values) / len(values)
    assert avg == pytest.approx(45_000, rel=0.02)


def test_measure_matches_table2_combined_anchor(s0_module, fast_runner):
    values = [
        fast_runner.measure(s0_module, die, COMBINED, 7_800.0).acmin
        for die in range(s0_module.n_dies)
        if fast_runner.measure(s0_module, die, COMBINED, 7_800.0).acmin is not None
    ]
    avg = sum(values) / len(values)
    assert avg == pytest.approx(11_400, rel=0.05)


def test_press_immune_module_reports_no_bitflip(m1_module, fast_runner):
    """M1 (Table 2): RowPress and combined cells are all 'No Bitflip'."""
    for pattern in (DOUBLE_SIDED, COMBINED):
        for t_on in (7_800.0, 70_200.0):
            for die in range(m1_module.n_dies):
                m = fast_runner.measure(m1_module, die, pattern, t_on)
                assert m.acmin is None
    # ... but plain RowHammer does flip it.
    assert fast_runner.measure(m1_module, 0, DOUBLE_SIDED, 36.0).acmin is not None


def test_characterize_dies_shape(s0_module, fast_runner):
    results = fast_runner.characterize(
        [s0_module], [36.0, 7_800.0], dies=[0, 1], trials=2
    )
    # 2 dies x 3 patterns x 2 t values x 2 trials.
    assert len(results) == 24
    assert results.t_values() == [36.0, 7_800.0]
    assert len(results.patterns()) == 3


def test_stacked_cache_reused(s0_module, fast_runner):
    a = fast_runner.stacked_die(s0_module, 0)
    b = fast_runner.stacked_die(s0_module, 0)
    assert a is b


def test_trials_are_jittered(s0_module, fast_runner):
    a = fast_runner.measure(s0_module, 0, COMBINED, 7_800.0, trial=0)
    b = fast_runner.measure(s0_module, 0, COMBINED, 7_800.0, trial=1)
    assert a.acmin != b.acmin
    assert abs(a.acmin - b.acmin) / a.acmin < 0.2


def test_measurement_metadata(s0_module, fast_runner):
    m = fast_runner.measure(s0_module, 2, COMBINED, 636.0, trial=1)
    assert m.module_key == "S0"
    assert m.manufacturer == "S"
    assert m.die == 2
    assert m.pattern == "combined"
    assert m.trial == 1


def test_measure_returns_the_memoized_record(s0_module, fast_config):
    """``measure`` reads the memo a sweep filled."""
    runner = CharacterizationRunner(fast_config)
    results = runner.characterize(
        [s0_module], [7_800.0], [COMBINED], dies=[1], trials=2
    )
    for m in results:
        assert runner.measure(s0_module, 1, COMBINED, 7_800.0, m.trial) is m


def test_measure_matches_the_analyze_die_reference(s0_module, fast_config):
    """``measure`` equals a from-scratch ``analyze_die`` exactly, and a
    later sweep reuses the record it memoized."""
    cfg = fast_config
    runner = CharacterizationRunner(cfg)
    measured = runner.measure(s0_module, 3, COMBINED, 7_800.0, trial=2)
    analysis = analyze_die(
        runner.stacked_die(s0_module, 3),
        COMBINED,
        7_800.0,
        s0_module.model,
        temperature_c=cfg.temperature_c,
        timings=cfg.timings,
        trial=2,
        jitter_sigma=cfg.jitter_sigma,
    )
    assert measured == measurement_from_analysis(
        s0_module.key, s0_module.manufacturer, 3, COMBINED, 7_800.0, 2,
        analysis, cfg,
    )
    swept = runner.characterize(
        [s0_module], [7_800.0], [COMBINED], dies=[3], trials=3
    )
    assert list(swept)[2] is measured
