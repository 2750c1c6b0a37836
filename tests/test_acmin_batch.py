"""Tests for the vectorized multi-trial fast path of the closed-form
analysis.

``DieSweepAnalyzer.analyze_trials`` -- the engine's entry point --
computes a (pattern, tAggON) point's base n_iters once and derives every
trial by jitter scaling; these tests assert exact agreement with the
per-trial ``analyze_die`` reference across patterns, the Table 2 tAggON
anchors, and trials 0-2 -- the guarantee the engine's trial batching
rests on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.acmin import DieSweepAnalyzer, analyze_die
from repro.patterns import ALL_PATTERNS

ANCHORS = [36.0, 7_800.0, 70_200.0]
TRIALS = 3


@pytest.fixture(scope="module")
def stacked(fast_runner, s0_module):
    return fast_runner.stacked_die(s0_module, 0)


def assert_same_analysis(batched, reference):
    """Exact equality of two die analyses (arrays, acmin, census)."""
    assert set(batched.n_iters) == set(reference.n_iters)
    for role, arr in reference.n_iters.items():
        np.testing.assert_array_equal(batched.n_iters[role], arr)
    assert batched.acts_per_iteration == reference.acts_per_iteration
    assert batched.iteration_latency_ns == reference.iteration_latency_ns
    assert batched.acmin() == reference.acmin()
    assert batched.census() == reference.census()


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=lambda p: p.name)
@pytest.mark.parametrize("t_on", ANCHORS)
def test_batch_matches_per_trial(stacked, s0_module, pattern, t_on):
    batch = DieSweepAnalyzer(stacked, s0_module.model).analyze_trials(
        pattern, t_on, range(TRIALS)
    )
    assert len(batch) == TRIALS
    for trial, analysis in enumerate(batch):
        reference = analyze_die(
            stacked, pattern, t_on, s0_module.model, trial=trial
        )
        assert_same_analysis(analysis, reference)


def test_analyze_trials_arbitrary_subset(stacked, s0_module):
    """The engine's subset entry point matches per-trial analyses too."""
    pattern = ALL_PATTERNS[0]
    analyzer = DieSweepAnalyzer(stacked, s0_module.model)
    subset = [2, 0]
    analyses = analyzer.analyze_trials(pattern, 7_800.0, subset)
    for trial, analysis in zip(subset, analyses):
        reference = analyze_die(
            stacked, pattern, 7_800.0, s0_module.model, trial=trial
        )
        assert_same_analysis(analysis, reference)


def test_base_cache_is_exact(stacked, s0_module):
    """A cached base reproduces the fresh computation bit-for-bit."""
    analyzer = DieSweepAnalyzer(stacked, s0_module.model)
    for pattern in ALL_PATTERNS:
        for t_on in ANCHORS:
            first = analyzer.analyze(pattern, t_on, trial=1)
            again = analyzer.analyze(pattern, t_on, trial=1)  # cache hit
            fresh = analyze_die(stacked, pattern, t_on, s0_module.model, trial=1)
            assert_same_analysis(again, first)
            assert_same_analysis(again, fresh)


def test_uncached_bases_are_exact(stacked, s0_module):
    """An analyzer that caches no bases (a campaign's) recomputes each
    point bit-for-bit like one that does."""
    cached = DieSweepAnalyzer(stacked, s0_module.model)
    uncached = DieSweepAnalyzer(stacked, s0_module.model, cache_bases=False)
    for pattern in ALL_PATTERNS:
        for t_on in ANCHORS:
            reference = cached.analyze_trials(pattern, t_on, range(TRIALS))
            for _ in range(2):
                batch = uncached.analyze_trials(pattern, t_on, range(TRIALS))
                for analysis, ref in zip(batch, reference):
                    assert_same_analysis(analysis, ref)


def test_trials_differ_from_each_other(stacked, s0_module):
    """Sanity: the jitter scale actually perturbs the trials."""
    pattern = ALL_PATTERNS[0]
    batch = DieSweepAnalyzer(stacked, s0_module.model).analyze_trials(
        pattern, 7_800.0, range(3)
    )
    inner0 = batch[0].n_iters["inner"]
    inner1 = batch[1].n_iters["inner"]
    inner2 = batch[2].n_iters["inner"]
    assert not np.array_equal(inner0, inner1)
    assert not np.array_equal(inner1, inner2)
