"""Tests for TRR / PARA / Graphene and the mitigation evaluator.

The search helpers get property-style coverage on a seeded grid: every
bracketed result is re-verified against the evaluator (protection holds
at ``protects_at``, fails at ``fails_at``) and checked monotone along
``tAggON`` -- the properties the mitigation campaign's invariants
(M3/M4) assume.
"""

import logging

import pytest

from repro.bender.program import ProgramBuilder
from repro.bender.softmc import SoftMCSession
from repro.constants import DEFAULT_TIMINGS
from repro.core.honest import measure_location_honest
from repro.dram.datapattern import CHECKERBOARD
from repro.errors import MitigationError
from repro.mitigations import (
    Graphene,
    MitigationEvaluator,
    Para,
    PressWeightedGraphene,
    PressWeightedPara,
    TrrSampler,
    press_charge,
)
from repro.patterns import COMBINED, DOUBLE_SIDED, SINGLE_SIDED

from repro.testing import make_synthetic_chip, make_synthetic_model

pytestmark = pytest.mark.mitigations

THETA = 120.0
BASE_ROW = 10

#: The seeded tAggON grid of the property tests: the paper's RowHammer
#: baseline, the first RowPress anchor, and one deep-RowPress point.
T_GRID = (36.0, 636.0, 7_800.0)


def chip_factory():
    return make_synthetic_chip(theta_scale=THETA, rows=64)


def weak_chip_factory():
    """An E0-like chip whose press response rivals hammering (fast flips)."""
    return make_synthetic_chip(
        theta_scale=THETA, rows=64, model=make_synthetic_model(press_scale=6.0)
    )


@pytest.fixture
def evaluator():
    return MitigationEvaluator(chip_factory, BASE_ROW)


@pytest.fixture
def weak_evaluator():
    return MitigationEvaluator(weak_chip_factory, BASE_ROW)


def bare_acmin_iterations(pattern, t_on, factory=chip_factory):
    session = SoftMCSession(factory())
    honest = measure_location_honest(
        session, pattern, BASE_ROW, t_on, CHECKERBOARD, max_budget_iterations=20_000
    )
    return honest.iterations


# ---------------------------------------------------------------------- TRR


def test_trr_never_triggers_without_ref(evaluator):
    """Methodology Section 3.1: no REF commands => TRR stays dormant."""
    trr = TrrSampler()
    result = evaluator.run(DOUBLE_SIDED, 7_800.0, trr, iterations=2_000)
    assert trr.targeted_refreshes == 0
    assert not result.protected  # the pattern flips unhindered


def test_trr_protects_with_regular_refresh():
    chip = chip_factory()
    session = SoftMCSession(chip)
    trr = TrrSampler(n_counters=4, trr_every=1)
    trr.attach(session)
    # Interleave hammering with REFs the way a normal controller would.
    from repro.bender.program import ProgramBuilder

    init_iters = bare_acmin_iterations(DOUBLE_SIDED, 7_800.0)
    session.write_row(BASE_ROW + 1, CHECKERBOARD.victim_bits(BASE_ROW + 1, 64))
    builder = ProgramBuilder()
    with builder.loop(2 * init_iters):
        builder.act(0, BASE_ROW).wait(7_800.0).pre(0).wait(15.0)
        builder.act(0, BASE_ROW + 2).wait(7_800.0).pre(0).wait(15.0)
        builder.ref()
        builder.wait(15.0)
    session.run(builder.build())
    assert trr.targeted_refreshes > 0
    expected = CHECKERBOARD.victim_bits(BASE_ROW + 1, 64)
    assert (session.read_row(BASE_ROW + 1) == expected).all()


def test_trr_parameter_validation():
    with pytest.raises(MitigationError):
        TrrSampler(n_counters=0)
    with pytest.raises(MitigationError):
        TrrSampler(sample_probability=1.5)


def test_mitigation_attach_once():
    trr = TrrSampler()
    session = SoftMCSession(chip_factory())
    trr.attach(session)
    with pytest.raises(MitigationError):
        trr.attach(session)


# --------------------------------------------------------------------- PARA


def test_para_zero_probability_is_no_protection(evaluator):
    result = evaluator.run(DOUBLE_SIDED, 7_800.0, Para(0.0), iterations=2_000)
    assert not result.protected
    assert result.neighbor_refreshes == 0


def test_para_full_probability_protects(evaluator):
    result = evaluator.run(DOUBLE_SIDED, 7_800.0, Para(1.0), iterations=2_000)
    assert result.protected
    assert result.neighbor_refreshes > 0


def test_para_probability_validated():
    with pytest.raises(MitigationError):
        Para(1.5)


# ----------------------------------------------------------------- Graphene


def test_graphene_low_threshold_protects(evaluator):
    result = evaluator.run(DOUBLE_SIDED, 7_800.0, Graphene(threshold=8),
                           iterations=2_000)
    assert result.protected
    assert result.neighbor_refreshes > 0


def test_graphene_huge_threshold_fails(evaluator):
    iters = bare_acmin_iterations(DOUBLE_SIDED, 7_800.0)
    result = evaluator.run(
        DOUBLE_SIDED, 7_800.0, Graphene(threshold=10 * iters), iterations=2 * iters
    )
    assert not result.protected


def test_graphene_critical_threshold_tracks_acmin(evaluator):
    """The safe Graphene threshold must shrink as tAggON grows -- the
    architectural implication of RowPress/combined patterns."""
    thr_hammer = evaluator.critical_graphene_threshold(
        DOUBLE_SIDED, 36.0, iterations=bare_acmin_iterations(DOUBLE_SIDED, 36.0) * 2
    )
    thr_press = evaluator.critical_graphene_threshold(
        DOUBLE_SIDED, 70_200.0,
        iterations=bare_acmin_iterations(DOUBLE_SIDED, 70_200.0) * 2,
    )
    assert thr_press < thr_hammer


def test_graphene_validation():
    with pytest.raises(MitigationError):
        Graphene(threshold=0)
    with pytest.raises(MitigationError):
        Graphene(threshold=4, table_size=0)


def test_graphene_survives_decoy_flood():
    """Misra-Gries eviction: decoy rows overflowing a tiny counter table
    must not let the aggressors slip through -- the spillway floor makes
    Graphene over- (never under-) count an evicted row, so the refresh
    fires at least as early.  The deterministic counterpart of TRR's
    sampler-exhaustion bypass."""
    chip = chip_factory()
    session = SoftMCSession(chip)
    graphene = Graphene(threshold=8, table_size=2)
    graphene.attach(session)
    victim = BASE_ROW + 1
    session.write_row(victim, CHECKERBOARD.victim_bits(victim, 64))
    builder = ProgramBuilder()
    with builder.loop(2 * bare_acmin_iterations(DOUBLE_SIDED, 7_800.0)):
        builder.act(0, BASE_ROW).wait(7_800.0).pre(0).wait(15.0)
        builder.act(0, BASE_ROW + 2).wait(7_800.0).pre(0).wait(15.0)
        for row in range(40, 48):
            builder.act(0, row).wait(36.0).pre(0).wait(15.0)
    session.run(builder.build())
    assert graphene.targeted_refreshes > 0
    expected = CHECKERBOARD.victim_bits(victim, 64)
    assert (session.read_row(victim) == expected).all()


def test_graphene_window_reset_forgets_counts():
    """new_window drops all counters: activations split across a
    refresh-window boundary never reach the threshold."""
    session = SoftMCSession(chip_factory())
    graphene = Graphene(threshold=5, table_size=4)
    graphene.attach(session)
    def three_activations():
        builder = ProgramBuilder()
        with builder.loop(3):
            builder.act(0, BASE_ROW).wait(36.0).pre(0).wait(15.0)
        return builder.build()

    session.run(three_activations())
    graphene.new_window()
    session.run(three_activations())  # 3 + 3, but never 6 in one window
    assert graphene.targeted_refreshes == 0


# --------------------------------------------------------------- evaluator


def test_evaluator_unprotected_baseline(evaluator):
    result = evaluator.run(COMBINED, 7_800.0, mitigation=None, iterations=2_000)
    assert not result.protected
    assert result.n_flips > 0


def test_critical_para_probability_is_reproducible(evaluator):
    p = evaluator.critical_para_probability(
        DOUBLE_SIDED, 7_800.0, iterations=500, tolerance=0.1, trials=2
    )
    assert 0.0 < p <= 1.0


# ------------------------------------------- seeded-grid search properties


def _probability_search(evaluator, pattern, t_on, tolerance=0.125, trials=2):
    budget = 2 * bare_acmin_iterations(pattern, t_on)
    return (
        evaluator.search_critical_probability(
            pattern, t_on, iterations=budget, tolerance=tolerance,
            trials=trials,
        ),
        budget,
    )


def _threshold_search(evaluator, pattern, t_on):
    budget = 2 * bare_acmin_iterations(pattern, t_on)
    return (
        evaluator.search_critical_threshold(
            pattern, t_on, iterations=budget
        ),
        budget,
    )


@pytest.mark.parametrize("t_on", T_GRID)
def test_probability_bracket_is_verified(evaluator, t_on):
    """Property: the bisection bracket is real, not just bookkeeping.

    ``protects_at`` must protect on every trial seed, ``fails_at`` must
    fail on at least one (0.0 fails a priori: it never refreshes), and
    the bracket must be at most one tolerance wide.
    """
    critical, budget = _probability_search(evaluator, DOUBLE_SIDED, t_on)
    assert critical.value == critical.protects_at
    assert critical.fails_at is not None
    assert 0.0 <= critical.fails_at < critical.protects_at <= 1.0
    assert critical.protects_at - critical.fails_at <= 0.125 + 1e-12
    assert critical.n_runs > 0
    for seed in range(2):
        assert evaluator.run(
            DOUBLE_SIDED, t_on, Para(critical.protects_at, seed),
            iterations=budget,
        ).protected
    if critical.fails_at > 0.0:
        assert not all(
            evaluator.run(
                DOUBLE_SIDED, t_on, Para(critical.fails_at, seed),
                iterations=budget,
            ).protected
            for seed in range(2)
        )


@pytest.mark.parametrize("t_on", T_GRID)
def test_threshold_bracket_is_verified(evaluator, t_on):
    """Property: threshold bracket re-verifies against the evaluator.

    The largest protecting threshold protects; one notch weaker
    (``fails_at``) does not; counting search brackets are exact
    (``fails_at == protects_at + 1``)."""
    critical, budget = _threshold_search(evaluator, DOUBLE_SIDED, t_on)
    assert critical.value == critical.protects_at
    assert not critical.cap_hit
    assert critical.fails_at == critical.protects_at + 1
    assert evaluator.run(
        DOUBLE_SIDED, t_on, Graphene(int(critical.protects_at)),
        iterations=budget,
    ).protected
    assert not evaluator.run(
        DOUBLE_SIDED, t_on, Graphene(int(critical.fails_at)),
        iterations=budget,
    ).protected


def test_critical_probability_monotone_in_t_on(weak_evaluator):
    """Property (Hypothesis 2): required PARA p never falls as tAggON
    grows.  Compared bracket-to-bracket: a later point's *upper* bound
    may never drop below an earlier point's *lower* bound."""
    brackets = [
        _probability_search(weak_evaluator, COMBINED, t_on)[0]
        for t_on in T_GRID
    ]
    for earlier, later in zip(brackets, brackets[1:]):
        assert later.protects_at >= earlier.fails_at


def test_critical_threshold_monotone_in_t_on(weak_evaluator):
    """Property (Hypothesis 2): the safe Graphene threshold never grows
    with tAggON -- stronger (smaller-threshold) configs are needed."""
    values = [
        _threshold_search(weak_evaluator, COMBINED, t_on)[0].value
        for t_on in T_GRID
    ]
    assert values == sorted(values, reverse=True)


def test_search_is_deterministic(evaluator):
    """Same seeds, same chip factory => identical CriticalParameter."""
    first, _ = _probability_search(evaluator, DOUBLE_SIDED, 7_800.0)
    second, _ = _probability_search(evaluator, DOUBLE_SIDED, 7_800.0)
    assert first == second
    thr_a, _ = _threshold_search(evaluator, DOUBLE_SIDED, 7_800.0)
    thr_b, _ = _threshold_search(evaluator, DOUBLE_SIDED, 7_800.0)
    assert thr_a == thr_b


def test_evaluator_run_is_deterministic(evaluator):
    """Identical ProtectionResult on repeat with the same seed -- and a
    different seed actually exercises a different refresh sequence."""
    runs = [
        evaluator.run(COMBINED, 7_800.0, Para(0.4, seed=7), iterations=400)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    other = evaluator.run(
        COMBINED, 7_800.0, Para(0.4, seed=8), iterations=400
    )
    assert other.iterations == runs[0].iterations


# --------------------------------------------------- refresh-window edges


def _iteration_latency(pattern, t_on):
    placement = pattern.place(BASE_ROW, t_on, 64, DEFAULT_TIMINGS)
    return placement.iteration_latency(DEFAULT_TIMINGS)


def test_refresh_window_shorter_than_one_iteration(evaluator):
    """Documented edge: windows in (0, iteration_latency) protect --
    not even one (open, close) cycle fits between victim refreshes."""
    latency = _iteration_latency(DOUBLE_SIDED, 70_200.0)
    assert evaluator.protected_by_refresh_window(
        DOUBLE_SIDED, 70_200.0, window_ns=0.5 * latency
    )
    # Degenerate non-positive windows take the same documented branch.
    assert evaluator.protected_by_refresh_window(
        DOUBLE_SIDED, 70_200.0, window_ns=0.0
    )


def test_refresh_window_exactly_one_iteration(evaluator):
    """Window == one iteration latency probes exactly one iteration and
    must agree with a bare one-iteration run (no off-by-one)."""
    latency = _iteration_latency(DOUBLE_SIDED, 70_200.0)
    one_iteration = evaluator.run(
        DOUBLE_SIDED, 70_200.0, mitigation=None, iterations=1
    ).protected
    assert (
        evaluator.protected_by_refresh_window(
            DOUBLE_SIDED, 70_200.0, window_ns=latency
        )
        == one_iteration
    )


def test_refresh_window_monotone(evaluator):
    """A window wide enough to contain the bare flip point fails; the
    call is monotone from the protecting edge to the failing one."""
    flip_iterations = bare_acmin_iterations(DOUBLE_SIDED, 7_800.0)
    latency = _iteration_latency(DOUBLE_SIDED, 7_800.0)
    wide = (flip_iterations + 1) * latency
    assert not evaluator.protected_by_refresh_window(
        DOUBLE_SIDED, 7_800.0, window_ns=wide
    )
    assert evaluator.protected_by_refresh_window(
        DOUBLE_SIDED, 7_800.0, window_ns=0.9 * latency
    )


# -------------------------------------------------- Graphene search cap


def test_threshold_search_cap_hit_warns(evaluator, caplog):
    """Ramping past the cap logs a warning and flags cap_hit instead of
    pretending the last verified threshold is a tight critical point."""
    with caplog.at_level(logging.WARNING, logger="repro.mitigations"):
        critical = evaluator.search_critical_threshold(
            DOUBLE_SIDED, 36.0, iterations=4, cap=4
        )
    assert critical.cap_hit
    assert critical.fails_at is None
    assert critical.value == critical.protects_at
    assert any(
        "ramped past the cap" in rec.getMessage()
        for rec in caplog.records
    )


def test_threshold_search_no_warning_inside_cap(evaluator, caplog):
    """A search that brackets normally stays quiet."""
    with caplog.at_level(logging.WARNING, logger="repro.mitigations"):
        critical, _ = _threshold_search(evaluator, DOUBLE_SIDED, 7_800.0)
    assert not critical.cap_hit
    assert not caplog.records


# -------------------------------------------------- TRR decoy exhaustion


def _hammer_with_trr(decoy_rows, iterations):
    """Run double-sided hammering + REFs against a small TRR sampler,
    optionally padding each iteration with decoy activations."""
    chip = chip_factory()
    session = SoftMCSession(chip)
    trr = TrrSampler(n_counters=2, trr_every=1, seed=3)
    trr.attach(session)
    victim = BASE_ROW + 1
    session.write_row(victim, CHECKERBOARD.victim_bits(victim, 64))
    builder = ProgramBuilder()
    with builder.loop(iterations):
        builder.act(0, BASE_ROW).wait(7_800.0).pre(0).wait(15.0)
        builder.act(0, BASE_ROW + 2).wait(7_800.0).pre(0).wait(15.0)
        for row in decoy_rows:
            builder.act(0, row).wait(36.0).pre(0).wait(15.0)
        builder.ref()
        builder.wait(15.0)
    session.run(builder.build())
    expected = CHECKERBOARD.victim_bits(victim, 64)
    flipped = bool((session.read_row(victim) != expected).any())
    return flipped, trr


def test_trr_bypassed_by_decoy_rows():
    """Satellite: sampler exhaustion under the combined-style pattern.

    With only the two aggressors in flight a 2-counter TRR keeps the
    victim safe; padding each iteration with decoy activations far from
    the victim evicts the aggressors from the sampler often enough that
    the same activation budget flips the victim -- TRR's known bypass,
    reproduced at command level.
    """
    budget = 2 * bare_acmin_iterations(DOUBLE_SIDED, 7_800.0)
    flipped_plain, trr_plain = _hammer_with_trr((), budget)
    assert not flipped_plain
    assert trr_plain.targeted_refreshes > 0

    decoys = tuple(range(40, 48))  # far from the victim's blast radius
    flipped_decoy, trr_decoy = _hammer_with_trr(decoys, budget)
    assert flipped_decoy


# ------------------------------------------- press-weighted variants


def test_press_charge_properties():
    """press_charge: identity for RowHammer-speed openings, +1 unit per
    tREFI of extra open time, monotone non-decreasing."""
    tras = DEFAULT_TIMINGS.tRAS
    trefi = DEFAULT_TIMINGS.tREFI
    assert press_charge(10.0) == 1.0
    assert press_charge(tras) == 1.0
    assert press_charge(tras + trefi) == pytest.approx(2.0)
    grid = [10.0, tras, 636.0, 7_800.0, 70_200.0]
    charges = [press_charge(t) for t in grid]
    assert charges == sorted(charges)


def test_press_weighted_para_matches_classic_at_tras(evaluator):
    """At t_open = tRAS the press weight is exactly 1.0, so the
    press-weighted PARA is classic PARA (same rng stream policy aside);
    both protect at p = 1.0 and both idle at p = 0.0."""
    for cls in (Para, PressWeightedPara):
        assert evaluator.run(
            DOUBLE_SIDED, 36.0, cls(1.0), iterations=2_000
        ).protected
        assert (
            evaluator.run(
                DOUBLE_SIDED, 36.0, cls(0.0), iterations=500
            ).neighbor_refreshes
            == 0
        )


def test_press_weighted_graphene_tolerates_higher_threshold(weak_evaluator):
    """The point of the press weighting: at a RowPress-regime tAggON a
    threshold that classic (count-based) Graphene can no longer honour
    still protects when activations are charged by open time."""
    budget = 2 * bare_acmin_iterations(
        SINGLE_SIDED, 7_800.0, factory=weak_chip_factory
    )
    classic = weak_evaluator.search_critical_threshold(
        SINGLE_SIDED, 7_800.0, iterations=budget
    )
    press = weak_evaluator.search_critical_threshold(
        SINGLE_SIDED, 7_800.0, factory=PressWeightedGraphene,
        iterations=budget,
    )
    assert press.value > classic.value
    between = int(classic.value) + 1
    assert not weak_evaluator.run(
        SINGLE_SIDED, 7_800.0, Graphene(between), iterations=budget
    ).protected
    assert weak_evaluator.run(
        SINGLE_SIDED, 7_800.0, PressWeightedGraphene(between),
        iterations=budget,
    ).protected
