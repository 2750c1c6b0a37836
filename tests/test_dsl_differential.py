"""Differential proof harness for the attack-pattern DSL.

Four proofs, layered:

1. **Twin equivalence** -- the DSL re-expressions of the paper's three
   patterns and of ``ManySidedPattern`` produce *identical placements*
   and *byte-identical compiled bender programs*, so every downstream
   result (honest or closed-form) is equal by construction.
2. **Golden snapshots** -- the compiled hammer loops for the paper's
   three patterns are pinned as text fixtures + sha256 digests, so any
   compiler drift is a loud diff, not a silent re-baseline.
3. **Honest vs closed-form** -- for every *new* DSL family the
   command-level execution (bender program -> interpreter -> tracker)
   agrees with the closed-form analysis on ACmin and on the flip
   census, across data patterns and tAggON values.
4. **Cross-executor digests** -- ``check_cross_executor`` extended
   with DSL pattern sets proves bit-identical ResultSet digests across
   executors.

Golden fixture regeneration (only after an *intentional* compiler
change; review the diff of the fixture text before committing)::

    PYTHONPATH=src python - <<'EOF'
    from pathlib import Path
    from repro.bender.assembler import disassemble
    from repro.constants import DEFAULT_TIMINGS
    from repro.patterns.compiler import compile_hammer_loop
    from repro.patterns.dsl import (
        combined_spec, double_sided_spec, single_sided_spec)
    for spec in (single_sided_spec(), double_sided_spec(), combined_spec()):
        p = spec.place(1, 636.0, rows_in_bank=4096, timings=DEFAULT_TIMINGS)
        text = disassemble(compile_hammer_loop(p, iterations=1))
        Path("tests/fixtures/golden_programs",
             spec.name + ".bender.txt").write_text(text)
    EOF

then update ``GOLDEN_DIGESTS`` below (``sha256sum`` of each fixture).
The same text is printed by the CLI::

    PYTHONPATH=src python -m repro.cli patterns compile \
        single-sided double-sided combined --base-row 1 --t-on 636
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bender.assembler import disassemble
from repro.bender.program import ProgramBuilder
from repro.bender.softmc import SoftMCSession
from repro.constants import DEFAULT_TIMINGS
from repro.core.acmin import analyze_die, pattern_footprint
from repro.core.honest import measure_location_honest
from repro.core.stacked import build_stacked_die
from repro.dram.datapattern import CHECKERBOARD, ROW_STRIPE
from repro.dram.rowselect import RowSelection
from repro.mitigations import TrrSampler
from repro.patterns import COMBINED, DOUBLE_SIDED, SINGLE_SIDED, ManySidedPattern
from repro.patterns.compiler import compile_hammer_loop, compile_init, compile_readback
from repro.patterns.dsl import (
    PatternSpec,
    combined_spec,
    decoy_flood_spec,
    double_sided_spec,
    half_double_spec,
    hammer_press_hybrid_spec,
    n_sided_spec,
    registry_names,
    resolve_pattern,
    retention_assisted_spec,
    single_sided_spec,
)
from repro.testing import make_synthetic_chip, make_synthetic_model

FIXTURES = Path(__file__).parent / "fixtures" / "golden_programs"

GOLDEN_DIGESTS = {
    "single-sided":
        "ad662b8773024dfbfc8cea7b00812c26ad858d05898c6f8811047e0f9bacddfa",
    "double-sided":
        "cdff6075480edd06f70949a14145d1f14f636808ad40c23bb07ed2e5167048a8",
    "combined":
        "da57c86cb7dc7f00f6ee815888332c5c9f7cd5b947089b90de3b49b181105fbe",
}

SEL = RowSelection(locations_per_region=1, n_regions=1, stride=8)

T_VALUES = (36.0, 636.0, 7_800.0)

TWINS = [
    (SINGLE_SIDED, single_sided_spec()),
    (DOUBLE_SIDED, double_sided_spec()),
    (COMBINED, combined_spec()),
    (ManySidedPattern(1), n_sided_spec(1)),
    (ManySidedPattern(3), n_sided_spec(3)),
    (ManySidedPattern(6), n_sided_spec(6)),
    (ManySidedPattern(3, combined=True), n_sided_spec(3, combined=True)),
    (ManySidedPattern(6, combined=True), n_sided_spec(6, combined=True)),
]


def hammer_text(pattern, base_row, t_on, iterations=1):
    placement = pattern.place(
        base_row, t_on, rows_in_bank=4096, timings=DEFAULT_TIMINGS
    )
    return disassemble(compile_hammer_loop(placement, iterations=iterations))


# ------------------------------------------------------------- 1. twins


@pytest.mark.parametrize("paper,twin", TWINS, ids=lambda p: getattr(p, "name", ""))
def test_twin_placements_identical(paper, twin):
    for t_on in T_VALUES:
        a = paper.place(40, t_on, rows_in_bank=4096, timings=DEFAULT_TIMINGS)
        b = twin.place(40, t_on, rows_in_bank=4096, timings=DEFAULT_TIMINGS)
        assert a.aggressors == b.aggressors
        assert a.victims == b.victims
        assert a.iteration_latency(DEFAULT_TIMINGS) == pytest.approx(
            b.iteration_latency(DEFAULT_TIMINGS)
        )
        assert paper.solo == twin.solo


@pytest.mark.parametrize("paper,twin", TWINS, ids=lambda p: getattr(p, "name", ""))
def test_twin_programs_byte_identical(paper, twin):
    """The compiled hammer loop and readback are byte-for-byte the text
    the legacy pattern compiles to (WR payloads keep init out of text
    assembly; identical placements make init identical by construction)."""
    for t_on in T_VALUES:
        assert hammer_text(paper, 40, t_on, iterations=7) == hammer_text(
            twin, 40, t_on, iterations=7
        )
        a = paper.place(40, t_on, rows_in_bank=4096, timings=DEFAULT_TIMINGS)
        b = twin.place(40, t_on, rows_in_bank=4096, timings=DEFAULT_TIMINGS)
        assert disassemble(compile_readback(a)) == disassemble(
            compile_readback(b)
        )


def test_twin_closed_form_acmin_identical():
    model = make_synthetic_model()
    chip = make_synthetic_chip(theta_scale=200.0, model=model)
    for paper, twin in TWINS[:3]:
        stacked = build_stacked_die(chip, 0, SEL, CHECKERBOARD)
        for t_on in T_VALUES:
            assert analyze_die(stacked, paper, t_on, model).acmin() == \
                analyze_die(stacked, twin, t_on, model).acmin()


def test_spec_dict_round_trip_compiles_identically():
    for name in registry_names():
        spec = resolve_pattern(name)
        if not isinstance(spec, PatternSpec):
            continue
        clone = PatternSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            spec.to_dict(), sort_keys=True
        )
        assert hammer_text(clone, 40, 636.0) == hammer_text(spec, 40, 636.0)


# ----------------------------------------------------- 2. golden snapshots


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_program_snapshot(name):
    text = hammer_text(resolve_pattern(name), 1, 636.0, iterations=1)
    fixture = (FIXTURES / f"{name}.bender.txt").read_text()
    assert text == fixture, (
        f"compiled program for {name} drifted from its golden fixture; "
        "if intentional, regenerate per the module docstring"
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[name]


# ------------------------------------------------- 3. honest vs closed


def closed_and_honest(pattern, t_on, data_pattern, theta=200.0):
    model = make_synthetic_model()
    chip = make_synthetic_chip(theta_scale=theta, model=model)
    stacked = build_stacked_die(
        chip, 0, SEL, data_pattern, offsets=pattern_footprint(pattern)
    )
    closed = analyze_die(stacked, pattern, t_on, model)
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


NEW_FAMILIES = [
    half_double_spec(),
    hammer_press_hybrid_spec(),
    decoy_flood_spec(),
    retention_assisted_spec(),
    n_sided_spec(4),
    n_sided_spec(4, combined=True),
]


@pytest.mark.parametrize("spec", NEW_FAMILIES, ids=lambda s: s.name)
@pytest.mark.parametrize("t_on", T_VALUES)
def test_dsl_family_honest_matches_closed(spec, t_on):
    """Command-level execution of the compiled program agrees with the
    closed-form analysis.  Multi-aggressor specs never enter the solo
    regime, so the only divergence left is the handful of stray kicks
    the init writes deposit -- bounded by one iteration's activations."""
    closed, honest = closed_and_honest(spec, t_on, CHECKERBOARD)
    c, h = closed.acmin(), honest.acmin
    assert c is not None and h is not None
    acts = len(
        spec.place(64, t_on, rows_in_bank=4096, timings=DEFAULT_TIMINGS).aggressors
    )
    assert h % acts == 0  # honest path counts whole iterations
    assert abs(h - c) <= 8


@pytest.mark.parametrize(
    "spec", [decoy_flood_spec(), retention_assisted_spec()], ids=lambda s: s.name
)
def test_decoys_and_gaps_cost_latency_not_charge(spec):
    """Decoy activations and refresh-gap idle change *when* the victims
    flip (iteration latency) but never *whether*: agreement with the
    closed form is exact, and the core double-sided charge math is
    untouched relative to the plain combined/double-sided pattern."""
    for t_on in (36.0, 636.0):
        closed, honest = closed_and_honest(spec, t_on, ROW_STRIPE)
        assert honest.acmin == closed.acmin()


@pytest.mark.parametrize("spec", NEW_FAMILIES[:3], ids=lambda s: s.name)
def test_dsl_family_flip_census_agrees(spec):
    """The honestly observed flips at the exact minimum are a subset of
    the closed census at multiplier 1 (same iteration count)."""
    closed, honest = closed_and_honest(spec, 636.0, CHECKERBOARD)
    assert honest.acmin is not None
    assert honest.census.n_flips >= 1
    assert honest.census.all_flips <= closed.census(multiplier=1.0).all_flips


# --------------------------------------------------- TRR decoy flood demo


def _flips_under_trr(pattern):
    chip = make_synthetic_chip(theta_scale=120.0, rows=64)
    session = SoftMCSession(chip)
    trr = TrrSampler(n_counters=2, trr_every=1, sample_probability=1.0)
    trr.attach(session)
    placement = pattern.place(10, 36.0, chip.geometry.rows)
    session.run(compile_init(placement, CHECKERBOARD, 64))
    builder = ProgramBuilder()
    with builder.loop(800):
        for row, t_on in placement.aggressors:
            builder.act(0, row).wait(t_on).pre(0).wait(15.0)
        builder.ref()
        builder.wait(15.0)
    session.run(builder.build())
    result = session.run(compile_readback(placement))
    flips = 0
    for _bank, row, bits in result.reads:
        expected = CHECKERBOARD.victim_bits(row, 64)
        flips += int((bits != expected).sum())
    return flips


def test_decoy_flood_thrashes_trr_sampler():
    """The DSL's TRRespass-style family does what it claims: the plain
    double-sided core is caught by a 2-counter TRR sampler, while the
    same core wrapped in a decoy flood thrashes the sampler's table and
    flips bits through it."""
    assert _flips_under_trr(double_sided_spec()) == 0
    assert _flips_under_trr(decoy_flood_spec(6)) > 0


# ----------------------------------------------- 4. cross-executor digests


def test_cross_executor_digests_on_dsl_patterns():
    from repro.core.experiment import CharacterizationConfig
    from repro.validate.invariants import check_cross_executor

    config = CharacterizationConfig(
        selection=RowSelection(locations_per_region=2, n_regions=1, stride=8)
    )
    digest = check_cross_executor(
        config=config,
        t_values=(36.0, 636.0),
        executors=("serial", "process"),
        patterns=("double-sided", "half-double", "4-sided-combined",
                  decoy_flood_spec(3)),
    )
    assert isinstance(digest, str) and len(digest) >= 16


# --------------------------------------------- builder & registry surface


def test_builder_constructs_equal_specs():
    from repro.errors import PatternSpecError
    from repro.patterns.dsl import PatternBuilder

    built = (
        PatternBuilder("decoy-flood")
        .aggressor(0)
        .aggressor(2)
        .decoy(6, on_time="hammer")
        .decoy(8, on_time="hammer")
        .build()
    )
    assert built == decoy_flood_spec(2)
    gapped = (
        PatternBuilder("retention-assisted")
        .aggressor(0, on_time="press")
        .aggressor(2, on_time="hammer")
        .gap(DEFAULT_TIMINGS.tREFI)
        .build()
    )
    assert gapped == retention_assisted_spec()
    narrowed = (
        PatternBuilder("narrow").aggressor(0).aggressor(2).victims(1).build()
    )
    assert narrowed.victim_offsets == (1,)
    assert narrowed.aggressor_offsets == (0, 2)
    with pytest.raises(PatternSpecError):
        PatternBuilder("bad").aggressor(0).victims(7).build()


def test_place_rejects_illegal_bindings():
    from repro.errors import PatternSpecError

    spec = double_sided_spec()
    with pytest.raises(PatternSpecError):
        spec.place(10, 10.0, rows_in_bank=4096)  # tAggON below tRAS
    with pytest.raises(PatternSpecError):
        spec.place(0, 636.0, rows_in_bank=4096)  # victim at row -1
    with pytest.raises(PatternSpecError):
        spec.place(4094, 636.0, rows_in_bank=4096)  # victim past the bank
    with pytest.raises(PatternSpecError):
        decoy_flood_spec(6).place(4080, 636.0, rows_in_bank=4096)


def test_resolve_patterns_rejects_duplicates_and_empties():
    from repro.errors import PatternSpecError
    from repro.patterns.dsl import resolve_patterns

    resolved = resolve_patterns(("combined", "half-double", decoy_flood_spec()))
    assert [p.name for p in resolved] == [
        "combined", "half-double", "decoy-flood"
    ]
    with pytest.raises(PatternSpecError):
        resolve_patterns(("combined", "combined"))
    with pytest.raises(PatternSpecError):
        resolve_patterns(())
    with pytest.raises(PatternSpecError):
        resolve_patterns(("no-such-pattern",))


def test_describe_pattern_facts_are_consistent():
    from repro.patterns.dsl import describe_pattern

    for name in registry_names():
        pattern = resolve_pattern(name)
        facts = describe_pattern(pattern, 636.0)
        assert facts["name"] == pattern.name
        placement = pattern.place(
            facts["base_row"], 636.0, rows_in_bank=1 << 30
        )
        assert facts["acts_per_iteration"] == len(placement.aggressors)
        assert facts["iteration_latency_ns"] == pytest.approx(
            placement.iteration_latency(DEFAULT_TIMINGS)
        )
        if isinstance(pattern, PatternSpec):
            assert PatternSpec.from_dict(facts["spec"]) == pattern
