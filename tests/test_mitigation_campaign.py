"""Tests for the mitigation stress-evaluation campaign subsystem.

Covers the work-list planner, the point codec and artifact round-trips,
bit-identical execution across the serial and process executors and
across checkpoint kill/resume, the validate-layer integration (schema,
M1-M6 invariants, digests), and the ``repro-characterize mitigate`` CLI
mode.
"""

import json

import pytest

from repro.cli import main
from repro.constants import DEFAULT_TIMINGS
from repro.core.checkpoint import CheckpointJournal
from repro.core.engine import ProcessExecutor
from repro.core.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.errors import (
    ArtifactCorruptError,
    ArtifactInvalidError,
    CheckpointError,
    ExperimentError,
    InvariantViolationError,
    ResultIntegrityError,
    ShardFailedError,
)
from repro.mitigations.campaign import (
    EVAL_CHIP_PROFILES,
    MITIGATION_CODEC,
    MITIGATION_T_VALUES,
    MitigationCampaign,
    MitigationPlan,
    MitigationPoint,
    MitigationResults,
    MitigationShard,
    MitigationShardRunner,
    MitigationWorkerSpec,
    MitigationWorkUnit,
    build_eval_chip,
    mitigation_plan_fingerprint,
    point_from_record,
    point_to_record,
)
from repro.obs import Observability
from repro.patterns import ALL_PATTERNS, COMBINED, DOUBLE_SIDED
from repro.validate import validate_artifact
from repro.validate.invariants import (
    check_mitigation_invariants,
    mitigation_results_digest,
    require_mitigation_invariants,
)

pytestmark = pytest.mark.mitigations

#: The small-but-real campaign grid every execution test shares: two
#: mechanisms x two patterns x two tAggON anchors on one eval chip.
CHIPS = ("E0",)
MECHS = ("para", "graphene")
T_SMALL = (36.0, 7_800.0)
PATTERNS_SMALL = (DOUBLE_SIDED, COMBINED)


def run_small(executor=None, **kwargs):
    campaign = MitigationCampaign(executor=executor)
    results = campaign.run(
        chips=CHIPS,
        mitigations=MECHS,
        t_values=T_SMALL,
        patterns=PATTERNS_SMALL,
        **kwargs,
    )
    return campaign, results


@pytest.fixture(scope="module")
def small():
    """One serial reference run, shared by the read-only tests."""
    return run_small()


def make_point(**overrides):
    """A self-consistent synthetic point for invariant unit tests."""
    fields = dict(
        chip_key="E0",
        mitigation="para",
        pattern="double-sided",
        t_on=36.0,
        baseline_acmin=38,
        baseline_iterations=19,
        time_to_first_ns=1e9,  # ~1 s: survives tREFW and tREFW/4
        critical_value=0.25,
        protects_at=0.25,
        fails_at=0.125,
        n_runs=10,
        cap_hit=False,
        defeated=False,
        protected_by_trefw=True,
        protected_by_trefw_quarter=True,
    )
    fields.update(overrides)
    return MitigationPoint(**fields)


# ------------------------------------------------------------------- plan


def test_plan_canonical_order():
    plan = MitigationPlan.build(CHIPS, MECHS, T_SMALL, PATTERNS_SMALL)
    assert len(plan.shards) == 4  # 1 chip x 2 mechanisms x 2 patterns
    assert plan.n_measurements == 8
    labels = [(s.chip_key, s.mitigation, s.pattern.name) for s in plan.shards]
    assert labels == [
        ("E0", "para", "double-sided"),
        ("E0", "para", "combined"),
        ("E0", "graphene", "double-sided"),
        ("E0", "graphene", "combined"),
    ]
    for i, shard in enumerate(plan.shards):
        assert shard.index == i
        assert shard.obs_fields["mitigation"] == shard.mitigation
        assert [u.t_on for u in shard.units] == list(T_SMALL)


def test_plan_rejects_unknown_mitigation():
    with pytest.raises(ExperimentError, match="unknown mitigation"):
        MitigationPlan.build(CHIPS, ("para", "blockhammer"))


def test_plan_rejects_empty_sweep():
    with pytest.raises(ExperimentError, match="at least one tAggON"):
        MitigationPlan.build(CHIPS, MECHS, t_values=())


def test_fingerprint_covers_spec_and_order():
    plan = MitigationPlan.build(CHIPS, MECHS, T_SMALL, PATTERNS_SMALL)
    spec = MitigationWorkerSpec()
    base = mitigation_plan_fingerprint(spec, plan)
    assert base == mitigation_plan_fingerprint(MitigationWorkerSpec(), plan)
    assert base != mitigation_plan_fingerprint(
        MitigationWorkerSpec(trials=3), plan
    )
    reordered = MitigationPlan.build(
        CHIPS, MECHS, tuple(reversed(T_SMALL)), PATTERNS_SMALL
    )
    assert base != mitigation_plan_fingerprint(spec, reordered)


def test_worker_spec_rejects_unbuildable_shards():
    spec = MitigationWorkerSpec()
    unit = MitigationWorkUnit("NOPE", "para", DOUBLE_SIDED, 36.0)
    shard = MitigationShard(0, "NOPE", "para", DOUBLE_SIDED, (unit,))
    with pytest.raises(ExperimentError, match="not profiled chip keys"):
        spec.check_shards([shard])
    unit = MitigationWorkUnit("E0", "blockhammer", DOUBLE_SIDED, 36.0)
    shard = MitigationShard(0, "E0", "blockhammer", DOUBLE_SIDED, (unit,))
    with pytest.raises(ExperimentError, match="unknown mitigation"):
        spec.check_shards([shard])


def test_runner_validate_rejects_identity_mismatch():
    unit = MitigationWorkUnit("E0", "para", DOUBLE_SIDED, 36.0)
    shard = MitigationShard(0, "E0", "para", DOUBLE_SIDED, (unit,))
    wrong = make_point(t_on=636.0)
    with pytest.raises(ResultIntegrityError, match="shard 0"):
        MitigationShardRunner.validate(shard, [wrong])


def test_build_eval_chip_rejects_unknown_key():
    with pytest.raises(ExperimentError, match="unknown evaluation chip"):
        build_eval_chip("NOPE")
    for key in EVAL_CHIP_PROFILES:
        assert build_eval_chip(key).module_key == key


# ------------------------------------------------------------------ codec


def test_point_record_round_trip():
    point = make_point(fails_at=None, cap_hit=True)
    assert point_from_record(point_to_record(point)) == point
    # Records are JSON-safe under strict (allow_nan=False) encoding.
    encoded = json.dumps(point_to_record(point), allow_nan=False)
    assert point_from_record(json.loads(encoded)) == point


def test_point_record_drops_non_finite_floats():
    point = make_point(critical_value=float("inf"))
    assert point_to_record(point)["critical_value"] is None


def test_journal_codec_kinds_do_not_cross(tmp_path):
    """A mitigation journal must never decode as characterization
    measurements, and vice versa -- the header names the entry kind."""
    path = tmp_path / "journal.jsonl"
    writer = CheckpointJournal(path, codec=MITIGATION_CODEC)
    writer.start("f" * 16, 1)
    writer.record(0, [make_point()])
    writer.release()
    with pytest.raises(CheckpointError, match="repro-mitigation-point-v1"):
        CheckpointJournal(path).load("f" * 16)

    plain = tmp_path / "plain.jsonl"
    CheckpointJournal(plain).start("f" * 16, 1)
    with pytest.raises(CheckpointError, match="repro-mitigation-point-v1"):
        CheckpointJournal(plain, codec=MITIGATION_CODEC).load("f" * 16)


# ---------------------------------------------------------------- results


def test_results_collection_api():
    a, b = make_point(), make_point(t_on=636.0, mitigation="graphene")
    results = MitigationResults([a])
    results.add(b)
    results.extend([make_point(chip_key="E1")])
    assert len(results) == 3
    assert len(results.where(chip_key="E0")) == 2
    assert len(results.where(mitigation="graphene", t_on=636.0)) == 1
    assert list(results.where(pattern="combined")) == []


def test_results_json_round_trip(tmp_path):
    results = MitigationResults(
        [make_point(), make_point(t_on=636.0, critical_value=0.5,
                                  protects_at=0.5, fails_at=0.25)]
    )
    restored = MitigationResults.from_json(results.to_json())
    assert list(restored) == list(results)
    path = tmp_path / "mitigation.json"
    results.dump(path, digest=True)
    assert (tmp_path / "mitigation.json.sha256").exists()
    assert list(MitigationResults.load(path)) == list(results)


def test_results_load_error_paths(tmp_path):
    with pytest.raises(ArtifactCorruptError, match="cannot read"):
        MitigationResults.load(tmp_path / "absent.json")

    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(b"\xff\xfe\x00 not utf-8")
    with pytest.raises(ArtifactCorruptError, match="not valid UTF-8"):
        MitigationResults.load(garbled)

    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"format": "repro-mitigation-v1", "points": [')
    with pytest.raises(ArtifactCorruptError, match="not parseable JSON"):
        MitigationResults.load(truncated)

    with pytest.raises(ArtifactInvalidError, match="unknown mitigation format"):
        MitigationResults.from_json('{"format": "repro-results-v1"}')

    twice = MitigationResults([make_point(), make_point()])
    with pytest.raises(ArtifactInvalidError, match="duplicates"):
        MitigationResults.from_json(twice.to_json())


def test_schema_rejects_contradictory_flags():
    defeated = make_point(defeated=True)  # defeated with a critical value
    with pytest.raises(ArtifactInvalidError, match="defeated"):
        MitigationResults.from_json(MitigationResults([defeated]).to_json())


# ------------------------------------------------------------ invariants


def test_invariants_pass_on_consistent_series():
    series = [
        make_point(),
        make_point(t_on=636.0, baseline_acmin=26, critical_value=0.3125,
                   protects_at=0.3125, fails_at=0.25),
        make_point(t_on=7_800.0, baseline_acmin=10, critical_value=0.9688,
                   protects_at=0.9688, fails_at=0.9375,
                   time_to_first_ns=1e6, protected_by_trefw=False,
                   protected_by_trefw_quarter=False),
    ]
    assert check_mitigation_invariants(series) == []
    require_mitigation_invariants(series)  # must not raise


def test_invariant_m1_baseline_mismatch():
    points = [
        make_point(),
        make_point(mitigation="graphene", baseline_acmin=40,
                   critical_value=19.0, protects_at=19.0, fails_at=20.0),
    ]
    violations = check_mitigation_invariants(points)
    assert len(violations) == 1 and violations[0].startswith("M1")


def test_invariant_m2_baseline_must_not_rise():
    points = [
        make_point(baseline_acmin=10),
        make_point(t_on=636.0, baseline_acmin=20),
    ]
    assert any(
        v.startswith("M2") for v in check_mitigation_invariants(points)
    )


def test_invariant_m3_probability_must_not_fall():
    points = [
        make_point(critical_value=0.55, protects_at=0.55, fails_at=0.5),
        make_point(t_on=636.0, critical_value=0.3, protects_at=0.3,
                   fails_at=0.25),
    ]
    assert any(
        v.startswith("M3") for v in check_mitigation_invariants(points)
    )
    # Overlapping brackets are bisection granularity, not a violation.
    overlapping = [
        points[0],
        make_point(t_on=636.0, critical_value=0.52, protects_at=0.52,
                   fails_at=0.4),
    ]
    assert check_mitigation_invariants(overlapping) == []
    # A defeated later point requires +inf: never a violation.
    with_defeat = [
        points[0],
        make_point(t_on=636.0, defeated=True, critical_value=None,
                   protects_at=None, fails_at=None),
    ]
    assert check_mitigation_invariants(with_defeat) == []


def graphene_point(**overrides):
    fields = dict(mitigation="graphene", critical_value=19.0,
                  protects_at=19.0, fails_at=20.0)
    fields.update(overrides)
    return make_point(**fields)


def test_invariant_m4_threshold_must_not_rise():
    points = [
        graphene_point(critical_value=5.0, protects_at=5.0, fails_at=6.0),
        graphene_point(t_on=636.0, critical_value=9.0, protects_at=9.0,
                       fails_at=10.0),
    ]
    assert any(
        v.startswith("M4") for v in check_mitigation_invariants(points)
    )
    # cap_hit first (requirement unbounded), tightening after: legal.
    relaxing = [
        graphene_point(critical_value=64.0, protects_at=64.0, fails_at=None,
                       cap_hit=True),
        graphene_point(t_on=636.0, critical_value=9.0, protects_at=9.0,
                       fails_at=10.0),
    ]
    assert check_mitigation_invariants(relaxing) == []


def test_invariant_m5_combined_equals_double_sided_at_tras():
    points = [
        make_point(),
        make_point(pattern="combined", critical_value=0.5, protects_at=0.5,
                   fails_at=0.375),
    ]
    violations = check_mitigation_invariants(points)
    assert any(v.startswith("M5") for v in violations)
    # Identical fields at tRAS: the degeneracy holds.
    degenerate = [make_point(), make_point(pattern="combined")]
    assert check_mitigation_invariants(degenerate) == []


def test_invariant_m6_refresh_window_consistency():
    trefw = DEFAULT_TIMINGS.tREFW
    stale = [make_point(time_to_first_ns=trefw * 2,
                        protected_by_trefw=False,
                        protected_by_trefw_quarter=True)]
    assert any(
        v.startswith("M6") for v in check_mitigation_invariants(stale)
    )
    quarter_only = [make_point(time_to_first_ns=None,
                               protected_by_trefw=True,
                               protected_by_trefw_quarter=False)]
    assert any(
        v.startswith("M6") for v in check_mitigation_invariants(quarter_only)
    )


def test_require_mitigation_invariants_lists_violations():
    points = [make_point(baseline_acmin=10),
              make_point(t_on=636.0, baseline_acmin=20)]
    with pytest.raises(InvariantViolationError, match="M2"):
        require_mitigation_invariants(points, source="unit-test")


def test_digest_is_order_independent():
    a, b = make_point(), make_point(t_on=636.0)
    assert mitigation_results_digest([a, b]) == mitigation_results_digest(
        [b, a]
    )
    assert mitigation_results_digest([a]) != mitigation_results_digest([b])


# ----------------------------------------------------------- execution


def test_campaign_points_in_canonical_order(small):
    campaign, results = small
    assert len(results) == 8
    identities = [p.identity for p in results]
    expected = [
        ("E0", mech, pattern.name, t_on)
        for mech in MECHS
        for pattern in PATTERNS_SMALL
        for t_on in T_SMALL
    ]
    assert identities == expected
    assert campaign.last_report.n_shards == 4
    assert campaign.last_report.n_executed == 4


def test_campaign_satisfies_its_own_invariants(small):
    _, results = small
    assert check_mitigation_invariants(results) == []


def test_campaign_strength_rises_with_t_on(small):
    """The tentpole claim (Hypothesis 2 / Section 5): moving from the
    RowHammer anchor into the RowPress regime demands a strictly higher
    PARA probability and a strictly lower Graphene threshold."""
    _, results = small

    def requirement(point):
        # A defeated mechanism needs more than any finite parameter.
        return float("inf") if point.defeated else point.critical_value

    for pattern in ("double-sided", "combined"):
        para = {
            p.t_on: p for p in results.where(
                mitigation="para", pattern=pattern
            )
        }
        assert requirement(para[7_800.0]) > requirement(para[36.0])
        graphene = {
            p.t_on: p for p in results.where(
                mitigation="graphene", pattern=pattern
            )
        }
        assert graphene[7_800.0].critical_value < graphene[36.0].critical_value


def test_campaign_bit_identical_across_executors(small):
    _, serial = small
    reference = mitigation_results_digest(serial)
    # Pinned: a refactor that moves every executor alike still fails.
    assert reference == (
        "cf9661226d80e75f98b26ebed422e727988dc78f172ff4c94b3e4c90c5f26c44"
    )
    _, processed = run_small(executor=ProcessExecutor(workers=2))
    assert mitigation_results_digest(processed) == reference


def test_campaign_repeat_is_bit_identical(small):
    _, first = small
    _, again = run_small()
    assert mitigation_results_digest(again) == mitigation_results_digest(
        first
    )


def test_campaign_validate_flag_self_checks(small):
    _, validated = run_small(validate=True)
    assert mitigation_results_digest(validated) == mitigation_results_digest(
        small[1]
    )


def test_campaign_records_defeat_instead_of_crashing():
    """At the deepest RowPress anchor the combined pattern defeats a
    count-based Graphene outright (threshold 1 still fails): the point
    is recorded as defeated, not raised."""
    campaign = MitigationCampaign()
    results = campaign.run(
        chips=CHIPS,
        mitigations=("graphene",),
        t_values=(70_200.0,),
        patterns=(COMBINED,),
    )
    (point,) = list(results)
    assert point.defeated
    assert point.critical_value is None
    assert point.baseline_acmin is not None


def test_campaign_cap_hit_flows_into_points():
    campaign = MitigationCampaign(spec=MitigationWorkerSpec(graphene_cap=4))
    results = campaign.run(
        chips=CHIPS,
        mitigations=("graphene",),
        t_values=(36.0,),
        patterns=(DOUBLE_SIDED,),
    )
    (point,) = list(results)
    assert point.cap_hit
    assert point.fails_at is None
    assert point.critical_value == point.protects_at
    # cap_hit round-trips the artifact envelope and its schema.
    assert list(MitigationResults.from_json(results.to_json())) == [point]


def test_campaign_emits_observability_events(small):
    class Recorder:
        def __init__(self):
            self.events = []

        def emit(self, record):
            self.events.append(record)

        def close(self):
            pass

    recorder = Recorder()
    obs = Observability(reporters=[recorder])
    campaign = MitigationCampaign(obs=obs)
    campaign.run(
        chips=CHIPS,
        mitigations=("para",),
        t_values=(36.0,),
        patterns=(DOUBLE_SIDED,),
        validate=True,
    )
    names = [record["event"] for record in recorder.events]
    assert names[0] == "campaign_start"
    assert names[-1] == "campaign_finish"
    assert "validate" in names
    snapshot = obs.metrics.snapshot()
    assert snapshot["gauges"]["campaign.n_measurements"] == 1
    assert campaign.last_report.metrics is not None


# ---------------------------------------------------- checkpoint/resume


def test_campaign_kill_resume_bit_identical(tmp_path, small):
    """A campaign killed mid-flight resumes from its journal and ends
    bit-identical to the uninterrupted reference run."""
    journal = tmp_path / "mitigation.ckpt"
    policy = RetryPolicy(max_retries=0, backoff_base=0.0)
    faults = FaultPlan([FaultSpec(shard_index=2, kind="raise", times=1)])
    with pytest.raises(ShardFailedError, match="injected fault"):
        run_small(
            policy=policy, checkpoint=str(journal), fault_plan=faults
        )
    assert journal.exists()  # shards 0-1 are journaled

    campaign, resumed = run_small(checkpoint=str(journal), resume=True)
    assert campaign.last_report.n_resumed == 2
    assert campaign.last_report.n_executed == 2
    assert mitigation_results_digest(resumed) == mitigation_results_digest(
        small[1]
    )


def test_campaign_rejects_foreign_journal(tmp_path):
    journal = tmp_path / "foreign.ckpt"
    writer = CheckpointJournal(journal, codec=MITIGATION_CODEC)
    writer.start("0" * 16, 4)  # fingerprint of some other campaign
    writer.release()
    with pytest.raises(CheckpointError, match="fingerprint"):
        run_small(checkpoint=str(journal), resume=True)


# ------------------------------------------------------ validate layer


def test_validate_artifact_accepts_campaign_dump(tmp_path, small):
    path = tmp_path / "mitigation.json"
    small[1].dump(path, digest=True)
    report = validate_artifact(path)
    assert report.kind == "mitigation"
    assert report.n_records == 8
    sidecar = validate_artifact(tmp_path / "mitigation.json.sha256")
    assert sidecar.kind == "sidecar"


def test_validate_artifact_catches_corruption(tmp_path, small):
    path = tmp_path / "mitigation.json"
    small[1].dump(path, digest=True)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b'"para"', b'"pare"', 1))
    with pytest.raises(ArtifactCorruptError):
        validate_artifact(path)


def test_validate_artifact_catches_bad_fields(tmp_path, small):
    # "Triple Sided!" fails even the open DSL name grammar (names like
    # "triple-sided" are admissible DSL pattern names since the DSL).
    payload = json.loads(small[1].to_json())
    payload["points"][0]["pattern"] = "Triple Sided!"
    path = tmp_path / "bad-field.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ArtifactInvalidError, match="pattern"):
        validate_artifact(path)


def test_validate_artifact_catches_invariant_violations(tmp_path):
    broken = MitigationResults(
        [make_point(baseline_acmin=10),
         make_point(t_on=636.0, baseline_acmin=20)]
    )
    path = tmp_path / "broken.json"
    broken.dump(path)
    with pytest.raises(InvariantViolationError, match="M2"):
        validate_artifact(path)
    # Schema-only mode still accepts it: the shape is legal.
    assert validate_artifact(path, check_invariants=False).n_records == 2


# ---------------------------------------------------------------- CLI


def test_cli_mitigate_end_to_end(tmp_path, capsys):
    """The acceptance demo: a checkpointed, validated campaign whose
    table shows required strength rising from tRAS to the combined
    points, whose dump passes ``repro-characterize validate``."""
    dump = tmp_path / "mitigation.json"
    journal = tmp_path / "mitigation.ckpt"
    code = main([
        "mitigate",
        "--chips", "E0",
        "--mitigations", "para", "graphene",
        "--checkpoint", str(journal),
        "--dump", str(dump),
        "--validate",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "tAggON" in out and "para [p]" in out and "graphene [thr]" in out
    assert "Required para probability vs tAggON" in out
    assert "Required graphene threshold vs tAggON" in out
    assert journal.exists() and dump.exists()
    assert (tmp_path / "mitigation.json.sha256").exists()

    results = MitigationResults.load(dump)
    assert len(results) == len(MECHS) * len(ALL_PATTERNS) * len(
        MITIGATION_T_VALUES
    )
    assert check_mitigation_invariants(results) == []

    code = main(["validate", str(dump), str(journal)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 2

    # Resuming against the complete journal reruns nothing.
    code = main([
        "mitigate",
        "--chips", "E0",
        "--mitigations", "para", "graphene",
        "--checkpoint", str(journal),
        "--resume",
        "--csv",
    ])
    csv_out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in csv_out.splitlines() if line]
    assert lines[0].startswith("chip,mitigation,pattern,t_agg_on_ns")
    assert len(lines) == 1 + len(results)


def test_cli_mitigate_rejects_unknown_mechanism(tmp_path, capsys):
    code = main(["mitigate", "--mitigations", "blockhammer"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown mitigation" in captured.err


@pytest.mark.parametrize(
    "flag,value",
    [("--modules", "S0"), ("--points", "3"), ("--t-max", "7800"),
     ("--trials", "2")],
)
def test_cli_mitigate_rejects_characterization_flags(
    flag, value, capsys, monkeypatch
):
    """mitigate sweeps its own points: a sweep flag is a usage error,
    reported before the campaign is built."""
    import repro.mitigations.campaign as campaign_module

    def no_campaign(*args, **kwargs):
        raise AssertionError(f"mitigate ran despite {flag}")

    monkeypatch.setattr(campaign_module, "MitigationCampaign", no_campaign)
    code = main(["mitigate", "--chips", "E0", "--mitigations", "para",
                 flag, value])
    assert code == 2
    assert flag in capsys.readouterr().err


def test_cli_validate_flags_tampered_dump(tmp_path, capsys):
    results = MitigationResults([make_point()])
    path = tmp_path / "tampered.json"
    results.dump(path, digest=True)
    raw = path.read_text()
    path.write_text(raw.replace('"t_on": 36.0', '"t_on": 37.0'))
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL" in out
