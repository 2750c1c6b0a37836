"""Tests for the artifact validation subsystem (``repro.validate``).

Four layers under test: digest integrity (any flipped byte raises
``ArtifactCorruptError`` naming the file), versioned schema validation
(path-to-field ``ArtifactInvalidError`` messages), physical-invariant
guards (the paper's ACmin monotonicity, degeneracy, ordering, timing and
anchor claims), and provenance drift reporting.  The CLI ``validate``
mode is exercised end to end, including its exit codes.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.atomicio import (
    digest_path,
    read_digest,
    sha256_text,
    verify_digest,
    write_digest,
)
from repro.constants import DDR4Timings
from repro.core.results import DieMeasurement, ResultSet
from repro.core.runner import CharacterizationRunner
from repro.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactInvalidError,
    InvariantViolationError,
    ReproError,
)
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry, MetricsReport
from repro.obs.progress import JsonlTrace
from repro.validate import (
    ArtifactReport,
    check_cross_executor,
    check_provenance,
    check_result_invariants,
    detect_kind,
    provenance_stamp,
    require_result_invariants,
    results_digest,
    validate_artifact,
    validate_paths,
)
from repro.validate.integrity import verify_journal_bytes
from repro.validate.schema import (
    validate_bench_payload,
    validate_journal_header,
    validate_metrics_payload,
    validate_results_payload,
    validate_trace_event,
)

pytestmark = pytest.mark.validate

TIMINGS = DDR4Timings()


def per_act_ns(pattern: str, t_on: float) -> float:
    if pattern == "combined":
        return (t_on + TIMINGS.tRAS) / 2.0 + TIMINGS.tRP
    return t_on + TIMINGS.tRP


def rec(module="X0", mfr="X", die=0, pattern="double-sided", t_on=36.0,
        trial=0, acmin=100, time_ns="auto"):
    """A physically consistent measurement (time derived from acmin)."""
    if time_ns == "auto":
        time_ns = None if acmin is None else acmin * per_act_ns(pattern, t_on)
    return DieMeasurement(
        module_key=module, manufacturer=mfr, die=die, pattern=pattern,
        t_on=t_on, trial=trial, acmin=acmin, time_to_first_ns=time_ns,
    )


# ================================================================ errors


def test_artifact_errors_derive_from_repro_error():
    for exc in (ArtifactError, ArtifactInvalidError, ArtifactCorruptError,
                InvariantViolationError):
        assert issubclass(exc, ReproError)
    assert issubclass(ArtifactInvalidError, ArtifactError)
    assert issubclass(ArtifactCorruptError, ArtifactError)


# ============================================================= integrity


def test_digest_sidecar_round_trip(tmp_path):
    target = tmp_path / "artifact.json"
    target.write_text('{"x": 1}\n')
    write_digest(target)
    assert digest_path(target) == tmp_path / "artifact.json.sha256"
    assert read_digest(target) == sha256_text('{"x": 1}\n')
    verify_digest(target, required=True)  # no raise


def test_digest_mismatch_names_file_and_both_digests(tmp_path):
    target = tmp_path / "artifact.json"
    target.write_text('{"x": 1}\n')
    write_digest(target)
    good = read_digest(target)
    target.write_text('{"x": 2}\n')
    with pytest.raises(ArtifactCorruptError) as excinfo:
        verify_digest(target)
    message = str(excinfo.value)
    assert "artifact.json" in message
    assert good in message
    assert sha256_text('{"x": 2}\n') in message


def test_malformed_sidecar_rejected(tmp_path):
    target = tmp_path / "artifact.json"
    target.write_text("data\n")
    digest_path(target).write_text("not-a-digest\n")
    with pytest.raises(ArtifactInvalidError):
        read_digest(target)


def test_verify_digest_optional_vs_required(tmp_path):
    target = tmp_path / "artifact.json"
    target.write_text("data\n")
    assert verify_digest(target) is None  # no sidecar: nothing to check
    with pytest.raises(ArtifactCorruptError):
        verify_digest(target, required=True)


def test_journal_prefix_fallback_covers_stale_sidecar(tmp_path):
    """An append that outlived its sidecar restamp is tolerated: the
    sidecar covers everything but the final line."""
    journal = tmp_path / "j.jsonl"
    prefix = '{"format": "repro-checkpoint-v1"}\n{"shard": 0}\n'
    journal.write_text(prefix)
    write_digest(journal)
    journal.write_text(prefix + '{"shard": 1}\n')  # sidecar now stale
    verified, note = verify_journal_bytes(journal, journal.read_bytes())
    assert verified
    assert note is not None and "final" in note
    # Corruption *inside* the covered prefix is never tolerated.
    journal.write_text(prefix.replace('"shard": 0', '"shard": 9'))
    with pytest.raises(ArtifactCorruptError):
        verify_journal_bytes(journal, journal.read_bytes())


# ================================================================ schema


def test_results_unknown_format_rejected():
    with pytest.raises(ArtifactInvalidError, match=r"\$\.format"):
        validate_results_payload(
            {"format": "repro-results-v99", "measurements": []}
        )


def test_results_legacy_flat_list_accepted():
    payload = json.loads(ResultSet([rec()]).to_json())
    assert validate_results_payload(payload) == {"legacy": False}
    assert validate_results_payload(payload["measurements"]) == {
        "legacy": True
    }


def test_results_duplicate_identity_names_both_indices():
    records = json.loads(
        ResultSet([rec(), rec()]).to_json()
    )
    with pytest.raises(ArtifactInvalidError) as excinfo:
        validate_results_payload(records)
    message = str(excinfo.value)
    assert "$.measurements[1]" in message
    assert "$.measurements[0]" in message


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda r: r.pop("t_on"), "$.measurements[0].t_on"),
        (lambda r: r.update(die="zero"), "$.measurements[0].die"),
        (lambda r: r.update(die=True), "$.measurements[0].die"),
        # Must fail even the open DSL name grammar ("sideways" would be
        # an admissible DSL pattern name).
        (lambda r: r.update(pattern="Side Ways!"), "$.measurements[0].pattern"),
        (lambda r: r.update(t_on=-1.0), "$.measurements[0].t_on"),
        (lambda r: r.update(acmin=0), "$.measurements[0].acmin"),
        (lambda r: r.update(acmin=None), "$.measurements[0].time_to_first_ns"),
        (lambda r: r.update(trial=-1), "$.measurements[0].trial"),
    ],
)
def test_results_schema_errors_name_the_field(mutate, path_fragment):
    payload = json.loads(ResultSet([rec()]).to_json())
    mutate(payload["measurements"][0])
    with pytest.raises(ArtifactInvalidError) as excinfo:
        validate_results_payload(payload, source="dump.json")
    message = str(excinfo.value)
    assert message.startswith("dump.json: ")
    assert path_fragment in message


def test_nan_sanitized_time_is_legal():
    # Serialization nulls a non-finite time while acmin stays set; the
    # schema must accept that shape (see test_obs's NaN round-trip).
    payload = json.loads(
        ResultSet([rec(acmin=100, time_ns=float("nan"))]).to_json()
    )
    assert payload["measurements"][0]["time_to_first_ns"] is None
    validate_results_payload(payload)


def test_journal_header_schema():
    validate_journal_header(
        {"format": "repro-checkpoint-v1", "fingerprint": "abc", "n_shards": 2}
    )
    with pytest.raises(ArtifactInvalidError, match="fingerprint"):
        validate_journal_header(
            {"format": "repro-checkpoint-v1", "n_shards": 2}
        )
    with pytest.raises(ArtifactInvalidError, match=r"\$\.format"):
        validate_journal_header({"format": "nope", "n_shards": 2})


def test_metrics_schema():
    def payload(**overrides):
        base = {
            "format": "repro-metrics-v1",
            "counters": {"a": 1},
            "gauges": {},
            "timers": {},
        }
        base.update(overrides)
        return base

    validate_metrics_payload(payload())
    with pytest.raises(ArtifactInvalidError, match=r"\$\.counters\.a"):
        validate_metrics_payload(payload(counters={"a": -1}))
    with pytest.raises(ArtifactInvalidError, match=r"\$\.timers\.t"):
        validate_metrics_payload(payload(timers={"t": {"count": 1}}))


def test_trace_event_schema():
    validate_trace_event({"event": "shard_start", "t": 1.0}, 1)
    with pytest.raises(ArtifactInvalidError, match="line 3"):
        validate_trace_event({"event": "shard_start"}, 3)


def test_bench_schema_accepts_per_engine_speedups():
    payload = {
        "campaign": {"n_modules": 1},
        "seconds": {"seed": 1.0, "engine_serial": 0.5},
        "speedup_vs_seed": {"engine_serial": 2.0},
    }
    validate_bench_payload(payload)
    payload["speedup_vs_seed"]["engine_serial"] = 0.0
    with pytest.raises(
        ArtifactInvalidError, match=r"\$\.speedup_vs_seed\.engine_serial"
    ):
        validate_bench_payload(payload)


# ========================================================= kind detection


def test_detect_kind_each_artifact(tmp_path):
    cases = {
        "dump.json": (ResultSet([rec()]).to_json(), "results"),
        "legacy.json": (
            json.dumps(json.loads(ResultSet([rec()]).to_json())["measurements"]),
            "results",
        ),
        "metrics.json": (
            json.dumps({"format": "repro-metrics-v1", "counters": {}}),
            "metrics",
        ),
        "bench.json": (
            json.dumps({"seconds": {}, "speedup_vs_seed": {}}),
            "bench",
        ),
        "trace.jsonl": (
            '{"event": "campaign_start", "t": 0.0}\n'
            '{"event": "campaign_finish", "t": 1.0}\n',
            "trace",
        ),
        "ckpt.jsonl": (
            '{"format": "repro-checkpoint-v1", "fingerprint": "f",'
            ' "n_shards": 1}\n{"shard": 0, "measurements": []}\n',
            "checkpoint",
        ),
    }
    for name, (text, expected) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert detect_kind(path) == expected, name
    assert detect_kind(tmp_path / "anything.sha256") == "sidecar"


def test_detect_kind_rejects_garbage(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(ArtifactInvalidError, match="empty"):
        detect_kind(empty)
    binary = tmp_path / "binary.bin"
    binary.write_bytes(b"\xff\xfe\x00\x01")
    with pytest.raises(ArtifactCorruptError):
        detect_kind(binary)
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"who": "knows"}')
    with pytest.raises(ArtifactInvalidError, match="no known artifact kind"):
        detect_kind(unknown)


# ==================================================== validate_artifact


def test_validate_results_dump_with_digest(tmp_path):
    target = tmp_path / "dump.json"
    ResultSet([rec()]).dump(target, digest=True)
    report = validate_artifact(target, check_invariants=False)
    assert isinstance(report, ArtifactReport)
    assert report.kind == "results"
    assert report.digest_verified
    assert report.n_records == 1
    assert not report.legacy


def test_validate_flipped_dump_raises_corrupt(tmp_path):
    target = tmp_path / "dump.json"
    ResultSet([rec()]).dump(target, digest=True)
    raw = bytearray(target.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    target.write_bytes(bytes(raw))
    with pytest.raises(ArtifactCorruptError) as excinfo:
        validate_artifact(target)
    assert "dump.json" in str(excinfo.value)


def test_validate_journal_detects_mid_file_garbage(tmp_path):
    journal = tmp_path / "j.jsonl"
    journal.write_text(
        '{"format": "repro-checkpoint-v1", "fingerprint": "f", "n_shards": 3}\n'
        "GARBAGE NOT JSON\n"
        '{"shard": 1, "measurements": []}\n'
    )
    with pytest.raises(ArtifactCorruptError, match="line 2"):
        validate_artifact(journal)


def test_validate_journal_tolerates_torn_tail(tmp_path):
    journal = tmp_path / "j.jsonl"
    journal.write_text(
        '{"format": "repro-checkpoint-v1", "fingerprint": "f", "n_shards": 3}\n'
        '{"shard": 0, "measurements": []}\n'
        '{"shard": 1, "measu'
    )
    report = validate_artifact(journal)
    assert report.n_records == 1
    assert any("torn" in warning for warning in report.warnings)


def test_validate_journal_duplicate_and_out_of_range_shards(tmp_path):
    journal = tmp_path / "j.jsonl"
    header = (
        '{"format": "repro-checkpoint-v1", "fingerprint": "f", "n_shards": 2}\n'
    )
    journal.write_text(
        header
        + '{"shard": 0, "measurements": []}\n'
        + '{"shard": 0, "measurements": []}\n'
    )
    with pytest.raises(ArtifactInvalidError, match="already"):
        validate_artifact(journal)
    journal.write_text(header + '{"shard": 5, "measurements": []}\n')
    with pytest.raises(ArtifactInvalidError, match="declares only 2"):
        validate_artifact(journal)


def test_validate_metrics_report(tmp_path):
    registry = MetricsRegistry()
    registry.inc("shards.completed", 3)
    obs = Observability(metrics=registry)
    target = tmp_path / "metrics.json"
    MetricsReport.build(obs, provenance=True).write(target, digest=True)
    report = validate_artifact(target)
    assert report.kind == "metrics"
    assert report.digest_verified
    raw = bytearray(target.read_bytes())
    raw[10] ^= 0x01
    target.write_bytes(bytes(raw))
    with pytest.raises(ArtifactCorruptError):
        validate_artifact(target)


def test_validate_trace_with_digest(tmp_path):
    target = tmp_path / "trace.jsonl"
    trace = JsonlTrace(target, digest=True)
    trace.emit({"event": "campaign_start", "t": 0.0})
    trace.emit({"event": "campaign_finish", "t": 1.0})
    trace.close()
    report = validate_artifact(target)
    assert report.kind == "trace"
    assert report.digest_verified
    assert report.n_records == 2
    raw = bytearray(target.read_bytes())
    raw[5] ^= 0x01
    target.write_bytes(bytes(raw))
    with pytest.raises(ArtifactCorruptError):
        validate_artifact(target)


def test_validate_sidecar_checks_its_target(tmp_path):
    target = tmp_path / "dump.json"
    ResultSet([rec()]).dump(target, digest=True)
    report = validate_artifact(digest_path(target))
    assert report.kind == "sidecar"
    assert report.digest_verified
    orphan = tmp_path / "gone.json.sha256"
    orphan.write_text("0" * 64 + "  gone.json\n")
    with pytest.raises(ArtifactInvalidError, match="does not exist"):
        validate_artifact(orphan)


def test_validate_paths_isolates_failures(tmp_path):
    good = tmp_path / "good.json"
    ResultSet([rec()]).dump(good, digest=True)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\x00\x01\x02")
    outcomes = validate_paths([good, bad], check_invariants=False)
    assert outcomes[0][1] is not None and outcomes[0][2] is None
    assert outcomes[1][1] is None
    assert isinstance(outcomes[1][2], ArtifactError)


# ===================================================== physical invariants


def test_invariants_clean_synthetic_curve_passes():
    results = ResultSet([
        rec(t_on=36.0, acmin=200),
        rec(t_on=636.0, acmin=150),
        rec(t_on=7_800.0, acmin=100),
        rec(t_on=70_200.0, acmin=None),  # censored tail is legal
    ])
    assert check_result_invariants(results) == []


def test_i1_monotonicity_violation():
    results = ResultSet([
        rec(t_on=36.0, acmin=100),
        rec(t_on=636.0, acmin=120),
    ])
    violations = check_result_invariants(results)
    assert any(v.startswith("I1") for v in violations)


def test_i2_rowhammer_degeneracy_violation():
    results = ResultSet([
        rec(pattern="double-sided", t_on=36.0, acmin=100),
        rec(pattern="combined", t_on=36.0, acmin=102),
    ])
    violations = check_result_invariants(results)
    assert any(v.startswith("I2") for v in violations)


def test_i3_combined_ordering_violation():
    # Combined 4x slower than double-sided at a RowPress anchor.
    results = ResultSet([
        rec(pattern="double-sided", t_on=7_800.0, acmin=100),
        rec(pattern="combined", t_on=7_800.0, acmin=400),
    ])
    violations = check_result_invariants(results)
    assert any(v.startswith("I3") for v in violations)


def test_i4_timing_identity_violation():
    results = ResultSet([rec(acmin=100, time_ns=999.0)])
    violations = check_result_invariants(results)
    assert any(v.startswith("I4") for v in violations)


def test_i5_activation_parity_violation():
    results = ResultSet([rec(pattern="double-sided", acmin=101)])
    violations = check_result_invariants(results)
    assert any(v.startswith("I5") for v in violations)
    # Single-sided activates one aggressor per iteration: odd is fine.
    assert check_result_invariants(
        ResultSet([rec(pattern="single-sided", acmin=101)])
    ) == []


def test_i6_anchor_drift_on_miscalibrated_fixture():
    from repro.dram.profiles import MODULE_PROFILES

    # Table 2 publishes population means, so the drift check needs the
    # full die sample (8 dies for S0).  S0's published RowHammer
    # baseline is ACmin=45000; a 60000 mean is 33% off.
    n_dies = MODULE_PROFILES["S0"].n_dies
    results = ResultSet([
        rec(module="S0", mfr="Samsung", die=d, pattern="double-sided",
            t_on=36.0, acmin=60_000)
        for d in range(n_dies)
    ])
    violations = check_result_invariants(results)
    assert any(v.startswith("I6") and "S0" in v for v in violations)
    # On-anchor values pass.
    assert check_result_invariants(ResultSet([
        rec(module="S0", mfr="Samsung", die=d, pattern="double-sided",
            t_on=36.0, acmin=45_000)
        for d in range(n_dies)
    ])) == []


def test_i6_partial_die_sample_skips_drift_comparison():
    # A single die can legitimately sit far from the population mean
    # (real S0 die 0 measures combined@7.8us ACmin=3202 vs the Table 2
    # mean of 11400), so I6's mean comparison only arms on a full die
    # sample.
    partial = ResultSet([
        rec(module="S0", mfr="Samsung", pattern="combined",
            t_on=7_800.0, acmin=3_202),
    ])
    assert check_result_invariants(partial) == []


def test_i6_measured_value_where_profile_says_no_bitflip():
    from repro.dram.profiles import MODULE_PROFILES

    # M1 is press-immune: Table 2 publishes No Bitflip at the RowPress
    # anchors, so any measured value there marks corrupted data.
    assert MODULE_PROFILES["M1"].acmin_rp[7_800.0] is None
    measured = ResultSet([
        rec(module="M1", mfr="Micron", pattern="double-sided",
            t_on=7_800.0, acmin=100),
    ])
    violations = check_result_invariants(measured)
    assert any("No Bitflip" in v for v in violations)
    # The censored twin of the same cell is legitimate.
    censored = ResultSet([
        rec(module="M1", mfr="Micron", pattern="double-sided",
            t_on=7_800.0, acmin=None),
    ])
    assert check_result_invariants(censored) == []


def test_require_result_invariants_lists_violations():
    results = ResultSet([rec(acmin=100, time_ns=999.0)])
    with pytest.raises(InvariantViolationError) as excinfo:
        require_result_invariants(results, source="dump.json")
    message = str(excinfo.value)
    assert message.startswith("dump.json: ")
    assert "I4" in message


def test_invariants_pass_on_all_14_modules(fast_config, fast_runner):
    from repro.dram.profiles import MODULE_PROFILES
    from repro.system import build_modules

    modules = build_modules(sorted(MODULE_PROFILES), fast_config)
    results = fast_runner.characterize(
        modules, [36.0, 636.0, 7_800.0, 70_200.0], trials=1
    )
    assert check_result_invariants(results) == []


def test_validate_artifact_runs_invariants_on_dumps(tmp_path):
    target = tmp_path / "dump.json"
    ResultSet([rec(acmin=100, time_ns=999.0)]).dump(target)
    with pytest.raises(InvariantViolationError, match="I4"):
        validate_artifact(target)
    validate_artifact(target, check_invariants=False)  # schema-only: ok


# ============================================================ determinism


def test_results_digest_is_order_independent():
    a = ResultSet([rec(t_on=36.0), rec(t_on=636.0, acmin=80)])
    b = ResultSet([rec(t_on=636.0, acmin=80), rec(t_on=36.0)])
    assert results_digest(a) == results_digest(b)
    c = ResultSet([rec(t_on=36.0), rec(t_on=636.0, acmin=82)])
    assert results_digest(a) != results_digest(c)


def test_check_cross_executor_returns_common_digest(fast_config):
    digest = check_cross_executor(config=fast_config)
    # Pinned: a refactor that moves serial and process alike still fails.
    assert digest == (
        "b88e784988057c414bba71c66d03dd3785e44241774d9d0cffacdf5ef49483cc"
    )
    # Deterministic across invocations too.
    assert check_cross_executor(config=fast_config) == digest


def test_check_cross_executor_rejects_bad_arguments(fast_config, monkeypatch):
    from repro.errors import ExperimentError

    campaigns = []

    def no_campaign(self, *args, **kwargs):
        campaigns.append(args)
        raise AssertionError("a campaign ran before the arguments were checked")

    monkeypatch.setattr(CharacterizationRunner, "characterize", no_campaign)
    with pytest.raises(ExperimentError, match="at least two"):
        check_cross_executor(config=fast_config, executors=("serial",))
    with pytest.raises(ExperimentError, match="unknown executor"):
        check_cross_executor(
            config=fast_config, executors=("serial", "quantum")
        )
    # "process" is the platform's pool; no name pins a worker-state mode.
    with pytest.raises(ExperimentError, match="unknown executor"):
        check_cross_executor(
            config=fast_config, executors=("serial", "process-shm")
        )
    assert campaigns == []


# ============================================================= provenance


def test_provenance_stamp_fields_and_no_self_drift():
    stamp = provenance_stamp()
    assert set(stamp) == {
        "python", "numpy", "platform", "machine", "seed_scheme"
    }
    assert check_provenance(stamp) == []


def test_provenance_drift_reported_per_field():
    stamp = dict(provenance_stamp())
    stamp["python"] = "2.7.18"
    drift = check_provenance(stamp)
    assert len(drift) == 1 and "python" in drift[0]
    assert check_provenance({"python": stamp["python"]})  # missing fields
    assert check_provenance("not a dict")


# ================================================== engine self-check


def test_engine_self_check_counts_into_metrics(fast_config, s0_module):
    obs = Observability(metrics=MetricsRegistry())
    runner = CharacterizationRunner(fast_config, obs=obs)
    results = runner.characterize(
        [s0_module], [36.0, 636.0], trials=1, validate=True
    )
    assert len(results)
    assert obs.metrics.counter("validate.passed") == 1
    assert obs.metrics.counter("validate.failed") == 0
    assert runner.last_report.provenance["seed_scheme"] == (
        "blake2b-seedsequence-v1"
    )


# ==================================================================== CLI


def _dump_with_sidecar(tmp_path, name="dump.json"):
    target = tmp_path / name
    ResultSet([
        rec(module="S0", mfr="Samsung", pattern="double-sided",
            t_on=36.0, acmin=45_000),
    ]).dump(target, digest=True)
    return target


def test_cli_validate_passes_clean_artifacts(tmp_path, capsys):
    from repro.cli import main

    target = _dump_with_sidecar(tmp_path)
    assert main(["validate", str(target)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "1/1" in out


def test_cli_validate_fails_on_corruption(tmp_path, capsys):
    from repro.cli import main

    target = _dump_with_sidecar(tmp_path)
    flipped = tmp_path / "flipped.json"
    flipped.write_bytes(target.read_bytes())
    shutil.copy(digest_path(target), digest_path(flipped))
    raw = bytearray(flipped.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    flipped.write_bytes(bytes(raw))
    assert main(["validate", str(target), str(flipped)]) == 2
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" in out and "1/2" in out


def test_cli_validate_requires_paths(capsys):
    from repro.cli import main

    assert main(["validate"]) == 2
    assert "PATH" in capsys.readouterr().err


def test_cli_paths_rejected_outside_validate_mode(tmp_path, capsys):
    from repro.cli import main

    assert main(["table1", str(tmp_path / "x.json")]) == 2
    assert "validate" in capsys.readouterr().err
