"""Observability-layer tests: metrics, events, tracing, journal appends.

The contract under test:

* observability is *opt-in* and never changes results -- a campaign run
  with an :class:`~repro.obs.Observability` attached produces a
  ResultSet bit-identical to an uninstrumented run, with identical
  counter totals across the in-process executors;
* the event stream narrates the campaign (start / shard finish with ETA
  / retry / resume / finish) and the JSONL trace is strict RFC 8259
  JSON line by line;
* the checkpoint journal appends O(1) bytes per recorded shard and
  survives a crash mid-append (torn trailing line) on resume;
* every JSON artifact encodes non-finite floats as ``null``;
* the CLI pins its exit codes: 0 on success, 2 on usage errors and on
  :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import io
import json
import logging

import numpy as np
import pytest

from repro.core import checkpoint as checkpoint_mod
from repro.core.bitflips import BitflipCensus
from repro.core.checkpoint import CheckpointJournal, plan_fingerprint
from repro.core.engine import (
    ProcessExecutor,
    SerialExecutor,
    SweepPlan,
)
from repro.core.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.core.results import DieMeasurement, ResultSet, measurement_to_record
from repro.core.runner import CharacterizationRunner
from repro.errors import CheckpointError
from repro.obs import (
    JsonlTrace,
    MetricsRegistry,
    MetricsReport,
    Observability,
    ProgressReporter,
    StderrProgress,
    sanitize_nonfinite,
)
from repro.patterns import ALL_PATTERNS

pytestmark = pytest.mark.obs

T_VALUES = [36.0, 7_800.0]


class ListReporter(ProgressReporter):
    """Collects the raw event stream for assertions."""

    def __init__(self) -> None:
        self.events = []
        self.closed = False

    def emit(self, event):
        self.events.append(event)

    def close(self):
        self.closed = True

    def of(self, kind):
        return [e for e in self.events if e["event"] == kind]


def _strict_loads(text: str):
    """json.loads that rejects NaN/Infinity literals (RFC 8259 mode)."""

    def reject(token):
        raise ValueError(f"non-RFC-8259 literal {token!r}")

    return json.loads(text, parse_constant=reject)


def _characterize(config, module, obs=None, executor=None, **kwargs):
    runner = CharacterizationRunner(config, obs=obs)
    results = runner.characterize(
        [module], T_VALUES, ALL_PATTERNS, trials=2,
        executor=executor or SerialExecutor(), **kwargs,
    )
    return runner, results


# ------------------------------------------------------------- registry


def test_registry_counters_gauges_timers():
    registry = MetricsRegistry()
    registry.inc("a")
    registry.inc("a", 4)
    registry.gauge("g", 2.5)
    registry.gauge("g", 3.5)  # last write wins
    for value in (0.1, 0.2, 0.3, 0.4):
        registry.observe("t", value)
    with registry.timer("span"):
        pass
    snap = registry.snapshot()
    assert snap["counters"] == {"a": 5}
    assert snap["gauges"] == {"g": 3.5}
    timer = snap["timers"]["t"]
    assert timer["count"] == 4
    assert timer["total_s"] == pytest.approx(1.0)
    assert timer["min_s"] == pytest.approx(0.1)
    assert timer["max_s"] == pytest.approx(0.4)
    assert timer["p50_s"] == pytest.approx(0.2)
    assert timer["p90_s"] == pytest.approx(0.4)
    assert snap["timers"]["span"]["count"] == 1
    assert registry.counter("a") == 5
    assert registry.counter("missing") == 0


def test_cache_hit_rates_derivation():
    registry = MetricsRegistry()
    registry.inc("cache.analyzer.hits", 3)
    registry.inc("cache.analyzer.misses", 1)
    rates = registry.cache_hit_rates()
    assert rates == {"analyzer": pytest.approx(0.75), "measurement": None}
    # An untouched cache has no rate, not 0/0.


def test_sanitize_nonfinite():
    dirty = {
        "nan": float("nan"),
        "inf": float("inf"),
        "nested": [1.0, float("-inf"), {"x": float("nan")}],
        "ok": 2.5,
    }
    clean = sanitize_nonfinite(dirty)
    assert clean == {"nan": None, "inf": None, "nested": [1.0, None, {"x": None}], "ok": 2.5}


# --------------------------------------------- engine integration parity


def test_observability_never_changes_results(fast_config, s0_module):
    """Instrumented and uninstrumented campaigns are bit-identical."""
    _, plain = _characterize(fast_config, s0_module)
    _, observed = _characterize(
        fast_config, s0_module, obs=Observability(reporters=[ListReporter()])
    )
    assert list(plain) == list(observed)
    assert plain.to_json(include_census=True) == observed.to_json(
        include_census=True
    )


def test_serial_counter_totals(fast_config, s0_module):
    """The serial executor counts every shard and cache lookup."""
    obs_serial = Observability()
    _, serial = _characterize(
        fast_config, s0_module, obs=obs_serial, executor=SerialExecutor()
    )
    counters_serial = obs_serial.metrics.snapshot()["counters"]
    n_shards = s0_module.n_dies
    assert counters_serial["shards.completed"] == n_shards
    assert counters_serial["cache.analyzer.misses"] == n_shards
    # Two trials per point, nothing pre-cached: every lookup misses.
    assert counters_serial["cache.measurement.hits"] == 0
    assert counters_serial["cache.measurement.misses"] == len(serial)


def test_process_executor_counters_and_identity(fast_config, s0_module):
    """The pool path counts shards caller-side (workers stay clean)."""
    obs = Observability()
    _, serial = _characterize(fast_config, s0_module)
    _, pooled = _characterize(
        fast_config, s0_module, obs=obs, executor=ProcessExecutor(2)
    )
    assert list(serial) == list(pooled)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["shards.completed"] == s0_module.n_dies
    # The registry never crosses the pickle boundary, so in-worker cache
    # traffic is not aggregated.
    assert not any(name.startswith("cache.") for name in counters)
    assert "shard.wall_seconds" in obs.metrics.snapshot()["timers"]


def test_measurement_cache_hits_on_revisit(fast_config, s0_module):
    """Anchor campaigns revisiting sweep points hit the runner cache."""
    obs = Observability()
    runner = CharacterizationRunner(fast_config, obs=obs)
    first = runner.characterize([s0_module], T_VALUES, ALL_PATTERNS, trials=2)
    again = runner.characterize([s0_module], T_VALUES, ALL_PATTERNS, trials=2)
    assert list(first) == list(again)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["cache.measurement.hits"] == len(first)
    assert counters["cache.measurement.misses"] == len(first)


#: The campaign envelope of a checkpointed ``validate=True`` serial run,
#: per campaign kind: (event-name sequence, counter names, dump sha256).
#: Both kinds share one envelope, so a reordered start/finish, a moved
#: self-check or a lost counter shows here, not just in the first and
#: last event.
_ENVELOPES = {
    "characterization": (
        ["campaign_start", "preflight"]
        + ["shard_start", "shard_finish"] * 8
        + ["validate", "campaign_finish"],
        {
            "cache.analyzer.misses",
            "cache.measurement.hits",
            "cache.measurement.misses",
            "preflight.modules",
            "shards.completed",
            "validate.passed",
        },
        "8141f359dfbf0f49a07ce1489b4e60ca5cfea98a514aa813bfb6c66b267d4265",
    ),
    "mitigation": (
        ["campaign_start", "preflight"]
        + ["shard_start", "shard_finish"] * 3
        + ["validate", "campaign_finish"],
        {"shards.completed", "validate.passed"},
        "e2b4c69eaf62266b3c8a98b864644337b20ec6bbe6678b66655899cff9e4e88d",
    ),
}


@pytest.mark.parametrize("kind", sorted(_ENVELOPES))
def test_checkpointed_validated_run_envelope(
    kind, fast_config, s0_module, tmp_path
):
    from repro.atomicio import sha256_file
    from repro.mitigations.campaign import MitigationCampaign

    events, counter_names, dump_sha = _ENVELOPES[kind]
    reporter = ListReporter()
    obs = Observability(reporters=[reporter])
    checkpoint = tmp_path / "run.ckpt"
    dump = tmp_path / "run.json"
    if kind == "characterization":
        campaign = CharacterizationRunner(fast_config, obs=obs, backend="sim")
        results = campaign.characterize(
            [s0_module], T_VALUES, checkpoint=str(checkpoint), validate=True
        )
    else:
        campaign = MitigationCampaign(obs=obs, backend="sim")
        results = campaign.run(
            chips=("E0",), mitigations=("para",), t_values=T_VALUES,
            checkpoint=str(checkpoint), validate=True,
        )
    assert [e["event"] for e in reporter.events] == events
    report = campaign.last_report
    snapshot = obs.metrics.snapshot()
    assert set(snapshot["counters"]) == counter_names
    # The metrics snapshot lands on the report after the self-check.
    assert report.metrics["counters"] == snapshot["counters"]
    assert set(snapshot["gauges"]) == {
        "campaign.n_measurements", "campaign.seconds",
    }
    assert obs.last_run_report is report
    assert report.executors == ["serial"]
    assert report.n_executed == report.n_shards == len(events) // 2 - 2
    assert report.provenance and report.preflight
    results.dump(dump)
    assert sha256_file(dump) == dump_sha


def test_event_stream_shape_and_eta(fast_config, s0_module):
    reporter = ListReporter()
    runner, results = _characterize(
        fast_config, s0_module, obs=Observability(reporters=[reporter])
    )
    events = reporter.events
    assert events[0]["event"] == "campaign_start"
    assert events[-1]["event"] == "campaign_finish"
    n_shards = s0_module.n_dies
    assert events[0]["n_shards"] == n_shards
    assert events[0]["n_measurements"] == len(results)
    starts = reporter.of("shard_start")
    finishes = reporter.of("shard_finish")
    assert len(starts) == n_shards
    assert len(finishes) == n_shards
    for event in finishes:
        assert event["n_total"] == n_shards
        assert event["eta_s"] is not None and event["eta_s"] >= 0.0
    assert finishes[-1]["n_done"] == n_shards
    assert finishes[-1]["eta_s"] == pytest.approx(0.0)
    assert events[-1]["n_executed"] == n_shards
    # The run report carries the metrics snapshot.
    report = runner.last_report
    assert report.metrics is not None
    assert report.metrics["counters"]["shards.completed"] == n_shards
    assert "shard.execute_seconds" in report.metrics["timers"]
    assert "shard.queue_wait_seconds" in report.metrics["timers"]
    assert "shard execute p50" in report.summary()


def test_retry_counters_and_events(fast_config, s0_module):
    reporter = ListReporter()
    obs = Observability(reporters=[reporter])
    fault = FaultPlan([FaultSpec(shard_index=0, kind="raise", times=1)])
    runner = CharacterizationRunner(fast_config, obs=obs)
    runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=1,
        policy=RetryPolicy(max_retries=2, backoff_base=0.0),
        fault_plan=fault,
    )
    counters = obs.metrics.snapshot()["counters"]
    assert counters["shards.retried"] == 1
    retries = reporter.of("shard_retry")
    assert len(retries) == 1
    assert "shard 0" in retries[0]["label"]
    assert runner.last_report.n_retries == 1


def test_resume_emits_event_and_counter(fast_config, s0_module, tmp_path):
    journal_path = tmp_path / "resume.jsonl"
    CharacterizationRunner(fast_config).characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=1,
        checkpoint=str(journal_path),
    )
    reporter = ListReporter()
    obs = Observability(reporters=[reporter])
    CharacterizationRunner(fast_config, obs=obs).characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=1,
        checkpoint=str(journal_path), resume=True,
    )
    counters = obs.metrics.snapshot()["counters"]
    assert counters["shards.resumed"] == s0_module.n_dies
    resume_events = reporter.of("campaign_resume")
    assert len(resume_events) == 1
    assert resume_events[0]["n_resumed"] == s0_module.n_dies
    assert reporter.of("shard_finish") == []  # nothing re-executed


# ---------------------------------------------------------- reporters


def test_stderr_progress_lines(fast_config, s0_module):
    stream = io.StringIO()
    _characterize(
        fast_config, s0_module,
        obs=Observability(reporters=[StderrProgress(stream)]),
    )
    lines = stream.getvalue().splitlines()
    assert lines[0].startswith("campaign ")
    assert any("shard 0 (S0 die 0) done" in line for line in lines)
    assert "eta" in lines[1]
    assert lines[-1].startswith("campaign done in ")


def test_trace_schema_accepts_unknown_event_fields():
    """Traces written with extra per-event fields (e.g. the retired
    ``campaign_id`` tag) or retired event names (e.g. the device
    session's ``device_quarantine``) still validate: the schema is
    forward-open."""
    from repro.validate.schema import validate_trace_event

    event = {"event": "campaign_start", "t": 1.5, "campaign_id": "job-0042"}
    assert validate_trace_event(event, 1, "trace.jsonl") == "campaign_start"
    retired = {"event": "device_quarantine", "t": 2.0, "device": "noisy1"}
    assert validate_trace_event(retired, 2, "trace.jsonl") == "device_quarantine"


def test_jsonl_trace_is_strict_json(fast_config, s0_module, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    obs = Observability(reporters=[JsonlTrace(trace_path)])
    _characterize(fast_config, s0_module, obs=obs)
    obs.close()
    lines = trace_path.read_text().splitlines()
    events = [_strict_loads(line) for line in lines]
    assert events[0]["event"] == "campaign_start"
    assert events[-1]["event"] == "campaign_finish"
    for event in events:
        assert isinstance(event["t"], float)
        assert isinstance(event["event"], str)


def test_reporter_failures_never_kill_the_campaign(fast_config, s0_module):
    class Exploding(ProgressReporter):
        def emit(self, event):
            raise OSError("stream gone")

    obs = Observability(reporters=[Exploding()])
    _, plain = _characterize(fast_config, s0_module)
    _, observed = _characterize(fast_config, s0_module, obs=obs)
    assert list(plain) == list(observed)
    assert obs.metrics.counter("obs.emit_errors") > 0


def test_profile_span_and_cprofile_dir(fast_config, s0_module, tmp_path):
    obs = Observability(profile_dir=tmp_path / "prof")
    with obs.profile("setup"):
        pass
    assert obs.metrics.snapshot()["timers"]["profile.setup"]["count"] == 1
    _, plain = _characterize(fast_config, s0_module)
    _, profiled = _characterize(fast_config, s0_module, obs=obs)
    assert list(plain) == list(profiled)  # profiling never changes results
    stats = sorted(p.name for p in (tmp_path / "prof").iterdir())
    assert stats == [
        f"shard-{i:04d}.pstats" for i in range(s0_module.n_dies)
    ]


def test_metrics_report_build_and_write(fast_config, s0_module, tmp_path):
    obs = Observability()
    _characterize(fast_config, s0_module, obs=obs)
    out = tmp_path / "metrics.json"
    MetricsReport.build(obs).write(out)
    payload = _strict_loads(out.read_text())
    assert payload["format"] == "repro-metrics-v1"
    assert payload["counters"]["shards.completed"] == s0_module.n_dies
    assert payload["cache_hit_rates"]["analyzer"] == 0.0
    assert payload["run"]["n_executed"] == s0_module.n_dies
    assert payload["run"]["executors"] == ["serial"]


# --------------------------------------------------- journal append path


def _fake_measurement(trial: int) -> DieMeasurement:
    return DieMeasurement(
        module_key="S0",
        manufacturer="Samsung",
        die=0,
        pattern="combined",
        t_on=36.0,
        trial=trial,
        acmin=100 + trial,
        time_to_first_ns=1.5e6,
        census=BitflipCensus(frozenset({(1, 2)}), frozenset({(3, 4)})),
    )


def test_journal_record_appends_o1_bytes(tmp_path, monkeypatch):
    """record() writes exactly its own line -- never a journal rewrite."""
    path = tmp_path / "j.jsonl"
    journal = CheckpointJournal(path)
    journal.start("fp", 8)
    header_size = path.stat().st_size

    def no_rewrites(*args, **kwargs):
        raise AssertionError("record() must append, not rewrite atomically")

    monkeypatch.setattr(checkpoint_mod, "atomic_write_text", no_rewrites)
    sizes = [header_size]
    expected_line_bytes = []
    for index in range(8):
        measurements = [_fake_measurement(index)]
        entry = {
            "shard": index,
            "measurements": [
                measurement_to_record(m, include_census=True)
                for m in measurements
            ],
        }
        expected_line_bytes.append(
            len((json.dumps(entry, default=np.ndarray.tolist) + "\n").encode("utf-8"))
        )
        journal.record(index, measurements)
        sizes.append(path.stat().st_size)
    deltas = [b - a for a, b in zip(sizes, sizes[1:])]
    # O(1) per record: each record grows the file by exactly its own
    # encoded line, independent of how many records precede it.
    assert deltas == expected_line_bytes
    # And the journal still loads (no fingerprint check here: raw parse).
    journal.release()
    loaded = CheckpointJournal(path).load("fp", 8)
    assert sorted(loaded) == list(range(8))


def test_journal_requires_start_or_load(tmp_path):
    journal = CheckpointJournal(tmp_path / "unstarted.jsonl")
    with pytest.raises(CheckpointError, match="start\\(\\)ed or load\\(\\)ed"):
        journal.record(0, [_fake_measurement(0)])


def test_journal_tolerates_torn_trailing_line(tmp_path, caplog):
    path = tmp_path / "torn.jsonl"
    journal = CheckpointJournal(path)
    journal.start("fp", 3)
    journal.record(0, [_fake_measurement(0)])
    journal.record(1, [_fake_measurement(1)])
    intact_size = path.stat().st_size
    # Crash mid-append: shard 2's line is cut off partway through.
    full_line = (
        json.dumps({"shard": 2, "measurements": []}) + "\n"
    )
    with open(path, "ab") as handle:
        handle.write(full_line[: len(full_line) // 2].encode("utf-8"))

    journal.release()
    # The reader is released explicitly: caplog pins its torn-line
    # warning record (whose exception traceback references the reader),
    # so the usual end-of-expression collection cannot drop the lock.
    with caplog.at_level(logging.WARNING, logger="repro.checkpoint"):
        with CheckpointJournal(path) as reader:
            loaded = reader.load("fp", 3)
    assert sorted(loaded) == [0, 1]
    assert any("torn trailing line" in r.message for r in caplog.records)
    # The torn tail was truncated away, so the journal is whole again...
    assert path.stat().st_size == intact_size
    # ...and appending after the repair yields a fully parseable journal.
    repaired = CheckpointJournal(path)
    repaired.load("fp", 3)
    repaired.record(2, [_fake_measurement(2)])
    repaired.release()
    assert sorted(CheckpointJournal(path).load("fp", 3)) == [0, 1, 2]


def test_journal_mid_file_corruption_still_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    journal = CheckpointJournal(path)
    journal.start("fp", 2)
    with open(path, "ab") as handle:
        handle.write(b'{"shard": 0, "measure\n')  # torn, but not trailing
    journal_text = json.dumps({"shard": 1, "measurements": []}) + "\n"
    with open(path, "ab") as handle:
        handle.write(journal_text.encode("utf-8"))
    journal.release()
    with pytest.raises(CheckpointError, match="malformed"):
        CheckpointJournal(path).load("fp", 2)


def test_torn_journal_resume_is_bit_identical(fast_config, s0_module, tmp_path, caplog):
    """A campaign resumed over a crash-torn journal reproduces the
    uninterrupted run exactly (the torn shard is simply re-measured)."""
    runner = CharacterizationRunner(fast_config)
    baseline = runner.characterize([s0_module], T_VALUES, ALL_PATTERNS, trials=1)
    journal_path = tmp_path / "campaign.jsonl"
    runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=1,
        checkpoint=str(journal_path),
    )
    raw = journal_path.read_bytes()
    journal_path.write_bytes(raw[:-40])  # tear the final record

    resumed_runner = CharacterizationRunner(fast_config)
    with caplog.at_level(logging.WARNING, logger="repro.checkpoint"):
        resumed = resumed_runner.characterize(
            [s0_module], T_VALUES, ALL_PATTERNS, trials=1,
            checkpoint=str(journal_path), resume=True,
        )
    assert list(resumed) == list(baseline)
    assert resumed.to_json(include_census=True) == baseline.to_json(
        include_census=True
    )
    report = resumed_runner.last_report
    assert report.n_resumed == s0_module.n_dies - 1
    assert report.n_executed == 1


# ------------------------------------------------------- strict encoding


def test_to_json_encodes_nan_as_null():
    nan_measurement = DieMeasurement(
        module_key="S0", manufacturer="Samsung", die=0, pattern="combined",
        t_on=36.0, trial=0, acmin=10,
        time_to_first_ns=float("nan"),
    )
    text = ResultSet([nan_measurement]).to_json()
    payload = _strict_loads(text)  # rejects bare NaN literals
    assert payload["measurements"][0]["time_to_first_ns"] is None
    restored = list(ResultSet.from_json(text))[0]
    assert restored.time_to_first_ns is None


def test_journal_encodes_nan_as_null(tmp_path):
    path = tmp_path / "nan.jsonl"
    journal = CheckpointJournal(path)
    journal.start("fp", 1)
    nan_measurement = DieMeasurement(
        module_key="S0", manufacturer="Samsung", die=0, pattern="combined",
        t_on=36.0, trial=0, acmin=None,
        time_to_first_ns=float("inf"),
        census=BitflipCensus(),
    )
    journal.record(0, [nan_measurement])
    for line in path.read_text().splitlines():
        _strict_loads(line)
    journal.release()
    loaded = CheckpointJournal(path).load("fp", 1)
    assert loaded[0][0].time_to_first_ns is None


def test_fingerprint_unchanged_by_journal_rewrite(fast_config, s0_module):
    """The append rewrite left the fingerprint (and format) alone, so
    journals written by the previous implementation stay loadable."""
    plan = SweepPlan.build([s0_module], T_VALUES, ALL_PATTERNS, trials=1)
    fingerprint = plan_fingerprint(fast_config, plan)
    assert checkpoint_mod.JOURNAL_FORMAT == "repro-checkpoint-v1"
    assert len(fingerprint) == 16


# ----------------------------------------------------------------- CLI


def test_cli_exit_code_success(capsys):
    from repro.cli import main

    assert main(["table1"]) == 0
    assert "S0" in capsys.readouterr().out


def test_cli_exit_code_usage_error(capsys):
    from repro.cli import main

    code = main(["table2", "--resume"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--resume requires --checkpoint" in err


def test_cli_exit_code_repro_error(capsys):
    from repro.cli import main

    code = main(["table2", "--modules", "NOPE"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_exit_code_argparse_error(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-artifact"])
    assert excinfo.value.code == 2


def test_cli_observability_artifacts(tmp_path, capsys):
    from repro.cli import main

    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.jsonl"
    journal_path = tmp_path / "cp.jsonl"
    code = main([
        "table2", "--modules", "S0", "--trials", "1",
        "--checkpoint", str(journal_path),
        "--metrics", str(metrics_path),
        "--trace", str(trace_path),
        "--progress", "--log-level", "warning",
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "campaign " in err and "campaign done in" in err

    payload = _strict_loads(metrics_path.read_text())
    assert payload["format"] == "repro-metrics-v1"
    assert payload["counters"]["shards.completed"] > 0
    assert payload["run"]["n_retries"] == 0
    assert "cache_hit_rates" in payload
    # Module calibration is timed as its own set-up span.
    assert payload["timers"]["profile.setup.calibrate"]["count"] == 1

    events = [_strict_loads(line) for line in trace_path.read_text().splitlines()]
    assert events[0]["event"] == "campaign_start"
    assert events[-1]["event"] == "campaign_finish"
    assert journal_path.exists()
    assert main(["validate", str(metrics_path)]) == 0
