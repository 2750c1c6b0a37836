"""The characterization rig and its mandatory methodology preflight (§3).

Covers:

1. **Bit-identity** -- a campaign preflighted on the simulated rig
   digests exactly like the direct path, pinned against the digest
   recorded before the backend layer existed.
2. **Preflight** -- thermal settle, the refresh-window bound, TRR/ECC
   off, and mapping reverse-engineering each reject a rig or module
   that would invalidate the measurements.
3. **Selection** -- only ``None``, ``"sim"`` or a prebuilt session
   select a rig; anything else is a typed error (exit 2 on the CLI).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.backend import DeviceSession, SimBackend, build_session
from repro.core.faults import RunReport, is_transient
from repro.errors import ExperimentError, PreflightError
from repro.testing import make_synthetic_chip
from repro.validate.invariants import results_digest

#: Canonical digest of the S0 probe campaign (fast_config, t = 36/636 ns,
#: 2 trials) pinned *before* the DeviceBackend refactor: every backend
#: path must keep reproducing it bit for bit.
PRE_BACKEND_DIGEST = (
    "79a130fb09d64d4c3867c164ab8cc42e1ba00413f9b56cc91898d861fe5481d1"
)


# ------------------------------------------------------------ bit-identity


@pytest.mark.parametrize("backend", [None, "sim"])
def test_backend_paths_reproduce_the_pre_backend_digest(
    fast_config, s0_module, backend
):
    from repro.core.runner import CharacterizationRunner

    runner = CharacterizationRunner(fast_config, backend=backend)
    results = runner.characterize(
        [s0_module], [36.0, 636.0], trials=2, workers=0
    )
    assert results_digest(results) == PRE_BACKEND_DIGEST
    preflight = runner.last_report.preflight
    if backend is None:
        assert preflight is None
    else:
        assert preflight["modules"] == ["S0"]


# --------------------------------------------------------------- selection


def test_build_session_coercions():
    assert build_session(None) is None
    sim = build_session("sim")
    assert isinstance(sim, DeviceSession)
    assert isinstance(sim.device, SimBackend)
    assert build_session(sim) is sim
    for retired in ("noisy", "fpga", object()):
        with pytest.raises(ExperimentError, match="unknown backend"):
            build_session(retired)


def test_cli_rejects_the_retired_backend_flag(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["table2", "--modules", "S1", "--backend", "noisy"])
    assert excinfo.value.code == 2
    assert "--backend" in capsys.readouterr().err


# -------------------------------------------------------------- preflight


def test_preflight_passes_and_is_cached(fast_config, s0_module):
    report = RunReport(n_shards=0)
    session = build_session("sim")
    outcome = session.ensure_preflight(s0_module, fast_config)
    assert outcome["thermal"]["passed"]
    assert outcome["refresh_window"]["passed"]
    assert outcome["protections"]["passed"]
    assert outcome["mapping"]["passed"]
    assert outcome["mapping"]["neighbors"]  # observed, non-empty
    assert session.ensure_preflight(s0_module, fast_config) is outcome
    session.snapshot_into(report)
    assert report.preflight["modules"] == ["S0"]


def test_preflight_settles_the_thermal_loop(fast_config, s0_module):
    """The §3 PID settle runs first: the chips hold 50 C +/- 0.2 C, and
    the outcome (plain numbers) reaches the run report."""
    report = RunReport(n_shards=0)
    session = build_session("sim")
    thermal = session.ensure_preflight(s0_module, fast_config)["thermal"]
    assert thermal["passed"]
    assert type(thermal["settle_steps"]) is int and thermal["settle_steps"] > 0
    assert type(thermal["temperature_c"]) is float
    assert abs(thermal["temperature_c"] - 50.0) <= 0.2
    session.snapshot_into(report)
    assert report.preflight["checks"]["S0"]["thermal"] == thermal


def test_preflight_rejects_an_unreachable_setpoint(fast_config, s0_module):
    # The heater tops out at 25 + 0.6 x 100 = 85 C: a 90 C setpoint
    # never settles, and the campaign must not start.
    hot = dataclasses.replace(fast_config, temperature_c=90.0)
    with pytest.raises(PreflightError, match="thermal settle failed"):
        build_session("sim").ensure_preflight(s0_module, hot)


class _TrrBackend(SimBackend):
    def describe(self):
        description = super().describe()
        description["trr_enabled"] = True
        return description


def test_preflight_rejects_trr_enabled_device(fast_config, s0_module):
    session = DeviceSession(_TrrBackend("trr0"))
    with pytest.raises(PreflightError, match="target-row refresh"):
        session.ensure_preflight(s0_module, fast_config)


class _EccModule:
    key = "ECC"
    n_dies = 1

    def chip(self, die):
        from repro.dram.ecc import OnDieEcc

        class _Chip:
            on_die_ecc = OnDieEcc()

        return _Chip()


def test_preflight_rejects_ecc_armed_module(fast_config):
    session = build_session("sim")
    with pytest.raises(PreflightError, match="on-die ECC"):
        session.ensure_preflight(_EccModule(), fast_config)


class _LyingBackend(SimBackend):
    """Reports an honest rig but remaps rows differently than declared."""

    def open_session(self, chip):
        honest = make_synthetic_chip(
            rows=32, cols=16, key="LIAR", mapping=None  # identity
        )
        return super().open_session(honest)


def test_preflight_catches_mapping_mismatch(fast_config, s0_module):
    # S0 declares an XOR scramble; the device actually maps identity.
    session = DeviceSession(_LyingBackend("liar0"))
    with pytest.raises(PreflightError, match="mapping reverse-engineering"):
        session.ensure_preflight(s0_module, fast_config)


def test_permanent_errors_are_not_transient():
    # A failed preflight recurs on the same rig: nothing may retry it.
    assert not is_transient(PreflightError("x"))


def test_preflight_refresh_window_bound():
    from types import SimpleNamespace

    from repro.backend.preflight import _check_refresh_window
    from repro.constants import DEFAULT_TIMINGS

    bad = SimpleNamespace(
        runtime_bound_ns=DEFAULT_TIMINGS.tREFW * 2, timings=DEFAULT_TIMINGS
    )
    with pytest.raises(PreflightError, match="refresh-window"):
        _check_refresh_window(bad)


def test_device_protections_check_for_moduleless_campaigns():
    session = DeviceSession(_TrrBackend("trr0"))
    with pytest.raises(PreflightError, match="target-row refresh"):
        session.ensure_device_protections()
    clean = build_session("sim")
    outcome = clean.ensure_device_protections()
    assert outcome["protections"]["passed"]
    assert clean.ensure_device_protections() is outcome


# -------------------------------------------------- report + metrics plumbing


def test_run_report_deduplicates_warnings_by_cause():
    report = RunReport(n_shards=1)
    report.add_warning("oversubscribed: 8 workers > 2 cores",
                       cause="oversubscription")
    report.add_warning("oversubscribed: 9 workers > 2 cores",
                       cause="oversubscription")
    report.add_warning("degraded process -> thread",
                       cause="degradation:process->thread")
    report.add_warning("free-form warning")
    assert len(report.warnings) == 3
    assert report.warnings[0].endswith("(x2)")
    assert report.warning_counts == {
        "oversubscription": 2,
        "degradation:process->thread": 1,
        "free-form warning": 1,
    }


def test_metrics_report_carries_the_preflight(fast_config, s0_module, tmp_path):
    """A preflighted run traces a ``preflight`` event before its first
    shard and reports the outcomes as ``run.preflight``; a metrics
    report still carrying the retired ``run.backend`` block validates."""
    from repro.cli import main
    from repro.core.runner import CharacterizationRunner
    from repro.obs import JsonlTrace, MetricsReport, Observability

    trace = tmp_path / "trace.jsonl"
    obs = Observability(reporters=[JsonlTrace(trace)])
    runner = CharacterizationRunner(fast_config, obs=obs, backend="sim")
    runner.characterize([s0_module], [36.0], trials=1, workers=0)
    obs.close()
    events = [
        json.loads(line)["event"] for line in trace.read_text().splitlines()
    ]
    assert events.index("preflight") < events.index("shard_start")
    payload = MetricsReport.build(obs).payload
    preflight = payload["run"]["preflight"]
    assert preflight["modules"] == ["S0"]
    assert preflight["checks"]["S0"]["mapping"]["passed"]
    assert "backend" not in payload["run"]
    assert payload["run"]["warning_counts"] == {}
    payload["run"]["backend"] = {
        "kind": "noisy",
        "n_device_faults": 3,
        "n_quarantines": 1,
        "device_health": {"backend": "noisy", "devices": []},
        "preflight": preflight,
    }
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(payload))
    assert main(["validate", str(trace), str(metrics)]) == 0
