"""Device-backend protocol, fault injection, and session hardening.

Covers the three pillars of the backend subsystem:

1. **Bit-identity** -- the SimBackend path, the NoisySiliconBackend path
   (under mixed faults, forced quarantine, and a lost device), and the
   legacy direct path all digest identically, across the serial/thread/
   process executors (measurements are pure functions of identity).
2. **Classification** -- every injected fault kind maps to its intended
   error class and its intended transient/permanent retry class.
3. **Session hardening** -- retry with backoff, EWMA quarantine,
   re-admission probing, re-routing, device loss, watchdog deadlines,
   readback length checks, and the mandatory methodology preflight.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from repro.backend import (
    BackendSpec,
    DeviceBackend,
    DeviceOp,
    DeviceSession,
    NoiseProfile,
    NoisySiliconBackend,
    ProgramExecution,
    SimBackend,
    build_session,
    demo_noise,
    worker_session,
)
from repro.backend.base import stable_hash
from repro.core.faults import RunReport, is_transient
from repro.errors import (
    CommandDropError,
    DeviceLostError,
    ExperimentError,
    IntermittentDieError,
    PreflightError,
    ReadbackCorruptError,
    ReadbackTimeoutError,
    TransientDeviceError,
)
from repro.testing import make_synthetic_chip
from repro.validate.invariants import results_digest

pytestmark = pytest.mark.backend

#: Canonical digest of the S0 probe campaign (fast_config, t = 36/636 ns,
#: 2 trials) pinned *before* the DeviceBackend refactor: every backend
#: path must keep reproducing it bit for bit.
PRE_BACKEND_DIGEST = (
    "79a130fb09d64d4c3867c164ab8cc42e1ba00413f9b56cc91898d861fe5481d1"
)


def _noisy_spec(seed: int = 0) -> BackendSpec:
    return BackendSpec(
        kind="noisy", n_devices=2, seed=seed, noise=demo_noise("S0")
    )


# ------------------------------------------------------------ scripted rigs


class ScriptedBackend(DeviceBackend):
    """A device that fails its first ``fail_first`` ops, then behaves."""

    kind = "scripted"

    def __init__(self, device_id, fail_first=0, error=CommandDropError):
        super().__init__(device_id)
        self.fail_first = fail_first
        self.error = error
        self.calls = 0

    def describe(self):
        return {"kind": self.kind, "device_id": self.device_id,
                "trr_enabled": False, "ecc_enabled": False}

    def execute(self, op):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise self.error(
                f"{self.device_id}: scripted failure {self.calls}"
            )
        return op.fn()


class LostBackend(ScriptedBackend):
    """A device that is already dead."""

    def execute(self, op):
        self.calls += 1
        raise DeviceLostError(f"{self.device_id}: gone")


def _session(devices, report=None, **spec_kwargs):
    defaults = dict(
        kind="sim",
        max_op_retries=6,
        backoff_base=0.0,
        readmit_after=1,
        preflight=False,
    )
    defaults.update(spec_kwargs)
    spec = BackendSpec(n_devices=len(devices), **defaults)
    return DeviceSession(devices, spec, report=report)


def _key_preferring(index: int, n: int):
    """An op key whose stable-hash routing prefers device ``index``."""
    for salt in range(1000):
        key = ("measure", "S0", 0, "probe", float(salt))
        if stable_hash(key) % n == index:
            return key
    raise AssertionError("no key found")  # pragma: no cover


# --------------------------------------------------------- classification


FAULT_CASES = [
    (NoiseProfile(p_command_drop=1.0), CommandDropError),
    (NoiseProfile(p_readback_timeout=1.0), ReadbackTimeoutError),
    (
        NoiseProfile(p_flaky_die=1.0, flaky_dies=(("S0", 0),)),
        IntermittentDieError,
    ),
]


@pytest.mark.parametrize("profile, expected", FAULT_CASES)
def test_each_fault_kind_raises_its_class_and_is_transient(profile, expected):
    backend = NoisySiliconBackend(
        inner=SimBackend("sim0"), profile=profile, seed=0
    )
    op = DeviceOp(key=("measure", "S0", 0, "p", 36.0), fn=lambda: [1])
    with pytest.raises(expected) as excinfo:
        backend.execute(op)
    assert isinstance(excinfo.value, TransientDeviceError)
    assert is_transient(excinfo.value)


def test_scalar_garble_raises_corrupt_and_is_transient():
    backend = NoisySiliconBackend(
        inner=SimBackend("sim0"),
        profile=NoiseProfile(p_readback_garble=1.0),
        seed=0,
    )
    op = DeviceOp(key=("measure", "S0", 0, "p", 36.0), fn=lambda: 17)
    with pytest.raises(ReadbackCorruptError) as excinfo:
        backend.execute(op)
    assert is_transient(excinfo.value)


def test_list_garble_only_changes_length_never_content():
    """Garbling truncates or duplicates -- the length-detectable faults.

    A garble that reordered or substituted elements would silently
    mis-pair analyses with trials; the session's length check must be
    able to catch every garbled transfer.
    """
    honest = [10, 20, 30, 40]
    backend = NoisySiliconBackend(
        inner=SimBackend("sim0"),
        profile=NoiseProfile(p_readback_garble=1.0, max_faults_per_op=50),
        seed=0,
    )
    for salt in range(30):
        op = DeviceOp(
            key=("measure", "S0", 0, "p", float(salt)),
            fn=lambda: list(honest),
            expect=len(honest),
        )
        garbled = backend.execute(op)
        assert len(garbled) != len(honest)
        assert set(garbled) <= set(honest)


def test_permanent_errors_are_not_transient():
    assert not is_transient(DeviceLostError("x"))
    assert not is_transient(PreflightError("x"))


def test_fault_injection_is_deterministic_per_seed():
    def fault_types(seed):
        backend = NoisySiliconBackend(
            inner=SimBackend("sim0"),
            profile=NoiseProfile(
                p_command_drop=0.3,
                p_readback_timeout=0.3,
                p_flaky_die=1.0,
                flaky_dies=(("S0", 1),),
            ),
            seed=seed,
        )
        out = []
        for salt in range(40):
            op = DeviceOp(
                key=("measure", "S0", salt % 2, "p", float(salt)),
                fn=lambda: [1],
            )
            try:
                backend.execute(op)
                out.append("ok")
            except TransientDeviceError as exc:
                out.append(type(exc).__name__)
        return out

    assert fault_types(3) == fault_types(3)
    assert fault_types(3) != fault_types(4)
    assert "IntermittentDieError" in fault_types(3)


def test_device_loss_is_permanent_and_counted():
    profile = NoiseProfile(lose_device="noisy0", lose_after_ops=2)
    backend = NoisySiliconBackend(
        inner=SimBackend("sim0"), profile=profile, seed=0
    )
    op = DeviceOp(key=("measure", "S0", 0, "p", 36.0), fn=lambda: [1])
    assert backend.execute(op) == [1]
    assert backend.execute(op) == [1]
    for _ in range(3):  # loss is sticky
        with pytest.raises(DeviceLostError):
            backend.execute(op)


# ------------------------------------------------------- session hardening


def test_session_retries_transient_faults_then_succeeds():
    report = RunReport(n_shards=0)
    device = ScriptedBackend("dev0", fail_first=3)
    session = _session([device], report=report)
    assert session.call(("measure", "S0", 0, "p", 1.0), lambda: 42) == 42
    assert report.n_device_faults == 3
    assert report.n_device_retries == 3
    assert report.backend == "sim"


def test_session_fails_fast_on_permanent_errors():
    device = ScriptedBackend("dev0", fail_first=99, error=PreflightError)
    session = _session([device])
    with pytest.raises(PreflightError):
        session.call(("measure", "S0", 0, "p", 1.0), lambda: 42)
    assert device.calls == 1  # no retry


def test_session_raises_after_retry_budget_exhausted():
    report = RunReport(n_shards=0)
    device = ScriptedBackend("dev0", fail_first=99)
    session = _session([device], report=report, max_op_retries=2)
    with pytest.raises(CommandDropError):
        session.call(("measure", "S0", 0, "p", 1.0), lambda: 42)
    assert device.calls == 3  # initial + 2 retries
    assert report.n_device_retries == 2


def test_session_quarantines_and_reroutes_sick_device():
    report = RunReport(n_shards=0)
    sick = ScriptedBackend("sick", fail_first=99)
    healthy = ScriptedBackend("ok")
    devices = [sick, healthy]
    key = _key_preferring(0, 2)
    session = _session(devices, report=report, readmit_after=100)
    assert session.call(key, lambda: "v") == "v"
    assert session.health("sick").state == "quarantined"
    assert report.n_quarantines == 1
    assert report.n_reroutes >= 1
    # Subsequent ops preferring the sick device go straight to the
    # healthy one.
    calls_before = sick.calls
    assert session.call(key, lambda: "w") == "w"
    assert sick.calls == calls_before


def test_session_readmission_probe_after_cooldown():
    report = RunReport(n_shards=0)
    sick = ScriptedBackend("sick", fail_first=2)  # recovers after 2 ops
    devices = [sick, ScriptedBackend("ok")]
    key = _key_preferring(0, 2)
    session = _session(devices, report=report, readmit_after=2)
    session.call(key, lambda: 1)  # quarantines sick, lands on ok
    assert session.health("sick").state == "quarantined"
    session.call(key, lambda: 2)  # cooldown elapses -> probe succeeds
    assert session.health("sick").state == "healthy"
    assert report.n_readmissions == 1
    assert session.health("sick").n_readmissions == 1


def test_failed_readmission_probe_doubles_cooldown():
    sick = ScriptedBackend("sick", fail_first=99)
    devices = [sick, ScriptedBackend("ok")]
    key = _key_preferring(0, 2)
    session = _session(devices, readmit_after=1)
    session.call(key, lambda: 1)
    base = session.health("sick").cooldown_base
    session.call(key, lambda: 2)  # probe fires and fails
    assert session.health("sick").cooldown_base == base * 2


def test_session_survives_device_loss_and_fails_only_when_all_lost():
    report = RunReport(n_shards=0)
    session = _session([LostBackend("dead"), ScriptedBackend("ok")],
                       report=report)
    assert session.call(("measure", "S0", 0, "p", 1.0), lambda: 5) == 5
    assert report.n_devices_lost == 1
    assert session.health("dead").state == "lost"

    all_lost = _session([LostBackend("d0"), LostBackend("d1")])
    with pytest.raises(DeviceLostError):
        all_lost.call(("measure", "S0", 0, "p", 1.0), lambda: 5)


def test_session_length_checks_readback_against_expectation():
    device = ScriptedBackend("dev0")
    session = _session([device], max_op_retries=1)
    with pytest.raises(ReadbackCorruptError):
        session.call(("measure", "S0", 0, "p", 1.0), lambda: [1, 2], expect=3)


def test_watchdog_deadline_surfaces_as_transient_timeout():
    device = ScriptedBackend("dev0")
    session = _session([device], max_op_retries=0, watchdog_s=0.05)
    with pytest.raises(ReadbackTimeoutError):
        session.call(
            ("measure", "S0", 0, "p", 1.0),
            lambda: time.sleep(0.5) or 1,
        )


def test_session_call_converges_to_truth_under_heavy_noise():
    spec = BackendSpec(
        kind="noisy",
        n_devices=2,
        seed=3,
        noise=NoiseProfile(
            p_command_drop=0.5,
            p_readback_timeout=0.3,
            p_readback_garble=0.5,
            max_faults_per_op=2,
        ),
        backoff_base=0.0,
        preflight=False,
    )
    session = spec.build_session()
    for salt in range(20):
        key = ("measure", "S0", 0, "p", float(salt))
        assert session.call(key, lambda: [salt, salt + 1], expect=2) == [
            salt, salt + 1,
        ]


def test_worker_session_is_cached_per_spec_and_preflight_free():
    spec = _noisy_spec(seed=11)
    assert worker_session(spec) is worker_session(spec)
    assert worker_session(spec)._preflight_disabled


def test_build_session_coercions():
    assert build_session(None) is None
    sim = build_session("sim")
    assert isinstance(sim, DeviceSession) and len(sim.devices) == 1
    noisy = build_session("noisy")
    assert len(noisy.devices) == 2  # loss/quarantine can re-schedule
    assert build_session(sim) is sim
    with pytest.raises(ExperimentError):
        build_session("fpga")


def test_program_execution_flip_accounting():
    ones = np.ones(8, dtype=bool)
    zeros = np.zeros(8, dtype=bool)
    execution = ProgramExecution(
        reads=[(0, 5, zeros), (0, 5, ones), (0, 7, zeros)],
        elapsed_ns=100.0,
        activations=4,
        refreshes=0,
        device_id="sim0",
    )
    assert execution.last_read(0, 5) is ones
    assert execution.last_read(0, 9) is None
    flips = execution.flipped_rows({(0, 5): zeros, (0, 7): zeros})
    assert flips == {(0, 5): 8}


# -------------------------------------------------------------- preflight


def test_preflight_passes_and_is_cached(fast_config, s0_module):
    report = RunReport(n_shards=0)
    session = build_session("sim")
    session.attach(None, report)
    outcome = session.ensure_preflight(s0_module, fast_config)
    assert outcome["thermal"]["passed"]
    assert outcome["refresh_window"]["passed"]
    assert outcome["protections"]["passed"]
    assert outcome["mapping"]["passed"]
    assert outcome["mapping"]["neighbors"]  # observed, non-empty
    assert session.ensure_preflight(s0_module, fast_config) is outcome
    session.snapshot_into(report)
    assert report.preflight["modules"] == ["S0"]
    assert report.device_health["backend"] == "sim"


def test_preflight_settles_the_thermal_loop(fast_config, s0_module):
    """The §3 PID settle runs first: the chips hold 50 C +/- 0.2 C, and
    the outcome (plain numbers) reaches the run report."""
    report = RunReport(n_shards=0)
    session = build_session("sim")
    session.attach(None, report)
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
    spec = BackendSpec(kind="sim")
    session = DeviceSession([_TrrBackend("trr0")], spec)
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
        from repro.bender.softmc import SoftMCSession

        honest = make_synthetic_chip(
            rows=32, cols=16, key="LIAR", mapping=None  # identity
        )
        return SoftMCSession(honest)


def test_preflight_catches_mapping_mismatch(fast_config, s0_module):
    # S0 declares an XOR scramble; the device actually maps identity.
    spec = BackendSpec(kind="sim")
    session = DeviceSession([_LyingBackend("liar0")], spec)
    with pytest.raises(PreflightError, match="mapping reverse-engineering"):
        session.ensure_preflight(s0_module, fast_config)


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
    session = DeviceSession([_TrrBackend("trr0")], BackendSpec(kind="sim"))
    with pytest.raises(PreflightError, match="target-row refresh"):
        session.ensure_device_protections()
    clean = build_session("sim")
    outcome = clean.ensure_device_protections()
    assert outcome["protections"]["passed"]
    assert clean.ensure_device_protections() is outcome


def test_preflight_survives_noisy_injection(fast_config, s0_module):
    # Garbled/dropped probe transfers must retry, never fail preflight.
    for seed in range(5):
        session = build_session(_noisy_spec(seed=seed))
        outcome = session.ensure_preflight(s0_module, fast_config)
        assert outcome["mapping"]["passed"]


# ------------------------------------------------------------ bit-identity


@pytest.mark.parametrize("backend", [None, "sim", "noisy"])
def test_backend_paths_reproduce_the_pre_backend_digest(
    fast_config, s0_module, backend
):
    from repro.core.runner import CharacterizationRunner

    selection = (
        build_session(_noisy_spec()) if backend == "noisy" else backend
    )
    runner = CharacterizationRunner(fast_config, backend=selection)
    results = runner.characterize(
        [s0_module], [36.0, 636.0], trials=2, workers=0
    )
    assert results_digest(results) == PRE_BACKEND_DIGEST
    if backend is None:
        assert runner.last_report.backend is None
    else:
        assert runner.last_report.backend == backend


def test_noisy_campaign_forces_quarantine_loss_and_recovery(
    fast_config, s0_module
):
    from repro.core.runner import CharacterizationRunner

    runner = CharacterizationRunner(fast_config, backend=_noisy_spec())
    results = runner.characterize(
        [s0_module], [36.0, 636.0], trials=2, workers=0
    )
    assert results_digest(results) == PRE_BACKEND_DIGEST
    report = runner.last_report
    assert report.n_device_faults > 0
    assert report.n_quarantines >= 1
    assert report.n_readmissions >= 1
    assert report.n_reroutes >= 1
    assert report.n_devices_lost == 1
    states = {
        d["device_id"]: d["state"]
        for d in report.device_health["devices"]
    }
    assert states["noisy1"] == "lost"
    assert "backend: noisy" in report.summary()


@pytest.mark.parametrize("executor_name", ["serial", "thread", "process"])
def test_noisy_backend_bit_identical_across_executors(
    fast_config, executor_name
):
    from repro.core.engine import (
        ProcessExecutor,
        SerialExecutor,
        SweepEngine,
        ThreadExecutor,
    )
    from repro.system import build_modules

    executor = {
        "serial": SerialExecutor,
        "thread": lambda: ThreadExecutor(2),
        "process": lambda: ProcessExecutor(2),
    }[executor_name]()
    engine = SweepEngine(
        fast_config,
        executor=executor,
        session=build_session(_noisy_spec()),
    )
    modules = build_modules(["S0"], fast_config)
    results = engine.run(modules, [36.0, 636.0], trials=2)
    assert results_digest(results) == PRE_BACKEND_DIGEST


def test_check_cross_executor_accepts_backend_permutations(fast_config):
    from repro.validate.invariants import check_cross_executor

    digest = check_cross_executor(
        config=fast_config,
        executors=("serial", "thread"),
        backends=(None, "sim"),
    )
    assert digest == check_cross_executor(config=fast_config)
    with pytest.raises(ExperimentError):
        check_cross_executor(config=fast_config, backends=())


# --------------------------------------------------- mitigation campaign


def test_mitigation_campaign_identical_under_noise():
    from repro.mitigations.campaign import (
        MitigationCampaign,
        MitigationWorkerSpec,
        point_to_record,
    )
    from repro.patterns.base import ALL_PATTERNS

    spec = MitigationWorkerSpec(baseline_budget=4000)
    noise = BackendSpec(
        kind="noisy",
        n_devices=2,
        seed=1,
        noise=NoiseProfile(p_command_drop=0.5, max_faults_per_op=2),
        backoff_base=0.0,
    )
    records = []
    fingerprints = []
    for backend in (None, noise):
        campaign = MitigationCampaign(spec, backend=backend)
        results = campaign.run(
            chips=("E0",),
            mitigations=("para",),
            t_values=(36.0, 636.0),
            patterns=ALL_PATTERNS[:1],
        )
        records.append([point_to_record(p) for p in results])
        fingerprints.append(campaign.last_report.fingerprint)
    assert records[0] == records[1]
    # Backend selection must not perturb the plan fingerprint: journals
    # are backend-independent, exactly like results.
    assert fingerprints[0] == fingerprints[1]
    assert campaign.last_report.n_device_faults > 0
    assert campaign.last_report.backend == "noisy"


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


def test_metrics_report_carries_backend_stats(fast_config, s0_module):
    from repro.core.runner import CharacterizationRunner
    from repro.obs import MetricsReport, Observability
    from repro.validate.schema import validate_metrics_payload

    obs = Observability()
    runner = CharacterizationRunner(
        fast_config, obs=obs, backend=_noisy_spec()
    )
    runner.characterize([s0_module], [36.0], trials=1, workers=0)
    payload = MetricsReport.build(obs).payload
    backend = payload["run"]["backend"]
    assert backend["kind"] == "noisy"
    assert backend["n_device_faults"] > 0
    assert backend["preflight"]["modules"] == ["S0"]
    assert {d["device_id"] for d in backend["device_health"]["devices"]} == {
        "noisy0", "noisy1",
    }
    assert payload["run"]["warning_counts"] == {}
    validate_metrics_payload(payload)
