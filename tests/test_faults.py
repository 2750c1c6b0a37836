"""Fault-injection, retry, and checkpoint/resume tests.

The engine's robustness contract: transient shard failures (flaky
raises, hangs, corrupted results, crashed pool workers) are retried with
backoff up to the policy budget; permanent failures raise
``ShardFailedError`` with the cause chained; repeated pool breakage
finishes the campaign on the serial executor instead of aborting; a
wedged shard past its timeout does not keep the interpreter alive; and a campaign
killed mid-run resumes from its checkpoint journal to a ResultSet
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import pytest

from repro.core import faults as faults_mod
from repro.core.checkpoint import CheckpointJournal, plan_fingerprint
from repro.core.engine import (
    ProcessExecutor,
    SerialExecutor,
    ShardRunner,
    SweepPlan,
    fork_sharing_available,
)
from repro.core.experiment import CharacterizationConfig
from repro.core.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    is_transient,
    validate_shard_result,
)
from repro.core.results import ResultSet
from repro.core.runner import CharacterizationRunner
from repro.errors import (
    CalibrationError,
    CheckpointError,
    ExecutorError,
    ExperimentError,
    PoolBrokenError,
    ReproError,
    ResultIntegrityError,
    ShardFailedError,
    ShardTimeoutError,
)
from repro.mitigations.campaign import MitigationCampaign, build_mitigation_plan
from repro.patterns import ALL_PATTERNS, DOUBLE_SIDED

pytestmark = pytest.mark.faults

T_VALUES = [36.0, 7_800.0]

#: No backoff sleeps in tests; two retries unless a test overrides it.
FAST_POLICY = RetryPolicy(max_retries=2, backoff_base=0.0)


def _run(config, modules, executor=None, **kwargs):
    runner = CharacterizationRunner(config)
    results = runner.characterize(
        modules, T_VALUES, ALL_PATTERNS, trials=1,
        executor=executor or SerialExecutor(), **kwargs
    )
    return runner, results


@pytest.fixture(scope="module")
def baseline(fast_config, s0_module):
    """The uninterrupted serial run every recovery test must reproduce."""
    _, results = _run(fast_config, [s0_module])
    return results


# ----------------------------------------------------------- classification


@pytest.mark.parametrize(
    "exc",
    [ExecutorError, ShardTimeoutError, ShardFailedError,
     ResultIntegrityError, PoolBrokenError, CheckpointError],
)
def test_new_errors_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)


def test_transient_vs_permanent_classification():
    # Retryable: timeouts, integrity violations, pool breakage, and
    # unknown worker exceptions.
    assert is_transient(ShardTimeoutError("slow"))
    assert is_transient(ResultIntegrityError("short"))
    assert is_transient(PoolBrokenError("boom"))
    assert is_transient(RuntimeError("worker died"))
    # Permanent: deterministic library errors recur on retry.
    assert not is_transient(ExperimentError("bad config"))
    assert not is_transient(CalibrationError("no bracket"))
    assert not is_transient(ShardFailedError("gave up"))


def test_retry_policy_validation_and_backoff():
    policy = RetryPolicy(max_retries=3, backoff_base=0.1, backoff_factor=2.0)
    assert policy.backoff_delay(1) == pytest.approx(0.1)
    assert policy.backoff_delay(3) == pytest.approx(0.4)
    with pytest.raises(ExperimentError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ExperimentError):
        RetryPolicy(shard_timeout=0.0)
    with pytest.raises(ExperimentError):
        RetryPolicy(backoff_factor=0.5)
    # A NaN timeout would time every attempt out at once.
    for timeout in (math.nan, math.inf):
        with pytest.raises(ExperimentError, match="finite"):
            RetryPolicy(shard_timeout=timeout)


# ------------------------------------------------------- result validation


@pytest.mark.parametrize("kind", ["characterization", "mitigation"])
def test_validate_shard_result_detects_corruption(kind, fast_config, s0_module):
    if kind == "characterization":
        plan = SweepPlan.build([s0_module], T_VALUES, ALL_PATTERNS, trials=1)
        _, results = _run(fast_config, [s0_module])
    else:
        sweep = (("E0",), ("para",), T_VALUES, (DOUBLE_SIDED,))
        plan = build_mitigation_plan(*sweep)
        results = MitigationCampaign().run(*sweep)
    shard = plan.shards[0]
    good = list(results)[: len(shard.units)]
    validate_shard_result(shard, good)  # canonical order passes
    with pytest.raises(ResultIntegrityError, match="missing"):
        validate_shard_result(shard, good[:-1])
    with pytest.raises(ResultIntegrityError, match="duplicated"):
        validate_shard_result(shard, good[:-1] + [good[0]])
    with pytest.raises(ResultIntegrityError, match="out of canonical order"):
        validate_shard_result(shard, list(reversed(good)))


# --------------------------------------------------------- retry recovery


def test_retry_then_succeed_serial(fast_config, s0_module, baseline):
    fault = FaultPlan([FaultSpec(shard_index=0, kind="raise", times=1)])
    runner, results = _run(
        fast_config, [s0_module], policy=FAST_POLICY, fault_plan=fault
    )
    assert list(results) == list(baseline)
    assert runner.last_report.n_retries == 1
    assert runner.last_report.degradations == []


def test_retry_budget_exhaustion_is_permanent(fast_config, s0_module):
    fault = FaultPlan([FaultSpec(shard_index=0, kind="raise", times=99)])
    policy = RetryPolicy(max_retries=1, backoff_base=0.0)
    with pytest.raises(ShardFailedError, match="retry budget"):
        _run(fast_config, [s0_module], policy=policy, fault_plan=fault)


def test_corrupt_result_detected_and_retried(fast_config, s0_module, baseline):
    fault = FaultPlan([FaultSpec(shard_index=1, kind="corrupt", times=1)])
    runner, results = _run(
        fast_config, [s0_module], policy=FAST_POLICY, fault_plan=fault
    )
    assert list(results) == list(baseline)
    assert runner.last_report.n_retries == 1


def test_corrupt_result_without_retries_fails(fast_config, s0_module):
    fault = FaultPlan([FaultSpec(shard_index=1, kind="corrupt", times=1)])
    policy = RetryPolicy(max_retries=0, backoff_base=0.0)
    with pytest.raises(ShardFailedError) as excinfo:
        _run(fast_config, [s0_module], policy=policy, fault_plan=fault)
    assert isinstance(excinfo.value.__cause__, ResultIntegrityError)


# ------------------------------------------------------------- timeouts


def test_timeout_then_retry_succeeds(fast_config, s0_module, baseline):
    fault = FaultPlan(
        [FaultSpec(shard_index=0, kind="hang", times=1, hang_s=5.0)]
    )
    policy = RetryPolicy(max_retries=2, backoff_base=0.0, shard_timeout=0.5)
    runner, results = _run(
        fast_config, [s0_module], policy=policy, fault_plan=fault
    )
    assert list(results) == list(baseline)
    assert runner.last_report.n_retries >= 1


def test_timeout_exhaustion_chains_shard_timeout(fast_config, s0_module):
    fault = FaultPlan(
        [FaultSpec(shard_index=0, kind="hang", times=99, hang_s=5.0)]
    )
    policy = RetryPolicy(max_retries=1, backoff_base=0.0, shard_timeout=0.3)
    with pytest.raises(ShardFailedError) as excinfo:
        _run(fast_config, [s0_module], policy=policy, fault_plan=fault)
    assert isinstance(excinfo.value.__cause__, ShardTimeoutError)


#: Seconds the wedged shard sleeps; far longer than the child may live.
_WEDGE_S = 30.0

_WEDGED_CAMPAIGN = f"""
import sys

from repro.core.engine import ProcessExecutor, SerialExecutor
from repro.core.experiment import CharacterizationConfig
from repro.core.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.core.runner import CharacterizationRunner
from repro.dram.rowselect import RowSelection
from repro.dram.topology import BankGeometry
from repro.system import build_module

executor_name, state_dir = sys.argv[1:]
config = CharacterizationConfig(
    geometry=BankGeometry(rows=2048, cols_simulated=128),
    selection=RowSelection(locations_per_region=12, n_regions=3, stride=8),
    trials=1,
)
executor = ProcessExecutor(2) if executor_name == "process" else SerialExecutor()
CharacterizationRunner(config).characterize(
    [build_module("S0", config)], [36.0], dies=[0, 1], trials=1,
    executor=executor,
    policy=RetryPolicy(max_retries=1, backoff_base=0.0, shard_timeout=0.5),
    fault_plan=FaultPlan(
        [FaultSpec(shard_index=0, kind="hang", times=1, hang_s={_WEDGE_S})],
        state_dir=state_dir,
    ),
)
print("campaign done", flush=True)
"""


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_timed_out_shard_does_not_delay_exit(tmp_path, executor):
    """A shard wedged past its timeout is retried, and the abandoned
    attempt -- a helper thread in-process, a pool worker otherwise --
    must not keep the interpreter alive once the campaign returns."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    start = time.monotonic()
    child = subprocess.run(
        [sys.executable, "-c", _WEDGED_CAMPAIGN, executor, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=2 * _WEDGE_S,
    )
    elapsed = time.monotonic() - start
    assert child.returncode == 0, child.stderr
    assert "campaign done" in child.stdout
    assert elapsed < _WEDGE_S / 2, f"child exited after {elapsed:.1f}s"


# ------------------------------------------------------- process executor


def test_worker_crash_recovery(fast_config, s0_module, baseline, tmp_path):
    """A crashed pool worker breaks the pool; the pool is rebuilt and the
    campaign still completes with bit-identical results."""
    fault = FaultPlan(
        [FaultSpec(shard_index=1, kind="crash", times=1)],
        state_dir=tmp_path,
    )
    policy = RetryPolicy(max_retries=3, backoff_base=0.0, max_pool_restarts=3)
    runner, results = _run(
        fast_config,
        [s0_module],
        executor=ProcessExecutor(workers=2),
        policy=policy,
        fault_plan=fault,
    )
    assert list(results) == list(baseline)
    assert runner.last_report.n_pool_restarts >= 1
    assert runner.last_report.degradations == []


def test_repeated_pool_breakage_degrades_to_serial(
    fast_config, s0_module, baseline, tmp_path
):
    """More pool breaks than max_pool_restarts: the engine falls back to
    the serial executor (with a recorded degradation) and completes."""
    fault = FaultPlan(
        [FaultSpec(shard_index=0, kind="crash", times=3)],
        state_dir=tmp_path,
    )
    policy = RetryPolicy(
        max_retries=6, backoff_base=0.0, max_pool_restarts=1
    )
    with pytest.warns(UserWarning, match="degrading to the serial"):
        runner, results = _run(
            fast_config,
            [s0_module],
            executor=ProcessExecutor(workers=2),
            policy=policy,
            fault_plan=fault,
        )
    assert list(results) == list(baseline)
    report = runner.last_report
    assert report.degradations and "serial" in report.degradations[0]
    assert report.executors == ["process", "serial"]


def test_process_fault_plan_requires_state_dir(fast_config, s0_module):
    fault = FaultPlan([FaultSpec(shard_index=0, kind="raise", times=1)])
    with pytest.raises(ExperimentError, match="state_dir"):
        _run(
            fast_config,
            [s0_module],
            executor=ProcessExecutor(workers=2),
            policy=FAST_POLICY,
            fault_plan=fault,
        )


def test_pool_retries_back_off_like_the_serial_path(
    fast_config, s0_module, tmp_path, monkeypatch
):
    """The pool charges its failures to the same ledger as the serial
    path: every retried shard counts once and sleeps the policy's plain
    exponential backoff."""
    shards = SweepPlan.build(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=1
    ).shards[:4]
    fault = FaultPlan(
        [FaultSpec(shard_index=s.index, kind="raise", times=1) for s in shards],
        state_dir=tmp_path,
    )
    policy = RetryPolicy(max_retries=1, backoff_base=0.1)
    delays = []
    real_sleep = time.sleep

    def record_ledger_sleeps(seconds):
        if sys._getframe(1).f_globals.get("__name__") == faults_mod.__name__:
            delays.append(seconds)
        else:
            real_sleep(seconds)

    monkeypatch.setattr(faults_mod.time, "sleep", record_ledger_sleeps)
    runner, _ = _run(
        fast_config,
        [s0_module],
        executor=ProcessExecutor(workers=2),
        policy=policy,
        fault_plan=fault,
    )
    assert delays == [policy.backoff_delay(1)] * len(shards)
    assert runner.last_report.n_retries == len(shards)


class _WorkerBoom(RuntimeError):
    """Raised inside pool workers only; the parent must see this type."""


def _patch_worker_run(monkeypatch, in_worker):
    """Make ``ShardRunner.run`` call ``in_worker(shard)`` in forked
    workers (which inherit the patch) while the parent runs normally."""
    if not fork_sharing_available():
        pytest.skip("fork start method unavailable")
    parent = os.getpid()
    real_run = ShardRunner.run

    def run(self, shard):
        if os.getpid() != parent:
            in_worker(shard)
        return real_run(self, shard)

    monkeypatch.setattr(ShardRunner, "run", run)


def test_pool_without_policy_reraises_worker_exception(
    fast_config, s0_module, monkeypatch
):
    def boom(shard):
        raise _WorkerBoom(f"shard {shard.index}")

    _patch_worker_run(monkeypatch, boom)
    with pytest.raises(_WorkerBoom):
        _run(fast_config, [s0_module], executor=ProcessExecutor(workers=2))


def test_pool_break_without_policy_degrades_to_serial(
    fast_config, s0_module, baseline, monkeypatch
):
    _patch_worker_run(monkeypatch, lambda shard: os._exit(1))
    with pytest.warns(UserWarning, match="degrading to the serial"):
        runner, results = _run(
            fast_config, [s0_module], executor=ProcessExecutor(workers=2)
        )
    assert list(results) == list(baseline)
    report = runner.last_report
    assert report.executors == ["process", "serial"]
    assert report.n_pool_restarts == 0


# ------------------------------------------------------ checkpoint/resume


def test_checkpoint_resume_bit_identical(fast_config, s0_module, baseline, tmp_path):
    """A campaign killed mid-run and resumed produces a ResultSet
    bit-identical to an uninterrupted serial run."""
    journal_path = tmp_path / "campaign.jsonl"
    # Shard 3 fails every attempt with no retry budget: the campaign
    # dies mid-run, with shards 0-2 already journaled.
    fault = FaultPlan([FaultSpec(shard_index=3, kind="raise", times=99)])
    policy = RetryPolicy(max_retries=0, backoff_base=0.0)
    with pytest.raises(ShardFailedError):
        _run(
            fast_config,
            [s0_module],
            policy=policy,
            fault_plan=fault,
            checkpoint=str(journal_path),
        )
    assert journal_path.exists()

    runner, resumed = _run(
        fast_config, [s0_module], checkpoint=str(journal_path), resume=True
    )
    assert list(resumed) == list(baseline)
    # Bit-identity includes the censuses behind Figs. 5/6.
    assert resumed.to_json(include_census=True) == baseline.to_json(
        include_census=True
    )
    report = runner.last_report
    assert report.n_resumed == 3
    assert report.n_executed == report.n_shards - report.n_resumed


def test_resume_without_journal_starts_fresh(fast_config, s0_module, baseline, tmp_path):
    journal_path = tmp_path / "fresh.jsonl"
    runner, results = _run(
        fast_config, [s0_module], checkpoint=str(journal_path), resume=True
    )
    assert list(results) == list(baseline)
    assert runner.last_report.n_resumed == 0
    assert journal_path.exists()


def test_checkpoint_fingerprint_mismatch_raises(fast_config, s0_module, tmp_path):
    """A journal from a different campaign is rejected, naming both
    fingerprints, instead of silently mixing measurements."""
    journal_path = tmp_path / "mismatch.jsonl"
    runner = CharacterizationRunner(fast_config)
    runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=1,
        checkpoint=str(journal_path),
    )
    plan_1 = SweepPlan.build([s0_module], T_VALUES, ALL_PATTERNS, trials=1)
    plan_2 = SweepPlan.build([s0_module], T_VALUES, ALL_PATTERNS, trials=2)
    fp_1 = plan_fingerprint(fast_config, plan_1)
    fp_2 = plan_fingerprint(fast_config, plan_2)
    assert fp_1 != fp_2
    with pytest.raises(CheckpointError) as excinfo:
        runner.characterize(
            [s0_module], T_VALUES, ALL_PATTERNS, trials=2,
            checkpoint=str(journal_path), resume=True,
        )
    message = str(excinfo.value)
    assert fp_1 in message and fp_2 in message


def test_fingerprint_sensitive_to_config_and_plan(fast_config, s0_module):
    plan = SweepPlan.build([s0_module], T_VALUES, ALL_PATTERNS, trials=1)
    base = plan_fingerprint(fast_config, plan)
    assert base == plan_fingerprint(fast_config, plan)  # deterministic
    other_config = CharacterizationConfig(
        geometry=fast_config.geometry,
        selection=fast_config.selection,
        trials=1,
        jitter_sigma=0.05,
    )
    assert plan_fingerprint(other_config, plan) != base
    shorter = SweepPlan.build([s0_module], [36.0], ALL_PATTERNS, trials=1)
    assert plan_fingerprint(fast_config, shorter) != base


def test_journal_round_trip_and_duplicate_detection(fast_config, s0_module, tmp_path, baseline):
    plan = SweepPlan.build([s0_module], T_VALUES, ALL_PATTERNS, trials=1)
    fingerprint = plan_fingerprint(fast_config, plan)
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    journal.start(fingerprint, len(plan.shards))
    shard = plan.shards[0]
    measurements = list(baseline)[: len(shard.units)]
    journal.record(shard.index, measurements)
    journal.release()  # hand the append lock to the reader below

    loaded = CheckpointJournal(journal.path).load(fingerprint, len(plan.shards))
    assert loaded == {shard.index: measurements}
    # No temp droppings from the atomic rewrite (or the advisory lock).
    assert [p.name for p in tmp_path.iterdir()] == ["j.jsonl"]

    # A duplicated shard entry is corruption, not data.
    journal.record(shard.index, measurements)
    journal.release()
    with pytest.raises(CheckpointError, match="already recorded on line 2"):
        CheckpointJournal(journal.path).load(fingerprint, len(plan.shards))


def test_journal_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(CheckpointError, match="malformed"):
        CheckpointJournal(path).load("whatever", 1)
    path.write_text("")
    with pytest.raises(CheckpointError, match="empty"):
        CheckpointJournal(path).load("whatever", 1)


def test_resume_rejects_torn_header(fast_config, s0_module, tmp_path):
    """A header torn mid-write is corruption, not a resumable journal --
    the torn-trailing-line tolerance applies to shard appends only."""
    journal_path = tmp_path / "torn.jsonl"
    runner, _ = _run(fast_config, [s0_module], checkpoint=str(journal_path))
    lines = journal_path.read_text().splitlines(keepends=True)
    # Truncate the header mid-JSON but keep the shard lines: the exact
    # byte layout a crash during a (non-atomic) header write would leave.
    journal_path.write_text(lines[0][: len(lines[0]) // 2] + "\n" + lines[1])
    with pytest.raises(CheckpointError, match="malformed"):
        _run(
            fast_config, [s0_module],
            checkpoint=str(journal_path), resume=True,
        )


def test_resume_rejects_garbled_header(fast_config, s0_module, tmp_path):
    """A header that parses but is not a journal header is rejected by
    format, before any shard line is trusted."""
    journal_path = tmp_path / "garbled.jsonl"
    runner, _ = _run(fast_config, [s0_module], checkpoint=str(journal_path))
    lines = journal_path.read_text().splitlines(keepends=True)
    journal_path.write_text('{"format": "not-a-journal"}\n' + "".join(lines[1:]))
    with pytest.raises(CheckpointError, match="unknown format"):
        _run(
            fast_config, [s0_module],
            checkpoint=str(journal_path), resume=True,
        )


def test_fingerprint_mismatch_message_names_both(fast_config, s0_module, tmp_path):
    """CheckpointError for a mismatched plan names the journal's and the
    campaign's fingerprints so the operator can tell which run wrote it."""
    plan = SweepPlan.build([s0_module], T_VALUES, ALL_PATTERNS, trials=1)
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    journal.start("aaaa1111aaaa1111", len(plan.shards))
    journal.release()
    with pytest.raises(CheckpointError) as excinfo:
        CheckpointJournal(journal.path).load("bbbb2222bbbb2222", len(plan.shards))
    message = str(excinfo.value)
    assert "aaaa1111aaaa1111" in message
    assert "bbbb2222bbbb2222" in message
    assert "refusing" in message


# --------------------------------------------------------- atomic dumps


def test_resultset_dump_is_atomic_and_lossless(baseline, tmp_path):
    target = tmp_path / "results.json"
    baseline.dump(target, include_census=True)
    restored = ResultSet.load(target)
    assert list(restored) == list(baseline)
    assert [p.name for p in tmp_path.iterdir()] == ["results.json"]
    # Overwriting is atomic too (goes through the same temp+replace).
    baseline.dump(target)
    assert ResultSet.load(target).to_json() == baseline.to_json()


# ----------------------------------------------------------------- CLI


def test_cli_returns_nonzero_on_repro_error(capsys):
    from repro.cli import main

    code = main(["table2", "--modules", "NOPE"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [("--points", "-3"), ("--points", "x"), ("--t-max", "10"),
     ("--t-max", "-5"), ("--t-max", "nan"), ("--workers", "-1"),
     ("--workers", "x"), ("--trials", "0"), ("--trials", "x"),
     ("--max-retries", "-1"), ("--shard-timeout", "nan"),
     ("--shard-timeout", "inf"), ("--shard-timeout", "0"),
     ("--shard-timeout", "-2")],
)
def test_cli_rejects_bad_numeric_flags_before_building(
    flag, value, capsys, monkeypatch
):
    import repro.cli as cli

    def no_build(*args, **kwargs):
        raise AssertionError("modules built despite a bad flag value")

    monkeypatch.setattr(cli, "build_modules", no_build)
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig4", "--modules", "S0", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_resume_requires_checkpoint(capsys):
    from repro.cli import main

    code = main(["table2", "--resume"])
    assert code == 2
    assert "--checkpoint" in capsys.readouterr().err
