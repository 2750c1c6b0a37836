"""Shared-memory worker state, segment lifecycle, and auto executor tests.

The zero-copy parallel path has three safety obligations on top of the
engine's bit-identity guarantee:

* published segments are byte-faithful (workers see exactly the parent's
  fused stack, read-only);
* every segment is unlinked no matter how the campaign ends -- normal
  completion, worker crash, or KeyboardInterrupt -- asserted through
  :func:`repro.core.shm.live_segment_names`;
* the auto executor never picks a pool that cannot pay for itself (one
  core, fully memoized plans, trivially small campaigns).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import engine as engine_mod
from repro.core import shm as shm_mod
from repro.core.engine import (
    AutoExecutor,
    ProcessExecutor,
    SerialExecutor,
    SweepEngine,
    make_executor,
)
from repro.core.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.core.shm import (
    SharedDieStore,
    attach_stacked_die,
    discard_fork_state,
    fork_state,
    install_fork_state,
    live_segment_names,
    publish_stacked_die,
)
from repro.core.stacked import FUSED_FIELDS, ROLE_ORDER, build_stacked_die
from repro.errors import ExperimentError, ShardFailedError
from repro.patterns import ALL_PATTERNS

pytestmark = pytest.mark.shm

T_VALUES = [36.0, 7_800.0]


def _stacked(config, module, die=0):
    return build_stacked_die(
        module.chip(die), config.bank, config.selection, config.data_pattern
    )


def _run(config, modules, executor, **kwargs):
    engine = SweepEngine(config, executor=executor)
    results = engine.run(modules, T_VALUES, ALL_PATTERNS, trials=2, **kwargs)
    return engine, results


# ------------------------------------------------------ publish / attach


def test_publish_attach_round_trip(fast_config, s0_module):
    stacked = _stacked(fast_config, s0_module)
    segment, handle = publish_stacked_die(stacked)
    attached_segment, attached = attach_stacked_die(handle)
    try:
        assert attached.module_key == stacked.module_key
        assert attached.die_index == stacked.die_index
        assert attached.bank == stacked.bank
        assert attached.base_rows == tuple(stacked.base_rows)
        for name in FUSED_FIELDS:
            np.testing.assert_array_equal(
                getattr(attached.fused, name), getattr(stacked.fused, name)
            )
        assert set(attached.roles) == set(ROLE_ORDER) == set(stacked.roles)
    finally:
        attached_segment.close()
        segment.close()
        segment.unlink()


def test_attached_arrays_are_read_only(fast_config, s0_module):
    segment, handle = publish_stacked_die(_stacked(fast_config, s0_module))
    attached_segment, attached = attach_stacked_die(handle)
    try:
        with pytest.raises(ValueError):
            attached.fused.theta[0, 0] = 1.0
        with pytest.raises(ValueError):
            attached.roles[ROLE_ORDER[0]].theta[0, 0] = 1.0
    finally:
        attached_segment.close()
        segment.close()
        segment.unlink()


def test_handle_is_small_and_picklable(fast_config, s0_module):
    import pickle

    segment, handle = publish_stacked_die(_stacked(fast_config, s0_module))
    try:
        payload = pickle.dumps(handle)
        # The recipe crosses the pool boundary; the cell arrays must not.
        assert len(payload) < 4096 < handle.nbytes
        assert pickle.loads(payload) == handle
    finally:
        segment.close()
        segment.unlink()


def test_store_publish_is_idempotent_and_close_unlinks(
    fast_config, s0_module
):
    stacked = _stacked(fast_config, s0_module)
    store = SharedDieStore()
    first = store.publish(stacked)
    assert store.publish(stacked) is first
    assert len(store) == 1
    assert first.segment in live_segment_names()
    store.close()
    assert first.segment not in live_segment_names()
    store.close()  # idempotent
    with pytest.raises(ExperimentError):
        store.publish(stacked)


# -------------------------------------------------------- fork registry


def test_fork_state_round_trip():
    payload = object()
    token = install_fork_state(payload)
    try:
        assert fork_state(token) is payload
    finally:
        discard_fork_state(token)
    with pytest.raises(ExperimentError, match="fork-inherited"):
        fork_state(token)
    discard_fork_state(token)  # idempotent


# ------------------------------------------------------ segment lifecycle


@pytest.fixture(scope="module")
def serial_baseline(fast_config, s0_module):
    _, results = _run(fast_config, [s0_module], SerialExecutor())
    return results


def test_shm_run_identical_and_unlinked(
    fast_config, s0_module, serial_baseline
):
    _, results = _run(
        fast_config, [s0_module], ProcessExecutor(2, share_mode="shm")
    )
    assert list(results) == list(serial_baseline)
    assert live_segment_names() == frozenset()


def test_shm_segments_unlinked_after_worker_failure(
    fast_config, s0_module, tmp_path
):
    fault = FaultPlan(
        [FaultSpec(shard_index=0, kind="raise", times=99)],
        state_dir=tmp_path,
    )
    with pytest.raises(ShardFailedError):
        SweepEngine(
            fast_config, executor=ProcessExecutor(2, share_mode="shm")
        ).run(
            [s0_module],
            T_VALUES,
            ALL_PATTERNS,
            trials=1,
            policy=RetryPolicy(max_retries=1, backoff_base=0.0),
            fault_plan=fault,
        )
    assert live_segment_names() == frozenset()


def test_shm_segments_unlinked_after_keyboard_interrupt(
    fast_config, s0_module, monkeypatch
):
    published = []
    original = SharedDieStore.publish

    def tracking_publish(self, stacked):
        handle = original(self, stacked)
        published.append(handle.segment)
        return handle

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt()

    monkeypatch.setattr(SharedDieStore, "publish", tracking_publish)
    # The pool is created after worker state is built: interrupting
    # there simulates Ctrl-C landing mid-campaign, segments live.
    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", interrupt)
    with pytest.raises(KeyboardInterrupt):
        _run(fast_config, [s0_module], ProcessExecutor(2, share_mode="shm"))
    assert published, "the campaign never reached the shm publish step"
    assert live_segment_names() == frozenset()


def test_shm_kill_and_resume_bit_identical(
    fast_config, s0_module, serial_baseline, tmp_path
):
    journal = tmp_path / "campaign.jsonl"
    fault = FaultPlan(
        [FaultSpec(shard_index=3, kind="raise", times=99)],
        state_dir=tmp_path,
    )
    with pytest.raises(ShardFailedError):
        SweepEngine(
            fast_config, executor=ProcessExecutor(2, share_mode="shm")
        ).run(
            [s0_module],
            T_VALUES,
            ALL_PATTERNS,
            trials=2,
            policy=RetryPolicy(max_retries=1, backoff_base=0.0),
            fault_plan=fault,
            checkpoint=str(journal),
        )
    assert live_segment_names() == frozenset()
    engine, resumed = _run(
        fast_config,
        [s0_module],
        ProcessExecutor(2, share_mode="shm"),
        checkpoint=str(journal),
        resume=True,
    )
    assert list(resumed) == list(serial_baseline)
    assert engine.last_report.n_resumed > 0
    assert live_segment_names() == frozenset()


# -------------------------------------------------- cross-mode identity


@pytest.mark.parametrize("mode", ["fork", "shm"])
def test_share_modes_bit_identical(
    fast_config, s0_module, serial_baseline, mode
):
    if mode == "fork" and not shm_mod.fork_sharing_available():
        pytest.skip("fork start method unavailable")
    _, results = _run(
        fast_config, [s0_module], ProcessExecutor(2, share_mode=mode)
    )
    assert list(results) == list(serial_baseline)


def test_invalid_share_mode_rejected():
    # Worker state is derived; only "fork" and "shm" can be pinned.
    for mode in ("carrier-pigeon", "pickle", "auto"):
        with pytest.raises(ExperimentError, match="share_mode"):
            ProcessExecutor(2, share_mode=mode)


# ------------------------------------------------------- auto executor


def test_make_executor_accepts_auto():
    assert isinstance(make_executor("auto"), AutoExecutor)
    assert isinstance(make_executor("4"), ProcessExecutor)
    assert isinstance(make_executor("1"), SerialExecutor)
    with pytest.raises(ExperimentError):
        make_executor("several")


def test_auto_picks_serial_on_one_core(
    fast_config, s0_module, serial_baseline, monkeypatch
):
    monkeypatch.setattr(engine_mod, "_usable_cpus", lambda: 1)
    executor = AutoExecutor()
    engine, results = _run(fast_config, [s0_module], executor)
    assert list(results) == list(serial_baseline)
    decision = engine.last_report.auto_decision
    assert decision is not None and decision["chosen"] == "serial"
    assert executor.last_decision == decision


def test_auto_picks_pool_when_cores_and_work_abound(
    fast_config, s0_module, serial_baseline, monkeypatch
):
    monkeypatch.setattr(engine_mod, "_usable_cpus", lambda: 4)
    executor = AutoExecutor()
    # Make any estimated remaining work worth parallelizing.
    monkeypatch.setattr(executor, "min_parallel_seconds", 0.0)
    engine, results = _run(fast_config, [s0_module], executor)
    assert list(results) == list(serial_baseline)
    decision = engine.last_report.auto_decision
    assert decision is not None and decision["chosen"] == "process"
    assert live_segment_names() == frozenset()


def test_auto_counts_usable_cpus_not_installed_ones(
    fast_config, s0_module, serial_baseline, monkeypatch
):
    # A 1-CPU affinity mask (``taskset -c 0``) on a 4-core machine: the
    # pool would contend for the one CPU the process may use.
    monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(
        engine_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False
    )
    executor = AutoExecutor()
    monkeypatch.setattr(executor, "min_parallel_seconds", 0.0)
    engine, results = _run(fast_config, [s0_module], executor)
    assert list(results) == list(serial_baseline)
    decision = engine.last_report.auto_decision
    assert decision["chosen"] == "serial"
    assert decision["cpu_count"] == 1


def test_auto_runs_fully_memoized_plan_serially(fast_config, s0_module):
    from repro.core.runner import CharacterizationRunner

    runner = CharacterizationRunner(fast_config)
    first = runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=2, workers=0
    )
    executor = AutoExecutor(4)
    warm = runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=2, executor=executor
    )
    assert list(warm) == list(first)
    assert executor.last_decision is not None
    assert executor.last_decision["chosen"] == "serial"


# ------------------------------------------------- oversubscription warning


def test_oversubscription_warns_and_lands_in_report(fast_config, s0_module):
    workers = (os.cpu_count() or 1) + 2
    with pytest.warns(UserWarning, match="oversubscribe"):
        engine, results = _run(
            fast_config, [s0_module], ProcessExecutor(workers)
        )
    report = engine.last_report
    assert any("oversubscribe" in w for w in report.warnings)
    assert "oversubscribe" in report.summary()
