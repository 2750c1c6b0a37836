"""Tests for the parallel sweep execution engine.

The engine's core guarantee: the same campaign produces bit-identical
:class:`~repro.core.results.ResultSet`s (same measurements, same order)
no matter which executor runs it.  These tests assert that on a
2-module subset across the serial and process executors, plus
the supporting invariants: canonical plan order, the seeded trial
jitter's independence from execution context, and the runner-level
measurement memoization.

The process pool has two worker-state modes, picked from the platform:
fork inheritance, and the pickled :class:`CharacterizationWorkerSpec`
everywhere else.  Tests reach the spec mode on fork platforms by
monkeypatching ``engine.fork_sharing_available``; the auto executor's
serial-vs-pool choice is tested here too.
"""

from __future__ import annotations

import functools
import gc
import multiprocessing
import multiprocessing.forkserver
import os
import pickle
import resource
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import system
from repro.core import engine as engine_mod
from repro.core.engine import (
    AutoExecutor,
    ProcessExecutor,
    SerialExecutor,
    ShardRunner,
    SweepPlan,
    fork_sharing_available,
    make_executor,
)
from repro.core.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.core.experiment import CharacterizationConfig
from repro.core.runner import CharacterizationRunner
from repro.core.stacked import ROLE_ORDER, build_stacked_die
from repro.disturb import calibration
from repro.disturb.population import trial_jitter
from repro.dram.rowselect import RowSelection
from repro.dram.topology import BankGeometry
from repro.errors import ExperimentError, ShardFailedError
from repro.obs import Observability, ProgressReporter
from repro.patterns import ALL_PATTERNS
from repro.patterns.dsl import resolve_pattern
from repro.system import build_module

T_VALUES = [36.0, 7_800.0]


@pytest.fixture(scope="module")
def two_modules(s0_module, m4_module):
    return [s0_module, m4_module]


def _run(config, modules, executor, **kwargs):
    return CharacterizationRunner(config).characterize(
        modules, T_VALUES, ALL_PATTERNS, trials=2, executor=executor, **kwargs
    )


@pytest.fixture(scope="module")
def serial_baseline(fast_config, s0_module):
    return _run(fast_config, [s0_module], SerialExecutor())


@pytest.fixture
def spec_mode(monkeypatch):
    """Send pool workers the pickled spec even where fork is available."""
    monkeypatch.setattr(engine_mod, "fork_sharing_available", lambda: False)


@pytest.fixture
def fork_mode():
    if not fork_sharing_available():
        pytest.skip("fork start method unavailable")


# ------------------------------------------------------------- determinism


def test_serial_process_identical(fast_config, two_modules):
    """Serial and process executors produce bit-identical result sets."""
    serial = _run(fast_config, two_modules, SerialExecutor())
    pooled = _run(fast_config, two_modules, ProcessExecutor(workers=2))
    assert list(serial) == list(pooled)


def test_engine_matches_runner_facade(fast_config, two_modules):
    """An explicit serial executor matches the default ``workers`` path."""
    engine_results = _run(fast_config, two_modules, SerialExecutor())
    runner = CharacterizationRunner(fast_config)
    facade = runner.characterize(two_modules, T_VALUES, ALL_PATTERNS, trials=2)
    assert list(engine_results) == list(facade)


def test_plan_canonical_order(two_modules):
    """The plan enumerates modules, dies, patterns, t, trials in order."""
    plan = SweepPlan.build(two_modules, T_VALUES, ALL_PATTERNS, trials=2)
    expected = [
        (module.key, die, pattern.name, t_on, trial)
        for module in two_modules
        for die in range(module.n_dies)
        for pattern in ALL_PATTERNS
        for t_on in T_VALUES
        for trial in range(2)
    ]
    flattened = [
        (u.module_key, u.die, u.pattern.name, u.t_on, u.trial)
        for shard in plan.shards
        for u in shard.units
    ]
    assert flattened == expected
    # One shard per (module, die), indexed in plan order.
    assert [s.index for s in plan.shards] == list(range(len(plan.shards)))
    assert len({s.key for s in plan.shards}) == len(plan.shards)


# ------------------------------------------------------------ trial jitter


def test_jitter_depends_only_on_role_trial_sigma(fast_config, s0_module):
    """Trial jitter is a pure function of (die, role, trial, sigma).

    Two independently built stacks of the same die produce identical
    jitter arrays -- jitter never depends on pattern, tAggON, or when the
    stack was built -- so every executor derives the same trials.
    """
    build = lambda: build_stacked_die(
        s0_module.chip(0),
        fast_config.bank,
        fast_config.selection,
        fast_config.data_pattern,
    )
    a, b = build(), build()
    for role in ROLE_ORDER:
        for trial in (0, 1, 2):
            np.testing.assert_array_equal(
                a.jitter(role, trial), b.jitter(role, trial)
            )
    # Trial 0 is the jitter-free reference; later trials perturb it.
    assert np.all(a.jitter("inner", 0) == 1.0)
    assert not np.all(a.jitter("inner", 1) == 1.0)
    assert not np.array_equal(a.jitter("inner", 1), a.jitter("inner", 2))
    # Sigma is part of the key: a different sigma rescales the jitter.
    assert not np.array_equal(
        a.jitter("inner", 1, sigma=0.02), a.jitter("inner", 1, sigma=0.05)
    )


def test_fused_jitter_matches_per_role_stack(fast_config, s0_module):
    stacked = build_stacked_die(
        s0_module.chip(0),
        fast_config.bank,
        fast_config.selection,
        fast_config.data_pattern,
    )
    fused = stacked.fused_jitter(1)
    per_role = np.concatenate([stacked.jitter(role, 1) for role in ROLE_ORDER])
    np.testing.assert_array_equal(fused, per_role)


def test_jitter_matches_population_stream(fast_config, s0_module):
    """The stack's cached jitter is the population-level stream verbatim."""
    stacked = build_stacked_die(
        s0_module.chip(0),
        fast_config.bank,
        fast_config.selection,
        fast_config.data_pattern,
    )
    arrays = stacked.roles["inner"]
    from repro.core.stacked import _jitter_key

    expected = trial_jitter(
        stacked.module_key,
        stacked.die_index,
        _jitter_key(stacked.bank, 1),  # "inner" is the offset +1 role
        arrays.theta.size,
        2,
        sigma=0.02,
    ).reshape(arrays.theta.shape)
    np.testing.assert_array_equal(stacked.jitter("inner", 2), expected)


# ------------------------------------------------------------- memoization


def test_measurement_cache_returns_identical_results(fast_config, s0_module):
    """Re-running a campaign on one runner hits the measurement cache."""
    runner = CharacterizationRunner(fast_config)
    first = runner.characterize([s0_module], T_VALUES, dies=[0], trials=2)
    second = runner.characterize([s0_module], T_VALUES, dies=[0], trials=2)
    assert list(first) == list(second)
    # The second run returns the memoized record objects themselves.
    assert all(a is b for a, b in zip(first, second))


def test_measurement_cache_consistent_with_fresh_runner(fast_config, s0_module):
    """Cache reuse across campaigns never changes the reported values."""
    warm = CharacterizationRunner(fast_config)
    warm.characterize([s0_module], T_VALUES, dies=[0, 1], trials=1)
    # Anchor-style revisit: same points plus extra trials, partially cached.
    revisit = warm.characterize([s0_module], [36.0], dies=[0, 1], trials=3)
    fresh = CharacterizationRunner(fast_config).characterize(
        [s0_module], [36.0], dies=[0, 1], trials=3
    )
    assert list(revisit) == list(fresh)


# ---------------------------------------------------------------- executors


def test_make_executor_selection():
    assert isinstance(make_executor(None), SerialExecutor)
    assert isinstance(make_executor(1), SerialExecutor)
    assert isinstance(make_executor(4), ProcessExecutor)
    # No executor-kind knob: the worker count alone picks the executor.
    with pytest.raises(TypeError):
        make_executor(4, kind="process")


def test_make_executor_accepts_auto():
    assert isinstance(make_executor("auto"), AutoExecutor)
    assert isinstance(make_executor("4"), ProcessExecutor)
    assert isinstance(make_executor("1"), SerialExecutor)
    with pytest.raises(ExperimentError):
        make_executor("several")


# ------------------------------------------------------------ worker spec


@pytest.mark.parametrize("mode", ["fork", "spec"])
def test_worker_state_modes_bit_identical(
    fast_config, s0_module, serial_baseline, monkeypatch, mode
):
    if mode == "fork" and not fork_sharing_available():
        pytest.skip("fork start method unavailable")
    if mode == "spec":
        monkeypatch.setattr(
            engine_mod, "fork_sharing_available", lambda: False
        )
    events = []
    reporter = ProgressReporter()
    reporter.emit = events.append
    obs = Observability(reporters=[reporter])
    results = CharacterizationRunner(fast_config, obs=obs).characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=2,
        executor=ProcessExecutor(2),
    )
    assert list(results) == list(serial_baseline)
    assert obs.metrics.counter(f"worker_state.{mode}") == 1
    other = "spec" if mode == "fork" else "fork"
    assert obs.metrics.counter(f"worker_state.{other}") == 0
    assert [e["mode"] for e in events if e["event"] == "worker_state"] == [
        mode
    ]


def test_fork_workers_never_pickle_the_runner(
    fast_config, s0_module, serial_baseline, monkeypatch, fork_mode
):
    """Under fork the runner reaches the workers through the pool
    initializer's arguments, which a forked worker inherits unpickled --
    so a runner that cannot be pickled still runs on the pool."""

    def refuse(self, protocol):
        raise AssertionError("a ShardRunner was pickled")

    monkeypatch.setattr(ShardRunner, "__reduce_ex__", refuse)
    with pytest.raises(AssertionError, match="was pickled"):
        pickle.dumps(ShardRunner(fast_config, {s0_module.key: s0_module}))
    results = _run(fast_config, [s0_module], ProcessExecutor(2))
    assert list(results) == list(serial_baseline)


def test_worker_spec_pickles_without_cell_arrays(fast_config, s0_module):
    runner = ShardRunner(fast_config, {s0_module.key: s0_module})
    plan = SweepPlan.build([s0_module], T_VALUES, ALL_PATTERNS, trials=1)
    runner.run(plan.shards[0])  # the parent now holds die 0's stack
    payload = pickle.dumps(runner.spec)
    # The modules cross the pool boundary; the cell arrays must not.
    assert len(payload) < runner.analyzer(s0_module, 0).stacked.fused.theta.nbytes
    rebuilt = pickle.loads(payload).build_runner()
    assert rebuilt.run(plan.shards[1]) == runner.run(plan.shards[1])


def test_build_runner_drops_what_its_shard_builds(fast_config, s0_module):
    """A per-shard sibling reuses the parent's dies and memo but leaves
    the parent's caches as they were."""
    analyzers, memo = {}, {}
    runner = ShardRunner(
        fast_config, {s0_module.key: s0_module}, memo, analyzers
    )
    plan = SweepPlan.build([s0_module], T_VALUES, ALL_PATTERNS, trials=1)
    first = runner.run(plan.shards[0])
    before_analyzers, before_memo = dict(analyzers), dict(memo)
    sibling = runner.build_runner()
    assert sibling.analyzer(s0_module, 0) is runner.analyzer(s0_module, 0)
    assert sibling.run(plan.shards[0]) == first
    measured = sibling.run(plan.shards[1])
    assert analyzers == before_analyzers
    assert memo == before_memo
    assert measured == ShardRunner(
        fast_config, {s0_module.key: s0_module}
    ).run(plan.shards[1])


@pytest.mark.parametrize("mode", ["fork", "spec"])
def test_pool_worker_holds_one_die_at_a_time(
    fast_config, s0_module, serial_baseline, monkeypatch, mode
):
    """A one-worker pool runs every S0 shard, yet never has two dies'
    analyzers alive at once: a worker's memory is bounded by one shard.

    The tracking patch is made in the parent, so forked workers (both
    modes fork here; spec mode only changes what the pool hands them)
    inherit it and raise inside the worker on a violation."""
    if not fork_sharing_available():
        pytest.skip("workers must inherit the tracking patch")
    if mode == "spec":
        monkeypatch.setattr(
            engine_mod, "fork_sharing_available", lambda: False
        )
    _track_live_analyzers(monkeypatch)
    results = _run(fast_config, [s0_module], ProcessExecutor(1))
    assert list(results) == list(serial_baseline)


def _track_live_analyzers(monkeypatch):
    """Patch ``ShardRunner.analyzer`` to raise if another die's analyzer
    is still alive when one is built; returns the live-analyzer map."""
    live = weakref.WeakKeyDictionary()
    build = ShardRunner.analyzer

    def tracked(self, module, die, *args, **kwargs):
        analyzer = build(self, module, die, *args, **kwargs)
        gc.collect()
        stale = sorted({d for d in list(live.values()) if d != die})
        if stale:
            raise AssertionError(
                f"die {die}'s analyzer built while dies {stale} are alive"
            )
        live[analyzer] = die
        return analyzer

    monkeypatch.setattr(ShardRunner, "analyzer", tracked)
    return live


def test_serial_sweep_holds_one_die_at_a_time(
    fast_config, s0_module, serial_baseline, monkeypatch
):
    """A serial sweep drops each die's analyzer with its shard, as pool
    workers do, so its memory is bounded by one die, not by the module."""
    live = _track_live_analyzers(monkeypatch)
    obs = Observability()
    runner = CharacterizationRunner(fast_config, obs=obs)
    results = runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=2, workers=1
    )
    assert list(results) == list(serial_baseline)
    gc.collect()
    assert not list(live.values())
    counters = obs.metrics.snapshot()["counters"]
    assert counters["cache.analyzer.misses"] == s0_module.n_dies


def test_only_kept_analyzers_cache_bases(fast_config, s0_module, monkeypatch):
    """Analyzers a campaign or a pool worker's per-shard runner builds
    live for one shard, which visits each point once, so they hold no
    base cache; ``measure``'s kept analyzer caches its bases."""
    built = []
    build = ShardRunner.analyzer

    def recorded(self, module, die, *args, **kwargs):
        analyzer = build(self, module, die, *args, **kwargs)
        built.append(analyzer)
        return analyzer

    monkeypatch.setattr(ShardRunner, "analyzer", recorded)
    runner = CharacterizationRunner(fast_config)
    runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, dies=[0], trials=1, workers=1
    )
    plan = SweepPlan.build([s0_module], T_VALUES, ALL_PATTERNS, trials=1)
    parent = ShardRunner(fast_config, {s0_module.key: s0_module})
    parent.build_runner().run(plan.shards[1])
    parent.spec.build_runner().run(plan.shards[2])
    assert len(built) == 3
    assert all(analyzer._bases is None for analyzer in built)
    runner.measure(s0_module, 3, ALL_PATTERNS[0], T_VALUES[0])
    assert built[-1]._bases


def test_measure_and_stacked_die_keep_their_analyzers(fast_config, s0_module):
    """``stacked_die`` and ``measure`` still cache per die, and a sweep
    reuses (and keeps) what they cached while dropping what it builds."""
    obs = Observability()
    runner = CharacterizationRunner(fast_config, obs=obs)
    stacked = runner.stacked_die(s0_module, 0)
    assert runner.stacked_die(s0_module, 0) is stacked
    runner.measure(s0_module, 1, ALL_PATTERNS[0], T_VALUES[0])
    runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, dies=[0, 1, 2], trials=1,
        workers=1,
    )
    counters = obs.metrics.snapshot()["counters"]
    # Misses: die 0 and die 1 once each before the sweep, then die 2.
    assert counters["cache.analyzer.misses"] == 3
    assert runner.stacked_die(s0_module, 0) is stacked
    hits = obs.metrics.snapshot()["counters"]["cache.analyzer.hits"]
    runner.measure(s0_module, 1, ALL_PATTERNS[0], T_VALUES[-1], trial=1)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["cache.analyzer.hits"] == hits + 1
    assert counters["cache.analyzer.misses"] == 3


def test_process_executor_checks_shards_before_the_pool(
    fast_config, s0_module, m4_module, monkeypatch
):
    def no_pool(*args, **kwargs):
        raise AssertionError("pool started for a plan no worker can run")

    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", no_pool)
    runner = ShardRunner(fast_config, {s0_module.key: s0_module})
    plan = SweepPlan.build(
        [s0_module, m4_module], T_VALUES, ALL_PATTERNS, dies=[0]
    )
    with pytest.raises(ExperimentError, match="no module"):
        ProcessExecutor(2).map_shards(plan, runner)


def test_spec_mode_kill_and_resume_bit_identical(
    fast_config, s0_module, serial_baseline, tmp_path, spec_mode
):
    journal = tmp_path / "campaign.jsonl"
    fault = FaultPlan(
        [FaultSpec(shard_index=3, kind="raise", times=99)],
        state_dir=tmp_path,
    )
    with pytest.raises(ShardFailedError):
        _run(
            fast_config,
            [s0_module],
            ProcessExecutor(2),
            policy=RetryPolicy(max_retries=1, backoff_base=0.0),
            fault_plan=fault,
            checkpoint=str(journal),
        )
    runner = CharacterizationRunner(fast_config)
    resumed = runner.characterize(
        [s0_module],
        T_VALUES,
        ALL_PATTERNS,
        trials=2,
        executor=ProcessExecutor(2),
        checkpoint=str(journal),
        resume=True,
    )
    assert list(resumed) == list(serial_baseline)
    assert runner.last_report.n_resumed > 0


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="forkserver start method unavailable",
)
def test_spec_mode_under_forkserver_with_wide_footprints(
    fast_config, s0_module, monkeypatch, spec_mode
):
    """Real non-fork workers unpickle the spec and build every stack --
    including DSL patterns whose victims reach past the canonical
    triple -- bit-identically to the serial path."""
    monkeypatch.setattr(
        engine_mod,
        "ProcessPoolExecutor",
        functools.partial(
            ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("forkserver"),
        ),
    )
    patterns = tuple(ALL_PATTERNS) + tuple(
        resolve_pattern(name) for name in ("half-double", "4-sided-combined")
    )

    def run(executor):
        return CharacterizationRunner(fast_config).characterize(
            [s0_module], T_VALUES[:1], patterns, dies=[0, 1], trials=2,
            executor=executor,
        )

    assert list(run(ProcessExecutor(2))) == list(run(SerialExecutor()))


# ------------------------------------------------------------ auto executor


def test_auto_picks_serial_on_one_core(
    fast_config, s0_module, serial_baseline, monkeypatch
):
    monkeypatch.setattr(engine_mod, "_usable_cpus", lambda: 1)
    executor = AutoExecutor()
    runner = CharacterizationRunner(fast_config)
    results = runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=2, executor=executor
    )
    assert list(results) == list(serial_baseline)
    decision = runner.last_report.auto_decision
    assert decision is not None and decision["chosen"] == "serial"
    assert executor.last_decision == decision


def test_auto_picks_pool_when_cores_and_work_abound(
    fast_config, s0_module, serial_baseline, monkeypatch
):
    monkeypatch.setattr(engine_mod, "_usable_cpus", lambda: 4)
    executor = AutoExecutor()
    # Make any estimated remaining work worth parallelizing.
    monkeypatch.setattr(executor, "min_parallel_seconds", 0.0)
    runner = CharacterizationRunner(fast_config)
    results = runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=2, executor=executor
    )
    assert list(results) == list(serial_baseline)
    decision = runner.last_report.auto_decision
    assert decision is not None and decision["chosen"] == "process"


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
    runner = CharacterizationRunner(fast_config)
    results = runner.characterize(
        [s0_module], T_VALUES, ALL_PATTERNS, trials=2, executor=executor
    )
    assert list(results) == list(serial_baseline)
    decision = runner.last_report.auto_decision
    assert decision["chosen"] == "serial"
    assert decision["cpu_count"] == 1


def test_auto_runs_fully_memoized_plan_serially(fast_config, s0_module):
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


def test_oversubscription_warns_and_lands_in_report(fast_config, s0_module):
    workers = (os.cpu_count() or 1) + 2
    runner = CharacterizationRunner(fast_config)
    with pytest.warns(UserWarning, match="oversubscribe"):
        runner.characterize(
            [s0_module], T_VALUES, ALL_PATTERNS, trials=2,
            executor=ProcessExecutor(workers),
        )
    report = runner.last_report
    assert any("oversubscribe" in w for w in report.warnings)
    assert "oversubscribe" in report.summary()


def test_auto_executor_does_not_warn_of_oversubscription(
    fast_config, s0_module, monkeypatch
):
    """AutoExecutor caps its pool at the usable CPUs, so asking it for
    more workers than that oversubscribes nothing and warns of nothing."""
    executor = AutoExecutor(engine_mod._usable_cpus() + 2)
    monkeypatch.setattr(executor, "min_parallel_seconds", 0.0)
    runner = CharacterizationRunner(fast_config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runner.characterize(
            [s0_module], T_VALUES, ALL_PATTERNS, trials=2, executor=executor
        )
    assert not [w for w in caught if "oversubscribe" in str(w.message)]
    assert not any("oversubscribe" in w for w in runner.last_report.warnings)
    decision = executor.last_decision
    assert decision["workers"] <= engine_mod._usable_cpus()
    if engine_mod._usable_cpus() > 1:
        assert decision["chosen"] == "process"


# ------------------------------------------------- worker allocator policy

#: The benchmark's characterization geometry (``BENCH_sweep.json``).
BENCH_CONFIG = CharacterizationConfig(
    geometry=BankGeometry(rows=4096, cols_simulated=256),
    selection=RowSelection(locations_per_region=24, n_regions=3, stride=8),
    trials=1,
)

#: The benchmark's 7-point tAggON sweep.
SWEEP_T = [36.0, 120.0, 636.0, 2_000.0, 7_800.0, 30_000.0, 70_200.0]

#: Minor page faults a pool worker may take per task (a shard, or a
#: module to calibrate) beyond its first.  On a 2-vCPU glibc 2.36 host
#: workers took 3.3-4.0k per shard and 8.4-10.2k per module with glibc's
#: dynamic thresholds, and 3-41 with them fixed.
MAX_FAULTS_PER_TASK = 1_000

START_METHODS = [
    pytest.param(
        method,
        marks=pytest.mark.skipif(
            method not in multiprocessing.get_all_start_methods(),
            reason=f"{method} start method unavailable",
        ),
    )
    for method in ("fork", "forkserver")
]


@pytest.fixture
def pool_start_method(request, monkeypatch):
    """Run both pools under the parametrized start method; forkserver
    workers get the spec, as on every non-fork platform."""
    if engine_mod._glibc_mallopt() is None:
        pytest.skip("no glibc mallopt: the allocator policy is a no-op")
    method = request.param
    pool = functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)
    )
    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(system, "ProcessPoolExecutor", pool)
    if method != "fork":
        monkeypatch.setattr(engine_mod, "fork_sharing_available", lambda: False)
    return method


def _worker_faults(start_method, run) -> int:
    """Minor page faults of the pool workers ``run`` starts and shuts down.

    A worker's usage reaches ``RUSAGE_CHILDREN`` once it is reaped: fork
    workers by this process, forkserver workers by the fork server, which
    is therefore stopped (and reaped) before and after ``run``.
    """

    def stop_fork_server():
        if start_method == "forkserver":
            multiprocessing.forkserver._forkserver._stop()

    stop_fork_server()
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    run()
    stop_fork_server()
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


def _faults_per_extra_task(start_method, run, small, large) -> float:
    """Faults per task beyond a one-worker pool's first: the difference
    between runs over ``large`` and ``small`` tasks cancels each
    worker's start-up (imports, its first task's working set)."""
    few = _worker_faults(start_method, lambda: run(small))
    many = _worker_faults(start_method, lambda: run(large))
    return (many - few) / (len(large) - len(small))


@pytest.fixture(scope="module")
def bench_s0():
    return build_module("S0", BENCH_CONFIG)


@pytest.mark.parametrize("pool_start_method", START_METHODS, indirect=True)
def test_shard_workers_keep_their_freed_memory(bench_s0, pool_start_method):
    """A one-worker pool over S0's dies at the benchmark geometry: with
    the allocator thresholds fixed, later shards reuse the memory the
    first one freed instead of faulting it in again."""

    def run(dies):
        CharacterizationRunner(BENCH_CONFIG).characterize(
            [bench_s0], SWEEP_T, ALL_PATTERNS, dies=dies,
            executor=ProcessExecutor(1),
        )

    per_shard = _faults_per_extra_task(
        pool_start_method, run, [0], list(range(bench_s0.n_dies))
    )
    assert per_shard < MAX_FAULTS_PER_TASK


@pytest.mark.parametrize("pool_start_method", START_METHODS, indirect=True)
def test_calibration_workers_keep_their_freed_memory(pool_start_method):
    def run(keys):
        system._calibrate_on_pool(keys, BENCH_CONFIG, 1)

    per_module = _faults_per_extra_task(
        pool_start_method, run, ["S1"], ["S1", "S2", "S3"]
    )
    assert per_module < MAX_FAULTS_PER_TASK


def test_malloc_thresholds_are_a_silent_no_op_without_mallopt(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(engine_mod, "_glibc_mallopt", lambda: None)
        assert engine_mod.fix_malloc_thresholds() is False
        # A C library without the symbol, or without glibc's confstr name.
        monkeypatch.undo()
        monkeypatch.setattr(engine_mod.ctypes, "CDLL", lambda name: object())
        assert engine_mod._glibc_mallopt() is None
        monkeypatch.undo()
        monkeypatch.setattr(
            engine_mod.os, "confstr", _raise(ValueError("unrecognized")),
            raising=False,
        )
        assert engine_mod._glibc_mallopt() is None


def test_malloc_thresholds_stop_at_a_refused_value(monkeypatch):
    calls = []

    def mallopt(returns):
        def call(param, value):
            calls.append((param, value))
            return returns.pop(0)

        return call

    mmap = (engine_mod._M_MMAP_THRESHOLD, 32 * 1024 * 1024)
    trim = (engine_mod._M_TRIM_THRESHOLD, 64 * 1024 * 1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The mmap threshold is refused: the trim threshold, which alone
        # would freeze mmap at 128 KiB, is left alone.
        monkeypatch.setattr(engine_mod, "_glibc_mallopt", lambda: mallopt([0]))
        assert engine_mod.fix_malloc_thresholds() is False
        assert calls == [mmap]
        calls.clear()
        monkeypatch.setattr(
            engine_mod, "_glibc_mallopt", lambda: mallopt([1, 0])
        )
        assert engine_mod.fix_malloc_thresholds() is False
        calls.clear()
        monkeypatch.setattr(
            engine_mod, "_glibc_mallopt", lambda: mallopt([1, 1])
        )
        assert engine_mod.fix_malloc_thresholds() is True
        assert calls == [mmap, trim]


def _raise(exc):
    def call(*args, **kwargs):
        raise exc

    return call


class _CountCalls:
    """Counts calls in this process (a worker's count stays its own)."""

    calls = 0

    def __call__(self) -> None:
        type(self).calls += 1


_IN_CALLER = _CountCalls()


class _InitializerSpy(ProcessPoolExecutor):
    initializers = []

    def __init__(self, *args, initializer=None, **kwargs):
        type(self).initializers.append(initializer)
        super().__init__(*args, initializer=initializer, **kwargs)


def test_only_pool_initializers_fix_the_thresholds(
    fast_config, s0_module, monkeypatch
):
    """Both pools are built with an initializer that fixes the worker's
    thresholds, and the calling process never fixes its own."""
    monkeypatch.setattr(_IN_CALLER, "calls", 0)
    monkeypatch.setattr(engine_mod, "fix_malloc_thresholds", _IN_CALLER)
    monkeypatch.setattr(_InitializerSpy, "initializers", [])
    monkeypatch.setattr(system, "ProcessPoolExecutor", _InitializerSpy)
    monkeypatch.setattr(engine_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine_mod.AutoExecutor, "min_parallel_seconds", 0.0)
    calibration._calibrate_cached.cache_clear()
    system.build_modules(["H0", "H1", "H2"], fast_config)
    assert _InitializerSpy.initializers == [engine_mod.fix_malloc_thresholds]

    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", _InitializerSpy)
    _run(fast_config, [s0_module], ProcessExecutor(2))
    _run(fast_config, [s0_module], SerialExecutor())
    assert _InitializerSpy.initializers[1:] == [engine_mod._start_worker]
    assert _IN_CALLER.calls == 0
