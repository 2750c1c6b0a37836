"""Parallel sweep execution engine.

The engine turns a characterization campaign into an explicit work-list,
executes it through a pluggable executor, and reassembles the results in
a deterministic canonical order -- parallel and serial runs of the same
campaign produce byte-identical :class:`~repro.core.results.ResultSet`s.

Structure
---------

* :class:`SweepPlan` enumerates the full (module, die, pattern, tAggON,
  trial) work-list up front and groups it into :class:`Shard`s, one per
  (module, die).  A shard is the unit of dispatch: every measurement of a
  shard reuses one :class:`~repro.core.stacked.StackedDie` and one
  :class:`~repro.core.acmin.DieSweepAnalyzer`, so the expensive per-die
  state is built exactly once per worker instead of being shipped across
  an executor boundary.
* Executors run shards: :class:`SerialExecutor` in-process in plan order,
  :class:`ThreadExecutor` on a thread pool, :class:`ProcessExecutor`
  on a :class:`~concurrent.futures.ProcessPoolExecutor`, and
  :class:`AutoExecutor` -- the default behind ``--workers auto`` -- which
  probes the first unmemoized shard and picks serial or process per
  campaign from the measured cost.
* Process workers get the parent's state without rebuilding it.  Under
  the ``fork`` start method they inherit the parent runner -- modules,
  stacked dies, analyzer caches, and memoized measurements -- through a
  fork-state token; under any other start method each worker receives
  the runner's value-only :class:`CharacterizationWorkerSpec` (config
  plus modules, no cell arrays), pickled once per worker, and builds its
  own stacks from it.  The pool submits one task per shard through one
  loop.
* Results stream back per shard and are reassembled in canonical order:
  modules in call order, dies ascending, then patterns x tAggON x trials
  exactly as the serial 5-deep loop would have emitted them.
* :func:`start_campaign` and :func:`finish_campaign` are the campaign
  envelope around :func:`run_plan` -- run report, start/finish events,
  the ``validate=True`` self-check, metrics snapshot -- shared by
  :class:`SweepEngine` and the mitigation campaign.

Determinism
-----------

Every stochastic quantity in a measurement derives from named RNG streams
keyed by (module, die, row / role, trial), never from execution order, so
a shard's measurements are independent of which worker runs it or when.
The canonical-order merge then makes the full ResultSet identical across
executors; ``tests/test_engine.py`` asserts this bit-for-bit.

Fault tolerance
---------------

Campaigns are long; the engine assumes workers fail.  With a
:class:`~repro.core.faults.RetryPolicy` attached, every executor retries
transient shard failures with exponential backoff and enforces an
optional per-shard timeout; results are integrity-checked on merge
(missing/duplicate/out-of-order detection).  A checkpoint journal
(:mod:`repro.core.checkpoint`) persists completed shards keyed by a plan
fingerprint, so an interrupted campaign resumed with ``run(resume=True,
checkpoint=...)`` skips finished shards and still produces a
bit-identical ResultSet.  If the process pool breaks repeatedly, the
engine degrades process -> thread -> serial (with a logged warning and a
note in :attr:`SweepEngine.last_report`) instead of aborting.
"""

from __future__ import annotations

import itertools
import logging
import math
import multiprocessing
import os
import time
import warnings as _warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.acmin import DieAnalysis, DieSweepAnalyzer, pattern_footprint
from repro.core.checkpoint import CheckpointJournal, plan_fingerprint
from repro.core.experiment import CharacterizationConfig
from repro.core.faults import (
    FaultPlan,
    RetryPolicy,
    RunReport,
    charge_failure,
    run_attempts,
    validate_shard_result,
)
from repro.core.results import DieMeasurement, ResultSet
from repro.core.stacked import DEFAULT_OFFSETS, StackedDie, build_stacked_die
from repro.dram.module import Module
from repro.obs import Observability
from repro.errors import (
    CheckpointError,
    ExecutorError,
    ExperimentError,
    InvariantViolationError,
    PoolBrokenError,
    ResultIntegrityError,
    ShardTimeoutError,
)
from repro.patterns.base import ALL_PATTERNS, AccessPattern

__all__ = [
    "WorkUnit",
    "Shard",
    "SweepPlan",
    "ForkWorkerSpec",
    "CharacterizationWorkerSpec",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "AutoExecutor",
    "make_executor",
    "executor_ladder",
    "run_plan",
    "start_campaign",
    "finish_campaign",
    "SweepEngine",
    "measurement_from_analysis",
]

logger = logging.getLogger("repro.engine")


# ---------------------------------------------------------------- work-list


@dataclass(frozen=True)
class WorkUnit:
    """One (module, die, pattern, tAggON, trial) measurement to perform."""

    module_key: str
    die: int
    pattern: AccessPattern
    t_on: float
    trial: int


@dataclass(frozen=True)
class Shard:
    """All work units of one (module, die), in canonical order.

    The shard is the dispatch granularity: one worker builds one
    :class:`StackedDie` for it and measures every unit against it.
    ``index`` is the shard's position in the plan's canonical order.

    Shards implement the executor-facing shard protocol shared with
    other campaign kinds (e.g. the mitigation campaign): ``index`` and
    ``units`` plus the :attr:`label` / :attr:`obs_fields` properties the
    executors and the engine use for error messages and event payloads.
    """

    index: int
    module_key: str
    manufacturer: str
    die: int
    units: Tuple[WorkUnit, ...]

    @property
    def label(self) -> str:
        """Human-readable shard description used in error/retry messages."""
        return f"{self.module_key} die {self.die}"

    @property
    def obs_fields(self) -> Dict[str, object]:
        """Campaign-specific fields of ``shard_start``/``shard_finish``
        events (DESIGN.md §6 pins these names for characterization)."""
        return {"module": self.module_key, "die": self.die}


@dataclass(frozen=True)
class SweepPlan:
    """The fully enumerated work-list of one campaign."""

    shards: Tuple[Shard, ...]

    @property
    def n_measurements(self) -> int:
        return sum(len(s.units) for s in self.shards)

    @staticmethod
    def build(
        modules: Sequence[Module],
        t_values: Sequence[float],
        patterns: Sequence[AccessPattern] = ALL_PATTERNS,
        dies: Optional[Sequence[int]] = None,
        trials: int = 1,
    ) -> "SweepPlan":
        """Enumerate the campaign in canonical order.

        Canonical order is the serial 5-deep loop's: modules in call
        order, dies ascending (or ``dies`` in call order), then patterns,
        tAggON values, and trials in call order.
        """
        if trials < 1:
            raise ExperimentError("need at least one trial")
        shards: List[Shard] = []
        for module in modules:
            die_list = list(dies) if dies is not None else list(range(module.n_dies))
            for die in die_list:
                units = tuple(
                    WorkUnit(module.key, die, pattern, t_on, trial)
                    for pattern in patterns
                    for t_on in t_values
                    for trial in range(trials)
                )
                shards.append(
                    Shard(
                        index=len(shards),
                        module_key=module.key,
                        manufacturer=module.manufacturer,
                        die=die,
                        units=units,
                    )
                )
        return SweepPlan(shards=tuple(shards))


# ------------------------------------------------------------ shard running


def measurement_from_analysis(
    module_key: str,
    manufacturer: str,
    die: int,
    pattern: AccessPattern,
    t_on: float,
    trial: int,
    analysis: DieAnalysis,
    config: CharacterizationConfig,
) -> DieMeasurement:
    """Materialize one :class:`DieMeasurement` from a die analysis."""
    acmin = analysis.acmin(config.runtime_bound_ns)
    time_to_first = (
        None
        if acmin is None
        else (acmin / analysis.acts_per_iteration) * analysis.iteration_latency_ns
    )
    return DieMeasurement(
        module_key=module_key,
        manufacturer=manufacturer,
        die=die,
        pattern=pattern.name,
        t_on=t_on,
        trial=trial,
        acmin=acmin,
        time_to_first_ns=time_to_first,
        census=analysis.census(config.census_multiplier, config.runtime_bound_ns),
    )


# ------------------------------------------------------ fork-state registry


_FORK_TOKENS = itertools.count(1)
_FORK_STATE: Dict[int, object] = {}


def fork_sharing_available() -> bool:
    """Whether pool workers inherit this process's memory (fork start)."""
    try:
        return multiprocessing.get_start_method() == "fork"
    except Exception:  # pragma: no cover - exotic platforms
        return False


def install_fork_state(payload: object) -> int:
    """Register a payload for fork-inherited pickup; returns its token.

    Must be called *before* the pool is created: workers snapshot the
    registry when they fork.  Pair with :func:`discard_fork_state` in a
    ``finally`` so the parent-side registry does not pin the payload
    beyond the campaign.
    """
    token = next(_FORK_TOKENS)
    _FORK_STATE[token] = payload
    return token


def fork_state(token: int) -> object:
    """Look up a fork-inherited payload inside a worker."""
    try:
        return _FORK_STATE[token]
    except KeyError:
        raise ExperimentError(
            f"fork-inherited worker state {token} is not present in this "
            f"process; the pool was started with a non-fork start method "
            f"or the state was discarded before the worker forked"
        ) from None


def discard_fork_state(token: int) -> None:
    """Drop a payload from the parent-side registry (idempotent)."""
    _FORK_STATE.pop(token, None)


@dataclass(frozen=True)
class ForkWorkerSpec:
    """Fork-inherited worker state: only a registry token crosses the pool.

    The parent installs its live runner (module objects, stacked dies,
    analyzer caches, memoized measurements -- everything) in the
    fork-state registry before creating the pool; forked workers read
    the very same objects back copy-on-write.  Nothing is rebuilt and
    nothing but this spec is pickled, so hand-assembled modules work as
    well as profiled ones.
    """

    token: int

    def build_runner(self):
        return fork_state(self.token)


@dataclass(frozen=True)
class CharacterizationWorkerSpec:
    """Value-only worker recipe for start methods other than ``fork``.

    Carries the campaign configuration and the modules by key.  A
    calibrated module pickles to a few kilobytes -- its chips draw cell
    arrays on demand -- so each worker receives the whole spec once and
    builds its own stacked dies, exactly as the serial path does.
    """

    config: CharacterizationConfig
    modules: Dict[str, Module]

    def check_shards(self, shards: Sequence[Shard]) -> None:
        """Refuse shards a worker could not run from this spec."""
        missing = sorted({s.module_key for s in shards} - set(self.modules))
        if missing:
            raise ExperimentError(
                f"worker spec has no module for shard key(s) {missing} "
                f"(spec modules: {sorted(self.modules)})"
            )

    def build_runner(self) -> "ShardRunner":
        return ShardRunner(self.config, self.modules)


class ShardRunner:
    """Executes shards against modules, caching one StackedDie per die.

    ``modules`` maps a module key to its :class:`Module`.
    ``stacked_cache`` / ``analyzer_cache`` may be shared with a
    :class:`~repro.core.runner.CharacterizationRunner` so engine and
    facade reuse the same per-die populations and analyzer caches (the
    analyzers carry the per-pattern gain and per-point base caches, which
    later campaigns revisiting the same points hit instead of recomputing).

    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) records
    per-cache hit/miss counters; with the default ``None`` the runner
    performs zero metrics operations.  Pool workers always run with
    ``metrics=None`` -- the registry never crosses the pickle boundary.
    """

    def __init__(
        self,
        config: CharacterizationConfig,
        modules: Dict[str, Module],
        stacked_cache: Optional[
            Dict[Tuple[str, int, Tuple[int, ...]], StackedDie]
        ] = None,
        measurement_cache: Optional[
            Dict[Tuple[str, int, str, float, int], DieMeasurement]
        ] = None,
        analyzer_cache: Optional[
            Dict[Tuple[str, int, Tuple[int, ...]], DieSweepAnalyzer]
        ] = None,
        metrics=None,
    ) -> None:
        self._config = config
        self._modules = modules
        self._stacked_cache = stacked_cache if stacked_cache is not None else {}
        self._measurement_cache = measurement_cache
        self._analyzer_cache = analyzer_cache if analyzer_cache is not None else {}
        self._metrics = metrics
        self._footprints: Dict[str, Tuple[int, ...]] = {}

    #: Result-integrity check executors apply to this runner's results
    #: (identity tuples must match the shard's units, in order).
    validate = staticmethod(validate_shard_result)

    @property
    def config(self) -> CharacterizationConfig:
        return self._config

    @property
    def spec(self) -> CharacterizationWorkerSpec:
        """The picklable recipe non-fork pool workers rebuild from."""
        return CharacterizationWorkerSpec(self._config, self._modules)

    def fork_runner(self) -> "ShardRunner":
        """The zero-copy clone fork-started workers inherit.

        Shares this runner's modules and caches by reference
        (copy-on-write after the fork) but carries no metrics registry:
        the parent's registry lock must never be touched from a forked
        worker.
        """
        return ShardRunner(
            self._config,
            self._modules,
            self._stacked_cache,
            self._measurement_cache,
            self._analyzer_cache,
        )

    def cached_units(
        self, shard: Shard
    ) -> Optional[Tuple[Tuple[WorkUnit, ...], Tuple[WorkUnit, ...]]]:
        """Split a shard's units into (memoized, missing), or ``None``.

        ``None`` means no measurement cache is attached and the whole
        shard is missing.  The auto executor's calibration probe uses
        this to tell fully memoized shards from ones with real work.
        """
        cache = self._measurement_cache
        if cache is None:
            return None
        hits: List[WorkUnit] = []
        missing: List[WorkUnit] = []
        for unit in shard.units:
            key = (
                unit.module_key,
                unit.die,
                unit.pattern.name,
                unit.t_on,
                unit.trial,
            )
            (hits if key in cache else missing).append(unit)
        return tuple(hits), tuple(missing)

    def footprint(self, pattern: AccessPattern) -> Tuple[int, ...]:
        """The (memoized) victim-offset footprint of one pattern."""
        offsets = self._footprints.get(pattern.name)
        if offsets is None:
            offsets = pattern_footprint(pattern, self._config.timings)
            self._footprints[pattern.name] = offsets
        return offsets

    def stacked(
        self,
        module: Module,
        die: int,
        offsets: Tuple[int, ...] = DEFAULT_OFFSETS,
    ) -> StackedDie:
        key = (module.key, die, offsets)
        stacked = self._stacked_cache.get(key)
        if self._metrics is not None:
            self._metrics.inc(
                "cache.stacked.hits" if stacked is not None
                else "cache.stacked.misses"
            )
        if stacked is None:
            stacked = build_stacked_die(
                module.chip(die),
                self._config.bank,
                self._config.selection,
                self._config.data_pattern,
                offsets=offsets,
            )
            self._stacked_cache[key] = stacked
        return stacked

    def analyzer(
        self,
        module: Module,
        die: int,
        offsets: Tuple[int, ...] = DEFAULT_OFFSETS,
    ) -> DieSweepAnalyzer:
        """The (cached) sweep analyzer of one (die, footprint).

        Each (module, die) belongs to exactly one shard of a plan, so a
        shared cache is never contended for the same key even under the
        thread executor.  Patterns whose victims fit the canonical
        triple share one analyzer per die; wide DSL footprints get their
        own (their stacks differ).
        """
        key = (module.key, die, offsets)
        analyzer = self._analyzer_cache.get(key)
        if self._metrics is not None:
            self._metrics.inc(
                "cache.analyzer.hits" if analyzer is not None
                else "cache.analyzer.misses"
            )
        if analyzer is None:
            analyzer = DieSweepAnalyzer(
                self.stacked(module, die, offsets),
                module.model,
                temperature_c=self._config.temperature_c,
                timings=self._config.timings,
            )
            self._analyzer_cache[key] = analyzer
        return analyzer

    def run(self, shard: Shard) -> List[DieMeasurement]:
        """Measure every unit of one shard, batching trials per point.

        Measurements are pure functions of (config, module, die, pattern,
        tAggON, trial); when a ``measurement_cache`` is attached, points
        measured by an earlier campaign (e.g. anchor trials revisiting
        sweep points) are returned from it, and only the missing trials
        of a point are analyzed -- still off one base division.
        """
        cfg = self._config
        cache = self._measurement_cache
        metrics = self._metrics
        module: Optional[Module] = None
        analyzers: Dict[Tuple[int, ...], DieSweepAnalyzer] = {}
        out: List[DieMeasurement] = []
        for pattern, t_on, trials in _grouped_points(shard.units):
            measured: Dict[int, DieMeasurement] = {}
            missing = trials
            if cache is not None:
                for trial in trials:
                    key = (shard.module_key, shard.die, pattern.name, t_on, trial)
                    hit = cache.get(key)
                    if hit is not None:
                        measured[trial] = hit
                missing = [t for t in trials if t not in measured]
                if metrics is not None:
                    metrics.inc("cache.measurement.hits", len(measured))
                    metrics.inc("cache.measurement.misses", len(missing))
            if missing:
                offsets = self.footprint(pattern)
                analyzer = analyzers.get(offsets)
                if analyzer is None:  # lazily: fully cached shards skip it
                    if module is None:
                        module = self._modules[shard.module_key]
                    analyzer = self.analyzer(module, shard.die, offsets)
                    analyzers[offsets] = analyzer
                analyses = analyzer.analyze_trials(
                    pattern, t_on, list(missing), cfg.jitter_sigma
                )
                for trial, analysis in zip(missing, analyses):
                    measurement = measurement_from_analysis(
                        shard.module_key,
                        shard.manufacturer,
                        shard.die,
                        pattern,
                        t_on,
                        trial,
                        analysis,
                        cfg,
                    )
                    measured[trial] = measurement
                    if cache is not None:
                        cache[
                            (shard.module_key, shard.die, pattern.name, t_on, trial)
                        ] = measurement
            out.extend(measured[trial] for trial in trials)
        return out


def _grouped_points(
    units: Sequence[WorkUnit],
) -> List[Tuple[AccessPattern, float, List[int]]]:
    """Group consecutive units sharing (pattern, tAggON) into trial runs."""
    groups: List[Tuple[AccessPattern, float, List[int]]] = []
    for unit in units:
        if groups and groups[-1][0] == unit.pattern and groups[-1][1] == unit.t_on:
            groups[-1][2].append(unit.trial)
        else:
            groups.append((unit.pattern, unit.t_on, [unit.trial]))
    return groups


# ---------------------------------------------------------------- executors


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Signature of the per-shard completion callback (runs in the caller's
#: process; the engine uses it to journal progress as results stream in).
OnShard = Callable[[Shard, List[DieMeasurement]], None]


def _execute_shard(
    runner: ShardRunner, shard: Shard, obs: Optional[Observability]
) -> List[DieMeasurement]:
    """Run one shard in-process, instrumented when observability is on.

    With ``obs`` attached the attempt emits a ``shard_start`` event,
    records its queue wait (dispatch since campaign start) and execute
    time as timers, and -- when a profile directory is configured --
    runs under cProfile.  With ``obs=None`` this is a plain
    ``runner.run``: zero observability operations on the hot path.
    """
    if obs is None:
        return runner.run(shard)
    obs.emit(
        "shard_start",
        shard=shard.index,
        **shard.obs_fields,
        units=len(shard.units),
    )
    if obs.campaign_t0 is not None:
        obs.metrics.observe(
            "shard.queue_wait_seconds", time.monotonic() - obs.campaign_t0
        )
    start = time.monotonic()
    if obs.profiler is not None:
        measurements = obs.profiler.call(
            f"shard-{shard.index:04d}", runner.run, shard
        )
    else:
        measurements = runner.run(shard)
    obs.metrics.observe("shard.execute_seconds", time.monotonic() - start)
    return measurements


def _run_shard_guarded(
    runner: ShardRunner,
    shard: Shard,
    policy: Optional[RetryPolicy],
    fault_plan: Optional[FaultPlan],
    report: Optional[RunReport],
    obs: Optional[Observability] = None,
) -> List[DieMeasurement]:
    """Run one shard in-process, with retry/timeout/validation if configured.

    With no policy and no fault plan this is a plain ``runner.run`` --
    the zero-overhead path the determinism tests and benchmarks use.
    """
    if policy is None and fault_plan is None:
        return _execute_shard(runner, shard, obs)
    policy = policy if policy is not None else RetryPolicy()
    label = f"shard {shard.index} ({shard.label})"

    def attempt() -> List[DieMeasurement]:
        if fault_plan is not None:
            fault_plan.before(shard.index)
        measurements = _execute_shard(runner, shard, obs)
        if fault_plan is not None:
            measurements = fault_plan.after(shard.index, measurements)
        runner.validate(shard, measurements)
        return measurements

    return run_attempts(attempt, policy, report=report, label=label, obs=obs)


class SerialExecutor:
    """Runs shards one after another in the calling process."""

    name = "serial"

    def map_shards(
        self,
        plan: SweepPlan,
        runner: ShardRunner,
        policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        on_shard: Optional[OnShard] = None,
        report: Optional[RunReport] = None,
        obs: Optional[Observability] = None,
    ) -> List[List[DieMeasurement]]:
        out: List[List[DieMeasurement]] = []
        for shard in plan.shards:
            measurements = _run_shard_guarded(
                runner, shard, policy, fault_plan, report, obs
            )
            if on_shard is not None:
                on_shard(shard, measurements)
            out.append(measurements)
        return out


class ThreadExecutor:
    """Runs shards on a thread pool (in-process, shared caches)."""

    name = "thread"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers or _usable_cpus()

    def map_shards(
        self,
        plan: SweepPlan,
        runner: ShardRunner,
        policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        on_shard: Optional[OnShard] = None,
        report: Optional[RunReport] = None,
        obs: Optional[Observability] = None,
    ) -> List[List[DieMeasurement]]:
        if not plan.shards:
            return []
        by_index: Dict[int, List[DieMeasurement]] = {}
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = {
                pool.submit(
                    _run_shard_guarded, runner, shard, policy, fault_plan,
                    report, obs,
                ): shard
                for shard in plan.shards
            }
            for future in as_completed(futures):
                shard = futures[future]
                measurements = future.result()
                by_index[shard.index] = measurements
                if on_shard is not None:
                    on_shard(shard, measurements)
        return [by_index[shard.index] for shard in plan.shards]


class ProcessExecutor:
    """Runs shards on a process pool, worker state picked by platform.

    * fork -- under the ``fork`` start method the runner's
      ``fork_runner()`` is inherited by the workers copy-on-write
      (modules, stacked dies, analyzer caches, memoized measurements);
      only a registry token is pickled.
    * spec -- under any other start method the runner's value-only
      ``spec`` is pickled once per worker (through the pool
      initializer), and each worker builds its runner from it.

    Either way the parent first runs ``runner.spec.check_shards`` on the
    plan, so a shard no worker could run fails before the pool starts.
    Every call runs the same per-shard loop: one pool task per shard,
    results validated and streamed back as they land.  Results are
    bit-identical in both modes -- measurements are pure functions of
    their identity.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers or _usable_cpus()

    def map_shards(
        self,
        plan: SweepPlan,
        runner: ShardRunner,
        policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        on_shard: Optional[OnShard] = None,
        report: Optional[RunReport] = None,
        obs: Optional[Observability] = None,
    ) -> List[List[DieMeasurement]]:
        if not plan.shards:
            return []
        if fault_plan is not None:
            if fault_plan.state_dir is None:
                raise ExperimentError(
                    "a FaultPlan used with the process executor needs a "
                    "state_dir: attempt counters must survive the pool "
                    "boundary"
                )
            policy = policy or RetryPolicy()
        spec = runner.spec
        spec.check_shards(plan.shards)
        fork = fork_sharing_available()
        if obs is not None:
            mode = "fork" if fork else "spec"
            obs.metrics.inc(f"worker_state.{mode}")
            obs.emit("worker_state", mode=mode)
        token = install_fork_state(runner.fork_runner()) if fork else None
        try:
            return self._map_resilient(
                plan,
                runner,
                spec if token is None else ForkWorkerSpec(token),
                policy,
                fault_plan,
                on_shard,
                report,
                obs,
            )
        finally:
            if token is not None:
                discard_fork_state(token)

    def _map_resilient(
        self,
        plan: SweepPlan,
        runner: ShardRunner,
        spec,
        policy: Optional[RetryPolicy],
        fault_plan: Optional[FaultPlan],
        on_shard: Optional[OnShard],
        report: Optional[RunReport],
        obs: Optional[Observability] = None,
    ) -> List[List[DieMeasurement]]:
        """Per-shard dispatch with retry, timeout, and pool restarts.

        Shards are submitted individually so each can fail, time out,
        and be retried independently; a crashed worker breaks the whole
        pool (CPython offers no per-task isolation), in which case every
        in-flight shard is charged one attempt ("attribution is
        per-pool-generation") and the pool is rebuilt, at most
        ``policy.max_pool_restarts`` times.  Hung workers cannot be
        killed individually either, so a shard timeout abandons the
        current pool and resubmits the innocent in-flight shards --
        harmless, since measurements are pure functions of the plan.

        ``policy=None`` means no retries, as on the serial path: a
        worker's exception re-raises unchanged, and the first pool
        break raises :class:`~repro.errors.PoolBrokenError` so the
        degradation ladder takes over.

        ``spec`` is the prepared worker spec (fork token or the runner's
        value-only recipe), handed to each worker once by the pool
        initializer; pool restarts reuse it -- re-forked workers still
        find the fork state installed until the caller's cleanup runs.
        """
        shard_timeout = policy.shard_timeout if policy is not None else None
        failures: Dict[int, int] = {shard.index: 0 for shard in plan.shards}
        done: Dict[int, List[DieMeasurement]] = {}
        pending: List[Shard] = list(plan.shards)
        pool_breaks = 0

        def charge(shard: Shard, exc: Exception) -> None:
            """Account one failure; requeue or raise ShardFailedError."""
            if policy is None:
                raise exc
            failures[shard.index] += 1
            charge_failure(
                exc, failures[shard.index], policy,
                f"shard {shard.index} ({shard.label})", report, obs,
            )
            pending.append(shard)

        while len(done) < len(plan.shards):
            if not pending:  # every shard must be done or queued
                lost = sorted(set(failures) - set(done))
                raise ExecutorError(
                    f"internal scheduling error: shards {lost} neither "
                    f"completed nor queued for retry"
                )
            workers = max(1, min(self.workers, len(pending)))
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_start_worker,
                initargs=(spec,),
            )
            abandoned = False
            futures: Dict[object, Tuple[Shard, float]] = {}
            submit_times: Dict[object, float] = {}

            def submit(shard: Shard) -> None:
                deadline = (
                    time.monotonic() + shard_timeout
                    if shard_timeout is not None
                    else math.inf
                )
                future = pool.submit(_run_shard_remote, shard, fault_plan)
                futures[future] = (shard, deadline)
                if obs is not None:
                    submit_times[future] = time.monotonic()

            try:
                # Drain as we submit: a pool break mid-submission must
                # not leave a shard both in ``pending`` and in-flight.
                while pending:
                    submit(pending.pop(0))
                while futures:
                    timeout = None
                    if shard_timeout is not None:
                        next_deadline = min(dl for _, dl in futures.values())
                        timeout = max(0.0, next_deadline - time.monotonic())
                    finished, _ = wait(
                        set(futures), timeout=timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    if not finished:
                        # A deadline expired with nothing completed: the
                        # worker is hung.  Charge the timed-out shards and
                        # abandon the pool to reclaim their workers.
                        now = time.monotonic()
                        abandoned = True
                        expired = [
                            future
                            for future, (_, deadline) in futures.items()
                            if deadline <= now
                        ]
                        for future in expired:
                            shard, _ = futures.pop(future)
                            future.cancel()
                            charge(
                                shard,
                                ShardTimeoutError(
                                    f"shard {shard.index} exceeded the "
                                    f"{shard_timeout:g}s per-shard timeout"
                                ),
                            )
                        # Innocent in-flight shards are resubmitted
                        # without an attempt charge.
                        pending.extend(shard for shard, _ in futures.values())
                        futures.clear()
                        break
                    for future in finished:
                        shard, _ = futures.pop(future)
                        try:
                            _, measurements = future.result()
                            runner.validate(shard, measurements)
                        except BrokenProcessPool:
                            # Hand the shard back so the pool-break
                            # handler below charges and requeues it with
                            # the rest of the in-flight generation.
                            futures[future] = (shard, math.inf)
                            raise
                        except Exception as exc:  # noqa: BLE001
                            charge(shard, exc)
                            continue
                        if obs is not None and future in submit_times:
                            obs.metrics.observe(
                                "shard.wall_seconds",
                                time.monotonic() - submit_times.pop(future),
                            )
                        done[shard.index] = measurements
                        if on_shard is not None:
                            on_shard(shard, measurements)
                    while pending:
                        submit(pending.pop(0))
            except BrokenProcessPool as exc:
                if policy is None:
                    raise PoolBrokenError(
                        f"process pool broke with no retry policy: {exc}"
                    ) from exc
                pool_breaks += 1
                if report is not None:
                    report.n_pool_restarts += 1
                if obs is not None:
                    obs.metrics.inc("pool.restarts")
                    obs.emit(
                        "pool_restart", count=pool_breaks, error=str(exc)
                    )
                if pool_breaks > policy.max_pool_restarts:
                    raise PoolBrokenError(
                        f"process pool broke {pool_breaks} times "
                        f"(max_pool_restarts={policy.max_pool_restarts})"
                    ) from exc
                leftover = [shard for shard, _ in futures.values()]
                futures.clear()
                for shard in leftover:
                    charge(shard, exc)
            finally:
                pool.shutdown(wait=not abandoned, cancel_futures=True)
        return [done[shard.index] for shard in plan.shards]


#: Pool-worker state: the spec the worker's pool was created with, and
#: the runner built from it on the worker's first shard.  One runner per
#: worker, not per shard, keeps the spec (on the spec path every
#: module) off each task.
_WORKER_SPEC = None
_WORKER_RUNNER = None


def _start_worker(spec) -> None:
    """Pool initializer.  The runner is built lazily, so a spec that
    cannot build one fails its shard rather than breaking the pool."""
    global _WORKER_SPEC, _WORKER_RUNNER
    _WORKER_SPEC, _WORKER_RUNNER = spec, None


def _run_shard_remote(
    shard: Shard, fault_plan: Optional[FaultPlan]
) -> Tuple[int, List[DieMeasurement]]:
    """Worker entry point: run one shard on this worker's runner.

    Fault hooks run *inside* the worker so injected hangs and crashes
    exercise the real failure surface (pool timeouts, BrokenProcessPool);
    result validation stays on the parent side.
    """
    global _WORKER_RUNNER
    if fault_plan is not None:
        fault_plan.before(shard.index)
    if _WORKER_RUNNER is None:
        _WORKER_RUNNER = _WORKER_SPEC.build_runner()
    measurements = _WORKER_RUNNER.run(shard)
    if fault_plan is not None:
        measurements = fault_plan.after(shard.index, measurements)
    return shard.index, measurements


class AutoExecutor:
    """Calibrates, then delegates: serial or process per campaign.

    The CLI default (``--workers auto``).  Instead of trusting a flag,
    the executor runs a short calibration probe -- the leading shards of
    the plan, serially, until one actually had unmemoized units -- and
    estimates the remaining serial cost from the probe's measured
    per-unit time.  Campaigns too small to amortize a pool (or machines
    with one usable core, or plans that are fully memoized) run
    serially; everything else goes to the process pool.  Probe results
    are kept, so calibration costs nothing: every measurement the probe
    makes is part of the campaign.

    The decision (chosen executor, usable cpus, probe seconds, estimated
    serial seconds, reason) lands in ``RunReport.auto_decision`` and is
    emitted as an ``executor_calibrated`` event.
    """

    name = "auto"

    #: Estimated remaining serial seconds below which a pool cannot pay
    #: for its own startup (worker spawn + state transfer).
    min_parallel_seconds = 1.0

    def __init__(self, workers: Optional[int] = None) -> None:
        self.requested_workers = workers
        self.workers = workers or _usable_cpus()
        self.last_decision: Optional[Dict] = None

    def _choose(
        self, plan: SweepPlan, runner, policy, fault_plan, report, obs
    ) -> Tuple[Dict, List[Tuple[Shard, List[DieMeasurement]]]]:
        cpus = _usable_cpus()
        workers = max(1, min(self.workers, cpus))
        decision: Dict = {
            "cpu_count": cpus,
            "workers": workers,
            "n_shards": len(plan.shards),
            "probe_seconds": None,
            "estimated_serial_seconds": None,
        }
        if workers <= 1:
            decision.update(
                chosen="serial",
                reason=f"{cpus} usable core(s): nothing to parallelize",
            )
            return decision, []
        if len(plan.shards) == 1:
            decision.update(chosen="serial", reason="single-shard plan")
            return decision, []
        cached_units = getattr(runner, "cached_units", None)

        def missing_count(shard: Shard) -> int:
            split = cached_units(shard) if cached_units is not None else None
            return len(shard.units) if split is None else len(split[1])

        # Probe: run leading shards serially until one had real work.
        # Fully memoized shards execute in microseconds and say nothing
        # about measurement cost, so they don't end the probe.
        probed: List[Tuple[Shard, List[DieMeasurement]]] = []
        per_unit = None
        probe_seconds = None
        for shard in plan.shards:
            missing = missing_count(shard)
            start = time.monotonic()
            measurements = _run_shard_guarded(
                runner, shard, policy, fault_plan, report, obs
            )
            elapsed = time.monotonic() - start
            probed.append((shard, measurements))
            if missing > 0:
                per_unit = elapsed / missing
                probe_seconds = elapsed
                break
        if per_unit is None:
            decision.update(
                chosen="serial",
                reason="every shard fully memoized: ran inline",
            )
            return decision, probed
        remaining = sum(
            missing_count(shard) * per_unit
            for shard in plan.shards[len(probed):]
        )
        decision.update(
            probe_seconds=round(probe_seconds, 6),
            estimated_serial_seconds=round(remaining, 6),
        )
        if remaining < self.min_parallel_seconds:
            decision.update(
                chosen="serial",
                reason=(
                    f"~{remaining:.3f}s of serial work left, below the "
                    f"{self.min_parallel_seconds:g}s pool-amortization "
                    f"threshold"
                ),
            )
            return decision, probed
        decision.update(
            chosen="process",
            reason=(
                f"~{remaining:.1f}s of measurement across "
                f"{len(plan.shards) - len(probed)} shards on "
                f"{workers} workers"
            ),
        )
        return decision, probed

    def map_shards(
        self,
        plan: SweepPlan,
        runner: ShardRunner,
        policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        on_shard: Optional[OnShard] = None,
        report: Optional[RunReport] = None,
        obs: Optional[Observability] = None,
    ) -> List[List[DieMeasurement]]:
        if not plan.shards:
            return []
        decision, probed = self._choose(
            plan, runner, policy, fault_plan, report, obs
        )
        self.last_decision = decision
        if report is not None:
            report.auto_decision = dict(decision)
        if obs is not None:
            obs.metrics.inc(f"executor.auto.{decision['chosen']}")
            obs.emit("executor_calibrated", **decision)
        out: List[List[DieMeasurement]] = []
        for shard, measurements in probed:
            if on_shard is not None:
                on_shard(shard, measurements)
            out.append(measurements)
        rest = plan.shards[len(probed):]
        if not rest:
            return out
        if decision["chosen"] == "serial":
            delegate = SerialExecutor()
        else:
            delegate = ProcessExecutor(decision["workers"])
        out.extend(
            delegate.map_shards(
                replace(plan, shards=rest),
                runner,
                policy=policy,
                fault_plan=fault_plan,
                on_shard=on_shard,
                report=report,
                obs=obs,
            )
        )
        return out


def make_executor(workers: Union[int, str, None] = None):
    """Build an executor from a worker count.

    ``workers`` of ``None``, 0, or 1 select the serial executor (one
    worker has nothing to parallelize); more workers select the process
    executor, the only one that escapes the GIL.  ``workers`` of
    ``"auto"`` -- the CLI default -- selects the self-calibrating
    :class:`AutoExecutor`.  Construct :class:`ThreadExecutor` directly
    for an in-process pool.
    """
    if workers == "auto":
        return AutoExecutor()
    if isinstance(workers, str):
        try:
            workers = int(workers)
        except ValueError:
            raise ExperimentError(
                f"workers must be an integer or 'auto', got {workers!r}"
            ) from None
    if not workers or workers <= 1:
        return SerialExecutor()
    return ProcessExecutor(workers)


def executor_ladder(executor) -> List:
    """Degradation ladder starting at the given executor.

    A repeatedly broken process pool degrades process -> thread ->
    serial; the auto executor (whose worst pick is a process pool)
    degrades the same way; a thread executor degrades to serial; the
    serial executor has no fallback.
    """
    if isinstance(executor, (ProcessExecutor, AutoExecutor)):
        return [executor, ThreadExecutor(executor.workers), SerialExecutor()]
    if isinstance(executor, ThreadExecutor):
        return [executor, SerialExecutor()]
    return [executor]


def run_plan(
    plan,
    runner,
    ladder: Sequence,
    fingerprint: str,
    *,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    digest: bool = False,
    codec=None,
    report: Optional[RunReport] = None,
    obs: Optional[Observability] = None,
    sink=None,
) -> Dict[int, List]:
    """Execute a shard plan through an executor ladder.

    The campaign-agnostic core shared by :class:`SweepEngine` and the
    mitigation campaign (:mod:`repro.mitigations.campaign`): checkpoint
    journaling and resume, per-shard observability events, the
    process -> thread -> serial degradation ladder, and the final
    completeness check.  ``plan`` may be any frozen dataclass with a
    ``shards`` tuple of protocol shards (``index``/``units``/``label``/
    ``obs_fields``); ``runner`` anything with ``run(shard)`` and
    ``validate(shard, results)`` (plus ``fork_runner()`` and a
    picklable ``spec`` for the process executor, see
    :class:`ProcessExecutor`); ``codec`` a
    :class:`~repro.core.checkpoint.JournalCodec` when shard results are
    not :class:`~repro.core.results.DieMeasurement` records.

    ``sink`` is the population-scale seam: anything with
    ``accept(results)`` (e.g. :class:`~repro.core.flipdb.FlipSink`)
    receives every completed shard's results as it lands -- right after
    the checkpoint journal records it -- plus every journal-resumed
    shard up front, so the sink's store converges to the full population
    whether or not the campaign was interrupted.  The sink must be
    idempotent under replay (FlipSink is); the caller owns flushing and
    closing it.

    Returns completed shard results keyed by shard index (including
    journal-resumed shards); raises
    :class:`~repro.errors.ExecutorError` if any shard never completed.
    """
    if report is None:
        report = RunReport(n_shards=len(plan.shards), fingerprint=fingerprint)
    if obs is not None and obs.campaign_t0 is None:
        obs.campaign_t0 = time.monotonic()

    primary = ladder[0] if ladder else None
    # Oversubscription is only worth warning about for process-backed
    # executors: each extra process duplicates worker state and contends
    # for cores, while surplus *threads* merely idle (and the thread
    # executor's counter totals must stay executor-independent).
    requested = None
    if isinstance(primary, (ProcessExecutor, AutoExecutor)):
        requested = getattr(primary, "requested_workers", None)
        if requested is None and not isinstance(primary, AutoExecutor):
            requested = getattr(primary, "workers", None)
    cpus = _usable_cpus()
    if isinstance(requested, int) and requested > cpus:
        message = (
            f"{requested} workers requested but only {cpus} CPU core(s) "
            f"are available; the pool will oversubscribe"
        )
        _warnings.warn(message, UserWarning, stacklevel=2)
        report.add_warning(message, cause="oversubscription")
        if obs is not None:
            obs.metrics.inc("executor.oversubscribed")
            obs.emit(
                "executor_oversubscribed", workers=requested, cpu_count=cpus
            )

    journal = (
        CheckpointJournal(checkpoint, digest=digest, codec=codec)
        if checkpoint is not None
        else None
    )
    try:
        return _run_plan_journaled(
            plan, runner, ladder, fingerprint, policy=policy,
            fault_plan=fault_plan, resume=resume, report=report, obs=obs,
            sink=sink, journal=journal,
        )
    finally:
        if journal is not None:
            # The advisory append lock must not outlive the run: the
            # next resume (same process or another) re-acquires it.
            journal.release()


def _run_plan_journaled(
    plan,
    runner,
    ladder: Sequence,
    fingerprint: str,
    *,
    policy: Optional[RetryPolicy],
    fault_plan: Optional[FaultPlan],
    resume: bool,
    report: RunReport,
    obs: Optional[Observability],
    sink,
    journal: Optional[CheckpointJournal],
) -> Dict[int, List]:
    """The journal-holding body of :func:`run_plan` (lock released there)."""
    completed: Dict[int, List] = {}
    if journal is not None:
        if resume and journal.exists():
            completed = journal.load(fingerprint)
            shard_by_index = {shard.index: shard for shard in plan.shards}
            for index, results in completed.items():
                shard = shard_by_index.get(index)
                if shard is None:
                    raise CheckpointError(
                        f"checkpoint journal {journal.path} records shard "
                        f"{index}, which is not in the current plan "
                        f"({len(plan.shards)} shards)"
                    )
                try:
                    runner.validate(shard, results)
                except ResultIntegrityError as exc:
                    raise CheckpointError(
                        f"checkpoint journal {journal.path} entry for "
                        f"shard {index} does not match the plan: {exc}"
                    ) from exc
            report.n_resumed = len(completed)
            if obs is not None:
                obs.metrics.inc("shards.resumed", len(completed))
                obs.emit(
                    "campaign_resume",
                    n_resumed=len(completed),
                    checkpoint=str(journal.path),
                )
        else:
            journal.start(fingerprint, len(plan.shards))
    if sink is not None and completed:
        # Journal-resumed shards never pass through on_shard; stream
        # them into the sink up front (in shard order, for determinism)
        # so its store holds the full population after the run.
        for index in sorted(completed):
            sink.accept(completed[index])

    def on_shard(shard, results) -> None:
        completed[shard.index] = results
        report.n_executed += 1
        if sink is not None:
            sink.accept(results)
        if journal is not None:
            if obs is not None:
                with obs.profile("checkpoint.record"):
                    journal.record(shard.index, results)
            else:
                journal.record(shard.index, results)
        if obs is not None:
            obs.metrics.inc("shards.completed")
            elapsed = time.monotonic() - obs.campaign_t0
            remaining = report.n_shards - len(completed)
            eta = (
                (elapsed / report.n_executed) * remaining
                if report.n_executed
                else None
            )
            obs.emit(
                "shard_finish",
                shard=shard.index,
                **shard.obs_fields,
                n_done=len(completed),
                n_total=report.n_shards,
                elapsed_s=round(elapsed, 3),
                eta_s=None if eta is None else round(eta, 3),
            )

    for position, executor in enumerate(ladder):
        remaining = tuple(
            shard for shard in plan.shards if shard.index not in completed
        )
        if not remaining:
            break
        report.executors.append(executor.name)
        try:
            executor.map_shards(
                replace(plan, shards=remaining),
                runner,
                policy=policy,
                fault_plan=fault_plan,
                on_shard=on_shard,
                report=report,
                obs=obs,
            )
            break
        except PoolBrokenError as exc:
            if position + 1 >= len(ladder):
                raise
            fallback = ladder[position + 1]
            left = sum(1 for s in remaining if s.index not in completed)
            message = (
                f"{executor.name} executor failed ({exc}); degrading to "
                f"the {fallback.name} executor for the remaining "
                f"{left} shard(s)"
            )
            logger.warning(message)
            # A degraded campaign still completes -- which is exactly why
            # the fallback must be loud: UserWarning for interactive
            # runs, RunReport.warnings for artifacts.
            _warnings.warn(message, UserWarning, stacklevel=2)
            report.degradations.append(message)
            report.add_warning(
                message,
                cause=f"degradation:{executor.name}->{fallback.name}",
            )
            if obs is not None:
                obs.metrics.inc("executor.degradations")
                obs.emit(
                    "executor_degraded",
                    from_executor=executor.name,
                    to_executor=fallback.name,
                    reason=str(exc),
                )

    missing = [
        shard.index for shard in plan.shards if shard.index not in completed
    ]
    if missing:
        raise ExecutorError(
            f"campaign incomplete: shards {missing} never completed"
        )
    return completed


# ----------------------------------------------------------------- envelope


def start_campaign(plan, fingerprint: str, executor, obs, session) -> RunReport:
    """Open one campaign run; the envelope both campaign kinds share.

    Creates the provenance-stamped :class:`RunReport`, starts the
    campaign clock, emits ``campaign_start`` and binds the device
    session (if any) to ``obs`` so its preflight events join the same
    stream.  The caller then runs its own preflight, :func:`run_plan`
    and :func:`finish_campaign`.
    """
    from repro.validate.provenance import provenance_stamp

    report = RunReport(n_shards=len(plan.shards), fingerprint=fingerprint)
    report.provenance = provenance_stamp()
    if obs is not None:
        obs.campaign_t0 = time.monotonic()
        obs.last_run_report = report
        obs.emit(
            "campaign_start",
            fingerprint=fingerprint,
            n_shards=len(plan.shards),
            n_measurements=plan.n_measurements,
            executor=executor.name,
        )
    if session is not None:
        session.attach(obs)
    return report


def finish_campaign(
    plan,
    completed: Dict[int, List],
    results,
    report: RunReport,
    obs: Optional[Observability],
    session,
    invariants: Optional[Callable] = None,
):
    """Close one campaign run and return ``results``, filled.

    Records the session's preflight outcomes on ``report``, merges the
    completed shard results into the empty ``results`` container in
    canonical plan order, and -- with ``invariants`` (a ``require_*``
    guard of :mod:`repro.validate.invariants`, the ``validate=True``
    path) -- self-checks them, counting ``validate.passed`` /
    ``validate.failed`` and emitting a ``validate`` event before any
    re-raise, so a failing campaign's metrics record *that* it failed.
    With observability on it then sets the ``campaign.*`` gauges,
    snapshots the metrics into ``report.metrics`` and emits
    ``campaign_finish``.
    """
    if session is not None:
        session.snapshot_into(report)
    for shard in plan.shards:
        results.extend(completed[shard.index])
    if invariants is not None:
        try:
            invariants(results)
        except InvariantViolationError as exc:
            if obs is not None:
                obs.metrics.inc("validate.failed")
                obs.emit("validate", passed=False, error=str(exc))
            raise
        if obs is not None:
            obs.metrics.inc("validate.passed")
            obs.emit("validate", passed=True)
    if obs is not None:
        seconds = time.monotonic() - obs.campaign_t0
        obs.metrics.gauge("campaign.seconds", round(seconds, 6))
        obs.metrics.gauge("campaign.n_measurements", plan.n_measurements)
        report.metrics = obs.metrics.snapshot()
        obs.emit(
            "campaign_finish",
            seconds=round(seconds, 3),
            n_shards=report.n_shards,
            n_resumed=report.n_resumed,
            n_executed=report.n_executed,
            n_retries=report.n_retries,
            n_pool_restarts=report.n_pool_restarts,
        )
    return results


# ------------------------------------------------------------------- engine


class SweepEngine:
    """Executes characterization campaigns through a pluggable executor.

    The engine is the execution substrate under
    :class:`~repro.core.runner.CharacterizationRunner` (which remains the
    serial facade): it plans the work-list, dispatches shards, and merges
    the streamed-back measurements in canonical order.

    With a :class:`~repro.core.faults.RetryPolicy` (constructor default
    or per-run override) shards are retried/timed out; with a
    ``checkpoint`` path, completed shards are journaled as they finish
    and ``resume=True`` skips journaled shards on a restart.  Repeated
    process-pool breakage degrades the executor process -> thread ->
    serial instead of aborting; :attr:`last_report` summarizes what
    happened.  With a ``session``
    (:class:`~repro.backend.session.DeviceSession`) every module passes
    the §3 methodology preflight before any shard is dispatched, and the
    outcomes land on ``last_report.preflight``.
    """

    def __init__(
        self,
        config: CharacterizationConfig,
        executor=None,
        policy: Optional[RetryPolicy] = None,
        obs: Optional[Observability] = None,
        session=None,
    ) -> None:
        self._config = config
        self._executor = executor if executor is not None else SerialExecutor()
        self._policy = policy
        self._obs = obs
        self._session = session
        self._last_report: Optional[RunReport] = None

    @property
    def session(self):
        """The attached device session (``None``: no preflight)."""
        return self._session

    @property
    def obs(self) -> Optional[Observability]:
        """The attached observability bundle (``None`` when disabled)."""
        return self._obs

    @property
    def config(self) -> CharacterizationConfig:
        return self._config

    @property
    def executor(self):
        return self._executor

    @property
    def last_report(self) -> Optional[RunReport]:
        """The :class:`~repro.core.faults.RunReport` of the latest run."""
        return self._last_report

    def _ladder(self) -> List:
        """Degradation ladder starting at the configured executor."""
        return executor_ladder(self._executor)

    def run(
        self,
        modules: Sequence[Module],
        t_values: Sequence[float],
        patterns: Sequence[AccessPattern] = ALL_PATTERNS,
        dies: Optional[Sequence[int]] = None,
        trials: Optional[int] = None,
        stacked_cache: Optional[
            Dict[Tuple[str, int, Tuple[int, ...]], StackedDie]
        ] = None,
        measurement_cache: Optional[
            Dict[Tuple[str, int, str, float, int], DieMeasurement]
        ] = None,
        analyzer_cache: Optional[
            Dict[Tuple[str, int, Tuple[int, ...]], DieSweepAnalyzer]
        ] = None,
        policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        validate: bool = False,
        sink=None,
    ) -> ResultSet:
        """Run a full campaign and return its canonical ResultSet.

        ``checkpoint`` names a JSONL journal updated atomically after
        every completed shard; with ``resume=True`` an existing journal
        (same plan fingerprint -- anything else raises
        :class:`~repro.errors.CheckpointError`) seeds the run and its
        shards are not re-executed.  The final ResultSet is bit-identical
        to an uninterrupted run: resumed measurements round-trip through
        the journal losslessly and are merged in canonical plan order.

        ``validate=True`` arms the trust layer: the checkpoint journal
        maintains a sha256 sidecar and a provenance-stamped header, and
        the merged ResultSet must pass the physical-invariant guards
        (:mod:`repro.validate.invariants`) before being returned --
        :class:`~repro.errors.InvariantViolationError` otherwise.  Off
        (the default), no validation work happens and every artifact's
        bytes are identical to an unvalidated run.

        ``sink`` streams every completed shard's measurements into an
        out-of-core store as the campaign runs (see
        :class:`~repro.core.flipdb.FlipSink` and :func:`run_plan`); the
        sink is flushed -- but not closed -- before this method returns.
        """
        plan = SweepPlan.build(
            modules,
            t_values,
            patterns,
            dies=dies,
            trials=trials if trials is not None else self._config.trials,
        )
        fingerprint = plan_fingerprint(self._config, plan)
        obs = self._obs
        session = self._session
        report = start_campaign(
            plan, fingerprint, self._executor, obs, session
        )
        self._last_report = report
        if session is not None:
            # Mandatory methodology preflight (thermal settle,
            # refresh-window bound, TRR/ECC off, mapping
            # reverse-engineering) for every module, before any shard
            # is dispatched.  Cached per module key, so repeated sweeps
            # pay it once.
            for module in modules:
                session.ensure_preflight(module, self._config)

        runner = ShardRunner(
            self._config,
            {module.key: module for module in modules},
            stacked_cache,
            measurement_cache,
            analyzer_cache,
            metrics=obs.metrics if obs is not None else None,
        )

        completed = run_plan(
            plan,
            runner,
            self._ladder(),
            fingerprint,
            policy=policy if policy is not None else self._policy,
            fault_plan=fault_plan,
            checkpoint=checkpoint,
            resume=resume,
            digest=validate,
            report=report,
            obs=obs,
            sink=sink,
        )
        if sink is not None:
            sink.flush()
        if measurement_cache is not None:
            # Executors that run in other processes (the process pool)
            # bypass the caller-side runner, so fold the streamed-back
            # measurements into the cache here.
            for shard in plan.shards:
                for m in completed[shard.index]:
                    measurement_cache[
                        (m.module_key, m.die, m.pattern, m.t_on, m.trial)
                    ] = m
        if validate:
            from repro.validate import invariants
        return finish_campaign(
            plan,
            completed,
            ResultSet(),
            report,
            obs,
            session,
            invariants.require_result_invariants if validate else None,
        )
