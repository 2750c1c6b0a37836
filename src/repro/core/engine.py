"""Parallel sweep execution engine.

The engine turns a campaign into an explicit work-list, executes it
through a pluggable executor, and reassembles the results in a
deterministic canonical order -- parallel and serial runs of the same
campaign produce byte-identical results.

Structure
---------

* One plan type for every campaign kind: a :class:`SweepPlan` is a tuple
  of shards (:class:`Shard`) plus the campaign's
  :class:`~repro.core.results.MeasurementKind` (journal entry format,
  record codec, result container).  A shard is the unit of dispatch;
  its work units expose an ``identity`` (checked against each result
  record's by :func:`~repro.core.faults.validate_shard_result`) and a
  ``fingerprint_line`` (read by
  :func:`~repro.core.checkpoint.plan_fingerprint`).
  :meth:`SweepPlan.build` enumerates a characterization campaign's
  (module, die, pattern, tAggON, trial) work-list, one shard per
  (module, die): every measurement of a shard reuses one
  :class:`~repro.core.acmin.DieSweepAnalyzer`, which owns the die's
  :class:`~repro.core.stacked.StackedDie`, so the expensive per-die
  state is built at most once per shard instead of being shipped across
  an executor boundary.  The mitigation campaign builds its own plan
  (:func:`~repro.mitigations.campaign.build_mitigation_plan`).
* Executors run shards: :class:`SerialExecutor` in-process in plan order,
  :class:`ProcessExecutor` on a
  :class:`~concurrent.futures.ProcessPoolExecutor`, and
  :class:`AutoExecutor` -- the default behind ``--workers auto`` -- which
  probes the first unmemoized shard and picks serial or process per
  campaign from the measured cost.
* Process workers get the parent's state without rebuilding it.  The
  pool initializer hands each worker one source, through the pool's
  ``initargs``: under the ``fork`` start method that is the parent
  runner itself -- modules, analyzers with their stacked dies, and
  memoized measurements -- which a forked worker inherits without
  unpickling; under any other start method it is the runner's
  value-only :class:`CharacterizationWorkerSpec` (config plus modules,
  no cell arrays), pickled once per worker.  The pool submits one task
  per shard through one loop, and the worker runs each shard on a
  fresh ``source.build_runner()``, so what it builds for one shard is
  dropped when the shard returns.
* Results stream back per shard and are reassembled in canonical order:
  modules in call order, dies ascending, then patterns x tAggON x trials
  exactly as the serial 5-deep loop would have emitted them.
* :func:`start_campaign` and :func:`finish_campaign` are the campaign
  envelope around :func:`run_plan` -- run report, start/finish events,
  the merge into the plan kind's container, the ``validate=True``
  self-check, metrics snapshot -- shared by
  :meth:`~repro.core.runner.CharacterizationRunner.characterize` and
  the mitigation campaign.

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
fingerprint, so an interrupted campaign resumed with ``resume=True,
checkpoint=...`` skips finished shards and still produces a
bit-identical ResultSet.  If the process pool breaks repeatedly, the
engine finishes the remaining shards on the serial executor (with a
logged warning and a note in the campaign's
:class:`~repro.core.faults.RunReport`) instead of aborting.
"""

from __future__ import annotations

import ctypes
import logging
import math
import multiprocessing
import os
import time
import warnings as _warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.acmin import DieAnalysis, DieSweepAnalyzer, pattern_footprint
from repro.core.checkpoint import CheckpointJournal
from repro.core.experiment import CharacterizationConfig
from repro.core.faults import (
    FaultPlan,
    RetryPolicy,
    RunReport,
    charge_failure,
    run_attempts,
    validate_shard_result,
)
from repro.core.results import MEASUREMENT_KIND, DieMeasurement, MeasurementKind
from repro.core.stacked import DEFAULT_OFFSETS, build_stacked_die
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
    "die_shard",
    "SweepPlan",
    "CharacterizationWorkerSpec",
    "SerialExecutor",
    "ProcessExecutor",
    "AutoExecutor",
    "make_executor",
    "run_plan",
    "start_campaign",
    "finish_campaign",
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

    @property
    def identity(self) -> Tuple[str, int, str, float, int]:
        """The identity of the measurement that answers this unit."""
        return (self.module_key, self.die, self.pattern.name, self.t_on, self.trial)

    @property
    def fingerprint_line(self) -> str:
        return f"unit|{self.pattern.name}|{self.t_on!r}|{self.trial}"


@dataclass(frozen=True)
class Shard:
    """One unit of dispatch: a run of work units, in canonical order.

    The shard protocol every campaign kind's plan is made of.  ``index``
    is the shard's position in the plan's canonical order; ``key`` holds
    the fields its units share -- (module, manufacturer, die) for
    characterization, where one worker builds one :class:`StackedDie`
    for the shard and measures every unit against it.  ``label`` names
    the shard in error and retry messages, ``obs_fields`` are the
    campaign-specific fields of its ``shard_start``/``shard_finish``
    events (DESIGN.md §6 pins the characterization names).  Every unit
    exposes an ``identity`` (matched against its result record's) and
    a ``fingerprint_line``.
    """

    index: int
    key: Tuple
    units: Tuple
    label: str
    obs_fields: Dict[str, object] = field(compare=False)

    @property
    def fingerprint_line(self) -> str:
        return "|".join(["shard", str(self.index), *map(str, self.key)])


def die_shard(
    index: int,
    module_key: str,
    manufacturer: str,
    die: int,
    units: Tuple[WorkUnit, ...],
) -> Shard:
    """The characterization shard of one (module, die)."""
    return Shard(
        index,
        (module_key, manufacturer, die),
        units,
        label=f"{module_key} die {die}",
        obs_fields={"module": module_key, "die": die},
    )


@dataclass(frozen=True)
class SweepPlan:
    """The fully enumerated work-list of one campaign, of one ``kind``
    (:class:`~repro.core.results.MeasurementKind`)."""

    shards: Tuple[Shard, ...]
    kind: MeasurementKind

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
        """Enumerate a characterization campaign in canonical order.

        Canonical order is the serial 5-deep loop's: modules in call
        order, dies ascending (or ``dies`` in call order), then patterns,
        tAggON values, and trials in call order -- one shard per
        (module, die).
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
                    die_shard(
                        len(shards), module.key, module.manufacturer, die, units
                    )
                )
        return SweepPlan(shards=tuple(shards), kind=MEASUREMENT_KIND)


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


# ------------------------------------------------------------ worker state


def fork_sharing_available() -> bool:
    """Whether pool workers inherit this process's memory (fork start)."""
    try:
        return multiprocessing.get_start_method() == "fork"
    except Exception:  # pragma: no cover - exotic platforms
        return False


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
        missing = sorted({s.key[0] for s in shards} - set(self.modules))
        if missing:
            raise ExperimentError(
                f"worker spec has no module for shard key(s) {missing} "
                f"(spec modules: {sorted(self.modules)})"
            )

    def build_runner(self) -> "ShardRunner":
        return ShardRunner(self.config, self.modules, keep_analyzers=False)


class ShardRunner:
    """Executes shards against modules, caching one analyzer per die.

    ``modules`` maps a module key to its :class:`Module`.  The runner
    keeps two caches, both defaulting to fresh dicts: the analyzers --
    one :class:`~repro.core.acmin.DieSweepAnalyzer` per (die,
    footprint), each owning its :class:`~repro.core.stacked.StackedDie`
    and its per-pattern gain and per-point base caches -- and the
    memoized measurements.  A
    :class:`~repro.core.runner.CharacterizationRunner` passes its own,
    so every campaign and every ``measure`` call on it reuses them.

    With ``keep_analyzers=False`` (a campaign's runner and every pool
    worker's per-shard runner) the analyzers it builds are dropped with
    their shard and cache no bases -- a shard visits each point once --
    so a sweep holds one die at a time; analyzers already in the cache
    are still reused and kept.

    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) records
    per-cache hit/miss counters; with the default ``None`` the runner
    performs zero metrics operations.  Pool workers always run with
    ``metrics=None`` -- the registry never crosses the pool boundary.
    """

    def __init__(
        self,
        config: CharacterizationConfig,
        modules: Dict[str, Module],
        measurement_cache: Optional[
            Dict[Tuple[str, int, str, float, int], DieMeasurement]
        ] = None,
        analyzer_cache: Optional[
            Dict[Tuple[str, int, Tuple[int, ...]], DieSweepAnalyzer]
        ] = None,
        metrics=None,
        keep_analyzers: bool = True,
    ) -> None:
        self._config = config
        self._modules = modules
        self._measurement_cache = (
            measurement_cache if measurement_cache is not None else {}
        )
        self._analyzer_cache = analyzer_cache if analyzer_cache is not None else {}
        self._metrics = metrics
        self._keep_analyzers = keep_analyzers

    @property
    def config(self) -> CharacterizationConfig:
        return self._config

    @property
    def spec(self) -> CharacterizationWorkerSpec:
        """The picklable recipe non-fork pool workers rebuild from."""
        return CharacterizationWorkerSpec(self._config, self._modules)

    def build_runner(self) -> "ShardRunner":
        """A per-shard sibling for a fork-inherited pool worker.

        It starts from copies of this runner's caches, so the worker
        reuses every die and measurement the parent already holds, and
        whatever it builds is dropped with the sibling when its shard
        returns.  It carries no metrics registry: the parent's registry
        lock must never be touched from a forked worker.
        """
        return ShardRunner(
            self._config,
            self._modules,
            dict(self._measurement_cache),
            dict(self._analyzer_cache),
            keep_analyzers=False,
        )

    def cached_units(
        self, shard: Shard
    ) -> Tuple[Tuple[WorkUnit, ...], Tuple[WorkUnit, ...]]:
        """Split a shard's units into (memoized, missing).

        The auto executor's calibration probe uses this to tell fully
        memoized shards from ones with real work.
        """
        cache = self._measurement_cache
        hits: List[WorkUnit] = []
        missing: List[WorkUnit] = []
        for unit in shard.units:
            (hits if unit.identity in cache else missing).append(unit)
        return tuple(hits), tuple(missing)

    def analyzer(
        self,
        module: Module,
        die: int,
        offsets: Tuple[int, ...] = DEFAULT_OFFSETS,
    ) -> DieSweepAnalyzer:
        """The (cached) sweep analyzer of one (die, footprint).

        Patterns whose victims fit the canonical triple share one
        analyzer per die; wide DSL footprints get their own (their
        stacks differ).  A miss builds the analyzer's stacked die; the
        runner caches it only if it keeps its analyzers.
        """
        key = (module.key, die, offsets)
        analyzer = self._analyzer_cache.get(key)
        if self._metrics is not None:
            self._metrics.inc(
                "cache.analyzer.hits" if analyzer is not None
                else "cache.analyzer.misses"
            )
        if analyzer is None:
            stacked = build_stacked_die(
                module.chip(die),
                self._config.bank,
                self._config.selection,
                self._config.data_pattern,
                offsets=offsets,
            )
            analyzer = DieSweepAnalyzer(
                stacked,
                module.model,
                temperature_c=self._config.temperature_c,
                timings=self._config.timings,
                cache_bases=self._keep_analyzers,
            )
            if self._keep_analyzers:
                self._analyzer_cache[key] = analyzer
        return analyzer

    def run(self, shard: Shard) -> List[DieMeasurement]:
        """Measure every unit of one shard, batching trials per point.

        Measurements are pure functions of (config, module, die, pattern,
        tAggON, trial), so points already in the measurement memo (e.g.
        anchor trials revisiting sweep points) are returned from it, and
        only the missing trials of a point are analyzed -- still off one
        base division.
        """
        cfg = self._config
        cache = self._measurement_cache
        metrics = self._metrics
        module_key, manufacturer, die = shard.key
        module: Optional[Module] = None
        analyzers: Dict[Tuple[int, ...], DieSweepAnalyzer] = {}
        out: List[DieMeasurement] = []
        for pattern, t_on, trials in _grouped_points(shard.units):
            measured: Dict[int, DieMeasurement] = {}
            for trial in trials:
                hit = cache.get((module_key, die, pattern.name, t_on, trial))
                if hit is not None:
                    measured[trial] = hit
            missing = [t for t in trials if t not in measured]
            if metrics is not None:
                metrics.inc("cache.measurement.hits", len(measured))
                metrics.inc("cache.measurement.misses", len(missing))
            if missing:
                offsets = pattern_footprint(pattern, cfg.timings)
                analyzer = analyzers.get(offsets)
                if analyzer is None:  # lazily: fully cached shards skip it
                    if module is None:
                        module = self._modules[module_key]
                    analyzer = self.analyzer(module, die, offsets)
                    analyzers[offsets] = analyzer
                analyses = analyzer.analyze_trials(
                    pattern, t_on, list(missing), cfg.jitter_sigma
                )
                for trial, analysis in zip(missing, analyses):
                    measurement = measurement_from_analysis(
                        module_key,
                        manufacturer,
                        die,
                        pattern,
                        t_on,
                        trial,
                        analysis,
                        cfg,
                    )
                    measured[trial] = measurement
                    cache[measurement.identity] = measurement
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
        validate_shard_result(shard, measurements)
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


class ProcessExecutor:
    """Runs shards on a process pool, worker state picked by platform.

    The pool initializer hands each worker one *source* through
    ``initargs``, and the worker calls ``source.build_runner()`` afresh
    for every shard, so nothing a worker builds outlives its shard:

    * fork -- under the ``fork`` start method the source is the runner
      itself, which forked workers inherit copy-on-write (modules,
      analyzers with their stacked dies, memoized measurements) and
      never unpickle.
    * spec -- under any other start method the source is the runner's
      value-only ``spec``, pickled once per worker.

    Either way the parent first runs ``runner.spec.check_shards`` on the
    plan, so a shard no worker could run fails before the pool starts.
    Every call runs the same per-shard loop: one pool task per shard,
    results validated and streamed back as they land.  Results are
    bit-identical in both modes -- measurements are pure functions of
    their identity.

    A pool larger than the usable CPUs is built as requested, with a
    ``UserWarning`` and an ``oversubscription`` note on the run report.
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
        self._warn_oversubscription(report, obs)
        fork = fork_sharing_available()
        if obs is not None:
            mode = "fork" if fork else "spec"
            obs.metrics.inc(f"worker_state.{mode}")
            obs.emit("worker_state", mode=mode)
        return self._map_resilient(
            plan, runner, runner if fork else spec, policy, fault_plan,
            on_shard, report, obs,
        )

    def _warn_oversubscription(
        self, report: Optional[RunReport], obs: Optional[Observability]
    ) -> None:
        cpus = _usable_cpus()
        if self.workers <= cpus:
            return
        message = (
            f"{self.workers} workers requested but only {cpus} CPU core(s) "
            f"are available; the pool will oversubscribe"
        )
        _warnings.warn(message, UserWarning, stacklevel=3)
        if report is not None:
            report.warnings.append(message)
        if obs is not None:
            obs.metrics.inc("executor.oversubscribed")
            obs.emit(
                "executor_oversubscribed", workers=self.workers, cpu_count=cpus
            )

    def _map_resilient(
        self,
        plan: SweepPlan,
        runner: ShardRunner,
        source,
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
        The abandoned pool's workers are terminated, so a wedged shard
        cannot keep the interpreter from exiting.

        ``policy=None`` means no retries, as on the serial path: a
        worker's exception re-raises unchanged, and the first pool
        break raises :class:`~repro.errors.PoolBrokenError` so
        :func:`run_plan` falls back to the serial executor.

        ``source`` is what the pool initializer hands each worker once
        (the runner under fork, else its spec); pool restarts reuse it.
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
                initargs=(source,),
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
                            validate_shard_result(shard, measurements)
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
                if abandoned:
                    _terminate_workers(pool)
                pool.shutdown(wait=not abandoned, cancel_futures=True)
        return [done[shard.index] for shard in plan.shards]


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill an abandoned pool's workers (a hung one never returns)."""
    terminate = getattr(pool, "terminate_workers", None)  # Python >= 3.14
    if terminate is not None:
        terminate()
        return
    for process in list((pool._processes or {}).values()):
        process.terminate()


#: Pool-worker state: the object the worker's pool was created with (the
#: parent's runner under fork, else its spec).  Handing it over once per
#: worker keeps the spec (on the spec path every module) off each task.
_WORKER_SOURCE = None


def _start_worker(source) -> None:
    """Pool initializer.  Runners are built per shard, so a spec that
    cannot build one fails its shard rather than breaking the pool."""
    global _WORKER_SOURCE
    _WORKER_SOURCE = source
    fix_malloc_thresholds()


# glibc's ``mallopt`` parameters (``<malloc.h>``) and the values a pool
# worker fixes them at.  Left dynamic, glibc raises its mmap threshold to
# the largest block freed so far and trims the heap top above twice that,
# so most per-shard numpy temporaries (a die's 3.5 MB draw block, the
# 0.44 MB per-point stacks) went back to the kernel when freed and the
# next shard faulted ~17 MB in again.  32 MiB is glibc's largest mmap
# threshold on 64-bit hosts: every per-shard array comes from the heap.
# 64 MiB of trim threshold is above one shard's ~20 MB working set: freed
# memory stays mapped for the next shard.  Fixing the trim threshold
# alone would also freeze the mmap threshold where it stands: 128 KiB in
# a worker that did not inherit a raised one (forkserver, spawn).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_WORKER_MMAP_THRESHOLD = 32 * 1024 * 1024
_WORKER_TRIM_THRESHOLD = 64 * 1024 * 1024


def _glibc_mallopt() -> Optional[Callable[[int, int], int]]:
    """glibc's ``mallopt``, or None under any other C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def fix_malloc_thresholds() -> bool:
    """Keep a pool worker's freed memory mapped between tasks.

    Fixes glibc's mmap threshold, then (only if that took) its trim
    threshold, at the constants above; returns whether both took.  A
    silent no-op without glibc's ``mallopt`` or where it refuses a value.
    Only where freed memory goes changes, never a result.  Called from
    pool initializers only: the calling process keeps its allocator.
    """
    mallopt = _glibc_mallopt()
    if mallopt is None:
        return False
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_THRESHOLD)
    )


def _run_shard_remote(
    shard: Shard, fault_plan: Optional[FaultPlan]
) -> Tuple[int, List[DieMeasurement]]:
    """Worker entry point: run one shard on a runner built for it.

    The runner is dropped when the shard returns, so a worker's memory
    is bounded by one shard, not by how many shards it happens to draw.
    Fault hooks run *inside* the worker so injected hangs and crashes
    exercise the real failure surface (pool timeouts, BrokenProcessPool);
    result validation stays on the parent side.
    """
    if fault_plan is not None:
        fault_plan.before(shard.index)
    measurements = _WORKER_SOURCE.build_runner().run(shard)
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
            if cached_units is None:
                return len(shard.units)
            return len(cached_units(shard)[1])

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
    :class:`AutoExecutor`.
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


def run_plan(
    plan,
    runner,
    executor,
    fingerprint: str,
    *,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    digest: bool = False,
    report: Optional[RunReport] = None,
    obs: Optional[Observability] = None,
    sink=None,
) -> Dict[int, List]:
    """Execute a shard plan on ``executor``, falling back to serial.

    The campaign-agnostic core shared by
    :meth:`~repro.core.runner.CharacterizationRunner.characterize` and the
    mitigation campaign (:mod:`repro.mitigations.campaign`): checkpoint
    journaling and resume, per-shard observability events, the one
    fallback -- if the process pool breaks for good
    (:class:`~repro.errors.PoolBrokenError`), the remaining shards run
    on :class:`SerialExecutor`, loudly -- and the final completeness
    check.  ``plan`` is a :class:`SweepPlan` of either campaign kind:
    its ``kind`` is the journal's record codec, and every shard result
    is checked against its units by
    :func:`~repro.core.faults.validate_shard_result`.  ``runner`` is
    anything with ``run(shard)`` (plus ``build_runner()`` and a
    picklable ``spec`` for the process executor, see
    :class:`ProcessExecutor`).

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

    journal = (
        CheckpointJournal(checkpoint, digest=digest, kind=plan.kind)
        if checkpoint is not None
        else None
    )
    try:
        return _run_plan_journaled(
            plan, runner, executor, fingerprint, policy=policy,
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
    executor,
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
            # The header's n_shards must match the plan, and every entry
            # is a shard index below it: each indexes plan.shards.
            completed = journal.load(fingerprint, len(plan.shards))
            for index, results in completed.items():
                try:
                    validate_shard_result(plan.shards[index], results)
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

    def dispatch(executor) -> None:
        remaining = tuple(
            shard for shard in plan.shards if shard.index not in completed
        )
        if not remaining:
            return
        report.executors.append(executor.name)
        executor.map_shards(
            replace(plan, shards=remaining),
            runner,
            policy=policy,
            fault_plan=fault_plan,
            on_shard=on_shard,
            report=report,
            obs=obs,
        )

    try:
        dispatch(executor)
    except PoolBrokenError as exc:
        left = sum(
            1 for shard in plan.shards if shard.index not in completed
        )
        message = (
            f"{executor.name} executor failed ({exc}); degrading to "
            f"the serial executor for the remaining {left} shard(s)"
        )
        logger.warning(message)
        # A degraded campaign still completes -- which is exactly why
        # the fallback must be loud: UserWarning for interactive runs,
        # RunReport.warnings for artifacts.
        _warnings.warn(message, UserWarning, stacklevel=2)
        report.degradations.append(message)
        report.warnings.append(message)
        if obs is not None:
            obs.metrics.inc("executor.degradations")
            obs.emit(
                "executor_degraded",
                from_executor=executor.name,
                to_executor="serial",
                reason=str(exc),
            )
        dispatch(SerialExecutor())

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
    report: RunReport,
    obs: Optional[Observability],
    session,
    invariants: Optional[Callable] = None,
):
    """Close one campaign run and return its results.

    Records the session's preflight outcomes on ``report``, merges the
    completed shard results in canonical plan order into the plan
    kind's container (``plan.kind.results``), and -- with
    ``invariants`` (a ``require_*``
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
    results = plan.kind.results(
        record for shard in plan.shards for record in completed[shard.index]
    )
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
