"""Characterization runner: sweeps modules x patterns x tAggON x trials.

The runner is the one characterization campaign entry point.  It owns
the caches every sweep reuses (per-die sweep analyzers, each holding its
stacked population, and memoized measurements), honours the 60 ms
iteration bound,
and emits :class:`~repro.core.results.DieMeasurement` records that the
analysis layer aggregates into the paper's tables and figures.  Sweeps
plan their work-list and dispatch it through the execution engine
(:mod:`repro.core.engine`) with a ``workers`` count or an explicit
executor; parallel and serial runs produce identical ResultSets in
identical order.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.backend.base import build_session
from repro.core.acmin import DieSweepAnalyzer
from repro.core.checkpoint import plan_fingerprint
from repro.core.engine import (
    ShardRunner,
    SweepPlan,
    WorkUnit,
    die_shard,
    finish_campaign,
    make_executor,
    run_plan,
    start_campaign,
)
from repro.core.experiment import CharacterizationConfig
from repro.core.faults import FaultPlan, RetryPolicy, RunReport
from repro.core.results import DieMeasurement, ResultSet
from repro.core.stacked import DEFAULT_OFFSETS, StackedDie
from repro.dram.module import Module
from repro.obs import Observability
from repro.patterns.base import ALL_PATTERNS, AccessPattern


class CharacterizationRunner:
    """Runs characterization campaigns over one or more modules.

    ``obs`` (a :class:`~repro.obs.Observability`) turns on campaign
    observability: the engine and shard runner record per-shard timings,
    retry/degradation counters, and the runner-level cache hit/miss
    counts into its metrics registry and stream progress events to its
    reporters.  With the default ``None`` nothing is recorded and the
    hot path performs zero observability operations.

    ``backend`` selects the rig sweeps are preflighted on: ``None``
    (default) skips the preflight; ``"sim"`` or a prebuilt
    :class:`~repro.backend.DeviceSession` runs the paper's §3
    methodology preflight for every module before its first sweep.
    Results are bit-identical either way -- measurements are pure
    functions of their identity.

    Every closed-form measurement -- sweeps and :meth:`measure` alike --
    runs through one :class:`~repro.core.engine.ShardRunner` over the
    runner's two caches: the per-die analyzers (each owning its stacked
    die) and the measurement memo.
    """

    def __init__(
        self,
        config: CharacterizationConfig,
        obs: Optional[Observability] = None,
        backend=None,
    ) -> None:
        self._config = config
        self._obs = obs
        self._measurement_cache: Dict[
            Tuple[str, int, str, float, int], DieMeasurement
        ] = {}
        self._analyzer_cache: Dict[
            Tuple[str, int, Tuple[int, ...]], DieSweepAnalyzer
        ] = {}
        self._last_report: Optional[RunReport] = None
        self._session = build_session(backend)

    @property
    def config(self) -> CharacterizationConfig:
        return self._config

    @property
    def session(self):
        """The device session sweeps are preflighted on (``None``: none)."""
        return self._session

    @property
    def obs(self) -> Optional[Observability]:
        """The attached observability bundle (``None`` when disabled)."""
        return self._obs

    @property
    def last_report(self) -> Optional[RunReport]:
        """The run report of the most recent sweep (``None`` before one)."""
        return self._last_report

    # ------------------------------------------------------------ measurement

    def _shard_runner(self, modules: Sequence[Module]) -> ShardRunner:
        """A shard runner over ``modules`` and this runner's caches."""
        obs = self._obs
        return ShardRunner(
            self._config,
            {module.key: module for module in modules},
            self._measurement_cache,
            self._analyzer_cache,
            metrics=obs.metrics if obs is not None else None,
        )

    def stacked_die(
        self,
        module: Module,
        die: int,
        offsets: Tuple[int, ...] = DEFAULT_OFFSETS,
    ) -> StackedDie:
        """The (cached) stacked victim population of one (die, footprint)."""
        return self._shard_runner([module]).analyzer(module, die, offsets).stacked

    def measure(
        self,
        module: Module,
        die: int,
        pattern: AccessPattern,
        t_on: float,
        trial: int = 0,
    ) -> DieMeasurement:
        """One (die, pattern, tAggON, trial) measurement (memoized)."""
        shard = die_shard(
            0, module.key, module.manufacturer, die,
            (WorkUnit(module.key, die, pattern, t_on, trial),),
        )
        return self._shard_runner([module]).run(shard)[0]

    # ----------------------------------------------------------------- sweeps

    def characterize(
        self,
        modules: Sequence[Module],
        t_values: Sequence[float],
        patterns: Sequence[AccessPattern] = ALL_PATTERNS,
        dies: Optional[Sequence[int]] = None,
        trials: Optional[int] = None,
        workers: Optional[Union[int, str]] = None,
        executor=None,
        policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[Union[str, os.PathLike]] = None,
        resume: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        validate: bool = False,
        sink=None,
    ) -> ResultSet:
        """Run a full campaign and return its canonical ResultSet.

        ``dies`` restricts every module to those dies (default: all of
        them); ``trials`` defaults to the config's.  ``workers`` selects
        parallelism (0/1: serial in-process; more: a process pool
        sharded by (module, die); the string ``"auto"`` calibrates a
        probe and picks serial or a pool sized to the machine); an
        explicit ``executor`` from :mod:`repro.core.engine` overrides
        it.  Results are identical to the serial sweep regardless of
        executor.  Every measurement is memoized on the runner, so a
        later sweep revisiting a point (anchor trials after a sweep)
        reuses it.  Repeated process-pool breakage finishes the
        remaining shards on the serial executor instead of aborting;
        :attr:`last_report` summarizes what happened, including the
        §3 preflight outcome of every module when a backend is attached.

        ``policy`` adds shard retry/timeout behaviour; ``fault_plan``
        injects deterministic faults (tests only).  ``checkpoint`` names
        a JSONL journal appended after every completed shard; with
        ``resume=True`` an existing journal (same plan fingerprint --
        anything else raises :class:`~repro.errors.CheckpointError`)
        seeds the run and its shards are not re-executed.  The final
        ResultSet is bit-identical to an uninterrupted run: resumed
        measurements round-trip through the journal losslessly and are
        merged in canonical plan order.

        ``validate=True`` arms the trust layer: the journal maintains a
        sha256 sidecar and a provenance-stamped header, and the merged
        ResultSet must pass the physical-invariant guards
        (:mod:`repro.validate.invariants`) before being returned --
        :class:`~repro.errors.InvariantViolationError` otherwise.  Off
        (the default), no validation work happens and every artifact's
        bytes are identical to an unvalidated run.

        ``sink`` (e.g. a :class:`~repro.core.flipdb.FlipSink`) receives
        every completed shard's measurements as the sweep runs, so a
        population lands in an out-of-core store as well as in the
        returned ResultSet; it is flushed -- but not closed -- before
        this method returns.
        """
        if executor is None:
            executor = make_executor(workers)
        cfg = self._config
        plan = SweepPlan.build(
            modules,
            t_values,
            patterns,
            dies=dies,
            trials=trials if trials is not None else cfg.trials,
        )
        fingerprint = plan_fingerprint(cfg, plan)
        obs = self._obs
        session = self._session
        report = start_campaign(plan, fingerprint, executor, obs, session)
        self._last_report = report
        if session is not None:
            # Mandatory methodology preflight (thermal settle,
            # refresh-window bound, TRR/ECC off, mapping
            # reverse-engineering) for every module, before any shard
            # is dispatched.  Cached per module key, so repeated sweeps
            # pay it once.
            for module in modules:
                session.ensure_preflight(module, cfg)

        completed = run_plan(
            plan,
            self._shard_runner(modules),
            executor,
            fingerprint,
            policy=policy,
            fault_plan=fault_plan,
            checkpoint=str(checkpoint) if checkpoint is not None else None,
            resume=resume,
            digest=validate,
            report=report,
            obs=obs,
            sink=sink,
        )
        if sink is not None:
            sink.flush()
        # Executors that run in other processes (the process pool)
        # bypass the caller-side runner, so fold the streamed-back
        # measurements into the memo here.
        for shard in plan.shards:
            for m in completed[shard.index]:
                self._measurement_cache[m.identity] = m
        if validate:
            from repro.validate import invariants
        return finish_campaign(
            plan,
            completed,
            report,
            obs,
            session,
            invariants.require_result_invariants if validate else None,
        )
