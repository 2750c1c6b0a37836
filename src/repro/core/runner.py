"""Characterization runner: sweeps modules x patterns x tAggON x trials.

The runner is the serial facade over the sweep execution engine
(:mod:`repro.core.engine`).  It caches the stacked per-die populations,
honours the 60 ms iteration bound, and emits
:class:`~repro.core.results.DieMeasurement` records that the analysis
layer aggregates into the paper's tables and figures.  Sweeps accept a
``workers`` count (or an explicit executor) to run shards in parallel;
parallel and serial runs produce identical ResultSets in identical order.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.backend.base import build_session
from repro.core.acmin import DieSweepAnalyzer, analyze_die, pattern_footprint
from repro.core.engine import SweepEngine, make_executor, measurement_from_analysis
from repro.core.experiment import CharacterizationConfig
from repro.core.faults import FaultPlan, RetryPolicy, RunReport
from repro.core.results import DieMeasurement, ResultSet
from repro.core.stacked import DEFAULT_OFFSETS, StackedDie, build_stacked_die
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
    """

    def __init__(
        self,
        config: CharacterizationConfig,
        obs: Optional[Observability] = None,
        backend=None,
    ) -> None:
        self._config = config
        self._obs = obs
        self._stacked_cache: Dict[
            Tuple[str, int, Tuple[int, ...]], StackedDie
        ] = {}
        self._measurement_cache: Dict[
            Tuple[str, int, str, float, int], DieMeasurement
        ] = {}
        self._analyzer_cache: Dict[
            Tuple[str, int, Tuple[int, ...]], DieSweepAnalyzer
        ] = {}
        self._last_engine: Optional[SweepEngine] = None
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
        if self._last_engine is None:
            return None
        return self._last_engine.last_report

    # ------------------------------------------------------------ measurement

    def stacked_die(
        self,
        module: Module,
        die: int,
        offsets: Tuple[int, ...] = DEFAULT_OFFSETS,
    ) -> StackedDie:
        """The (cached) stacked victim population of one (die, footprint)."""
        key = (module.key, die, offsets)
        stacked = self._stacked_cache.get(key)
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

    def measure(
        self,
        module: Module,
        die: int,
        pattern: AccessPattern,
        t_on: float,
        trial: int = 0,
    ) -> DieMeasurement:
        """One (die, pattern, tAggON, trial) measurement."""
        cfg = self._config
        analysis = analyze_die(
            self.stacked_die(
                module, die, pattern_footprint(pattern, cfg.timings)
            ),
            pattern,
            t_on,
            module.model,
            temperature_c=cfg.temperature_c,
            timings=cfg.timings,
            trial=trial,
            jitter_sigma=cfg.jitter_sigma,
        )
        return measurement_from_analysis(
            module.key, module.manufacturer, die, pattern, t_on, trial, analysis, cfg
        )

    # ----------------------------------------------------------------- sweeps

    def _engine(
        self, workers: Optional[Union[int, str]], executor
    ) -> SweepEngine:
        if executor is None:
            executor = make_executor(workers)
        engine = SweepEngine(
            self._config,
            executor=executor,
            obs=self._obs,
            session=self._session,
        )
        self._last_engine = engine
        return engine

    def characterize_module(
        self,
        module: Module,
        t_values: Sequence[float],
        patterns: Sequence[AccessPattern] = ALL_PATTERNS,
        dies: Optional[Iterable[int]] = None,
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
        """Full sweep over one module."""
        return self._engine(workers, executor).run(
            [module],
            t_values,
            patterns,
            dies=list(dies) if dies is not None else None,
            trials=trials,
            stacked_cache=self._stacked_cache,
            measurement_cache=self._measurement_cache,
            analyzer_cache=self._analyzer_cache,
            policy=policy,
            checkpoint=str(checkpoint) if checkpoint is not None else None,
            resume=resume,
            fault_plan=fault_plan,
            validate=validate,
            sink=sink,
        )

    def characterize(
        self,
        modules: Sequence[Module],
        t_values: Sequence[float],
        patterns: Sequence[AccessPattern] = ALL_PATTERNS,
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
        """Full sweep over several modules.

        ``workers`` selects parallelism (0/1: serial in-process; more: a
        process pool sharded by (module, die); the string ``"auto"``
        calibrates a probe and picks serial or a pool sized to the
        machine); an explicit ``executor`` from :mod:`repro.core.engine`
        overrides it.  Results are identical to the serial sweep
        regardless of executor.

        ``policy`` adds shard retry/timeout behaviour; ``checkpoint`` /
        ``resume`` journal completed shards and skip them on restart
        (bit-identical results either way); ``fault_plan`` injects
        deterministic faults (tests only); ``validate`` arms digest
        stamping on the journal plus a post-run physical-invariant
        self-check.  See :meth:`repro.core.engine.SweepEngine.run`.

        ``sink`` (e.g. a :class:`~repro.core.flipdb.FlipSink`) receives
        every completed shard's measurements as the sweep runs, so
        fleet-scale populations land in an out-of-core store instead of
        only in the returned ResultSet.
        """
        return self._engine(workers, executor).run(
            modules,
            t_values,
            patterns,
            trials=trials,
            stacked_cache=self._stacked_cache,
            measurement_cache=self._measurement_cache,
            analyzer_cache=self._analyzer_cache,
            policy=policy,
            checkpoint=str(checkpoint) if checkpoint is not None else None,
            resume=resume,
            fault_plan=fault_plan,
            validate=validate,
            sink=sink,
        )
