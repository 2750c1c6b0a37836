"""Campaign observability: metrics, progress events, and profiling.

``repro.obs`` turns a running characterization campaign from a black box
into an auditable process, the way hardware RowHammer/RowPress rigs
report per-point timing and coverage.  One :class:`Observability` object
bundles the three concerns and is injected (optionally) into
:class:`~repro.core.runner.CharacterizationRunner` /
:class:`~repro.mitigations.campaign.MitigationCampaign`:

* a :class:`~repro.obs.metrics.MetricsRegistry` that the engine, shard
  runner, fault machinery, and checkpoint journal write counters,
  gauges, and monotonic-clock timers into;
* a list of :class:`~repro.obs.progress.ProgressReporter` sinks fed the
  campaign's event stream (stderr lines, JSONL trace file);
* opt-in profiling: :meth:`Observability.profile` spans and a cProfile
  wrapper around in-process shard execution
  (:class:`~repro.obs.profiling.ShardProfiler`).

Observability is strictly opt-in and adds **zero overhead when absent**:
every instrumented call site is guarded by an ``obs is not None`` /
``metrics is not None`` check, so a campaign run without an
``Observability`` performs no registry operations at all (guarded by
``benchmarks/test_perf_sweep.py``).  The bundle never crosses the
process-pool pickle boundary -- pool workers run uninstrumented and the
engine observes them from the submitting side.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.obs.metrics import (
    MetricsRegistry,
    MetricsReport,
    sanitize_nonfinite,
)
from repro.obs.profiling import ShardProfiler, profile_span
from repro.obs.progress import JsonlTrace, ProgressReporter, StderrProgress

__all__ = [
    "Observability",
    "MetricsRegistry",
    "MetricsReport",
    "ProgressReporter",
    "StderrProgress",
    "JsonlTrace",
    "ShardProfiler",
    "profile_span",
    "sanitize_nonfinite",
]


class Observability:
    """One campaign's metrics registry, event reporters, and profiler.

    Args:
        metrics: the registry to record into (a fresh
            :class:`MetricsRegistry` by default).
        reporters: event sinks fed every :meth:`emit`.
        profile_dir: when set, in-process shard executions run under
            cProfile and dump per-shard ``.pstats`` files there.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        reporters: Sequence[ProgressReporter] = (),
        profile_dir: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.reporters: List[ProgressReporter] = list(reporters)
        self.profiler = (
            ShardProfiler(profile_dir) if profile_dir is not None else None
        )
        #: Monotonic timestamp of the current campaign's start (set by
        #: the engine); queue-wait spans and ETAs are measured from it.
        self.campaign_t0: Optional[float] = None
        #: The :class:`~repro.core.faults.RunReport` of the most recent
        #: engine run (set by the engine; consumed by MetricsReport).
        self.last_run_report = None

    def emit(self, event: str, **fields) -> None:
        """Send one timestamped event to every reporter.

        Reporter failures must never kill a campaign mid-flight: a sink
        that raises (full disk, closed stream) is recorded in the
        ``obs.emit_errors`` counter and otherwise ignored.
        """
        record: Dict = {"event": event, "t": round(time.time(), 6)}
        record.update(fields)
        for reporter in self.reporters:
            try:
                reporter.emit(record)
            except Exception:  # noqa: BLE001 - observability must not kill runs
                self.metrics.inc("obs.emit_errors")

    def profile(self, name: str) -> Iterator[None]:
        """Context manager recording the block as timer ``profile.<name>``."""
        return profile_span(self.metrics, name)

    def close(self) -> None:
        for reporter in self.reporters:
            reporter.close()
