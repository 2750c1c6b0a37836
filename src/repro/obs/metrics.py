"""Metrics primitives: counters, gauges, and monotonic-clock timers.

A :class:`MetricsRegistry` is the single mutable sink every instrumented
layer (engine, shard runner, fault machinery, checkpoint journal) writes
into during a campaign.  It is deliberately tiny: three metric kinds,
dotted string names, and a :meth:`~MetricsRegistry.snapshot` that
flattens everything into a JSON-safe dict.

* **Counters** are monotonically increasing integers
  (``shards.completed``, ``cache.stacked.hits``, ``shards.retried``).
* **Gauges** are last-write-wins floats (``campaign.seconds``).
* **Timers** are histograms of observed durations in seconds, measured
  with the monotonic clock (``shard.execute_seconds``,
  ``profile.checkpoint.record``); the snapshot reports count / total /
  min / max / mean and the p50 / p90 order statistics.

The registry is thread-safe (shards run on a thread pool under the
thread executor), and :class:`NullRegistry` is the disabled twin: same
API, every method a no-op, so instrumented code can hold either without
branching.  The engine itself goes one step further -- with no
observability attached it performs *zero* registry operations on the hot
path, which ``benchmarks/test_perf_sweep.py`` guards.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union

from repro.atomicio import atomic_write_text

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "MetricsReport",
    "sanitize_nonfinite",
]


def sanitize_nonfinite(value):
    """Replace non-finite floats with ``None``, recursively.

    JSON (RFC 8259) has no NaN/Infinity literals; encoding them with
    Python's permissive default produces documents other parsers reject.
    Every serializer in this package sanitizes first and then encodes
    with ``allow_nan=False`` as a backstop.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: sanitize_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_nonfinite(v) for v in value]
    return value


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class _TimerSeries:
    """One timer's observed durations (seconds)."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[float] = []

    def summarize(self) -> Dict[str, float]:
        ordered = sorted(self.values)
        total = sum(ordered)
        count = len(ordered)
        return {
            "count": count,
            "total_s": round(total, 6),
            "min_s": round(ordered[0], 6) if ordered else 0.0,
            "max_s": round(ordered[-1], 6) if ordered else 0.0,
            "mean_s": round(total / count, 6) if count else 0.0,
            "p50_s": round(_percentile(ordered, 0.50), 6),
            "p90_s": round(_percentile(ordered, 0.90), 6),
        }


class MetricsRegistry:
    """Thread-safe counters, gauges, and timers for one campaign."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, _TimerSeries] = {}

    # ----------------------------------------------------------- writing

    def inc(self, name: str, value: int = 1) -> None:
        """Increment counter ``name`` by ``value`` (default 1)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration observation (seconds) under ``name``."""
        with self._lock:
            series = self._timers.get(name)
            if series is None:
                series = self._timers[name] = _TimerSeries()
            series.values.append(seconds)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time the enclosed block on the monotonic clock."""
        start = time.monotonic()
        try:
            yield
        finally:
            self.observe(name, time.monotonic() - start)

    # ----------------------------------------------------------- reading

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def timer_summary(self, name: str) -> Optional[Dict[str, float]]:
        """Summary of one timer (count / total / p50 / p90 ...), or
        ``None`` if nothing was observed under ``name``.

        The adaptive chunker feeds ``shard.execute_seconds`` p50/p90
        back into shard granularity; it reads through this accessor so
        disabled observability (:class:`NullRegistry`) degrades to the
        static heuristics instead of raising.
        """
        with self._lock:
            series = self._timers.get(name)
            return series.summarize() if series is not None else None

    def snapshot(self) -> Dict[str, Dict]:
        """A JSON-safe flat view: counters, gauges, timer summaries."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {
                    name: series.summarize()
                    for name, series in self._timers.items()
                },
            }

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """Every counter whose name starts with ``prefix``, by name.

        The CLI's population summary reads the streaming-sink counters
        (``sink.rows_written``, ``sink.batches``, ``sink.shards_sealed``,
        ``sink.bytes_sealed``) through this without naming each one.
        """
        with self._lock:
            return {
                name: value
                for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    def cache_hit_rates(self) -> Dict[str, Optional[float]]:
        """Hit rate per instrumented cache, ``None`` for untouched ones."""
        rates: Dict[str, Optional[float]] = {}
        for kind in ("stacked", "analyzer", "measurement"):
            hits = self.counter(f"cache.{kind}.hits")
            misses = self.counter(f"cache.{kind}.misses")
            total = hits + misses
            rates[kind] = round(hits / total, 4) if total else None
        return rates


class NullRegistry(MetricsRegistry):
    """The disabled registry: identical API, every operation a no-op."""

    def __init__(self) -> None:  # noqa: D401 - no lock, no state
        pass

    def inc(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, seconds: float) -> None:
        pass

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        yield

    def counter(self, name: str) -> int:
        return 0

    def timer_summary(self, name: str) -> Optional[Dict[str, float]]:
        return None

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        return {}

    def snapshot(self) -> Dict[str, Dict]:
        return {"counters": {}, "gauges": {}, "timers": {}}


# ------------------------------------------------------------------ report


METRICS_FORMAT = "repro-metrics-v1"


class MetricsReport:
    """The end-of-campaign metrics artifact written to ``--metrics PATH``.

    A plain JSON document: the registry snapshot, derived cache hit
    rates, and (when an engine run happened) the
    :class:`~repro.core.faults.RunReport` summary.  Serialized strictly
    (``allow_nan=False`` after sanitizing) and written atomically via
    :func:`repro.atomicio.atomic_write_text`.

    ``build(..., provenance=True)`` embeds the run's environment stamp
    and ``write(..., digest=True)`` stamps a ``<path>.sha256`` sidecar
    -- both off by default, keeping unvalidated reports byte-identical
    to earlier releases.
    """

    def __init__(self, payload: Dict) -> None:
        self.payload = payload

    @staticmethod
    def build(
        obs: "Observability", provenance: bool = False
    ) -> "MetricsReport":  # noqa: F821
        payload: Dict = {"format": METRICS_FORMAT}
        payload.update(obs.metrics.snapshot())
        payload["cache_hit_rates"] = obs.metrics.cache_hit_rates()
        report = obs.last_run_report
        if report is not None:
            payload["run"] = {
                "fingerprint": report.fingerprint,
                "n_shards": report.n_shards,
                "n_resumed": report.n_resumed,
                "n_executed": report.n_executed,
                "n_retries": report.n_retries,
                "n_pool_restarts": report.n_pool_restarts,
                "executors": list(report.executors),
                "degradations": list(report.degradations),
                "warnings": list(report.warnings),
                "warning_counts": dict(report.warning_counts),
                "auto_decision": report.auto_decision,
                "summary": report.summary(),
            }
            if report.preflight is not None:
                payload["run"]["preflight"] = report.preflight
        if provenance:
            stamp = (
                report.provenance if report is not None else None
            )
            if stamp is None:
                from repro.validate.provenance import provenance_stamp

                stamp = provenance_stamp()
            payload["provenance"] = stamp
        return MetricsReport(payload)

    def to_json(self) -> str:
        return json.dumps(
            sanitize_nonfinite(self.payload), allow_nan=False, indent=2
        )

    def write(
        self, path: Union[str, "os.PathLike"], digest: bool = False
    ) -> None:  # noqa: F821
        atomic_write_text(path, self.to_json() + "\n")
        if digest:
            from repro.atomicio import write_digest

            write_digest(path)
