"""Fault tolerance primitives for campaign execution.

Real DRAM Bender / SoftMC characterization rigs run for days, and their
host-side harnesses routinely survive worker hiccups: a hung FPGA
readback, a crashed worker process, a corrupted result buffer.  This
module gives the sweep engine (:mod:`repro.core.engine`) the same
vocabulary:

* :class:`RetryPolicy` -- how often to retry a failed shard, with
  exponential backoff, an optional per-shard wall-clock timeout, and a
  bound on process-pool restarts before the engine falls back to the
  serial executor.
* :func:`is_transient` -- the transient-vs-permanent classification:
  timeouts, integrity violations, pool breakage, and *unknown* worker
  exceptions are retryable; deterministic :class:`~repro.errors.ReproError`
  failures (bad configuration, calibration bugs) recur on retry and are
  permanent.
* :func:`charge_failure` -- the one retry ledger every executor charges a
  failed shard attempt to: classification, retry budget, retry counters
  and events, backoff.
* :func:`validate_shard_result` -- merge-time integrity validation: a
  shard's measurements must match its work units one-to-one and in
  order (missing / duplicated / out-of-order / mislabeled detection).
* :class:`FaultPlan` / :class:`FaultSpec` -- a deterministic fault
  injection harness used by the test suite to prove recovery: raise on
  the first N attempts of a shard, hang it, corrupt its result, or
  crash the worker process outright.
* :class:`RunReport` -- the per-run summary (resumed / executed shard
  counts, retries, pool restarts, executor degradations) surfaced by
  ``CharacterizationRunner.last_report`` and the CLI.
"""

from __future__ import annotations

import math
import os
import threading
import time
import multiprocessing
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, TypeVar, Union

from repro.errors import (
    ExperimentError,
    PoolBrokenError,
    ReproError,
    ResultIntegrityError,
    ShardFailedError,
    ShardTimeoutError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.engine import Shard
    from repro.core.results import DieMeasurement

T = TypeVar("T")

__all__ = [
    "RetryPolicy",
    "FaultSpec",
    "FaultPlan",
    "RunReport",
    "is_transient",
    "validate_shard_result",
    "call_with_timeout",
    "charge_failure",
    "run_attempts",
]


# ------------------------------------------------------------- retry policy


@dataclass(frozen=True)
class RetryPolicy:
    """How the executors retry failed shards.

    Attributes:
        max_retries: retries *after* the first attempt (so a shard is
            tried at most ``max_retries + 1`` times).
        backoff_base: delay before the first retry (seconds).
        backoff_factor: multiplier applied per subsequent retry
            (exponential backoff: ``base * factor ** (n - 1)``).
        shard_timeout: per-shard wall-clock timeout in seconds, or
            ``None`` for no timeout.  A timed-out shard raises
            :class:`~repro.errors.ShardTimeoutError` (transient).
        max_pool_restarts: how many times the process executor rebuilds
            a broken pool before giving up with
            :class:`~repro.errors.PoolBrokenError` (which the engine
            answers by finishing the campaign on the serial executor).
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    shard_timeout: Optional[float] = None
    max_pool_restarts: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ExperimentError("backoff must be non-negative and non-shrinking")
        if self.shard_timeout is not None and not (
            math.isfinite(self.shard_timeout) and self.shard_timeout > 0
        ):
            raise ExperimentError(
                "shard_timeout must be finite and positive (or None), "
                f"got {self.shard_timeout!r}"
            )
        if self.max_pool_restarts < 0:
            raise ExperimentError("max_pool_restarts must be >= 0")

    def backoff_delay(self, failures: int) -> float:
        """Backoff before the retry following the ``failures``-th failure."""
        if failures < 1:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (failures - 1)


def is_transient(exc: BaseException) -> bool:
    """Transient-vs-permanent failure classification.

    Timeouts, result-integrity violations and pool breakage are
    retryable by construction (measurements are pure functions of the
    plan).  Any *other* :class:`~repro.errors.ReproError` -- including
    :class:`~repro.errors.PreflightError` -- is a deterministic library
    failure: a retry would recur, so it is permanent.  Unknown
    exceptions (a worker dying mid-shard surfaces as a plain
    ``RuntimeError``/``EOFError``) are presumed transient.
    """
    if isinstance(
        exc, (ShardTimeoutError, ResultIntegrityError, PoolBrokenError)
    ):
        return True
    if isinstance(exc, BrokenProcessPool):
        return True
    if isinstance(exc, ReproError):
        return False
    return True


# ------------------------------------------------------------ result checks


def validate_shard_result(shard: "Shard", records: Sequence) -> None:
    """Check a shard's result records against its work units.

    Every unit must be answered by exactly one record of the same
    ``identity``, in canonical unit order -- for every campaign kind;
    raises :class:`~repro.errors.ResultIntegrityError` naming the first
    discrepancy (missing, duplicated, out-of-order, or mislabeled
    records).
    """
    expected = [u.identity for u in shard.units]
    got = [r.identity for r in records]
    if got == expected:
        return
    label = f"shard {shard.index} ({shard.label})"
    expected_set, got_set = set(expected), set(got)
    missing = sorted(expected_set - got_set)
    extra = sorted(got_set - expected_set)
    if len(got) != len(got_set):
        dupes = sorted({k for k in got if got.count(k) > 1})
        raise ResultIntegrityError(
            f"{label} returned duplicated measurements: {dupes[:3]}"
        )
    if missing or extra:
        raise ResultIntegrityError(
            f"{label} returned {len(got)}/{len(expected)} expected "
            f"measurements (missing {missing[:3]}, unexpected {extra[:3]})"
        )
    raise ResultIntegrityError(
        f"{label} returned measurements out of canonical order"
    )


# ------------------------------------------------------- timeout and retry


def call_with_timeout(fn: Callable[[], T], timeout: Optional[float]) -> T:
    """Run ``fn`` with a wall-clock timeout.

    With a timeout the call runs on a helper thread and a late result is
    abandoned (the thread finishes in the background -- Python offers no
    preemptive kill).  The thread is a daemon, so an abandoned attempt
    that never returns cannot keep the interpreter from exiting.
    Without a timeout, ``fn`` runs inline.
    """
    if timeout is None:
        return fn()
    outcome: Dict[str, object] = {}

    def target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, name="shard-attempt", daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise ShardTimeoutError(
            f"shard exceeded the {timeout:g}s per-shard timeout"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def charge_failure(
    exc: Exception,
    failures: int,
    policy: RetryPolicy,
    label: str,
    report: Optional["RunReport"] = None,
    obs=None,
) -> None:
    """Account a shard's ``failures``-th failed attempt; the one retry ledger.

    Raises :class:`~repro.errors.ShardFailedError` (cause chained) on a
    permanent error or an exhausted budget; otherwise counts the retry
    into ``report.n_retries`` and sleeps the policy's backoff, after
    which the caller runs the shard again.  With an
    :class:`~repro.obs.Observability` attached, every failure counts
    into the metrics registry (``shards.retried``, ``shards.timed_out``)
    and retries emit ``shard_retry`` events.  Every executor charges its
    failures here: :func:`run_attempts` in-process, the process pool per
    shard on the parent side.
    """
    if obs is not None and isinstance(exc, ShardTimeoutError):
        obs.metrics.inc("shards.timed_out")
    if not is_transient(exc):
        raise ShardFailedError(
            f"{label} failed permanently on attempt {failures}: {exc}"
        ) from exc
    if failures > policy.max_retries:
        raise ShardFailedError(
            f"{label} failed {failures} times; retry budget "
            f"({policy.max_retries}) exhausted: {exc}"
        ) from exc
    if report is not None:
        report.n_retries += 1
    if obs is not None:
        obs.metrics.inc("shards.retried")
        obs.emit("shard_retry", label=label, failures=failures, error=str(exc))
    time.sleep(policy.backoff_delay(failures))


def run_attempts(
    attempt: Callable[[], T],
    policy: RetryPolicy,
    report: Optional["RunReport"] = None,
    label: str = "shard",
    obs=None,
) -> T:
    """Run ``attempt`` under a retry policy (the in-process executors).

    Each failure is charged through :func:`charge_failure`, which either
    raises or backs off before the next attempt.
    """
    failures = 0
    while True:
        try:
            return call_with_timeout(attempt, policy.shard_timeout)
        except Exception as exc:  # noqa: BLE001 - classification in the ledger
            failures += 1
            charge_failure(exc, failures, policy, label, report, obs)


# ------------------------------------------------------------ fault harness


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: fail the first ``times`` attempts of a shard.

    Kinds:

    * ``"raise"``   -- raise a ``RuntimeError`` before the shard runs
      (a flaky worker; transient under :func:`is_transient`).
    * ``"hang"``    -- sleep ``hang_s`` seconds before running (a wedged
      worker; trips the per-shard timeout).
    * ``"corrupt"`` -- drop the shard's last measurement (a truncated
      result buffer; caught by :func:`validate_shard_result`).
    * ``"crash"``   -- ``os._exit(1)`` when running inside a worker
      process (kills the pool -> ``BrokenProcessPool``); degrades to a
      ``"raise"`` when executed in the main process, where exiting
      would take the whole campaign down with it.
    """

    shard_index: int
    kind: str
    times: int = 1
    hang_s: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("raise", "hang", "corrupt", "crash"):
            raise ExperimentError(f"unknown fault kind {self.kind!r}")
        if self.times < 0:
            raise ExperimentError("times must be >= 0")


class FaultPlan:
    """Deterministic fault injection for executor tests.

    The plan counts attempts per shard and injects each shard's fault on
    its first ``times`` attempts, then lets it succeed -- which is
    exactly the shape retry logic must survive.  Attempt counters live
    in memory by default; pass ``state_dir`` (any writable directory) to
    persist them as files so counts survive the process boundary --
    required with the process executor, where every retry lands in a
    freshly unpickled copy of the plan.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        state_dir: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        by_index: Dict[int, FaultSpec] = {}
        for spec in specs:
            if spec.shard_index in by_index:
                raise ExperimentError(
                    f"multiple faults for shard {spec.shard_index}"
                )
            by_index[spec.shard_index] = spec
        self._specs = by_index
        self._state_dir = str(state_dir) if state_dir is not None else None
        self._counts: Dict[int, int] = {}
        self._last_attempt: Dict[int, int] = {}

    @property
    def state_dir(self) -> Optional[str]:
        return self._state_dir

    def _next_attempt(self, shard_index: int) -> int:
        if self._state_dir is not None:
            marker = Path(self._state_dir) / f"fault-shard-{shard_index}.calls"
            count = int(marker.read_text()) if marker.exists() else 0
            count += 1
            marker.write_text(str(count))
            return count
        count = self._counts.get(shard_index, 0) + 1
        self._counts[shard_index] = count
        return count

    def before(self, shard_index: int) -> None:
        """Hook run before a shard attempt; may raise, hang, or crash."""
        spec = self._specs.get(shard_index)
        if spec is None:
            return
        attempt = self._next_attempt(shard_index)
        self._last_attempt[shard_index] = attempt
        if attempt > spec.times:
            return
        if spec.kind == "raise":
            raise RuntimeError(
                f"injected fault: shard {shard_index}, attempt {attempt}"
            )
        if spec.kind == "hang":
            time.sleep(spec.hang_s)
        elif spec.kind == "crash":
            if multiprocessing.parent_process() is not None:
                os._exit(1)
            raise RuntimeError(
                f"injected crash: shard {shard_index}, attempt {attempt} "
                f"(raised instead: not in a worker process)"
            )

    def after(
        self, shard_index: int, measurements: List["DieMeasurement"]
    ) -> List["DieMeasurement"]:
        """Hook run on a shard's result; may corrupt it."""
        spec = self._specs.get(shard_index)
        if spec is None or spec.kind != "corrupt":
            return measurements
        if self._last_attempt.get(shard_index, 0) > spec.times:
            return measurements
        return measurements[:-1]


# -------------------------------------------------------------- run report


@dataclass
class RunReport:
    """Summary of one campaign run, surfaced via ``last_report``.

    ``metrics`` carries the end-of-run snapshot of the attached
    :class:`~repro.obs.MetricsRegistry` (counters / gauges / timer
    summaries) when the engine ran with observability, else ``None``.
    ``provenance`` is the environment stamp
    (:func:`repro.validate.provenance.provenance_stamp`: Python / numpy
    / platform / seed scheme) recorded at run start, so downstream
    consumers can tell which world produced the numbers.
    """

    n_shards: int = 0
    n_resumed: int = 0
    n_executed: int = 0
    n_retries: int = 0
    n_pool_restarts: int = 0
    fingerprint: str = ""
    executors: List[str] = field(default_factory=list)
    degradations: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    auto_decision: Optional[Dict] = None
    metrics: Optional[Dict] = None
    provenance: Optional[Dict] = None
    # Per-module methodology preflight outcomes (None without a session).
    preflight: Optional[Dict] = None

    def summary(self) -> str:
        line = (
            f"shards: {self.n_shards} total, {self.n_resumed} resumed from "
            f"checkpoint, {self.n_executed} executed; retries: "
            f"{self.n_retries}; pool restarts: {self.n_pool_restarts}"
        )
        if self.auto_decision:
            line += (
                f"; auto executor: {self.auto_decision.get('chosen', '?')}"
                f" ({self.auto_decision.get('reason', 'no reason recorded')})"
            )
        if self.degradations:
            line += "; degradations: " + " | ".join(self.degradations)
        if self.warnings:
            line += "; warnings: " + " | ".join(self.warnings)
        if self.metrics:
            timers = self.metrics.get("timers", {})
            execute = timers.get("shard.execute_seconds")
            if execute and execute.get("count"):
                line += (
                    f"; shard execute p50 {execute['p50_s']:.3f}s / "
                    f"p90 {execute['p90_s']:.3f}s"
                )
        return line
