"""Progress reporting: the event stream of a running campaign.

The engine narrates a campaign as a stream of flat dict events (see
DESIGN.md §6 for the schema): ``campaign_start``, ``campaign_resume``,
``shard_start`` / ``shard_finish`` / ``shard_retry``, ``pool_restart``,
``executor_degraded``, ``campaign_finish``.  Every event carries its
``event`` name and a wall-clock timestamp ``t``; the rest is
event-specific.

A :class:`ProgressReporter` consumes that stream.  Two concrete sinks:

* :class:`StderrProgress` -- human-oriented, line-per-event progress on
  a stream (stderr by default), with done/total counts and a campaign
  ETA on every finished shard;
* :class:`JsonlTrace` -- machine-oriented, one strict-JSON object per
  line appended to a trace file (flushed per event, so a killed campaign
  leaves a readable prefix).

Reporters must tolerate concurrent ``emit`` calls: under a per-shard
timeout an abandoned attempt keeps emitting from its helper thread
beside its retry (:func:`repro.core.faults.call_with_timeout`).  Both
sinks guard their writes with a lock.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path
from typing import Dict, IO, Optional, Union

from repro.atomicio import fsync_dir, write_digest
from repro.obs.metrics import sanitize_nonfinite

__all__ = ["ProgressReporter", "StderrProgress", "JsonlTrace"]


class ProgressReporter:
    """Protocol of a campaign event sink.

    Subclasses override :meth:`emit`; :meth:`close` is called once when
    the owning :class:`~repro.obs.Observability` shuts down.
    """

    def emit(self, event: Dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass


def _eta_text(event: Dict) -> str:
    eta = event.get("eta_s")
    if eta is None:
        return ""
    if eta >= 90:
        return f"; eta {eta / 60:.1f}m"
    return f"; eta {eta:.1f}s"


class StderrProgress(ProgressReporter):
    """Line-oriented progress on a text stream (stderr by default)."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()

    def _write(self, line: str) -> None:
        with self._lock:
            self._stream.write(line + "\n")

    def emit(self, event: Dict) -> None:
        kind = event.get("event")
        if kind == "campaign_start":
            self._write(
                f"campaign {event.get('fingerprint')}: "
                f"{event.get('n_shards')} shards "
                f"({event.get('n_measurements')} measurements) on the "
                f"{event.get('executor')} executor"
            )
        elif kind == "campaign_resume":
            self._write(
                f"resumed {event.get('n_resumed')} shard(s) from "
                f"{event.get('checkpoint')}"
            )
        elif kind == "shard_finish":
            done, total = event.get("n_done"), event.get("n_total")
            # Characterization shards carry module/die; other campaign
            # kinds (e.g. mitigation shards) carry a ready-made label.
            label = event.get("label")
            if label is None:
                label = f"{event.get('module')} die {event.get('die')}"
            self._write(
                f"[{done:>4}/{total}] shard {event.get('shard')} "
                f"({label}) done{_eta_text(event)}"
            )
        elif kind == "shard_retry":
            self._write(
                f"retry: {event.get('label')} failure "
                f"{event.get('failures')}: {event.get('error')}"
            )
        elif kind == "executor_degraded":
            self._write(
                f"degraded: {event.get('from_executor')} -> "
                f"{event.get('to_executor')} ({event.get('reason')})"
            )
        elif kind == "campaign_finish":
            self._write(
                f"campaign done in {event.get('seconds')}s: "
                f"{event.get('n_executed')} executed, "
                f"{event.get('n_resumed')} resumed, "
                f"{event.get('n_retries')} retries"
            )
        # shard_start / pool_restart stay line-silent: the finish lines
        # already carry the campaign's rhythm, and start lines would
        # double the noise without adding state a human can act on.


class JsonlTrace(ProgressReporter):
    """Appends every event as one strict-JSON line to a trace file.

    The file is created (truncated) on the first event, so one CLI
    invocation produces one self-contained trace; each line is flushed
    as it is written so an interrupted campaign leaves every completed
    event readable.

    With ``digest=True`` a ``<path>.sha256`` sidecar is stamped when the
    trace closes, so ``repro-characterize validate`` can detect any
    later byte flip (a trace killed before close has no sidecar -- its
    integrity cover is the per-line strict-JSON discipline).
    """

    def __init__(
        self, path: Union[str, os.PathLike], digest: bool = False
    ) -> None:
        self._path = Path(path)
        self._digest = digest
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = None
        self._wrote = False

    @property
    def path(self) -> Path:
        return self._path

    def emit(self, event: Dict) -> None:
        line = json.dumps(sanitize_nonfinite(event), allow_nan=False)
        with self._lock:
            if self._handle is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self._path, "w", encoding="utf-8")
                fsync_dir(self._path.parent)  # the create must be durable
            self._handle.write(line + "\n")
            self._handle.flush()
            self._wrote = True

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                if self._digest and self._wrote:
                    write_digest(self._path)
