"""Crash-safe persistent job queue for the campaign service.

The queue's durable form is a ``repro-service-queue-v1`` JSONL journal
(:class:`QueueJournal`), an :class:`~repro.core.checkpoint.AppendJournal`
like the campaign checkpoint: an atomically written header, one fsync'd
append per state transition, a running sha256 sidecar restamped after
every append, the commit-on-newline torn-tail repair on replay, and the
advisory lock keeping a second service process from interleaving
appends.

Event vocabulary (validated by
:func:`repro.validate.schema.validate_queue_event`; :func:`replay_queue`
is the one state machine, run by both :meth:`QueueJournal.load` and
``repro-characterize validate``):

* ``submit``  -- a job enters the queue (tenant, kind, spec recorded);
* ``lease``   -- a worker takes the job (state ``queued -> running``);
* ``requeue`` -- the job returns to the queue (graceful drain, or a
  lease reclaimed from a wedged worker);
* ``complete`` / ``fail`` / ``cancel`` -- terminal transitions;
* ``seal``    -- a graceful shutdown closed the journal.

:class:`JobQueue` is the in-memory face: thread-safe admission control
(bounded globally and per tenant, rejecting with
:class:`~repro.errors.ServiceOverloadError`), fair round-robin
scheduling across tenants (FIFO within a tenant), lease bookkeeping
with per-attempt tokens (a reclaimed job's stale worker cannot record
an outcome), and journal replay on ``serve --resume``.  On resume the
journal is *rotated*: terminal jobs stay queryable in memory, and every
open job is re-submitted into a fresh journal -- so journals stay
bounded and a sealed journal is never appended to.
"""

from __future__ import annotations

import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.checkpoint import AppendJournal
from repro.errors import (
    CheckpointError,
    JobNotFoundError,
    ServiceDrainingError,
    ServiceOverloadError,
    ServiceProtocolError,
)
from repro.validate.schema import (
    KNOWN_JOB_KINDS,
    KNOWN_QUEUE_OPS,
    QUEUE_FORMAT,
)

__all__ = [
    "QUEUE_FORMAT",
    "JobRecord",
    "QueueJournal",
    "replay_queue",
    "JobQueue",
    "validate_tenant",
]

logger = logging.getLogger("repro.service")

#: Tenant names become filesystem path components (the per-tenant
#: checkpoint/artifact namespace), so they are restricted to a safe
#: alphabet -- no separators, no dots, no traversal.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$")

#: Job states; ``queued`` and ``running`` are the open (re-adoptable)
#: states, the rest are terminal.
OPEN_STATES = ("queued", "running")
TERMINAL_STATES = ("complete", "fail", "cancel")


def validate_tenant(tenant: str) -> str:
    """Admit only path-safe tenant names (typed rejection otherwise)."""
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise ServiceProtocolError(
            f"invalid tenant name {tenant!r}: tenant names must match "
            f"[A-Za-z0-9][A-Za-z0-9_-]{{0,63}} (they become checkpoint "
            f"namespace directories)"
        )
    return tenant


@dataclass
class JobRecord:
    """One job's full lifecycle state (in-memory view of the journal)."""

    job_id: str
    tenant: str
    kind: str
    spec: Dict
    state: str = "queued"
    submitted_t: float = 0.0
    attempt: int = 0  # lease generation; bumped on every lease
    worker: Optional[str] = None  # current lease holder
    lease_t: Optional[float] = None  # monotonic time of last heartbeat
    requeues: int = 0
    reason: Optional[str] = None  # why the job was last requeued/failed
    result: Optional[Dict] = None  # terminal payload (digests, error)

    def to_wire(self) -> Dict:
        """The client-facing job description (no scheduler internals)."""
        payload = {
            "job": self.job_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "spec": self.spec,
            "state": self.state,
            "attempt": self.attempt,
            "requeues": self.requeues,
        }
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.result is not None:
            payload["result"] = self.result
        return payload


def replay_queue(
    events: Iterable[Tuple[int, object]], source: str
) -> Tuple[Dict[str, JobRecord], bool]:
    """The queue state machine: replay journaled events into job records.

    ``events`` are the ``(line_number, event)`` pairs after the header.
    Returns ``(jobs, sealed)`` with ``jobs`` in submit order.  An
    inconsistent history -- a duplicate submit, a transition of a job
    that was never submitted or already reached a terminal state, any
    event after the seal, or an unknown op -- raises
    :class:`~repro.errors.CheckpointError` naming ``source`` and the
    line.
    """
    jobs: Dict[str, JobRecord] = {}
    sealed_at: Optional[int] = None
    for number, event in events:
        where = f"{source}: line {number}"
        if not isinstance(event, dict):
            raise CheckpointError(f"{where}: is not a queue event object")
        op = event.get("op")
        job_id = event.get("job")
        if sealed_at is not None:
            raise CheckpointError(
                f"{where}: $.op {op!r} follows the seal on line "
                f"{sealed_at}; a sealed journal admits no more events"
            )
        if op not in KNOWN_QUEUE_OPS:
            raise CheckpointError(f"{where}: $.op has unknown op {op!r}")
        if op == "seal":
            sealed_at = number
            continue
        if op == "submit":
            if not isinstance(job_id, str) or job_id in jobs:
                raise CheckpointError(
                    f"{where}: $.job {job_id!r} is malformed or was "
                    f"already submitted (duplicate job id)"
                )
            jobs[job_id] = JobRecord(
                job_id=job_id,
                tenant=event.get("tenant", ""),
                kind=event.get("kind", ""),
                spec=event.get("spec", {}),
                submitted_t=event.get("t", 0.0),
            )
            continue
        record = jobs.get(job_id)
        if record is None:
            raise CheckpointError(
                f"{where}: $.op {op!r} names job {job_id!r}, which was "
                f"never submitted"
            )
        if record.state in TERMINAL_STATES:
            raise CheckpointError(
                f"{where}: $.op {op!r} transitions job {job_id!r}, which "
                f"already reached terminal state {record.state!r}"
            )
        if op == "lease":
            record.state = "running"
            record.attempt += 1
            record.worker = event.get("worker")
        elif op == "requeue":
            record.state = "queued"
            record.worker = None
            record.requeues += 1
            record.reason = event.get("reason")
        else:  # a terminal op
            record.state = op
            record.worker = None
            if op == "complete":
                record.result = event.get("result")
            elif op == "fail":
                record.result = {"error": event.get("error")}
                record.reason = event.get("error")
    return jobs, sealed_at is not None


class QueueJournal(AppendJournal):
    """Append-only, digest-stamped journal of queue state transitions.

    An :class:`~repro.core.checkpoint.AppendJournal` that is always
    digest-stamped -- the queue is a campaign artifact like any other
    and ``repro-characterize validate`` replays it -- plus the seal
    flag: a drained journal admits no more events.
    """

    what = "queue journal"
    _log = logger

    def __init__(
        self,
        path: Union[str, os.PathLike],
        steal_lock: bool = False,
    ) -> None:
        super().__init__(path, digest=True, steal_lock=steal_lock)
        self._sealed = False

    @property
    def sealed(self) -> bool:
        return self._sealed

    def start(self) -> None:
        """Begin a fresh journal (truncating any previous one)."""
        self._write_header({"format": QUEUE_FORMAT})
        self._sealed = False

    def append(self, event: Dict) -> None:
        """Journal one queue event with a single durable append."""
        if self._sealed:
            raise CheckpointError(
                f"queue journal {self._path} is sealed; a drained "
                f"journal admits no more events"
            )
        self._append(event)
        if event.get("op") == "seal":
            self._sealed = True

    def load(self) -> Tuple[Dict[str, JobRecord], bool]:
        """Replay the journal into job records.

        Returns ``(jobs, sealed)`` (see :func:`replay_queue`).  The
        torn-tail repair, sidecar check and lock are
        :meth:`~repro.core.checkpoint.AppendJournal.read`'s; the
        replayed journal is about to be rotated by this process.
        """
        records = self.read()
        header = records[0][1]
        found = header.get("format") if isinstance(header, dict) else header
        if found != QUEUE_FORMAT:
            raise CheckpointError(
                f"queue journal {self._path} has unknown format "
                f"{found!r} (expected {QUEUE_FORMAT!r})"
            )
        jobs, sealed = replay_queue(
            records[1:], source=f"queue journal {self._path}"
        )
        self._open_for_append()
        self._sealed = sealed
        return jobs, sealed


class JobQueue:
    """Thread-safe bounded multi-tenant job queue over a journal.

    Admission control rejects with
    :class:`~repro.errors.ServiceOverloadError` when the global or the
    submitting tenant's queued backlog is full, and with
    :class:`~repro.errors.ServiceDrainingError` once :meth:`drain` has
    been called.  :meth:`next_job` hands out leases fairly: tenants are
    served round-robin, FIFO within each tenant.  Every lease carries an
    attempt number; an outcome reported with a stale attempt (the lease
    was reclaimed meanwhile) is dropped, which is what makes a hung
    worker's late ``complete`` harmless.
    """

    def __init__(
        self,
        journal: QueueJournal,
        max_queued: int = 16,
        max_queued_per_tenant: int = 8,
    ) -> None:
        self._journal = journal
        self._max_queued = max_queued
        self._max_per_tenant = max_queued_per_tenant
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._jobs: Dict[str, JobRecord] = {}
        self._tenant_order: List[str] = []  # round-robin rotation
        self._next_seq = 1
        self._draining = False

    # ------------------------------------------------------- lifecycle

    def open(self, resume: bool = False) -> int:
        """Start (or resume) the journal; returns re-adopted job count.

        With ``resume=True`` and an existing journal, its history is
        replayed: terminal jobs stay queryable, and every open job --
        queued *or* running, since a running job's worker died with the
        old process -- is re-adopted as queued into a freshly rotated
        journal.
        """
        adopted = 0
        with self._lock:
            replayed: Dict[str, JobRecord] = {}
            if resume and self._journal.exists():
                replayed, _ = self._journal.load()
            self._journal.start()
            max_seq = 0
            for record in replayed.values():
                match = re.search(r"(\d+)$", record.job_id)
                if match:
                    max_seq = max(max_seq, int(match.group(1)))
                if record.state in OPEN_STATES:
                    # Re-adopt: journal a fresh submit (the rotation
                    # dropped history) and queue it again.
                    record.state = "queued"
                    record.worker = None
                    record.lease_t = None
                    self._append_submit(record)
                    adopted += 1
                self._jobs[record.job_id] = record
            self._next_seq = max_seq + 1
            self._notify()
        if adopted:
            logger.info(
                "queue journal %s: re-adopted %d open job(s) after "
                "restart",
                self._journal.path,
                adopted,
            )
        return adopted

    def seal(self) -> None:
        """Seal the journal (graceful drain reached quiescence)."""
        with self._lock:
            if not self._journal.sealed:
                self._journal.append({"op": "seal", "t": time.time()})
            self._journal.release()

    def drain(self) -> None:
        """Stop admitting; wake every waiting worker."""
        with self._lock:
            self._draining = True
            self._not_empty.notify_all()

    @property
    def draining(self) -> bool:
        return self._draining

    def _notify(self) -> None:
        self._not_empty.notify_all()

    # ------------------------------------------------------- admission

    def submit(self, tenant: str, kind: str, spec: Dict) -> JobRecord:
        """Admit one job (durably journaled before this returns)."""
        validate_tenant(tenant)
        if kind not in KNOWN_JOB_KINDS:
            raise ServiceProtocolError(
                f"unknown job kind {kind!r} (this service runs "
                f"{list(KNOWN_JOB_KINDS)})"
            )
        if not isinstance(spec, dict):
            raise ServiceProtocolError(
                f"job spec must be an object, got {type(spec).__name__}"
            )
        with self._lock:
            if self._draining:
                raise ServiceDrainingError(
                    "service is draining: no new submissions are "
                    "admitted; queued and running jobs are checkpointed "
                    "and re-adopted by the next serve --resume"
                )
            queued = [
                r for r in self._jobs.values() if r.state == "queued"
            ]
            if len(queued) >= self._max_queued:
                raise ServiceOverloadError(
                    f"queue is full ({len(queued)}/{self._max_queued} "
                    f"queued job(s)); retry with backoff"
                )
            tenant_queued = sum(1 for r in queued if r.tenant == tenant)
            if tenant_queued >= self._max_per_tenant:
                raise ServiceOverloadError(
                    f"tenant {tenant!r} queue is full ({tenant_queued}/"
                    f"{self._max_per_tenant} queued job(s)); retry with "
                    f"backoff"
                )
            record = JobRecord(
                job_id=f"job-{self._next_seq:04d}",
                tenant=tenant,
                kind=kind,
                spec=spec,
                submitted_t=time.time(),
            )
            self._next_seq += 1
            self._append_submit(record)
            self._jobs[record.job_id] = record
            self._notify()
            return record

    def _append_submit(self, record: JobRecord) -> None:
        self._journal.append(
            {
                "op": "submit",
                "t": record.submitted_t or time.time(),
                "job": record.job_id,
                "tenant": record.tenant,
                "kind": record.kind,
                "spec": record.spec,
            }
        )

    # ------------------------------------------------------ scheduling

    def next_job(
        self, worker: str, timeout: Optional[float] = None
    ) -> Optional[JobRecord]:
        """Lease the next job, fair round-robin across tenants.

        Blocks up to ``timeout`` seconds for work; returns ``None`` on
        timeout or when draining.  The lease is journaled before the
        record is returned.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._lock:
            while True:
                if self._draining:
                    return None
                record = self._pick_fair()
                if record is not None:
                    record.state = "running"
                    record.attempt += 1
                    record.worker = worker
                    record.lease_t = time.monotonic()
                    self._journal.append(
                        {
                            "op": "lease",
                            "t": time.time(),
                            "job": record.job_id,
                            "worker": worker,
                            "attempt": record.attempt,
                        }
                    )
                    return record
                if deadline is None:
                    self._not_empty.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._not_empty.wait(remaining)

    def _pick_fair(self) -> Optional[JobRecord]:
        """The next queued job under tenant round-robin (FIFO within)."""
        queued_by_tenant: Dict[str, List[JobRecord]] = {}
        for record in self._jobs.values():  # insertion order == FIFO
            if record.state == "queued":
                queued_by_tenant.setdefault(record.tenant, []).append(
                    record
                )
        if not queued_by_tenant:
            return None
        for tenant in list(self._tenant_order):
            if tenant not in queued_by_tenant:
                self._tenant_order.remove(tenant)
        for tenant in queued_by_tenant:
            if tenant not in self._tenant_order:
                self._tenant_order.append(tenant)
        tenant = self._tenant_order.pop(0)
        self._tenant_order.append(tenant)  # rotate: served goes last
        return queued_by_tenant[tenant][0]

    # ------------------------------------------------------- outcomes

    def heartbeat(self, job_id: str, attempt: int) -> bool:
        """Refresh a running job's lease; False if the lease is stale."""
        with self._lock:
            record = self._jobs.get(job_id)
            if (
                record is None
                or record.state != "running"
                or record.attempt != attempt
            ):
                return False
            record.lease_t = time.monotonic()
            return True

    def complete(self, job_id: str, attempt: int, result: Dict) -> bool:
        return self._finish(
            job_id, attempt, "complete", {"result": result}
        )

    def fail(self, job_id: str, attempt: int, error: str) -> bool:
        return self._finish(job_id, attempt, "fail", {"error": error})

    def requeue(self, job_id: str, attempt: int, reason: str) -> bool:
        """Return a running job to the queue (drain or lease reclaim).

        Bumping nothing but state: the *next* lease bumps the attempt,
        which is what invalidates the displaced worker's token.
        """
        with self._lock:
            record = self._jobs.get(job_id)
            if (
                record is None
                or record.state != "running"
                or record.attempt != attempt
            ):
                return False
            record.state = "queued"
            record.worker = None
            record.lease_t = None
            record.requeues += 1
            record.reason = reason
            self._journal.append(
                {
                    "op": "requeue",
                    "t": time.time(),
                    "job": job_id,
                    "reason": reason,
                }
            )
            self._notify()
            return True

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job (running jobs finish their lease)."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise JobNotFoundError(f"unknown job id {job_id!r}")
            if record.state == "queued":
                record.state = "cancel"
                self._journal.append(
                    {"op": "cancel", "t": time.time(), "job": job_id}
                )
            return record

    def _finish(
        self, job_id: str, attempt: int, op: str, extra: Dict
    ) -> bool:
        with self._lock:
            record = self._jobs.get(job_id)
            if (
                record is None
                or record.state != "running"
                or record.attempt != attempt
            ):
                # A stale attempt: the lease was reclaimed and someone
                # else owns the job now.  Dropping the outcome (rather
                # than recording it) is what prevents duplicates.
                logger.warning(
                    "dropping stale %s for job %s (attempt %d)",
                    op,
                    job_id,
                    attempt,
                )
                return False
            record.state = op
            record.worker = None
            if op == "complete":
                record.result = extra["result"]
            else:
                record.result = {"error": extra["error"]}
                record.reason = extra["error"]
            self._journal.append(
                {"op": op, "t": time.time(), "job": job_id, **extra}
            )
            return True

    # -------------------------------------------------------- queries

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise JobNotFoundError(f"unknown job id {job_id!r}")
            return record

    def jobs(self, tenant: Optional[str] = None) -> List[JobRecord]:
        with self._lock:
            return [
                record
                for record in self._jobs.values()
                if tenant is None or record.tenant == tenant
            ]

    def running(self) -> List[JobRecord]:
        with self._lock:
            return [
                r for r in self._jobs.values() if r.state == "running"
            ]

    def open_count(self) -> int:
        with self._lock:
            return sum(
                1
                for r in self._jobs.values()
                if r.state in OPEN_STATES
            )

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out: Dict[str, int] = {}
            for record in self._jobs.values():
                out[record.state] = out.get(record.state, 0) + 1
            return out
