"""Crash states of the append-only journals.

Both journal kinds -- the campaign checkpoint and the service queue --
are cut at every byte offset, under each sidecar state a crash can leave
behind: no sidecar, a sidecar stamped at the last complete line, and the
window between a durable append and its sidecar restamp.  Every load
must either raise a typed error or return exactly the records whose
terminating newline is on disk (commit-on-newline), and every
successful load must extend cleanly: one more append and a reload return
that prefix plus the new record, and ``validate`` accepts the result.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.atomicio import digest_path, write_digest
from repro.core.checkpoint import CheckpointJournal
from repro.errors import CheckpointError
from repro.service.queue import QueueJournal
from repro.validate import validate_artifact

pytestmark = pytest.mark.faults

QUEUE_EVENTS = [
    {"op": "submit", "t": 1.0, "job": "job-0001", "tenant": "alice",
     "kind": "characterize", "spec": {}},
    {"op": "submit", "t": 2.0, "job": "job-0002", "tenant": "bob",
     "kind": "mitigate", "spec": {}},
    {"op": "lease", "t": 3.0, "job": "job-0001", "worker": "w0",
     "attempt": 1},
]
NEW_EVENT = {"op": "submit", "t": 4.0, "job": "job-0009", "tenant": "carol",
             "kind": "export", "spec": {}}
#: The queue state after each prefix of QUEUE_EVENTS.
QUEUE_PREFIXES = [
    {},
    {"job-0001": ("queued", 0)},
    {"job-0001": ("queued", 0), "job-0002": ("queued", 0)},
    {"job-0001": ("running", 1), "job-0002": ("queued", 0)},
]


class _Checkpoint:
    """Write / load / extend a three-shard checkpoint journal."""

    def write(self, path, digest):
        journal = CheckpointJournal(path, digest=digest)
        journal.start("fp", 4)
        for shard in range(3):
            journal.record(shard, [])
        journal.release()

    def load(self, path):
        journal = CheckpointJournal(path)
        try:
            return journal, sorted(journal.load("fp"))
        except BaseException:
            journal.release()
            raise

    def extend(self, journal):
        journal.record(3, [])

    def expected(self, n_records, extended=False):
        return list(range(n_records)) + ([3] if extended else [])


class _Queue:
    """Write / load / extend a three-event service queue journal."""

    def write(self, path, digest):
        journal = QueueJournal(path)
        journal.start()
        for event in QUEUE_EVENTS:
            journal.append(event)
        journal.release()

    def load(self, path):
        journal = QueueJournal(path)
        try:
            jobs, _ = journal.load()
        except BaseException:
            journal.release()
            raise
        return journal, {
            job_id: (job.state, job.attempt) for job_id, job in jobs.items()
        }

    def extend(self, journal):
        journal.append(NEW_EVENT)

    def expected(self, n_records, extended=False):
        jobs = dict(QUEUE_PREFIXES[n_records])
        if extended:
            jobs[NEW_EVENT["job"]] = ("queued", 0)
        return jobs


def _crash_states(full: bytes, with_sidecar: bool):
    """``(prefix, sidecar_digest)`` for every byte offset of ``full``."""
    ends = [i + 1 for i, byte in enumerate(full) if byte == ord("\n")]
    for offset in range(len(full) + 1):
        prefix = full[:offset]
        done = [end for end in ends if end <= offset]
        yield prefix, None
        if not with_sidecar or not done:
            continue
        # Stamped at the last complete line (a torn append, or none).
        yield prefix, hashlib.sha256(full[: done[-1]]).hexdigest()
        if done[-1] == offset and len(done) >= 2:
            # The record line is durable, its sidecar restamp is not.
            yield prefix, hashlib.sha256(full[: done[-2]]).hexdigest()


@pytest.mark.parametrize(
    "kind,digest",
    [(_Checkpoint, False), (_Checkpoint, True), (_Queue, True)],
    ids=["checkpoint", "checkpoint-digest", "queue"],
)
def test_every_crash_state_loads_a_prefix_that_extends(
    tmp_path, monkeypatch, kind, digest
):
    # The crash states are synthesized byte by byte, so durability is
    # not under test here: skip the fsyncs to keep ~1300 states fast.
    monkeypatch.setattr("os.fsync", lambda fd: None)
    journal_kind = kind()
    source = tmp_path / "full.jsonl"
    journal_kind.write(source, digest)
    full = source.read_bytes()
    path = tmp_path / "crashed.jsonl"
    n_states = 0
    for prefix, sidecar in _crash_states(full, with_sidecar=digest):
        n_states += 1
        path.write_bytes(prefix)
        digest_path(path).unlink(missing_ok=True)
        if sidecar is not None:
            write_digest(path, sidecar)
        committed = prefix.count(b"\n")  # header included
        if committed == 0:
            with pytest.raises(CheckpointError):
                journal_kind.load(path)
            continue
        journal, loaded = journal_kind.load(path)
        state = (len(prefix), sidecar)
        assert loaded == journal_kind.expected(committed - 1), state
        journal_kind.extend(journal)
        journal.release()
        journal, reloaded = journal_kind.load(path)
        journal.release()
        assert reloaded == journal_kind.expected(committed - 1, True), state
        assert validate_artifact(path).n_records == len(reloaded), state
    assert n_states > len(full)
