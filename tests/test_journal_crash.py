"""Crash states of the append-only checkpoint journal, and its lock.

The journal is cut at every byte offset, under each sidecar state a
crash can leave behind: no sidecar, a sidecar stamped at the last
complete line, and the window between a durable append and its sidecar
restamp.  Every load must either raise a typed error or return exactly
the records whose terminating newline is on disk (commit-on-newline),
and every successful load must extend cleanly: one more append and a
reload return that prefix plus the new record, and ``validate`` accepts
the result.  A second live writer is refused with a typed error.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.atomicio import digest_path, write_digest
from repro.core.checkpoint import CheckpointJournal
from repro.errors import CheckpointBusyError, CheckpointError
from repro.validate import validate_artifact

pytestmark = pytest.mark.faults


def _write(path, digest):
    """A three-shard journal of a four-shard plan."""
    journal = CheckpointJournal(path, digest=digest)
    journal.start("fp", 4)
    for shard in range(3):
        journal.record(shard, [])
    journal.release()


def _load(path):
    journal = CheckpointJournal(path)
    try:
        return journal, sorted(journal.load("fp", 4))
    except BaseException:
        journal.release()
        raise


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
    "digest", [False, True], ids=["checkpoint", "checkpoint-digest"]
)
def test_every_crash_state_loads_a_prefix_that_extends(
    tmp_path, monkeypatch, digest
):
    # The crash states are synthesized byte by byte, so durability is
    # not under test here: skip the fsyncs to keep the states fast.
    monkeypatch.setattr("os.fsync", lambda fd: None)
    source = tmp_path / "full.jsonl"
    _write(source, digest)
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
                _load(path)
            continue
        journal, loaded = _load(path)
        state = (len(prefix), sidecar)
        assert loaded == list(range(committed - 1)), state
        journal.record(3, [])
        journal.release()
        journal, reloaded = _load(path)
        journal.release()
        assert reloaded == list(range(committed - 1)) + [3], state
        assert validate_artifact(path).n_records == len(reloaded), state
    assert n_states > len(full)


def test_second_live_writer_is_refused_until_release(tmp_path):
    path = tmp_path / "campaign.jsonl"
    writer = CheckpointJournal(path)
    writer.start("fp", 4)
    writer.record(0, [])
    assert writer.lock_path.exists()
    with pytest.raises(CheckpointBusyError, match="live writer"):
        CheckpointJournal(path).load("fp", 4)
    with pytest.raises(CheckpointBusyError, match="live writer"):
        CheckpointJournal(path).start("fp", 4)
    writer.release()
    assert not writer.lock_path.exists()
    with CheckpointJournal(path) as second:
        assert sorted(second.load("fp", 4)) == [0]
        second.record(1, [])
    assert not writer.lock_path.exists()
    reader, loaded = _load(path)
    reader.release()
    assert loaded == [0, 1]
