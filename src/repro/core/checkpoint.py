"""The campaign checkpoint: a crash-safe, append-only JSONL journal.

:class:`CheckpointJournal` journals every completed shard of a campaign
so an interrupted run can be resumed bit-identically:

* the header is written through :func:`repro.atomicio.atomic_write_text`
  (write-temp + ``os.replace``), so it is never observable half-written;
* every record is one *append* (``open("a")`` + write + flush +
  ``fsync``), O(len(record)) bytes -- not a rewrite of the whole file,
  which would make a campaign's total journal I/O quadratic in its
  record count and widen the crash window as the file grows;
* an :class:`AdvisoryLock` keeps a second live writer from interleaving
  appends;
* with ``digest=True`` a running sha256 of the content is restamped into
  a ``<path>.sha256`` sidecar after every append, without re-reading the
  file; a journal that already has a sidecar keeps it maintained.

**Commit-on-newline.**  A record is committed once its terminating
``\\n`` is on disk.  The failure mode of an append is a *torn trailing
line* (the process died mid-``write``): :func:`split_journal` treats any
bytes after the final newline as torn, whether or not they parse, and
:meth:`CheckpointJournal.load` truncates them away with a logged warning
so the next append starts on a clean line (a crashed append never
returned, so its record was never acknowledged).  An unparseable
committed line -- or a torn header, which is written atomically -- is
real corruption and raises :class:`~repro.errors.CheckpointError`.
``repro-characterize validate`` applies the same :func:`split_journal`,
turning the torn tail into a warning.

The journal's format is:

* line 1 -- a header ``{"format": "repro-checkpoint-v1", "fingerprint":
  ..., "n_shards": ...}``; the fingerprint is a SHA-256 digest of the
  campaign configuration plus the fully enumerated plan order, so a
  journal can never be replayed against a different campaign
  (:class:`~repro.errors.CheckpointError` names both fingerprints).
* one line per completed shard -- ``{"shard": index, "measurements":
  [...]}`` with censuses included, so resumed measurements are
  bit-identical to freshly computed ones.

All lines are encoded with ``allow_nan=False`` (non-finite measurement
fields are converted to ``None`` at record-encode time), so a journal is
always strict RFC 8259 JSON that other tools can parse.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.atomicio import atomic_write_text, write_digest
from repro.core.results import (
    DieMeasurement,
    measurement_from_record,
    measurement_to_record,
)
from repro.errors import (
    ArtifactCorruptError,
    ArtifactInvalidError,
    CheckpointBusyError,
    CheckpointError,
)
from repro.validate.integrity import has_digest, verify_journal_bytes
from repro.validate.provenance import check_provenance, provenance_stamp
from repro.validate.schema import JOURNAL_FORMAT, validate_journal_entry

__all__ = [
    "JOURNAL_FORMAT",
    "plan_fingerprint",
    "JournalCodec",
    "MEASUREMENT_CODEC",
    "AdvisoryLock",
    "split_journal",
    "CheckpointJournal",
]

logger = logging.getLogger("repro.checkpoint")

#: Lock tokens held by live lock objects in *this* process, so a
#: same-pid lockfile can be told apart from one abandoned by an earlier
#: (garbage-collected) owner: a token that no longer maps to a live
#: object is stale and is reclaimed instead of deadlocking the process.
_LIVE_LOCKS: "weakref.WeakValueDictionary[str, AdvisoryLock]" = (
    weakref.WeakValueDictionary()
)


class AdvisoryLock:
    """``O_EXCL`` advisory lockfile guarding appends to one file.

    One live writer per journal: the lockfile ``<target>.lock`` holds
    ``"<pid> <token>"``.  A lock held by a *live* writer makes
    :meth:`acquire` raise :class:`~repro.errors.CheckpointBusyError`.  A
    lock whose owner is dead -- a killed process, or a same-pid owner
    object that was garbage-collected -- is atomically reclaimed with a
    logged warning; :meth:`verify` refuses an append once the lockfile
    no longer carries this owner's token.  Held by every
    :class:`CheckpointJournal`.
    """

    def __init__(self, target: Union[str, os.PathLike]) -> None:
        self._target = Path(target)
        self._token: Optional[str] = None

    @property
    def lock_path(self) -> Path:
        """The advisory lockfile guarding the target's appends."""
        return self._target.with_name(self._target.name + ".lock")

    @property
    def held(self) -> bool:
        return self._token is not None

    def _read_lock(self) -> Optional[Tuple[Optional[int], str]]:
        """Parse the lockfile into ``(owner_pid, token)``.

        ``None`` when no lockfile exists; a malformed lockfile parses as
        ``(None, "")`` -- unclaimable, hence stale.
        """
        try:
            text = self.lock_path.read_text(encoding="utf-8")
        except OSError:
            return None
        parts = text.split()
        if len(parts) >= 2 and parts[0].isdigit():
            return int(parts[0]), parts[1]
        return (None, "")

    @staticmethod
    def _owner_alive(pid: Optional[int], token: str) -> bool:
        """Whether the lock's recorded owner is still a live writer."""
        if pid is None:
            return False
        if pid == os.getpid():
            # Same process: the owner is live iff some lock object
            # still holds the token (a token abandoned by an owner that
            # errored out and was collected must not wedge the process).
            return token in _LIVE_LOCKS
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except OSError:
            pass  # e.g. EPERM: the pid exists but is not ours -- alive
        return True

    def acquire(self) -> None:
        """Take the lock (idempotent while held)."""
        if self._token is not None:
            return
        token = f"{os.getpid()}-{os.urandom(8).hex()}"
        content = f"{os.getpid()} {token}\n"
        self._target.parent.mkdir(parents=True, exist_ok=True)
        while True:
            try:
                fd = os.open(
                    str(self.lock_path),
                    os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                    0o644,
                )
            except FileExistsError:
                owner = self._read_lock()
                if owner is None:
                    continue  # released between our open and read: retry
                owner_pid, owner_token = owner
                if self._owner_alive(owner_pid, owner_token):
                    raise CheckpointBusyError(
                        f"checkpoint journal {self._target} is locked by a "
                        f"live writer (pid {owner_pid}, lockfile "
                        f"{self.lock_path.name}); a second writer "
                        f"appending would interleave records -- release "
                        f"the other writer first"
                    )
                logger.warning(
                    "checkpoint journal %s: reclaiming a stale append lock "
                    "left by dead writer pid %s",
                    self._target,
                    owner_pid,
                )
                # Atomic takeover: replace the lockfile in one rename so
                # no third writer can slip in through a missing-lock gap.
                tmp_fd, tmp_name = tempfile.mkstemp(
                    dir=str(self._target.parent),
                    prefix=self.lock_path.name + ".",
                    suffix=".tmp",
                )
                try:
                    with os.fdopen(tmp_fd, "w", encoding="utf-8") as handle:
                        handle.write(content)
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(tmp_name, self.lock_path)
                except BaseException:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
                    raise
                self._register(token)
                return
            else:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(content)
                    handle.flush()
                    os.fsync(handle.fileno())
                self._register(token)
                return

    def _register(self, token: str) -> None:
        self._token = token
        _LIVE_LOCKS[token] = self

    def verify(self) -> None:
        """Require that this object still owns the lock."""
        owner = self._read_lock()
        if owner is None or owner[1] != self._token:
            holder = "no writer" if owner is None else f"pid {owner[0]}"
            raise CheckpointBusyError(
                f"checkpoint journal {self._target} append lock was revoked "
                f"(now held by {holder}); refusing to append a record "
                f"that would interleave with the new owner's"
            )

    def release(self) -> None:
        """Release the lock (idempotent).

        Only removes the lockfile if this object still owns it -- a
        reclaimed lock is left to its new owner.
        """
        token = self._token
        if token is None:
            return
        self._token = None
        _LIVE_LOCKS.pop(token, None)
        owner = self._read_lock()
        if owner is not None and owner[1] == token:
            try:
                os.unlink(self.lock_path)
            except OSError:
                pass

    def __del__(self) -> None:  # best-effort: explicit release preferred
        try:
            self.release()
        except Exception:  # noqa: BLE001 - never raise during teardown
            pass


def split_journal(
    raw: bytes,
) -> Tuple[List[Tuple[int, object]], Optional[int]]:
    """Split journal bytes into committed records and a torn tail.

    Returns ``(records, torn)``: ``records`` holds ``(line_number,
    parsed)`` pairs (1-based; whitespace-only lines are skipped) for
    every newline-terminated line, and ``torn`` is the byte offset where
    an unterminated final line starts (``None`` when the bytes end on a
    newline).  This is the one torn-line rule: a record is committed
    only once its ``\\n`` is on disk, so an unterminated tail is torn
    whether or not it parses.  Works on bytes, so a line torn inside a
    multi-byte UTF-8 sequence is simply torn.

    Raises :class:`~repro.errors.ArtifactCorruptError` for a committed
    line that is not JSON, and for a torn first line -- the header is
    written atomically, so it cannot be torn by a crash.
    """
    end = raw.rfind(b"\n") + 1
    torn = end if end < len(raw) else None
    records: List[Tuple[int, object]] = []
    for number, line in enumerate(raw[:end].split(b"\n")[:-1], start=1):
        if not line.strip():
            continue
        try:
            records.append((number, json.loads(line.decode("utf-8"))))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactCorruptError(
                f"line {number} is not parseable JSON ({exc})"
            ) from exc
    if torn is not None and not records:
        raise ArtifactCorruptError(
            "line 1 (the header) is torn: it has no terminating newline"
        )
    return records, torn


def plan_fingerprint(config, plan) -> str:
    """Deterministic fingerprint of (configuration, plan order).

    Built from the config's value-based dataclass repr and every work
    unit of every shard in canonical order; two campaigns share a
    fingerprint iff they would measure the same points in the same
    order under the same knobs.
    """
    parts = [repr(config)]
    for shard in plan.shards:
        parts.append(
            f"shard|{shard.index}|{shard.module_key}|"
            f"{shard.manufacturer}|{shard.die}"
        )
        parts.extend(
            f"unit|{u.pattern.name}|{u.t_on!r}|{u.trial}" for u in shard.units
        )
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


@dataclass(frozen=True)
class JournalCodec:
    """How one campaign kind's shard results are journaled.

    ``entries`` names the per-record format; ``None`` means the default
    characterization measurements, for which the header is byte-identical
    to journals written before codecs existed.  A non-``None`` name is
    written into the header as ``"entries"`` and checked on load, so a
    journal of one record kind can never be decoded as another.
    """

    entries: Optional[str]
    encode: Callable[[object], dict]
    decode: Callable[[dict], object]


#: The default codec: characterization :class:`DieMeasurement` records,
#: censuses included so resumed measurements are bit-identical.
MEASUREMENT_CODEC = JournalCodec(
    entries=None,
    encode=lambda m: measurement_to_record(m, include_census=True),
    decode=lambda rec: measurement_from_record(rec, census_included=True),
)


class CheckpointJournal:
    """Append-only journal of completed shards (see the module docstring).

    ``start()`` writes the header; every ``record()`` is one durable
    append; ``load()`` verifies the sidecar, splits the lines, repairs a
    torn tail and checks the header, then primes the journal so later
    ``record()`` calls extend the same file.  The on-disk format is
    byte-compatible with journals written by every earlier
    implementation.

    With ``digest=True`` the header carries a provenance stamp and the
    sidecar is restamped after every append; :meth:`load` verifies the
    bytes first (a flipped bit raises
    :class:`~repro.errors.CheckpointError`), tolerating the two legal
    crash windows: a torn append, and an append durable before its
    restamp.  An existing sidecar stays maintained even with the flag
    off, so a digest-less resume cannot invalidate it.
    """

    what = "checkpoint journal"

    def __init__(
        self,
        path: Union[str, os.PathLike],
        digest: bool = False,
        codec: Optional[JournalCodec] = None,
    ) -> None:
        self._path = Path(path)
        self._digest = digest
        self._codec = codec if codec is not None else MEASUREMENT_CODEC
        self._hash = None  # running sha256 of the journal's content
        self._started = False
        self._lock = AdvisoryLock(self._path)

    @property
    def path(self) -> Path:
        return self._path

    @property
    def lock_path(self) -> Path:
        """The advisory lockfile guarding this journal's appends."""
        return self._lock.lock_path

    def exists(self) -> bool:
        return self._path.exists()

    def release(self) -> None:
        """Release the advisory append lock (idempotent).

        Only removes the lockfile if this journal still owns it.  (No
        ``__del__`` here: the lock's own finalizer releases an
        unreleased journal's lockfile.)
        """
        self._lock.release()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def start(self, fingerprint: str, n_shards: int) -> None:
        """Begin a fresh journal (truncating any previous one)."""
        header = {
            "format": JOURNAL_FORMAT,
            "fingerprint": fingerprint,
            "n_shards": n_shards,
        }
        if self._codec.entries is not None:
            header["entries"] = self._codec.entries
        self._lock.acquire()
        if self._digest:
            header["provenance"] = provenance_stamp()
        text = json.dumps(header) + "\n"
        atomic_write_text(self._path, text)
        self._started = True
        self._hash = None
        if self._digest:
            self._hash = hashlib.sha256(text.encode("utf-8"))
            write_digest(self._path, self._hash.hexdigest())

    def record(self, shard_index: int, measurements: Sequence) -> None:
        """Journal one completed shard with a single durable append.

        Flushed and fsync'd before returning, so a shard acknowledged
        to the campaign is never lost to a SIGKILL.
        """
        if not self._started:
            raise CheckpointError(
                f"{self.what} must be start()ed or load()ed before appending"
            )
        self._lock.acquire()
        self._lock.verify()
        entry = {
            "shard": shard_index,
            "measurements": [self._codec.encode(m) for m in measurements],
        }
        line = json.dumps(entry, allow_nan=False) + "\n"
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        if self._hash is not None:
            # Fold the appended line into the running hash and restamp
            # the sidecar -- O(len(line)), never a re-read of the file.
            # A crash between the append and the restamp leaves a stale
            # sidecar covering everything but the final line, which
            # load() recognizes and repairs.
            self._hash.update(line.encode("utf-8"))
            write_digest(self._path, self._hash.hexdigest())

    def _read(self) -> List[Tuple[int, object]]:
        """Verify, split and repair the journal; returns its records.

        Returns every committed ``(line_number, record)`` pair, the
        header first.  Reading is the first half of an open-for-append
        (it may truncate a torn tail), so the advisory lock is taken
        first: a journal being written by another live process raises
        :class:`~repro.errors.CheckpointBusyError`.
        """
        self._lock.acquire()
        try:
            raw = self._path.read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"cannot read {self.what} {self._path}: {exc}"
            ) from exc
        if has_digest(self._path):
            try:
                _, note = verify_journal_bytes(self._path, raw)
            except ArtifactCorruptError as exc:
                raise CheckpointError(str(exc)) from exc
            if note:
                logger.warning("%s %s: %s", self.what, self._path, note)
            self._digest = True
        try:
            records, torn = split_journal(raw)
        except ArtifactCorruptError as exc:
            raise CheckpointError(
                f"{self.what} {self._path} is malformed: {exc}"
            ) from exc
        if not records:
            raise CheckpointError(f"{self.what} {self._path} is empty")
        if torn is not None:
            logger.warning(
                "%s %s has a torn trailing line (crash mid-append); "
                "dropping it and keeping the %d complete record(s)",
                self.what,
                self._path,
                len(records) - 1,
            )
            try:
                with open(self._path, "r+b") as handle:
                    handle.truncate(torn)
            except OSError as exc:
                raise CheckpointError(
                    f"cannot repair torn {self.what} {self._path}: {exc}"
                ) from exc
            raw = raw[:torn]
        if self._digest:
            # Re-prime the running hash from the surviving bytes; load()
            # restamps once the records check out.
            self._hash = hashlib.sha256(raw)
        return records

    def load(self, expected_fingerprint: str) -> Dict[int, List[DieMeasurement]]:
        """Load completed shards, verifying the plan fingerprint.

        Returns ``{shard_index: measurements}`` and primes the journal
        so subsequent :meth:`record` calls extend the same file, with
        the sidecar restamped to cover exactly the current content.
        Every entry passes the same schema check as ``validate``
        (:func:`~repro.validate.schema.validate_journal_entry`) before
        it is decoded, so a hand-edited record raises
        :class:`~repro.errors.CheckpointError` naming its ``$.path``.
        """
        records = self._read()
        header = records[0][1]
        found = header.get("format") if isinstance(header, dict) else header
        if found != JOURNAL_FORMAT:
            raise CheckpointError(
                f"checkpoint journal {self._path} has unknown format "
                f"{found!r} (expected {JOURNAL_FORMAT!r})"
            )
        entries = header.get("entries")
        if entries != self._codec.entries:
            raise CheckpointError(
                f"checkpoint journal {self._path} records "
                f"{entries or 'characterization measurement'!r} entries, but "
                f"this campaign journals "
                f"{self._codec.entries or 'characterization measurement'!r} "
                f"entries; refusing to decode one record kind as another"
            )
        found = header.get("fingerprint")
        if found != expected_fingerprint:
            raise CheckpointError(
                f"checkpoint journal {self._path} was written for plan "
                f"fingerprint {found!r}, but the current campaign's "
                f"fingerprint is {expected_fingerprint!r}; refusing to mix "
                f"measurements from different campaigns (delete the journal "
                f"or drop --resume to start over)"
            )
        completed: Dict[int, List] = {}
        for number, entry in records[1:]:
            try:
                index = validate_journal_entry(
                    entry, number, source=str(self._path),
                    entries=self._codec.entries,
                )
            except ArtifactInvalidError as exc:
                raise CheckpointError(f"checkpoint journal {exc}") from exc
            if index in completed:
                raise CheckpointError(
                    f"checkpoint journal {self._path} records shard {index} "
                    f"twice"
                )
            completed[index] = [
                self._codec.decode(rec) for rec in entry["measurements"]
            ]
        if "provenance" in header:
            for drift in check_provenance(header["provenance"]):
                logger.warning(
                    "checkpoint journal %s resumed in a different "
                    "environment: %s (resumed measurements may not be "
                    "bit-identical to fresh ones)",
                    self._path,
                    drift,
                )
        self._started = True
        if self._hash is not None:
            write_digest(self._path, self._hash.hexdigest())
        return completed
