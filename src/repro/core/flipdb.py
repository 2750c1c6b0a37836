"""SQLite-backed bitflip store: the population-scale measurement layer.

Characterization artifacts in this field ship raw per-(die, pattern,
tAggON, trial) bitflip locations so downstream studies (mitigation
sizing, spatial analysis, repeatability) can re-slice them without
re-running the sweep.  This module provides that store at fleet scale:

* :class:`BitflipDatabase` -- an append-only measurement/bitflip store
  (WAL journaling for file-backed databases, batched transactional
  writes, deterministic identity-ordered iteration) with the query
  helpers the analysis layer needs, including cross-trial
  *repeatability* (how many of a measurement point's bitflips recur in
  every trial), a standard quantity in the RowHammer literature.
* :class:`FlipSink` -- the streaming seam the sweep engine writes
  measurements into *during* a campaign (see ``sink=`` on
  :meth:`repro.core.runner.CharacterizationRunner.characterize`):
  measurements are buffered
  and committed in batches, accepting a shard twice is idempotent (so a
  checkpoint resume can replay journaled shards into the same store),
  and :meth:`FlipSink.close` is safe to call from a ``finally`` block
  while a ``KeyboardInterrupt`` unwinds -- everything accepted before
  the interrupt is committed.
* :meth:`BitflipDatabase.export_shards` / :func:`seal_shards` -- one
  ``repro-results-v1`` dump per module plus a ``repro-flipshards-v1``
  manifest carrying per-shard sha256 digests, which
  ``repro-characterize validate`` checks shard-by-shard without ever
  loading the whole population (see :mod:`repro.validate`).
* :func:`iter_shard_measurements` -- the read path over a sealed
  export: verifies each shard against the manifest and yields its
  measurements one shard at a time (collect them into a
  :class:`~repro.core.results.ResultSet` to feed the analysis layer).

tAggON keys are quantized
-------------------------

Filtering a REAL column with ``t_on = ?`` breaks as soon as the query
value took a different float path than the stored one (text formatting,
accumulation order): two values a femtosecond apart compare unequal.
Every identity key therefore stores ``t_on_ps``, the on-time quantized
to integer picoseconds (:func:`quantize_t_on`), and all filters and
uniqueness constraints use it; the exact REAL ``t_on`` is kept alongside
so reconstructed measurements round-trip bit-identically.  Databases
written by the pre-quantization schema are migrated in place on open
(additive column backfill -- the old bytes remain readable).
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import dataclass
from functools import partial, reduce
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.atomicio import atomic_write_text, sha256_text, write_digest
from repro.core.bitflips import (
    BitflipCensus,
    sql_key,
    sql_key_coords,
    unique_keys,
)
from repro.core.results import (
    DieMeasurement,
    ResultSet,
    canonical_record,
    digest_record_lines,
    encode_dump,
    measurement_to_record,
)
from repro.errors import (
    ArtifactCorruptError,
    ArtifactInvalidError,
    ExperimentError,
)
from repro.validate.integrity import verify_sealed_shard
from repro.validate.invariants import results_digest
from repro.validate.schema import MANIFEST_FORMAT, validate_manifest_payload

__all__ = [
    "MANIFEST_NAME",
    "quantize_t_on",
    "BitflipDatabase",
    "FlipSink",
    "seal_shards",
    "ShardInfo",
    "ExportInfo",
    "iter_shard_measurements",
]

#: File name of the shard manifest inside an export directory.
MANIFEST_NAME = "manifest.json"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS measurements (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    module TEXT NOT NULL,
    manufacturer TEXT NOT NULL,
    die INTEGER NOT NULL,
    pattern TEXT NOT NULL,
    t_on REAL NOT NULL,
    t_on_ps INTEGER NOT NULL,
    trial INTEGER NOT NULL,
    acmin INTEGER,
    time_to_first_ns REAL
);
CREATE UNIQUE INDEX IF NOT EXISTS idx_measurements_identity
    ON measurements(module, die, pattern, t_on_ps, trial);
CREATE TABLE IF NOT EXISTS bitflips (
    measurement_id INTEGER NOT NULL REFERENCES measurements(id),
    row INTEGER NOT NULL,
    col INTEGER NOT NULL,
    one_to_zero INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_bitflips_measurement
    ON bitflips(measurement_id);
"""

#: Current on-disk schema version (PRAGMA user_version).
_SCHEMA_VERSION = 2

#: ``id``, then the :class:`DieMeasurement` fields in declaration order.
_MEASUREMENT_COLUMNS = (
    "id, module, manufacturer, die, pattern, t_on, trial, "
    "acmin, time_to_first_ns"
)

#: One census direction's rows from its key list, passed as a JSON array
#: that SQLite expands itself: one statement per direction, not one bound
#: row per flip.
_INSERT_FLIPS = (
    "INSERT INTO bitflips SELECT ?, {}, {}, ? FROM json_each(?)"
).format(*sql_key_coords("value"))

#: Deterministic iteration order: measurement identity, never insertion
#: order -- so exports and digests are independent of executor and
#: shard completion order.
_IDENTITY_ORDER = "ORDER BY m.module, m.die, m.pattern, m.t_on_ps, m.trial"


def quantize_t_on(t_on: float) -> int:
    """Quantize an aggressor on-time (ns) to integer picoseconds.

    All identity keys and filters use this value: two on-times that
    differ by float round-tripping (well under a picosecond) land in the
    same bucket, while distinct sweep points (always >= tens of ns
    apart) never collide.
    """
    return int(round(float(t_on) * 1000.0))


class BitflipDatabase:
    """Append-only bitflip store over SQLite (file-backed or ``":memory:"``).

    File-backed databases run in WAL journal mode: appends from a
    streaming sink do not block concurrent readers, and a crash never
    leaves a half-applied transaction visible.  All multi-measurement
    writes are transactional -- :meth:`store_results` either stores the
    whole set or nothing.
    """

    def __init__(self, path: Union[str, "Path"] = ":memory:") -> None:
        self._path = str(path)
        self._conn = sqlite3.connect(self._path)
        if self._path != ":memory:":
            # WAL keeps readers unblocked during sink appends and makes
            # a crash roll back to the last commit; NORMAL sync is
            # durable at WAL-checkpoint granularity, which is the right
            # trade for an append-only measurement store (a lost tail
            # batch is re-streamed by a campaign resume).
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._migrate()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "BitflipDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- schema

    def _migrate(self) -> None:
        """Create or migrate the schema (idempotent).

        Version 1 (no ``t_on_ps`` column, inline UNIQUE on the REAL
        ``t_on``) is migrated additively: the quantized column is
        backfilled from the stored on-times and the identity index is
        rebuilt on it.  The migration commits atomically; a database
        that is already current is left untouched.
        """
        cursor = self._conn.execute("PRAGMA table_info(measurements)")
        columns = {row[1] for row in cursor.fetchall()}
        if columns and "t_on_ps" not in columns:
            self._conn.execute(
                "ALTER TABLE measurements ADD COLUMN t_on_ps INTEGER"
            )
            self._conn.execute(
                "UPDATE measurements "
                "SET t_on_ps = CAST(ROUND(t_on * 1000.0) AS INTEGER)"
            )
        self._conn.executescript(_SCHEMA)
        self._conn.execute(f"PRAGMA user_version = {_SCHEMA_VERSION}")
        self._conn.commit()

    # -------------------------------------------------------------- writes

    def _insert(
        self, measurement: DieMeasurement, ignore_existing: bool = False
    ) -> Optional[int]:
        """Insert one measurement inside the current transaction.

        Returns the new row id, or ``None`` when ``ignore_existing`` is
        set and the identity is already stored (the sink's idempotent
        resume path).  Does **not** commit -- the caller owns the
        transaction boundary.
        """
        conflict = "OR IGNORE " if ignore_existing else ""
        try:
            cursor = self._conn.execute(
                f"INSERT {conflict}INTO measurements (module, manufacturer, "
                f"die, pattern, t_on, t_on_ps, trial, acmin, "
                f"time_to_first_ns) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    measurement.module_key,
                    measurement.manufacturer,
                    measurement.die,
                    measurement.pattern,
                    measurement.t_on,
                    quantize_t_on(measurement.t_on),
                    measurement.trial,
                    measurement.acmin,
                    measurement.time_to_first_ns,
                ),
            )
        except sqlite3.IntegrityError as exc:
            raise ExperimentError(
                f"measurement already stored: {measurement.module_key} die "
                f"{measurement.die} {measurement.pattern} @ "
                f"{measurement.t_on} ns trial {measurement.trial}"
            ) from exc
        if ignore_existing and cursor.rowcount == 0:
            return None
        measurement_id = int(cursor.lastrowid)
        census = measurement.census
        if census is not None:
            for keys, one_to_zero in (
                (census.keys_1_to_0, 1), (census.keys_0_to_1, 0)
            ):
                if keys.size:
                    self._conn.execute(
                        _INSERT_FLIPS,
                        (measurement_id, one_to_zero, json.dumps(keys.tolist())),
                    )
        return measurement_id

    def store(self, measurement: DieMeasurement) -> int:
        """Insert one measurement (and its bitflips); returns its id."""
        try:
            measurement_id = self._insert(measurement)
        except BaseException:
            self._conn.rollback()
            raise
        self._conn.commit()
        return measurement_id

    def store_results(self, results: Iterable[DieMeasurement]) -> int:
        """Insert every measurement of a result set; returns the count.

        The whole set is one transaction: a failure anywhere (e.g. a
        duplicate identity mid-set) rolls back every insert of this
        call, so the store never holds a half-written population --
        and committing once per set instead of once per measurement is
        what makes bulk loads fast.
        """
        return self.store_batch(results, ignore_existing=False)

    def store_batch(
        self, measurements: Iterable[DieMeasurement], ignore_existing: bool = True
    ) -> int:
        """Transactionally insert a batch, skipping stored identities.

        The sink's write primitive: one commit per batch, and replayed
        measurements (a resumed campaign re-streaming journaled shards)
        are skipped instead of failing.  Returns the number of *newly*
        stored measurements.
        """
        stored = 0
        try:
            for measurement in measurements:
                if self._insert(measurement, ignore_existing=ignore_existing):
                    stored += 1
        except BaseException:
            self._conn.rollback()
            raise
        self._conn.commit()
        return stored

    # -------------------------------------------------------------- queries

    def iter_measurements(
        self,
        module: Optional[str] = None,
        die: Optional[int] = None,
        pattern: Optional[str] = None,
        t_on: Optional[float] = None,
        with_census: bool = True,
    ) -> Iterator[DieMeasurement]:
        """Stream measurements matching the filters, in identity order.

        A generator over a server-side cursor: memory stays bounded by
        one measurement (plus its census) regardless of population
        size.  Identity order (module, die, pattern, tAggON, trial) is
        deterministic -- independent of insertion or executor order.
        """
        clauses, params = self._where(module, die, pattern, t_on)
        # One query: each census direction arrives as one comma-joined
        # list of keys per measurement, built inside SQLite.
        census = "".join(
            f", (SELECT group_concat({sql_key('b.row', 'b.col')}) "
            f"FROM bitflips b WHERE b.measurement_id = m.id AND {direction})"
            for direction in ("b.one_to_zero", "NOT b.one_to_zero")
        ) if with_census else ", NULL, NULL"
        rows = self._conn.execute(
            f"SELECT {_MEASUREMENT_COLUMNS}{census} FROM measurements m "
            f"{clauses} {_IDENTITY_ORDER}",
            params,
        )
        for _mid, *fields, ones, zeros in rows:
            yield DieMeasurement(
                *fields,
                census=BitflipCensus.from_keys(_joined_keys(ones), _joined_keys(zeros)),
            )

    def measurements(
        self,
        module: Optional[str] = None,
        die: Optional[int] = None,
        pattern: Optional[str] = None,
        t_on: Optional[float] = None,
        with_census: bool = True,
    ) -> ResultSet:
        """Reconstruct measurements matching the filters (materialized)."""
        return ResultSet(
            self.iter_measurements(module, die, pattern, t_on, with_census)
        )

    def n_measurements(self) -> int:
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM measurements"
        ).fetchone()
        return int(count)

    def module_keys(self) -> List[str]:
        """Distinct module keys stored, sorted."""
        cursor = self._conn.execute(
            "SELECT DISTINCT module FROM measurements ORDER BY module"
        )
        return [row[0] for row in cursor]

    def unique_flips(
        self,
        module: str,
        pattern: str,
        t_on: float,
        die: Optional[int] = None,
    ) -> frozenset:
        """Unique (row, col) flips across all matching measurements."""
        matching = self.iter_measurements(module, die, pattern, t_on)
        return BitflipCensus.union(m.census for m in matching).all_flips

    def repeatability(
        self, module: str, die: int, pattern: str, t_on: float
    ) -> Optional[float]:
        """Fraction of unique bitflips that recur in *every* trial.

        The standard repeatability metric: |intersection over trials| /
        |union over trials|.  Every stored trial counts, so a trial that
        observed *zero* bitflips empties the intersection and the metric
        correctly reports 0.0 instead of being computed over the
        flipping trials only (which overestimated repeatability, and
        returned ``None`` when just one trial flipped).  ``None`` only
        when fewer than two trials are stored at this point.
        """
        sets = [
            m.census.all_keys
            for m in self.iter_measurements(module, die, pattern, t_on)
        ]
        if len(sets) < 2:
            return None
        union = unique_keys(np.concatenate(sets))
        if not union.size:
            # >= 2 recorded trials, none of which flipped: nothing
            # recurs, and nothing could -- 0.0, the conservative value.
            return 0.0
        intersection = reduce(partial(np.intersect1d, assume_unique=True), sets)
        return intersection.size / union.size

    # ------------------------------------------------------------- digests

    def results_digest(self) -> str:
        """Canonical sha256 of the stored population: bit-identical to
        :func:`repro.validate.invariants.results_digest` over the same
        measurements, which stream from the store (only their canonical
        record lines are held, for the sort)."""
        return results_digest(self.iter_measurements())

    # -------------------------------------------------------------- export

    def export_shards(
        self, out_dir: Union[str, "Path"], metrics=None
    ) -> "ExportInfo":
        """Seal the population into per-module shard dumps + a manifest.

        One identity-ordered pass over the store (two queries) feeds
        :func:`seal_shards`; see there for the artifacts written.
        """
        return seal_shards(
            out_dir,
            groupby(self.iter_measurements(), key=attrgetter("module_key")),
            metrics=metrics,
        )

    # ------------------------------------------------------------- helpers

    @staticmethod
    def _where(
        module: Optional[str],
        die: Optional[int],
        pattern: Optional[str],
        t_on: Optional[float],
    ) -> Tuple[str, List]:
        conditions = []
        params: List = []
        for column, value in (
            ("m.module", module),
            ("m.die", die),
            ("m.pattern", pattern),
            # tAggON filters compare quantized keys, never raw REALs: a
            # round-tripped float still hits its sweep point.
            ("m.t_on_ps", None if t_on is None else quantize_t_on(t_on)),
        ):
            if value is not None:
                conditions.append(f"{column} = ?")
                params.append(value)
        if not conditions:
            return "", params
        return "WHERE " + " AND ".join(conditions), params


def _joined_keys(text: Optional[str]) -> np.ndarray:
    """Sorted unique census keys of a ``group_concat`` list (``None``
    when there are none)."""
    if text is None:
        return np.empty(0, dtype=np.int64)
    return unique_keys(np.array(text.split(","), dtype=np.int64))


def _shard_token(module: str) -> str:
    """A module key reduced to a safe shard file-name token."""
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in module)


def _write_shard(
    path: Path, measurements: Iterable[DieMeasurement], digest_lines: List[str]
) -> Tuple[int, int, str]:
    """Write one shard and collect its records' digest lines; returns
    its record count, size and sha256 (of the bytes written).  Its own
    function so one shard's records and text are freed before the next
    shard's are built: the export's peak memory is one shard, not two."""
    records = [measurement_to_record(m, True) for m in measurements]
    digest_lines.extend(map(canonical_record, records))
    text = encode_dump(records, include_census=True) + "\n"
    atomic_write_text(path, text)
    raw = text.encode("utf-8")
    return len(records), len(raw), hashlib.sha256(raw).hexdigest()


def seal_shards(
    out_dir: Union[str, "Path"],
    modules: Iterable[Tuple[str, Iterable[DieMeasurement]]],
    metrics=None,
) -> "ExportInfo":
    """Write per-module shard dumps + a manifest in one pass.

    ``modules`` yields ``(module_key, measurements)`` in shard order;
    each becomes a ``repro-results-v1`` dump ``shard-<module>.json``
    (censuses included), listed with its sha256, size and record count
    in ``manifest.json`` (``repro-flipshards-v1``, with a ``.sha256``
    sidecar) beside the population's ``results_digest``.  Nothing is
    read back.  ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
    counts ``sink.shards_sealed`` / ``sink.bytes_sealed``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shards: List[ShardInfo] = []
    digest_lines: List[str] = []
    for module, measurements in modules:
        name = f"shard-{_shard_token(module)}.json"
        info = ShardInfo(
            name, module, *_write_shard(out / name, measurements, digest_lines)
        )
        shards.append(info)
        if metrics is not None:
            metrics.inc("sink.shards_sealed")
            metrics.inc("sink.bytes_sealed", info.n_bytes)
    digest = digest_record_lines(digest_lines)
    manifest = {
        "format": MANIFEST_FORMAT,
        "group_by": "module",
        "n_measurements": sum(s.n_measurements for s in shards),
        "results_digest": digest,
        "shards": [
            {
                "name": s.name,
                "module": s.module,
                "n_measurements": s.n_measurements,
                "bytes": s.n_bytes,
                "sha256": s.sha256,
            }
            for s in shards
        ],
    }
    manifest_path = out / MANIFEST_NAME
    manifest_text = json.dumps(manifest, indent=2, allow_nan=False) + "\n"
    atomic_write_text(manifest_path, manifest_text)
    write_digest(manifest_path, sha256_text(manifest_text))
    return ExportInfo(
        manifest_path=str(manifest_path),
        results_digest=digest,
        shards=tuple(shards),
        n_measurements=manifest["n_measurements"],
        n_bytes=sum(s.n_bytes for s in shards),
    )


# ------------------------------------------------------------------- sink


class FlipSink:
    """Streaming measurement sink over a :class:`BitflipDatabase`.

    The engine-facing seam of the out-of-core store: the sweep engine
    calls :meth:`accept` with each completed shard's measurements (and
    with journal-resumed shards), the sink buffers them and commits one
    transaction per ``batch_size`` measurements.  Accepting an
    already-stored identity is a no-op, so replaying a resumed
    campaign into the same store is idempotent.

    Safe shutdown: :meth:`close` (or the context manager) flushes the
    buffer and closes the database; it is idempotent and safe to call
    while a ``KeyboardInterrupt`` unwinds -- everything accepted before
    the interrupt is committed, and the WAL journal guarantees readers
    never observe a torn batch.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) counts
    ``sink.rows_written`` / ``sink.rows_skipped`` / ``sink.batches``.
    """

    def __init__(
        self,
        path: Union[str, "Path", BitflipDatabase],
        batch_size: int = 256,
        metrics=None,
    ) -> None:
        if batch_size < 1:
            raise ExperimentError(
                f"sink batch_size must be >= 1, got {batch_size}"
            )
        if isinstance(path, BitflipDatabase):
            self._db = path
            self._owns_db = False
        else:
            self._db = BitflipDatabase(path)
            self._owns_db = True
        self._batch_size = batch_size
        self._metrics = metrics
        self._buffer: List[DieMeasurement] = []
        self._closed = False
        self.n_rows = 0  #: measurements newly committed through this sink
        self.n_skipped = 0  #: replayed measurements already in the store
        self.n_batches = 0  #: commit batches flushed

    @property
    def db(self) -> BitflipDatabase:
        """The underlying store (open until :meth:`close`)."""
        return self._db

    @property
    def closed(self) -> bool:
        return self._closed

    def accept(self, measurements: Sequence[DieMeasurement]) -> None:
        """Buffer a shard's measurements, flushing full batches."""
        if self._closed:
            raise ExperimentError("cannot accept measurements: sink is closed")
        self._buffer.extend(measurements)
        if len(self._buffer) >= self._batch_size:
            self.flush()

    def flush(self) -> None:
        """Commit everything buffered in one transaction."""
        if self._closed or not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        stored = self._db.store_batch(batch, ignore_existing=True)
        self.n_rows += stored
        self.n_skipped += len(batch) - stored
        self.n_batches += 1
        if self._metrics is not None:
            self._metrics.inc("sink.rows_written", stored)
            if len(batch) - stored:
                self._metrics.inc("sink.rows_skipped", len(batch) - stored)
            self._metrics.inc("sink.batches")

    def close(self) -> None:
        """Flush and close (idempotent; safe under KeyboardInterrupt)."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._closed = True
            if self._owns_db:
                self._db.close()

    def __enter__(self) -> "FlipSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ------------------------------------------------------------ shard reads


@dataclass(frozen=True)
class ShardInfo:
    """One sealed shard of an exported population."""

    name: str
    module: str
    n_measurements: int
    n_bytes: int
    sha256: str


@dataclass(frozen=True)
class ExportInfo:
    """The outcome of :meth:`BitflipDatabase.export_shards`."""

    manifest_path: str
    results_digest: str
    shards: Tuple[ShardInfo, ...]
    n_measurements: int
    n_bytes: int


def load_manifest(manifest_path: Union[str, "Path"]) -> Dict:
    """Load and schema-validate a shard manifest (no shard I/O)."""
    path = Path(manifest_path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ArtifactInvalidError(
            f"{path}: cannot read shard manifest: {exc}"
        ) from exc
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactCorruptError(
            f"{path}: shard manifest is not parseable JSON ({exc}); the "
            f"file was truncated or corrupted"
        ) from exc
    return validate_manifest_payload(payload, source=str(path))


def iter_shard_measurements(
    manifest_path: Union[str, "Path"],
) -> Iterator[DieMeasurement]:
    """Stream a sealed export's measurements, one shard at a time.

    Loads the manifest, then checks each shard against its manifest
    record (:func:`~repro.validate.integrity.verify_sealed_shard`, the
    same check as ``validate``: present, byte size, sha256) before
    decoding and yielding its measurements -- at most one shard is ever
    resident.  A shard that fails the check, or whose record count
    disagrees with the manifest, raises
    :class:`~repro.errors.ArtifactCorruptError` /
    :class:`~repro.errors.ArtifactInvalidError` before any of its
    records are yielded.
    """
    manifest = load_manifest(manifest_path)
    for shard in manifest["shards"]:
        path = verify_sealed_shard(manifest_path, shard)
        shard_set = ResultSet.load(path)
        if len(shard_set) != shard["n_measurements"]:
            raise ArtifactInvalidError(
                f"{path}: shard holds {len(shard_set)} measurement(s) but "
                f"the manifest records {shard['n_measurements']}"
            )
        yield from shard_set
