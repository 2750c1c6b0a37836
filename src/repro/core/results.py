"""Result records, result containers and measurement kinds.

A :class:`DieMeasurement` is one (module, die, pattern, tAggON, trial)
measurement; a :class:`ResultSet` is an indexable collection of them with
the grouping helpers the analysis layer builds tables and figures from.

Every campaign kind's container shares one base, :class:`ResultsBase`
(container, ``where``, atomic ``dump``, verified ``load``), and every
kind is described to the shared engine, journal and digest by one
:class:`MeasurementKind`: its journal entry format, its record codec and
its container.  :data:`MEASUREMENT_KIND` is the characterization kind;
the mitigation campaign declares its own next to its records.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.atomicio import atomic_write_text, verify_digest, write_digest
from repro.core.bitflips import BitflipCensus, flip_keys, key_pairs, unique_keys
from repro.errors import ArtifactCorruptError
from repro.validate.schema import RESULTS_FORMAT, validate_results_payload

logger = logging.getLogger("repro.results")


@dataclass(frozen=True)
class DieMeasurement:
    """One measurement point.

    Attributes:
        module_key / manufacturer / die: the device under test.
        pattern: pattern name ("single-sided", "double-sided", "combined").
        t_on: aggressor row-open time tAggON (ns).
        trial: measurement repetition index (0-based).
        acmin: minimum total activations to the first bitflip, or ``None``
            for "No Bitflip" within the runtime bound.
        time_to_first_ns: time to the first bitflip, or ``None``.
        census: the bitflips observed around ACmin (for Figs. 5 and 6),
            or ``None`` if the census was not recorded (e.g. restored
            from a census-stripped dump) -- see :attr:`has_census`.
    """

    module_key: str
    manufacturer: str
    die: int
    pattern: str
    t_on: float
    trial: int
    acmin: Optional[int]
    time_to_first_ns: Optional[float]
    census: Optional[BitflipCensus] = field(default_factory=BitflipCensus)

    @property
    def identity(self) -> Tuple[str, int, str, float, int]:
        return (self.module_key, self.die, self.pattern, self.t_on, self.trial)

    @property
    def flipped(self) -> bool:
        return self.acmin is not None

    @property
    def has_census(self) -> bool:
        """Whether a bitflip census was recorded for this measurement.

        ``False`` after a census-stripped serialization round-trip, which
        is distinct from a recorded census with zero flips.
        """
        return self.census is not None

    @property
    def time_to_first_ms(self) -> Optional[float]:
        if self.time_to_first_ns is None:
            return None
        return self.time_to_first_ns / 1e6


def finite_or_none(value):
    """Non-finite floats become ``None``: JSON has no NaN/Infinity.

    Python's permissive ``json.dumps`` default would emit bare ``NaN`` /
    ``Infinity`` literals that RFC 8259 parsers (and our own strict
    decoders) reject; a non-finite measurement field is encoded as the
    same ``null`` that "no value" uses.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def measurement_to_record(
    measurement: DieMeasurement, include_census: bool = False
) -> Dict:
    """Encode one measurement as a JSON-safe record.

    The record format is shared by :meth:`ResultSet.to_json` dumps and
    the checkpoint journal (:mod:`repro.core.checkpoint`); finite floats
    round-trip exactly through :mod:`json`, so decode(encode(m)) == m,
    and non-finite values are converted to ``None`` at encode time (see
    :func:`finite_or_none`).  A census direction is an ``(n, 2)`` int64
    array of ``[row, col]`` pairs in sorted order, which
    :func:`record_json` and :func:`encode_dump` write as ``json.dumps``
    writes the pairs' nested list.
    """
    m = measurement
    rec = {
        "module_key": m.module_key,
        "manufacturer": m.manufacturer,
        "die": m.die,
        "pattern": m.pattern,
        "t_on": finite_or_none(m.t_on),
        "trial": m.trial,
        "acmin": finite_or_none(m.acmin),
        "time_to_first_ns": finite_or_none(m.time_to_first_ns),
    }
    if include_census:
        census = m.census
        has = census is not None
        rec["flips_1_to_0"] = key_pairs(census.keys_1_to_0) if has else None
        rec["flips_0_to_1"] = key_pairs(census.keys_0_to_1) if has else None
    return rec


#: A record field's indent in an ``indent=2`` dump.
_FIELD = "\n      "

#: How ``json.dumps`` writes a census pair list: one pair's template,
#: the separator cut after the last pair, and the closing text -- nested
#: in an ``indent=2`` dump's record field, and compact.
_INDENTED = ("\n        [\n          %d,\n          %d\n        ],", 1, _FIELD + "]")
_COMPACT = ("[%d, %d], ", 2, "]")


def _field_json(value, compact: bool = False) -> str:
    """A record field's value as ``json.dumps(allow_nan=False)`` writes
    it: nested in an ``indent=2`` dump's field, or ``compact``.  Plain
    scalars and census pair arrays take a fast path; anything else (a
    bool, a numpy scalar, a hand-built list) goes through the library,
    so it prints -- or raises -- exactly as there."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if kind is np.ndarray:
        if not value.size:
            return "[]"
        pair, cut, close = _COMPACT if compact else _INDENTED
        flat = tuple(value.ravel().tolist())
        return "[" + (pair * len(value))[:-cut] % flat + close
    if compact:
        return json.dumps(value, allow_nan=False)
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", _FIELD)


def record_json(rec: Dict, sort_keys: bool = False) -> str:
    """One record as ``json.dumps(rec, allow_nan=False,
    sort_keys=sort_keys)`` writes it, census arrays included: the bytes
    of its journal entry and of its digest line."""
    items = sorted(rec.items()) if sort_keys else rec.items()
    return "{" + ", ".join(
        encode_basestring_ascii(key) + ": " + _field_json(value, compact=True)
        for key, value in items
    ) + "}"


def encode_dump(records: Iterable[Dict], include_census: bool) -> str:
    """A ``repro-results-v1`` dump of ``records`` (see
    :meth:`ResultSet.to_json`, whose bytes this writes)."""
    body = ",".join(
        "\n    {"
        + ",".join(
            _FIELD + encode_basestring_ascii(key) + ": " + _field_json(value)
            for key, value in rec.items()
        )
        + "\n    }"
        for rec in records
    )
    return '{\n  "format": %s,\n  "census_included": %s,\n  "measurements": %s\n}' % (
        encode_basestring_ascii(RESULTS_FORMAT),
        json.dumps(include_census),
        "[" + body + "\n  ]" if body else "[]",
    )


def measurement_from_record(
    rec: Dict, census_included: Optional[bool]
) -> DieMeasurement:
    """Decode one dumped record (see :func:`measurement_to_record`)."""
    return DieMeasurement(
        module_key=rec["module_key"],
        manufacturer=rec["manufacturer"],
        die=rec["die"],
        pattern=rec["pattern"],
        t_on=rec["t_on"],
        trial=rec["trial"],
        acmin=rec["acmin"],
        time_to_first_ns=rec["time_to_first_ns"],
        census=_census_from_record(rec, census_included),
    )


def _census_from_record(
    rec: Dict, census_included: Optional[bool]
) -> Optional[BitflipCensus]:
    """Restore a census from one dumped record.

    ``census_included`` is the dump-level flag (``None`` for legacy flat
    lists, which carried no flag: there, per-record census fields decide).
    A dump without a recorded census restores ``None``, keeping "not
    recorded" distinct from "recorded, zero flips".
    """
    ones = rec.get("flips_1_to_0")
    zeros = rec.get("flips_0_to_1")
    if census_included is False or (ones is None and zeros is None):
        return None
    return BitflipCensus.from_keys(_record_keys(ones), _record_keys(zeros))


def _record_keys(pairs) -> np.ndarray:
    """Sorted unique census keys of a record's (schema-checked) pairs."""
    if pairs is None or len(pairs) == 0:
        return np.empty(0, dtype=np.int64)
    coords = np.asarray(pairs, dtype=np.int64)
    return unique_keys(flip_keys(coords[:, 0], coords[:, 1]))


def canonical_record(rec: Dict) -> str:
    """A dump record's canonical digest line (sorted keys, strict JSON)."""
    return record_json(rec, sort_keys=True)


def digest_record_lines(lines: Iterable[str]) -> str:
    """sha256 over :func:`canonical_record` lines in sorted order."""
    digest = hashlib.sha256()
    for record in sorted(lines):
        digest.update(record.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class ResultsBase:
    """An ordered collection of one campaign kind's result records.

    The container, ``where`` filter, atomic :meth:`dump` and verified
    :meth:`load` every campaign artifact shares.  A subclass owns its
    format: ``what`` (the dump's name in errors), ``check_payload``
    (the schema check of a parsed dump, returning what
    ``from_payload`` needs), ``to_json`` and ``from_payload``.
    """

    what = "dump"

    def __init__(self, records: Iterable = ()) -> None:
        self._records: List = list(records)

    def add(self, record) -> None:
        self._records.append(record)

    def extend(self, records: Iterable) -> None:
        self._records.extend(records)

    def __iter__(self) -> Iterator:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def filter(self, predicate: Callable[[object], bool]):
        return type(self)(r for r in self._records if predicate(r))

    def where(self, **fields):
        """Filter by exact field values (``None`` matches anything)."""
        records = self._records
        for name, value in fields.items():
            if value is not None:
                get = attrgetter(name)
                records = [r for r in records if get(r) == value]
        return type(self)(records)

    def dump(
        self, path: Union[str, os.PathLike], digest: bool = False, **options
    ) -> None:
        """Atomically write the JSON dump to ``path``.

        Uses write-temp + :func:`os.replace`, so an interrupted dump
        never leaves a truncated or corrupt file behind.  With
        ``digest=True`` a ``<path>.sha256`` sidecar is stamped so
        :meth:`load` (and ``repro-characterize validate``) detects any
        later byte flip; without it the written bytes are identical to
        earlier releases.  ``options`` go to ``to_json``.
        """
        atomic_write_text(path, self.to_json(**options) + "\n")
        if digest:
            write_digest(path)

    @classmethod
    def load(cls, path: Union[str, os.PathLike]):
        """Restore a :meth:`dump`'d file.

        When a ``<path>.sha256`` sidecar exists the file's bytes are
        verified against it first; a digest mismatch, an unreadable file
        and undecodable or unparseable content raise
        :class:`~repro.errors.ArtifactCorruptError` naming the file, and
        schema violations raise
        :class:`~repro.errors.ArtifactInvalidError` -- never a raw
        ``json``/``KeyError``.
        """
        verify_digest(path)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise ArtifactCorruptError(
                f"{path}: cannot read {cls.what}: {exc}"
            ) from exc
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArtifactCorruptError(
                f"{path}: {cls.what} is not valid UTF-8 ({exc}); the "
                f"file was truncated or corrupted"
            ) from exc
        return cls.from_json(text, source=str(path))

    @classmethod
    def from_json(cls, text: str, source: Optional[str] = None):
        """Decode a dump, validating its format version and schema."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            where = f"{source}: " if source else ""
            raise ArtifactCorruptError(
                f"{where}{cls.what} is not parseable JSON ({exc}); the "
                f"content was truncated or corrupted"
            ) from exc
        return cls.from_payload(payload, cls.check_payload(payload, source))


class ResultSet(ResultsBase):
    """A collection of measurements with grouping helpers.

    Its dump accepts the versioned ``repro-results-v1`` envelope and --
    with a logged warning -- the two legacy shapes (unversioned
    envelope, flat record list).  Unknown format versions, malformed
    records, and duplicate ``(module, die, pattern, t, trial)``
    measurements raise :class:`~repro.errors.ArtifactInvalidError`
    naming the offending field.
    """

    what = "results dump"

    # ---------------------------------------------------------------- queries

    def t_values(self) -> List[float]:
        return sorted({m.t_on for m in self._records})

    def patterns(self) -> List[str]:
        return sorted({m.pattern for m in self._records})

    def module_keys(self) -> List[str]:
        return sorted({m.module_key for m in self._records})

    def group_by(
        self, key: Callable[[DieMeasurement], Tuple]
    ) -> Dict[Tuple, "ResultSet"]:
        groups: Dict[Tuple, ResultSet] = {}
        for m in self._records:
            groups.setdefault(key(m), ResultSet()).add(m)
        return groups

    # ----------------------------------------------------------- serialization

    def to_json(self, include_census: bool = False) -> str:
        """JSON dump (censuses omitted by default -- they can be large).

        The dump is versioned (``"format": "repro-results-v1"``) and
        carries an explicit ``census_included`` flag so a round-trip is
        lossless: restoring a census-stripped dump yields measurements
        with ``census=None`` (census not recorded) instead of silently
        resurrecting empty censuses indistinguishable from "measured,
        zero flips".

        The text is, on purpose, the exact bytes of ``json.dumps(payload,
        indent=2, allow_nan=False)``, written by :func:`encode_dump`
        without the library's slow pure-Python indenting encoder; the
        byte-identity corpus in ``tests/test_results.py`` pins the two
        together.
        """
        records = (measurement_to_record(m, include_census) for m in self)
        return encode_dump(records, include_census)

    @staticmethod
    def check_payload(payload, source: Optional[str] = None) -> Dict:
        """:func:`validate_results_payload`, warning on a legacy shape."""
        outcome = validate_results_payload(payload, source=source)
        if outcome["legacy"]:
            logger.warning(
                "results dump%s uses a legacy unversioned format "
                "(no 'format': %r field); loading it and upgrading on the "
                "next dump()",
                f" {source}" if source else "",
                RESULTS_FORMAT,
            )
        return outcome

    @staticmethod
    def from_payload(payload, outcome: Dict) -> "ResultSet":
        """Decode a parsed dump that :func:`validate_results_payload`
        accepted (``outcome`` is its result); no re-check, no log."""
        if isinstance(payload, dict):
            census_included: Optional[bool] = (
                None
                if outcome["legacy"] and "census_included" not in payload
                else bool(payload.get("census_included", False))
            )
            records = payload["measurements"]
        else:  # legacy flat-list dumps (no census_included flag)
            census_included = None
            records = payload
        return ResultSet(
            measurement_from_record(rec, census_included) for rec in records
        )


@dataclass(frozen=True)
class MeasurementKind:
    """What one campaign kind measures, as the shared code sees it.

    The engine, the checkpoint journal and the digest serve every kind
    through this one description, with no branch on which kind it is.

    Attributes:
        entries: the journal entry-format name written into the header
            and checked on load, so one record kind is never decoded as
            another; ``None`` for characterization measurements, whose
            header is byte-identical to journals written before kinds
            existed.
        encode / decode: the full-fidelity record codec of journal lines
            and digest lines (``decode(encode(r)) == r``).
        results: the kind's :class:`ResultsBase` container, which a
            campaign fills in canonical plan order.
    """

    entries: Optional[str]
    encode: Callable[[object], Dict]
    decode: Callable[[Dict], object]
    results: type

    def digest(self, records: Iterable) -> str:
        """Canonical sha256 of ``records`` (order-independent).

        Records are encoded, serialized with sorted keys and sorted, so
        two collections digest equal iff they hold the same records --
        regardless of executor, resume, merge order or a serialization
        round-trip.
        """
        return digest_record_lines(
            canonical_record(self.encode(r)) for r in records
        )


#: The characterization kind: :class:`DieMeasurement` records, censuses
#: included so resumed measurements are bit-identical.
MEASUREMENT_KIND = MeasurementKind(
    entries=None,
    encode=partial(measurement_to_record, include_census=True),
    decode=partial(measurement_from_record, census_included=True),
    results=ResultSet,
)
