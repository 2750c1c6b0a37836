"""Result records of characterization measurements.

A :class:`DieMeasurement` is one (module, die, pattern, tAggON, trial)
measurement; a :class:`ResultSet` is an indexable collection of them with
the grouping helpers the analysis layer builds tables and figures from.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.atomicio import atomic_write_text, verify_digest, write_digest
from repro.core.bitflips import BitflipCensus
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
    :func:`finite_or_none`).
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
        has = m.census is not None
        rec["flips_1_to_0"] = sorted(m.census.flips_1_to_0) if has else None
        rec["flips_0_to_1"] = sorted(m.census.flips_0_to_1) if has else None
    return rec


#: A record field's indent, and one ``(int, int)`` census pair as
#: ``json.dumps(indent=2)`` nests it in that field.
_FIELD = "\n      "
_PAIR = "\n        [\n          %d,\n          %d\n        ],"


def _field_json(value) -> str:
    """A record field's value as ``json.dumps(indent=2, allow_nan=False)``
    nests it.  Plain scalars and lists of ``(int, int)`` census pairs take
    a fast path; anything else (a bool, a numpy scalar, an odd shape) goes
    through the library, so it prints -- or raises -- exactly as there."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if kind is list and set(map(type, value)) == {tuple} and (
        set(map(len, value)) == {2}
    ):
        flat = tuple(chain.from_iterable(value))
        if set(map(type, flat)) == {int}:
            return "[" + (_PAIR * len(value))[:-1] % flat + _FIELD + "]"
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", _FIELD)


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
    return BitflipCensus(
        frozenset(tuple(k) for k in ones or []),
        frozenset(tuple(k) for k in zeros or []),
    )


def read_dump_text(path: Union[str, os.PathLike], what: str) -> str:
    """Read a campaign dump as text, verifying any sha256 sidecar first.

    The one reader behind :meth:`ResultSet.load` and
    :meth:`~repro.mitigations.campaign.MitigationResults.load`; ``what``
    names the artifact kind in errors.  A digest mismatch, an unreadable
    file or non-UTF-8 bytes raise
    :class:`~repro.errors.ArtifactCorruptError` naming ``path``.
    """
    verify_digest(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ArtifactCorruptError(f"{path}: cannot read {what}: {exc}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArtifactCorruptError(
            f"{path}: {what} is not valid UTF-8 ({exc}); the "
            f"file was truncated or corrupted"
        ) from exc


def parse_dump_json(text: str, what: str, source: Optional[str] = None):
    """Parse a dump's JSON text; unparseable text is
    :class:`~repro.errors.ArtifactCorruptError` naming ``source``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"{source}: " if source else ""
        raise ArtifactCorruptError(
            f"{where}{what} is not parseable JSON ({exc}); the "
            f"content was truncated or corrupted"
        ) from exc


class ResultSet:
    """A collection of measurements with grouping helpers."""

    def __init__(self, measurements: Iterable[DieMeasurement] = ()) -> None:
        self._measurements: List[DieMeasurement] = list(measurements)

    def add(self, measurement: DieMeasurement) -> None:
        self._measurements.append(measurement)

    def extend(self, measurements: Iterable[DieMeasurement]) -> None:
        self._measurements.extend(measurements)

    def __iter__(self) -> Iterator[DieMeasurement]:
        return iter(self._measurements)

    def __len__(self) -> int:
        return len(self._measurements)

    # ---------------------------------------------------------------- queries

    def filter(self, predicate: Callable[[DieMeasurement], bool]) -> "ResultSet":
        return ResultSet(m for m in self._measurements if predicate(m))

    def where(
        self,
        module_key: Optional[str] = None,
        manufacturer: Optional[str] = None,
        pattern: Optional[str] = None,
        t_on: Optional[float] = None,
        die: Optional[int] = None,
    ) -> "ResultSet":
        """Filter by exact field values (``None`` matches anything)."""

        def match(m: DieMeasurement) -> bool:
            return (
                (module_key is None or m.module_key == module_key)
                and (manufacturer is None or m.manufacturer == manufacturer)
                and (pattern is None or m.pattern == pattern)
                and (t_on is None or m.t_on == t_on)
                and (die is None or m.die == die)
            )

        return self.filter(match)

    def t_values(self) -> List[float]:
        return sorted({m.t_on for m in self._measurements})

    def patterns(self) -> List[str]:
        return sorted({m.pattern for m in self._measurements})

    def module_keys(self) -> List[str]:
        return sorted({m.module_key for m in self._measurements})

    def group_by(
        self, key: Callable[[DieMeasurement], Tuple]
    ) -> Dict[Tuple, "ResultSet"]:
        groups: Dict[Tuple, ResultSet] = {}
        for m in self._measurements:
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

    def dump(
        self,
        path: Union[str, os.PathLike],
        include_census: bool = False,
        digest: bool = False,
    ) -> None:
        """Atomically write the JSON dump to ``path``.

        Uses write-temp + :func:`os.replace`, so an interrupted dump
        never leaves a truncated or corrupt results file behind.  With
        ``digest=True`` a ``<path>.sha256`` sidecar is stamped so
        :meth:`load` (and ``repro-characterize validate``) detects any
        later byte flip; without it the written bytes are identical to
        earlier releases.
        """
        atomic_write_text(path, self.to_json(include_census=include_census) + "\n")
        if digest:
            write_digest(path)

    @staticmethod
    def load(path: Union[str, os.PathLike]) -> "ResultSet":
        """Restore a ResultSet from a :meth:`dump`'d file.

        When a ``<path>.sha256`` sidecar exists the file's bytes are
        verified against it first
        (:class:`~repro.errors.ArtifactCorruptError` on mismatch);
        undecodable or unparseable content raises the same error naming
        the file, and schema violations raise
        :class:`~repro.errors.ArtifactInvalidError` -- never a raw
        ``json``/``KeyError``.
        """
        return ResultSet.from_json(
            read_dump_text(path, "results dump"), source=str(path)
        )

    @staticmethod
    def from_json(text: str, source: Optional[str] = None) -> "ResultSet":
        """Decode a dump, validating its format version and schema.

        Accepts the versioned ``repro-results-v1`` envelope and -- with
        a logged warning -- the two legacy shapes (unversioned envelope,
        flat record list).  Unknown format versions, malformed records,
        and duplicate ``(module, die, pattern, t, trial)`` measurements
        raise :class:`~repro.errors.ArtifactInvalidError` naming the
        offending field; unparseable text raises
        :class:`~repro.errors.ArtifactCorruptError`.
        """
        payload = parse_dump_json(text, "results dump", source)
        outcome = validate_results_payload(payload, source=source)
        if outcome["legacy"]:
            logger.warning(
                "results dump%s uses a legacy unversioned format "
                "(no 'format': %r field); loading it and upgrading on the "
                "next dump()",
                f" {source}" if source else "",
                RESULTS_FORMAT,
            )
        return ResultSet.from_payload(payload, outcome)

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
        out = ResultSet()
        for rec in records:
            out.add(measurement_from_record(rec, census_included))
        return out
