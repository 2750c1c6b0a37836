"""Dependency-free schema validators for every on-disk artifact.

One ``validate_*`` function per artifact format, all pure functions over
already-parsed payloads (the caller owns file I/O and digest
verification): results and mitigation dumps, checkpoint journal headers
and entries, metrics reports, trace lines, ``BENCH_sweep.json``, flip
shard manifests and pattern-spec bundles.  Each format is a table of
:class:`Field` rows walked by the one function :func:`_walk`; rules that
tie fields together are named hooks placed in the table where they run.

Every failure raises :class:`~repro.errors.ArtifactInvalidError` whose
message starts with ``<source>: $<json-path>`` so the offending field is
addressable without re-reading the artifact (``$`` is the document root,
e.g. ``$.measurements[3].t_on``).  Validators never raise raw
``KeyError``/``TypeError`` -- a malformed payload always surfaces in the
typed artifact-error vocabulary.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ArtifactInvalidError

__all__ = [
    "RESULTS_FORMAT",
    "JOURNAL_FORMAT",
    "METRICS_FORMAT",
    "BENCH_FORMAT",
    "MANIFEST_FORMAT",
    "MITIGATION_FORMAT",
    "MITIGATION_POINT_FORMAT",
    "PATTERNSPEC_FORMAT",
    "KNOWN_PATTERNS",
    "is_known_pattern_name",
    "KNOWN_MITIGATIONS",
    "KNOWN_JOURNAL_ENTRIES",
    "validate_results_payload",
    "validate_journal_header",
    "validate_journal_entry",
    "check_journal_shard",
    "validate_metrics_payload",
    "validate_trace_event",
    "validate_bench_payload",
    "validate_measurement_record",
    "validate_mitigation_record",
    "validate_mitigation_payload",
    "validate_manifest_payload",
    "validate_patternspec_payload",
]

#: Format identifiers, kept in sync with the writers (results.py,
#: checkpoint.py, obs/metrics.py, mitigations/campaign.py,
#: benchmarks/test_perf_sweep.py).  Schema validation must not import
#: those modules: the writers import *us*.
RESULTS_FORMAT = "repro-results-v1"
JOURNAL_FORMAT = "repro-checkpoint-v1"
METRICS_FORMAT = "repro-metrics-v1"
BENCH_FORMAT = "repro-bench-v1"
MANIFEST_FORMAT = "repro-flipshards-v1"
MITIGATION_FORMAT = "repro-mitigation-v1"
MITIGATION_POINT_FORMAT = "repro-mitigation-point-v1"
PATTERNSPEC_FORMAT = "repro-patternspec-v1"

#: The paper's three access patterns (Section 3).  Records are no
#: longer restricted to this menu: the pattern DSL
#: (:mod:`repro.patterns.dsl`) mints new names, so the gate accepts any
#: name matching :data:`_PATTERN_NAME_RE` (which covers these three).
KNOWN_PATTERNS = ("single-sided", "double-sided", "combined")

#: DSL pattern-name grammar, kept in sync with
#: ``repro.patterns.dsl.PatternSpec`` (schema validation must not
#: import it: the DSL imports the engine stack, we are its leaf).
_PATTERN_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9+._-]{0,63}$")


def is_known_pattern_name(name: str) -> bool:
    """Whether a record's pattern name is admissible.

    True for the paper's three patterns and for anything matching the
    DSL name grammar (lowercase ``[a-z0-9+._-]``, 64 chars max).
    """
    return name in KNOWN_PATTERNS or bool(_PATTERN_NAME_RE.match(name))

#: The mechanisms the mitigation campaign evaluates (kept in sync with
#: ``repro.mitigations.campaign.MITIGATION_KINDS``, which imports *us*).
KNOWN_MITIGATIONS = ("para", "para-press", "graphene", "graphene-press")

#: Journal entry-record formats the checkpoint layer can carry: the
#: header's absent/``None`` ``entries`` means characterization
#: measurements (the pre-codec journal shape); mitigation campaigns
#: declare their point records explicitly.
KNOWN_JOURNAL_ENTRIES = (None, MITIGATION_POINT_FORMAT)


# ------------------------------------------------------------------ walker


#: Type label -> the Python types it accepts (bool never passes as int).
_TYPES = {
    "a string": str,
    "an integer": int,
    "an integer or null": int,
    "a number": (int, float),
    "a boolean": bool,
    "an object": dict,
    "an array": list,
    "a [row, col] pair": (list, tuple),
}

#: Bound -> the least admissible value; the key is also the message
#: (``must be > 0 ns, got ...``).  ``x > 0`` holds exactly when ``x`` is
#: at least the least positive float, for ints and floats alike.
_ABOVE_ZERO = math.nextafter(0.0, math.inf)
_BOUNDS = {
    ">= 0": 0,
    "> 0": _ABOVE_ZERO,
    "> 0 ns": _ABOVE_ZERO,
    "a wall-clock timestamp": 0,
}


class Field:
    """One row of a format's field table.

    ``label`` is the type named in messages and picks the accepted
    Python types from :data:`_TYPES` (``None`` accepts any value and
    leaves it to ``check``); ``"a number"`` must also be finite.
    ``bound`` is a key of :data:`_BOUNDS`.  A ``nullable`` field may be
    null, an ``optional`` one may be absent.  ``check(value, path,
    source)`` runs after the type and bound.  ``rows`` is an object's
    own table: :class:`Field` rows and cross-field hooks ``(obj, path,
    source)``, run in order.  ``each`` checks every array item or map
    value.  ``unique = (key, detail)`` makes ``key(value)`` distinct
    across the items of the enclosing array; a repeat fails as
    ``duplicates <first path><detail(value)>``.

    A plain field (no check, rows, items or uniqueness) whose value has
    exactly one of its ``fast`` types, and for numbers lies in ``[low,
    inf)``, is accepted where it is read, without a walk.
    """

    __slots__ = ("name", "label", "bound", "nullable", "optional", "check",
                 "rows", "each", "unique", "fast", "low")

    def __init__(self, name: str, label: Optional[str], bound=None, *,
                 nullable=False, optional=False, check=None, rows=(),
                 each=None, unique=None) -> None:
        self.name, self.label, self.bound = name, label, bound
        self.nullable, self.optional, self.check = nullable, optional, check
        self.rows, self.each, self.unique = rows, each, unique
        types = _TYPES.get(label, ())
        plain = not (check or rows or each or unique)
        self.fast = frozenset(
            types if isinstance(types, tuple) else (types,)
        ) if plain else frozenset()
        self.low = _BOUNDS.get(bound)
        if self.low is None and label == "a number":
            self.low = -sys.float_info.max  # excludes -inf


_ABSENT = object()


def _path(path) -> str:
    """Render a path built lazily as ``(parent, ".", key)`` or
    ``(parent, "[", index)`` nodes over a root string."""
    if isinstance(path, str):
        return path
    parent, sep, key = path
    if sep == ".":
        return f"{_path(parent)}.{key}"
    return f"{_path(parent)}[{key}]"


def _fail(source: Optional[str], path, problem: str) -> None:
    prefix = f"{source}: " if source else ""
    raise ArtifactInvalidError(f"{prefix}{_path(path)} {problem}")


def _walk(value, spec: Field, path, source: Optional[str], seen=None):
    """Check ``value`` against ``spec``; ``seen`` is the enclosing
    array's map of ``unique`` keys to the path that first held them."""
    if value is None and spec.nullable:
        return
    label = spec.label
    if label is not None:
        types = _TYPES[label]
        if not isinstance(value, types) or (
            isinstance(value, bool) and types is not bool
        ):
            _fail(source, path, f"must be {label}, got {type(value).__name__}")
        if isinstance(value, float) and not math.isfinite(value):
            _fail(source, path, f"must be finite, got {value!r}")
    if spec.bound is not None and not spec.low <= value:
        _fail(source, path, f"must be {spec.bound}, got {value!r}")
    if spec.check is not None:
        spec.check(value, path, source)
    for row in spec.rows:
        if type(row) is not Field:
            row(value, path, source)
            continue
        item = value.get(row.name, _ABSENT)
        if item is _ABSENT:
            if not row.optional:
                _fail(source, (path, ".", row.name), "is missing")
            continue
        low = row.low
        if type(item) not in row.fast or (
            low is not None and not low <= item < math.inf
        ):
            _walk(item, row, (path, ".", row.name), source, seen)
    if spec.unique is not None and seen is not None:
        key, detail = spec.unique
        first = seen.setdefault(key(value), path)
        if first is not path:
            _fail(source, path, f"duplicates {_path(first)}{detail(value)}")
    each = spec.each
    if each is not None:
        fast, low, seen = each.fast, each.low, {}
        if isinstance(value, dict):
            items, sep = value.items(), "."
        else:
            items, sep = enumerate(value), "["
        for key, item in items:
            if type(item) not in fast or (
                low is not None and not low <= item < math.inf
            ):
                _walk(item, each, (path, sep, key), source, seen)


# ------------------------------------------------------------------- hooks


def _must(ok: Callable, problem: str) -> Callable:
    """A value check failing with ``problem.format(value)`` unless ``ok``."""
    def check(value, path, source):
        if not ok(value):
            _fail(source, path, problem.format(value))
    return check


def _format(expected: str, kind: str) -> Callable:
    return _must(
        lambda found: found == expected,
        f"has unknown {kind} format {{!r}} (this library reads {expected!r})",
    )


#: Exclusive upper bounds of a census pair's row and column: the range
#: of :class:`repro.core.bitflips.BitflipCensus` keys (this leaf module
#: cannot import the census; tests/test_census_property.py pins the two
#: ranges together).
_PAIR_LIMITS = (2**31, 2**32)


def _pair(coord, path, source):
    if len(coord) != 2:
        _fail(
            source, path,
            f"must be a [row, col] pair, got {len(coord)} element(s)",
        )
    for index, (value, limit) in enumerate(zip(coord, _PAIR_LIMITS)):
        if type(value) is int and value >= limit:
            _fail(
                source, (path, "[", index),
                f"must be < 2**{limit.bit_length() - 1}, got {value!r}",
            )


def _rule(key: str, broken: Callable, problem: str) -> Callable:
    """Cross-field hook: fail at ``key`` when ``broken(obj)``, with
    ``problem`` formatted from the object's fields."""
    def hook(obj, path, source):
        if broken(obj):
            _fail(source, (path, ".", key), problem.format_map(obj))
    return hook


def _null_when(key: str, flag: str, state: str, why: str) -> Callable:
    """``key`` must be null while ``flag`` is ``state`` (null or true)."""
    return _rule(
        key,
        lambda obj: obj[key] is not None
        and (obj[flag] is None if state == "null" else obj[flag]),
        f"must be null when {flag} is {state} ({why}), got {{{key}!r}}",
    )


def _shard_sum(manifest, path, source):
    total = manifest["n_measurements"]
    counted = sum(shard["n_measurements"] for shard in manifest["shards"])
    if counted != total:
        _fail(
            source, (path, ".", "n_measurements"),
            f"is {total}, but the shards sum to {counted} measurement(s)",
        )


def _speedups(value, path, source):
    # ``speedup_vs_seed`` is one number or a map of named numbers.
    _walk(value, _SPEEDUP_MAP if isinstance(value, dict) else _POSITIVE,
          path, source)


def _measurement_identity(rec) -> Tuple[str, int, str, float, int]:
    return (rec["module_key"], rec["die"], rec["pattern"],
            float(rec["t_on"]), rec["trial"])


def _mitigation_identity(rec) -> Tuple[str, str, str, float]:
    return (rec["chip_key"], rec["mitigation"], rec["pattern"],
            float(rec["t_on"]))


def _twice(identity: Callable, names: str, verb: str) -> Tuple:
    """``unique`` rule for records keyed by ``identity`` (its ``names``)."""
    def detail(rec):
        fields = ", ".join(
            f"{n}={v!r}" for n, v in zip(names.split(), identity(rec))
        )
        return f": ({fields}) {verb} twice"
    return identity, detail


_NAMED_ONCE = (lambda name: name), (lambda name: f" ({name!r})")
_NAME_GRAMMAR = "lowercase [a-z0-9+._-], 64 chars max"


# ------------------------------------------------------------ field tables

_POSITIVE = Field("", "a number", "> 0")
_SPEEDUP_MAP = Field("", "an object", each=_POSITIVE)
_PATTERN = Field("pattern", "a string", check=_must(
    is_known_pattern_name,
    f"must be one of {list(KNOWN_PATTERNS)} or a DSL pattern name "
    f"({_NAME_GRAMMAR}), got {{!r}}",
))
_T_ON = Field("t_on", "a number", "> 0 ns")
_TIME_TO_FIRST = Field("time_to_first_ns", "a number", "> 0 ns", nullable=True)
_PROVENANCE = Field("provenance", "an object", optional=True)
_SHA256 = _must(
    lambda digest: len(digest) == 64
    and all(c in "0123456789abcdef" for c in digest),
    "must be a lowercase sha256 hex digest (64 chars), got {!r}",
)
_CENSUS_PAIR = Field(
    "", "a [row, col] pair", check=_pair, each=Field("", "an integer", ">= 0")
)

_MEASUREMENT = Field("", "an object", rows=(
    Field("module_key", "a string"),
    Field("manufacturer", "a string"),
    Field("die", "an integer", ">= 0"),
    _PATTERN,
    _T_ON,
    Field("trial", "an integer", ">= 0"),
    Field("acmin", "an integer or null", "> 0", nullable=True),
    _TIME_TO_FIRST,
    # A censored cell (no bitflip) has no ACmin and therefore no time.
    # The converse is not enforced: a non-finite time_to_first_ns is
    # sanitized to null at serialization while acmin stays set.
    _null_when("time_to_first_ns", "acmin", "null",
               "no bitflip means no time-to-first"),
    Field("flips_1_to_0", "an array", nullable=True, optional=True,
          each=_CENSUS_PAIR),
    Field("flips_0_to_1", "an array", nullable=True, optional=True,
          each=_CENSUS_PAIR),
))

_MITIGATION = Field("", "an object", rows=(
    Field("chip_key", "a string"),
    Field("mitigation", "a string", check=_must(
        lambda name: name in KNOWN_MITIGATIONS,
        f"must be one of {list(KNOWN_MITIGATIONS)}, got {{!r}}",
    )),
    _PATTERN,
    _T_ON,
    Field("baseline_acmin", "an integer or null", "> 0", nullable=True),
    Field("baseline_iterations", "an integer or null", "> 0", nullable=True),
    _TIME_TO_FIRST,
    # A point with no baseline bitflip has neither a time to first flip
    # nor a critical-parameter search.
    _null_when("time_to_first_ns", "baseline_acmin", "null",
               "no baseline bitflip means no time-to-first"),
    Field("critical_value", "a number", "> 0", nullable=True),
    Field("protects_at", "a number", nullable=True),
    Field("fails_at", "a number", nullable=True),
    Field("n_runs", "an integer", ">= 0"),
    Field("cap_hit", "a boolean"),
    Field("defeated", "a boolean"),
    Field("protected_by_trefw", "a boolean"),
    Field("protected_by_trefw_quarter", "a boolean"),
    _null_when("critical_value", "defeated", "true",
               "no finite parameter protects"),
    _null_when("fails_at", "cap_hit", "true",
               "the ramp never found a failing parameter"),
    # Probability mechanisms live in (0, 1]; a probability above 1
    # marks a corrupted or hand-edited record.
    _rule(
        "critical_value",
        lambda rec: rec["mitigation"] in ("para", "para-press")
        and rec["critical_value"] is not None and rec["critical_value"] > 1.0,
        "must be a probability in (0, 1] for {mitigation!r}, "
        "got {critical_value!r}",
    ),
))

_RESULT_RECORDS = Field(
    "measurements", "an array",
    each=Field("", "an object", rows=_MEASUREMENT.rows,
               unique=_twice(
                   _measurement_identity,
                   "module_key die pattern t_on trial", "measured",
               )),
)

_RESULTS = Field("", "an object", rows=(
    Field("format", None, nullable=True, optional=True,
          check=_format(RESULTS_FORMAT, "results")),
    Field("census_included", "a boolean"),
    _RESULT_RECORDS,
))

_MITIGATION_DUMP = Field("", "an object", rows=(
    Field("format", None, check=_format(MITIGATION_FORMAT, "mitigation")),
    Field("points", "an array", each=Field(
        "", "an object", rows=_MITIGATION.rows,
        unique=_twice(
            _mitigation_identity, "chip_key mitigation pattern t_on",
            "evaluated",
        ),
    )),
))

_JOURNAL_HEADER = Field("", "an object", rows=(
    Field("format", None, check=_format(JOURNAL_FORMAT, "journal")),
    Field("fingerprint", "a string"),
    Field("n_shards", "an integer", ">= 0"),
    Field("entries", None, optional=True, check=_must(
        lambda entries: entries in KNOWN_JOURNAL_ENTRIES,
        "has unknown journal entry format {!r} (this library reads "
        f"{[e for e in KNOWN_JOURNAL_ENTRIES if e is not None]}, or no "
        "entries field for characterization measurements)",
    )),
    _PROVENANCE,
))

#: Journal entry tables by the header's ``entries`` record kind.
_JOURNAL_ENTRY = {
    entries: Field("", "an object", rows=(
        Field("shard", "an integer", ">= 0"),
        Field("measurements", "an array", each=record),
    ))
    for entries, record in (
        (None, _MEASUREMENT), (MITIGATION_POINT_FORMAT, _MITIGATION)
    )
}

_METRICS = Field("", "an object", rows=(
    Field("format", None, check=_format(METRICS_FORMAT, "metrics")),
    Field("counters", "an object", each=Field("", "an integer", ">= 0")),
    # sanitized non-finite gauges are null
    Field("gauges", "an object", each=Field("", "a number", nullable=True)),
    Field("timers", "an object", each=Field("", "an object", rows=(
        Field("count", "an integer", ">= 0"),
        *(Field(stat, "a number") for stat in (
            "total_s", "min_s", "max_s", "mean_s", "p50_s", "p90_s"
        )),
    ))),
    Field("run", "an object", optional=True, rows=tuple(
        Field(key, "an integer", ">= 0")
        for key in ("n_shards", "n_resumed", "n_executed", "n_retries")
    )),
    _PROVENANCE,
))

_TRACE_EVENT = Field("", "an object", rows=(
    Field("event", "a string"),
    Field("t", "a number", "a wall-clock timestamp"),
))

_BENCH = Field("", "an object", rows=(
    Field("format", None, nullable=True, optional=True,
          check=_format(BENCH_FORMAT, "bench")),
    Field("campaign", "an object"),
    Field("seconds", "an object", each=_POSITIVE),
    Field("speedup_vs_seed", None, check=_speedups),
    Field("all_seconds", "an object", nullable=True, optional=True,
          each=Field("", "an array", each=Field("", "a number"))),
    # Per side, the CPU seconds of each repetition: the benchmark
    # process's own and its reaped pool workers'.
    Field("cpu_seconds", "an object", optional=True, each=Field(
        "", "an object", rows=tuple(
            Field(name, "an array", each=Field("", "a number", ">= 0"))
            for name in ("parent", "children")
        ),
    )),
    Field("executors", "an object", optional=True, rows=(
        Field("engine_auto", "an object", optional=True, rows=(
            # The auto executor's decision for each run of a repetition.
            Field("decisions", "an object", optional=True,
                  each=Field("", "an object", nullable=True)),
        )),
    ), each=Field("", "an object", rows=(
        # A side's distinct run warnings (e.g. pool oversubscription).
        Field("warnings", "an array", optional=True,
              each=Field("", "a string")),
    ))),
))

_PATTERNSPEC = Field("", "an object", rows=(
    Field("format", None, check=_format(PATTERNSPEC_FORMAT, "patternspec")),
    Field("specs", "an array", check=_must(
        bool, "must carry at least one pattern spec"
    ), each=Field("", "an object", rows=(
        Field("name", "a string", unique=_NAMED_ONCE, check=_must(
            _PATTERN_NAME_RE.match,
            f"must be a DSL pattern name ({_NAME_GRAMMAR}), got {{!r}}",
        )),
        Field("aggressors", "an array", each=Field("", "an object"),
              check=_must(bool, "must carry at least one aggressor")),
    ))),
    _PROVENANCE,
))

_MANIFEST = Field("", "an object", rows=(
    Field("format", None, check=_format(MANIFEST_FORMAT, "manifest")),
    Field("group_by", "a string"),
    Field("n_measurements", "an integer", ">= 0"),
    Field("results_digest", "a string", check=_SHA256),
    Field("shards", "an array", each=Field("", "an object", rows=(
        Field("name", "a string", unique=_NAMED_ONCE, check=_must(
            lambda name: name and not (
                "/" in name or "\\" in name or name.startswith(".")
            ),
            "must be a bare file name next to the manifest, got {!r}",
        )),
        Field("module", "a string"),
        Field("n_measurements", "an integer", ">= 0"),
        Field("bytes", "an integer", "> 0"),
        Field("sha256", "a string", check=_SHA256),
    ))),
    _shard_sum,
))


# -------------------------------------------------------------- validators


def validate_measurement_record(
    rec, path: str, source: Optional[str] = None
) -> Tuple[str, int, str, float, int]:
    """Validate one dumped measurement record (dump or journal entry).

    Returns the record's identity ``(module_key, die, pattern, t_on,
    trial)`` so callers can detect duplicates without re-reading fields.
    """
    _walk(rec, _MEASUREMENT, path, source)
    return _measurement_identity(rec)


def validate_results_payload(payload, source: Optional[str] = None) -> Dict:
    """Validate a parsed ResultSet dump; returns ``{"legacy": bool}``.

    Accepts the versioned ``repro-results-v1`` envelope, the envelope
    without a ``format`` field, and the original flat record list (both
    legacy -> ``{"legacy": True}``, so the caller can warn).  Unknown
    format versions and duplicate ``(module, die, pattern, t, trial)``
    records are rejected.
    """
    if isinstance(payload, list):
        _walk(payload, _RESULT_RECORDS, "$", source)
        return {"legacy": True}
    _walk(payload, _RESULTS, "$", source)
    return {"legacy": payload.get("format") is None}


def validate_mitigation_record(
    rec, path: str, source: Optional[str] = None
) -> Tuple[str, str, str, float]:
    """Validate one mitigation-campaign point record.

    Returns the record's identity ``(chip_key, mitigation, pattern,
    t_on)`` so callers can detect duplicates without re-reading fields.
    """
    _walk(rec, _MITIGATION, path, source)
    return _mitigation_identity(rec)


def validate_mitigation_payload(payload, source: Optional[str] = None) -> Dict:
    """Validate a parsed ``repro-mitigation-v1`` dump.

    Unlike results dumps there is no legacy shape to accept: the format
    field is required, unknown versions and duplicate ``(chip_key,
    mitigation, pattern, t_on)`` records are rejected.
    """
    _walk(payload, _MITIGATION_DUMP, "$", source)
    return payload


def validate_journal_header(header, source: Optional[str] = None) -> Dict:
    """Validate a checkpoint journal's header line (parsed)."""
    _walk(header, _JOURNAL_HEADER, "$", source)
    return header


def validate_journal_entry(
    entry,
    line_no: int,
    source: Optional[str] = None,
    entries: Optional[str] = None,
) -> int:
    """Validate one shard entry line; returns the shard index.

    ``line_no`` is the 1-based journal line the entry came from, used in
    the JSON-path prefix (``line 3: $.shard ...``).  ``entries`` is the
    header's declared record format: ``None`` for characterization
    measurements, :data:`MITIGATION_POINT_FORMAT` for mitigation points.
    """
    mitigation = entries == MITIGATION_POINT_FORMAT
    spec = _JOURNAL_ENTRY[MITIGATION_POINT_FORMAT if mitigation else None]
    _walk(entry, spec, f"line {line_no}: $", source)
    return entry["shard"]


def check_journal_shard(
    shard: int,
    line_no: int,
    seen: Dict[int, int],
    n_shards: int,
    source: Optional[str] = None,
) -> None:
    """The one "one shard per journal line" rule.

    ``shard`` is the index :func:`validate_journal_entry` returned for
    line ``line_no``; ``seen`` maps every index recorded on an earlier
    line to that line, and gains this one.  An index recorded twice, or
    one the header's ``n_shards`` does not cover, raises
    :class:`~repro.errors.ArtifactInvalidError`.  ``validate`` and
    :meth:`~repro.core.checkpoint.CheckpointJournal.load` both apply it.
    """
    where = f"line {line_no}: $.shard"
    if shard in seen:
        _fail(source, where, f"{shard} was already recorded on line "
              f"{seen[shard]}")
    if shard >= n_shards:
        _fail(source, where, f"is {shard}, but the header declares only "
              f"{n_shards} shard(s)")
    seen[shard] = line_no


def validate_metrics_payload(payload, source: Optional[str] = None) -> Dict:
    """Validate a parsed ``repro-metrics-v1`` report."""
    _walk(payload, _METRICS, "$", source)
    return payload


def validate_trace_event(
    event, line_no: int, source: Optional[str] = None
) -> str:
    """Validate one parsed trace line; returns the event name."""
    _walk(event, _TRACE_EVENT, f"line {line_no}: $", source)
    return event["event"]


def validate_bench_payload(payload, source: Optional[str] = None) -> Dict:
    """Validate a parsed ``BENCH_sweep.json`` record."""
    _walk(payload, _BENCH, "$", source)
    return payload


def validate_patternspec_payload(payload, source: Optional[str] = None) -> Dict:
    """Validate a parsed ``repro-patternspec-v1`` bundle (shape only).

    Whether each spec compiles is checked by
    :func:`repro.validate.validate_artifact`, which re-builds every spec
    through ``PatternSpec.from_dict``.
    """
    _walk(payload, _PATTERNSPEC, "$", source)
    return payload


def validate_manifest_payload(payload, source: Optional[str] = None) -> Dict:
    """Validate a parsed ``repro-flipshards-v1`` manifest (shape only).

    Shard existence and digests are checked by
    :func:`repro.validate.validate_artifact`, next to the manifest.
    """
    _walk(payload, _MANIFEST, "$", source)
    return payload
