"""Dependency-free schema validators for every on-disk artifact.

One validator per artifact family, all pure functions over already-parsed
payloads (the caller owns file I/O and digest verification):

* :func:`validate_results_payload`   -- ResultSet dumps (``repro-results-v1``
  and the legacy unversioned shapes);
* :func:`validate_journal_header` / :func:`validate_journal_entry`
  -- checkpoint journals (``repro-checkpoint-v1``);
* :func:`validate_metrics_payload`   -- metrics reports (``repro-metrics-v1``);
* :func:`validate_trace_event`       -- JSONL trace lines;
* :func:`validate_bench_payload`     -- ``BENCH_sweep.json`` records;
* :func:`validate_manifest_payload`  -- sharded-population manifests
  (``repro-flipshards-v1``);
* :func:`validate_patternspec_payload` -- pattern-DSL spec bundles
  (``repro-patternspec-v1``; shape only -- the semantic compile check
  lives in :func:`repro.validate.validate_artifact`, which re-builds
  every spec through ``PatternSpec.from_dict``).

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
from typing import Dict, List, Optional, Tuple

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


def _fail(source: Optional[str], path: str, problem: str) -> None:
    prefix = f"{source}: " if source else ""
    raise ArtifactInvalidError(f"{prefix}{path} {problem}")


def _typename(value) -> str:
    return type(value).__name__


def _require(payload, path: str, types, source: Optional[str], label: str):
    """``payload`` must be one of ``types`` (bool never passes as int)."""
    if isinstance(payload, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        _fail(source, path, f"must be {label}, got bool")
    if not isinstance(payload, types):
        _fail(source, path, f"must be {label}, got {_typename(payload)}")
    return payload


def _require_dict(payload, path: str, source: Optional[str]) -> Dict:
    return _require(payload, path, dict, source, "an object")


def _require_list(payload, path: str, source: Optional[str]) -> List:
    return _require(payload, path, list, source, "an array")


def _require_finite(payload, path: str, source: Optional[str]):
    _require(payload, path, (int, float), source, "a number")
    if isinstance(payload, float) and not math.isfinite(payload):
        _fail(source, path, f"must be finite, got {payload!r}")
    return payload


def _get(obj: Dict, key: str, path: str, source: Optional[str]):
    if key not in obj:
        _fail(source, f"{path}.{key}", "is missing")
    return obj[key]


# ----------------------------------------------------------------- results


def validate_measurement_record(
    rec, path: str, source: Optional[str] = None
) -> Tuple[str, int, str, float, int]:
    """Validate one dumped measurement record (dump or journal entry).

    Returns the record's identity ``(module_key, die, pattern, t_on,
    trial)`` so callers can detect duplicates without re-reading fields.
    """
    _require_dict(rec, path, source)
    module_key = _require(
        _get(rec, "module_key", path, source),
        f"{path}.module_key", str, source, "a string",
    )
    _require(
        _get(rec, "manufacturer", path, source),
        f"{path}.manufacturer", str, source, "a string",
    )
    die = _require(
        _get(rec, "die", path, source), f"{path}.die", int, source, "an integer"
    )
    if die < 0:
        _fail(source, f"{path}.die", f"must be >= 0, got {die}")
    pattern = _require(
        _get(rec, "pattern", path, source),
        f"{path}.pattern", str, source, "a string",
    )
    if not is_known_pattern_name(pattern):
        _fail(
            source,
            f"{path}.pattern",
            f"must be one of {list(KNOWN_PATTERNS)} or a DSL pattern name "
            f"(lowercase [a-z0-9+._-], 64 chars max), got {pattern!r}",
        )
    t_on = _require_finite(
        _get(rec, "t_on", path, source), f"{path}.t_on", source
    )
    if t_on <= 0:
        _fail(source, f"{path}.t_on", f"must be > 0 ns, got {t_on!r}")
    trial = _require(
        _get(rec, "trial", path, source),
        f"{path}.trial", int, source, "an integer",
    )
    if trial < 0:
        _fail(source, f"{path}.trial", f"must be >= 0, got {trial}")

    acmin = _get(rec, "acmin", path, source)
    if acmin is not None:
        _require(acmin, f"{path}.acmin", int, source, "an integer or null")
        if acmin <= 0:
            _fail(source, f"{path}.acmin", f"must be > 0, got {acmin}")
    time_to_first = _get(rec, "time_to_first_ns", path, source)
    if time_to_first is not None:
        _require_finite(time_to_first, f"{path}.time_to_first_ns", source)
        if time_to_first <= 0:
            _fail(
                source,
                f"{path}.time_to_first_ns",
                f"must be > 0 ns, got {time_to_first!r}",
            )
    # A censored cell (no bitflip) has no ACmin and therefore no time.
    # The converse is not enforced: a non-finite time_to_first_ns is
    # sanitized to null at serialization while acmin stays set.
    if acmin is None and time_to_first is not None:
        _fail(
            source,
            f"{path}.time_to_first_ns",
            f"must be null when acmin is null (no bitflip means no "
            f"time-to-first), got {time_to_first!r}",
        )

    for census_key in ("flips_1_to_0", "flips_0_to_1"):
        flips = rec.get(census_key)
        if flips is None:
            continue
        _require_list(flips, f"{path}.{census_key}", source)
        for i, coord in enumerate(flips):
            coord_path = f"{path}.{census_key}[{i}]"
            _require(coord, coord_path, (list, tuple), source, "a [row, col] pair")
            if len(coord) != 2:
                _fail(
                    source, coord_path,
                    f"must be a [row, col] pair, got {len(coord)} element(s)",
                )
            for j, axis in enumerate(coord):
                _require(
                    axis, f"{coord_path}[{j}]", int, source, "an integer"
                )
    return (module_key, die, pattern, float(t_on), trial)


def validate_results_payload(payload, source: Optional[str] = None) -> Dict:
    """Validate a parsed ResultSet dump; returns ``{"legacy": bool}``.

    Accepts the versioned ``repro-results-v1`` envelope, the envelope
    without a ``format`` field, and the original flat record list (both
    legacy -> ``{"legacy": True}``, so the caller can warn).  Unknown
    format versions and duplicate ``(module, die, pattern, t, trial)``
    records are rejected.
    """
    if isinstance(payload, list):
        records, legacy = payload, True
        records_path = "$"
    else:
        _require_dict(payload, "$", source)
        fmt = payload.get("format")
        legacy = fmt is None
        if fmt is not None and fmt != RESULTS_FORMAT:
            _fail(
                source, "$.format",
                f"has unknown results format {fmt!r} "
                f"(this library reads {RESULTS_FORMAT!r})",
            )
        _require(
            _get(payload, "census_included", "$", source),
            "$.census_included", bool, source, "a boolean",
        )
        records = _require_list(
            _get(payload, "measurements", "$", source), "$.measurements", source
        )
        records_path = "$.measurements"
    seen: Dict[Tuple, int] = {}
    for i, rec in enumerate(records):
        identity = validate_measurement_record(
            rec, f"{records_path}[{i}]", source
        )
        if identity in seen:
            _fail(
                source,
                f"{records_path}[{i}]",
                f"duplicates {records_path}[{seen[identity]}]: "
                f"(module_key={identity[0]!r}, die={identity[1]}, "
                f"pattern={identity[2]!r}, t_on={identity[3]!r}, "
                f"trial={identity[4]}) measured twice",
            )
        seen[identity] = i
    return {"legacy": legacy}


# -------------------------------------------------------------- mitigation


def validate_mitigation_record(
    rec, path: str, source: Optional[str] = None
) -> Tuple[str, str, str, float]:
    """Validate one mitigation-campaign point record.

    Returns the record's identity ``(chip_key, mitigation, pattern,
    t_on)`` so callers can detect duplicates without re-reading fields.
    """
    _require_dict(rec, path, source)
    chip_key = _require(
        _get(rec, "chip_key", path, source),
        f"{path}.chip_key", str, source, "a string",
    )
    mitigation = _require(
        _get(rec, "mitigation", path, source),
        f"{path}.mitigation", str, source, "a string",
    )
    if mitigation not in KNOWN_MITIGATIONS:
        _fail(
            source,
            f"{path}.mitigation",
            f"must be one of {list(KNOWN_MITIGATIONS)}, got {mitigation!r}",
        )
    pattern = _require(
        _get(rec, "pattern", path, source),
        f"{path}.pattern", str, source, "a string",
    )
    if not is_known_pattern_name(pattern):
        _fail(
            source,
            f"{path}.pattern",
            f"must be one of {list(KNOWN_PATTERNS)} or a DSL pattern name "
            f"(lowercase [a-z0-9+._-], 64 chars max), got {pattern!r}",
        )
    t_on = _require_finite(
        _get(rec, "t_on", path, source), f"{path}.t_on", source
    )
    if t_on <= 0:
        _fail(source, f"{path}.t_on", f"must be > 0 ns, got {t_on!r}")

    acmin = _get(rec, "baseline_acmin", path, source)
    if acmin is not None:
        _require(
            acmin, f"{path}.baseline_acmin", int, source,
            "an integer or null",
        )
        if acmin <= 0:
            _fail(source, f"{path}.baseline_acmin", f"must be > 0, got {acmin}")
    iterations = _get(rec, "baseline_iterations", path, source)
    if iterations is not None:
        _require(
            iterations, f"{path}.baseline_iterations", int, source,
            "an integer or null",
        )
        if iterations <= 0:
            _fail(
                source, f"{path}.baseline_iterations",
                f"must be > 0, got {iterations}",
            )
    time_to_first = _get(rec, "time_to_first_ns", path, source)
    if time_to_first is not None:
        _require_finite(time_to_first, f"{path}.time_to_first_ns", source)
        if time_to_first <= 0:
            _fail(
                source, f"{path}.time_to_first_ns",
                f"must be > 0 ns, got {time_to_first!r}",
            )
    # A point with no baseline bitflip has neither a time to first flip
    # nor a critical-parameter search.
    if acmin is None and time_to_first is not None:
        _fail(
            source,
            f"{path}.time_to_first_ns",
            f"must be null when baseline_acmin is null (no baseline "
            f"bitflip means no time-to-first), got {time_to_first!r}",
        )

    critical = _get(rec, "critical_value", path, source)
    if critical is not None:
        _require_finite(critical, f"{path}.critical_value", source)
        if critical <= 0:
            _fail(
                source, f"{path}.critical_value",
                f"must be > 0, got {critical!r}",
            )
    for key in ("protects_at", "fails_at"):
        value = _get(rec, key, path, source)
        if value is not None:
            _require_finite(value, f"{path}.{key}", source)
    n_runs = _require(
        _get(rec, "n_runs", path, source),
        f"{path}.n_runs", int, source, "an integer",
    )
    if n_runs < 0:
        _fail(source, f"{path}.n_runs", f"must be >= 0, got {n_runs}")
    for key in (
        "cap_hit",
        "defeated",
        "protected_by_trefw",
        "protected_by_trefw_quarter",
    ):
        _require(
            _get(rec, key, path, source), f"{path}.{key}", bool, source,
            "a boolean",
        )
    if rec["defeated"] and critical is not None:
        _fail(
            source,
            f"{path}.critical_value",
            f"must be null when defeated is true (no finite parameter "
            f"protects), got {critical!r}",
        )
    if rec["cap_hit"] and rec["fails_at"] is not None:
        _fail(
            source,
            f"{path}.fails_at",
            f"must be null when cap_hit is true (the ramp never found a "
            f"failing parameter), got {rec['fails_at']!r}",
        )
    # Probability mechanisms live in (0, 1]; a probability above 1 marks
    # a corrupted or hand-edited record.
    if (
        mitigation in ("para", "para-press")
        and critical is not None
        and critical > 1.0
    ):
        _fail(
            source,
            f"{path}.critical_value",
            f"must be a probability in (0, 1] for {mitigation!r}, "
            f"got {critical!r}",
        )
    return (chip_key, mitigation, pattern, float(t_on))


def validate_mitigation_payload(payload, source: Optional[str] = None) -> Dict:
    """Validate a parsed ``repro-mitigation-v1`` dump.

    Unlike results dumps there is no legacy shape to accept: the format
    field is required, unknown versions and duplicate ``(chip_key,
    mitigation, pattern, t_on)`` records are rejected.
    """
    _require_dict(payload, "$", source)
    fmt = _get(payload, "format", "$", source)
    if fmt != MITIGATION_FORMAT:
        _fail(
            source, "$.format",
            f"has unknown mitigation format {fmt!r} "
            f"(this library reads {MITIGATION_FORMAT!r})",
        )
    records = _require_list(
        _get(payload, "points", "$", source), "$.points", source
    )
    seen: Dict[Tuple, int] = {}
    for i, rec in enumerate(records):
        identity = validate_mitigation_record(rec, f"$.points[{i}]", source)
        if identity in seen:
            _fail(
                source,
                f"$.points[{i}]",
                f"duplicates $.points[{seen[identity]}]: "
                f"(chip_key={identity[0]!r}, mitigation={identity[1]!r}, "
                f"pattern={identity[2]!r}, t_on={identity[3]!r}) "
                f"evaluated twice",
            )
        seen[identity] = i
    return payload


# ----------------------------------------------------------------- journal


def validate_journal_header(header, source: Optional[str] = None) -> Dict:
    """Validate a checkpoint journal's header line (parsed)."""
    _require_dict(header, "$", source)
    fmt = _get(header, "format", "$", source)
    if fmt != JOURNAL_FORMAT:
        _fail(
            source, "$.format",
            f"has unknown journal format {fmt!r} "
            f"(this library reads {JOURNAL_FORMAT!r})",
        )
    _require(
        _get(header, "fingerprint", "$", source),
        "$.fingerprint", str, source, "a string",
    )
    n_shards = _require(
        _get(header, "n_shards", "$", source),
        "$.n_shards", int, source, "an integer",
    )
    if n_shards < 0:
        _fail(source, "$.n_shards", f"must be >= 0, got {n_shards}")
    entries = header.get("entries")
    if entries not in KNOWN_JOURNAL_ENTRIES:
        _fail(
            source, "$.entries",
            f"has unknown journal entry format {entries!r} (this library "
            f"reads {[e for e in KNOWN_JOURNAL_ENTRIES if e is not None]}, "
            f"or no entries field for characterization measurements)",
        )
    if "provenance" in header:
        _require_dict(header["provenance"], "$.provenance", source)
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
    path = f"line {line_no}: $"
    _require_dict(entry, path, source)
    shard = _require(
        _get(entry, "shard", path, source),
        f"{path}.shard", int, source, "an integer",
    )
    if shard < 0:
        _fail(source, f"{path}.shard", f"must be >= 0, got {shard}")
    records = _require_list(
        _get(entry, "measurements", path, source),
        f"{path}.measurements", source,
    )
    validate_record = (
        validate_mitigation_record
        if entries == MITIGATION_POINT_FORMAT
        else validate_measurement_record
    )
    for i, rec in enumerate(records):
        validate_record(rec, f"{path}.measurements[{i}]", source)
    return shard


# ----------------------------------------------------------------- metrics


def validate_metrics_payload(payload, source: Optional[str] = None) -> Dict:
    """Validate a parsed ``repro-metrics-v1`` report."""
    _require_dict(payload, "$", source)
    fmt = _get(payload, "format", "$", source)
    if fmt != METRICS_FORMAT:
        _fail(
            source, "$.format",
            f"has unknown metrics format {fmt!r} "
            f"(this library reads {METRICS_FORMAT!r})",
        )
    counters = _require_dict(
        _get(payload, "counters", "$", source), "$.counters", source
    )
    for name, value in counters.items():
        _require(
            value, f"$.counters.{name}", int, source, "an integer"
        )
        if value < 0:
            _fail(source, f"$.counters.{name}", f"must be >= 0, got {value}")
    gauges = _require_dict(
        _get(payload, "gauges", "$", source), "$.gauges", source
    )
    for name, value in gauges.items():
        if value is not None:  # sanitized non-finite gauges are null
            _require_finite(value, f"$.gauges.{name}", source)
    timers = _require_dict(
        _get(payload, "timers", "$", source), "$.timers", source
    )
    for name, summary in timers.items():
        tpath = f"$.timers.{name}"
        _require_dict(summary, tpath, source)
        count = _require(
            _get(summary, "count", tpath, source),
            f"{tpath}.count", int, source, "an integer",
        )
        if count < 0:
            _fail(source, f"{tpath}.count", f"must be >= 0, got {count}")
        for stat in ("total_s", "min_s", "max_s", "mean_s", "p50_s", "p90_s"):
            _require_finite(
                _get(summary, stat, tpath, source), f"{tpath}.{stat}", source
            )
    if "run" in payload:
        run = _require_dict(payload["run"], "$.run", source)
        for key in ("n_shards", "n_resumed", "n_executed", "n_retries"):
            value = _require(
                _get(run, key, "$.run", source),
                f"$.run.{key}", int, source, "an integer",
            )
            if value < 0:
                _fail(source, f"$.run.{key}", f"must be >= 0, got {value}")
    if "provenance" in payload:
        _require_dict(payload["provenance"], "$.provenance", source)
    return payload


# ------------------------------------------------------------------- trace


def validate_trace_event(
    event, line_no: int, source: Optional[str] = None
) -> str:
    """Validate one parsed trace line; returns the event name."""
    path = f"line {line_no}: $"
    _require_dict(event, path, source)
    name = _require(
        _get(event, "event", path, source),
        f"{path}.event", str, source, "a string",
    )
    t = _get(event, "t", path, source)
    _require_finite(t, f"{path}.t", source)
    if t < 0:
        _fail(source, f"{path}.t", f"must be a wall-clock timestamp, got {t!r}")
    return name


# ------------------------------------------------------------------- bench


def validate_bench_payload(payload, source: Optional[str] = None) -> Dict:
    """Validate a parsed ``BENCH_sweep.json`` record."""
    _require_dict(payload, "$", source)
    fmt = payload.get("format")
    if fmt is not None and fmt != BENCH_FORMAT:
        _fail(
            source, "$.format",
            f"has unknown bench format {fmt!r} "
            f"(this library reads {BENCH_FORMAT!r})",
        )
    _require_dict(_get(payload, "campaign", "$", source), "$.campaign", source)
    seconds = _require_dict(
        _get(payload, "seconds", "$", source), "$.seconds", source
    )
    for name, value in seconds.items():
        value = _require_finite(value, f"$.seconds.{name}", source)
        if value <= 0:
            _fail(source, f"$.seconds.{name}", f"must be > 0, got {value!r}")
    speedup = _get(payload, "speedup_vs_seed", "$", source)
    speedups = (
        speedup.items()
        if isinstance(speedup, dict)
        else (("", speedup),)
    )
    for name, value in speedups:
        spath = f"$.speedup_vs_seed.{name}" if name else "$.speedup_vs_seed"
        value = _require_finite(value, spath, source)
        if value <= 0:
            _fail(source, spath, f"must be > 0, got {value!r}")
    all_seconds = payload.get("all_seconds")
    if all_seconds is not None:
        _require_dict(all_seconds, "$.all_seconds", source)
        for name, values in all_seconds.items():
            vpath = f"$.all_seconds.{name}"
            _require_list(values, vpath, source)
            for i, value in enumerate(values):
                _require_finite(value, f"{vpath}[{i}]", source)
    return payload


# ------------------------------------------------------------- patternspec


def validate_patternspec_payload(payload, source: Optional[str] = None) -> Dict:
    """Validate a parsed ``repro-patternspec-v1`` bundle (shape only).

    The envelope carries the serialized DSL specs a campaign was
    configured with (``{"format": ..., "specs": [spec, ...],
    "provenance": {...}}``).  This layer checks the envelope and each
    spec's name/aggressors shape; whether a spec actually *compiles* is
    the semantic layer's job (:func:`repro.validate.validate_artifact`
    re-builds every spec through ``PatternSpec.from_dict``), keeping
    this module dependency-free.
    """
    _require_dict(payload, "$", source)
    fmt = _get(payload, "format", "$", source)
    if fmt != PATTERNSPEC_FORMAT:
        _fail(
            source, "$.format",
            f"has unknown patternspec format {fmt!r} "
            f"(this library reads {PATTERNSPEC_FORMAT!r})",
        )
    specs = _require_list(
        _get(payload, "specs", "$", source), "$.specs", source
    )
    if not specs:
        _fail(source, "$.specs", "must carry at least one pattern spec")
    seen: Dict[str, int] = {}
    for i, spec in enumerate(specs):
        spath = f"$.specs[{i}]"
        _require_dict(spec, spath, source)
        name = _require(
            _get(spec, "name", spath, source),
            f"{spath}.name", str, source, "a string",
        )
        if not _PATTERN_NAME_RE.match(name):
            _fail(
                source, f"{spath}.name",
                f"must be a DSL pattern name (lowercase [a-z0-9+._-], "
                f"64 chars max), got {name!r}",
            )
        if name in seen:
            _fail(
                source, f"{spath}.name",
                f"duplicates $.specs[{seen[name]}].name ({name!r})",
            )
        seen[name] = i
        aggressors = _require_list(
            _get(spec, "aggressors", spath, source),
            f"{spath}.aggressors", source,
        )
        if not aggressors:
            _fail(
                source, f"{spath}.aggressors",
                "must carry at least one aggressor",
            )
        for j, agg in enumerate(aggressors):
            _require_dict(agg, f"{spath}.aggressors[{j}]", source)
    if "provenance" in payload:
        _require_dict(payload["provenance"], "$.provenance", source)
    return payload


# ---------------------------------------------------------------- manifest


def validate_manifest_payload(payload, source: Optional[str] = None) -> Dict:
    """Validate a parsed sharded-population manifest.

    The manifest (``repro-flipshards-v1``, written by
    ``BitflipDatabase.export_shards``) names each shard file with its
    sha256 digest, byte size, and record count, plus the population
    total and the canonical ``results_digest``.  Only the payload shape
    is checked here -- shard existence and digest verification are the
    caller's (``repro.validate.validate_artifact``'s) job, since they
    require file I/O next to the manifest.
    """
    _require_dict(payload, "$", source)
    fmt = _get(payload, "format", "$", source)
    if fmt != MANIFEST_FORMAT:
        _fail(
            source, "$.format",
            f"has unknown manifest format {fmt!r} "
            f"(this library reads {MANIFEST_FORMAT!r})",
        )
    _require(
        _get(payload, "group_by", "$", source),
        "$.group_by", str, source, "a string",
    )
    total = _require(
        _get(payload, "n_measurements", "$", source),
        "$.n_measurements", int, source, "an integer",
    )
    if total < 0:
        _fail(source, "$.n_measurements", f"must be >= 0, got {total}")
    digest = _require(
        _get(payload, "results_digest", "$", source),
        "$.results_digest", str, source, "a string",
    )
    _require_sha256(digest, "$.results_digest", source)
    shards = _require_list(
        _get(payload, "shards", "$", source), "$.shards", source
    )
    seen_names: Dict[str, int] = {}
    counted = 0
    for i, shard in enumerate(shards):
        spath = f"$.shards[{i}]"
        _require_dict(shard, spath, source)
        name = _require(
            _get(shard, "name", spath, source),
            f"{spath}.name", str, source, "a string",
        )
        if not name or "/" in name or "\\" in name or name.startswith("."):
            _fail(
                source, f"{spath}.name",
                f"must be a bare file name next to the manifest, got {name!r}",
            )
        if name in seen_names:
            _fail(
                source, f"{spath}.name",
                f"duplicates $.shards[{seen_names[name]}].name ({name!r})",
            )
        seen_names[name] = i
        _require(
            _get(shard, "module", spath, source),
            f"{spath}.module", str, source, "a string",
        )
        count = _require(
            _get(shard, "n_measurements", spath, source),
            f"{spath}.n_measurements", int, source, "an integer",
        )
        if count < 0:
            _fail(source, f"{spath}.n_measurements", f"must be >= 0, got {count}")
        counted += count
        size = _require(
            _get(shard, "bytes", spath, source),
            f"{spath}.bytes", int, source, "an integer",
        )
        if size <= 0:
            _fail(source, f"{spath}.bytes", f"must be > 0, got {size}")
        _require_sha256(
            _require(
                _get(shard, "sha256", spath, source),
                f"{spath}.sha256", str, source, "a string",
            ),
            f"{spath}.sha256",
            source,
        )
    if counted != total:
        _fail(
            source, "$.n_measurements",
            f"is {total}, but the shards sum to {counted} measurement(s)",
        )
    return payload


def _require_sha256(value: str, path: str, source: Optional[str]) -> None:
    if len(value) != 64 or any(c not in "0123456789abcdef" for c in value):
        _fail(
            source, path,
            f"must be a lowercase sha256 hex digest (64 chars), got {value!r}",
        )
