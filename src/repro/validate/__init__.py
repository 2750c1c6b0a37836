"""Artifact validation: schema, integrity, physical invariants, provenance.

``repro.validate`` is the trust layer over every artifact the campaign
machinery writes: ResultSet dumps, checkpoint journals, metrics reports,
JSONL traces, and benchmark records.  It answers one question -- *can
this file feed analysis or a resume?* -- in four layers:

1. **integrity** (:mod:`repro.validate.integrity`): the bytes match
   their sha256 sidecar, so any flipped bit raises
   :class:`~repro.errors.ArtifactCorruptError` instead of poisoning a
   figure;
2. **schema** (:mod:`repro.validate.schema`): the payload matches its
   versioned format, with path-to-field
   :class:`~repro.errors.ArtifactInvalidError` messages;
3. **physical invariants** (:mod:`repro.validate.invariants`): result
   artifacts obey the paper's claims (ACmin monotonicity, the
   Observation 1-3 orderings, Table 2 anchor drift) --
   :class:`~repro.errors.InvariantViolationError` otherwise;
4. **provenance** (:mod:`repro.validate.provenance`): the recorded
   Python/numpy/platform/seed-scheme stamp is compared against the
   current environment, with drift surfaced as warnings.

:func:`validate_artifact` runs the applicable layers on one file (kind
auto-detected from content); :func:`validate_paths` drives a batch and
feeds the CLI's ``validate`` mode.  The heavy invariant machinery is
imported lazily so the writers (``core/results.py`` imports the schema
validators) never pay for it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactInvalidError,
)
from repro.validate import integrity
from repro.validate.provenance import check_provenance, provenance_stamp
from repro.validate.schema import (
    BENCH_FORMAT,
    JOURNAL_FORMAT,
    MANIFEST_FORMAT,
    METRICS_FORMAT,
    MITIGATION_FORMAT,
    PATTERNSPEC_FORMAT,
    RESULTS_FORMAT,
    check_journal_shard,
    validate_bench_payload,
    validate_journal_entry,
    validate_journal_header,
    validate_manifest_payload,
    validate_metrics_payload,
    validate_mitigation_payload,
    validate_patternspec_payload,
    validate_results_payload,
    validate_trace_event,
)

PathLike = Union[str, os.PathLike]

__all__ = [
    "ARTIFACT_KINDS",
    "ArtifactReport",
    "detect_kind",
    "validate_artifact",
    "validate_paths",
    "check_provenance",
    "provenance_stamp",
    # re-exported lazily via __getattr__ (see module docstring):
    "check_result_invariants",
    "require_result_invariants",
    "check_mitigation_invariants",
    "require_mitigation_invariants",
    "check_cross_executor",
    "results_digest",
    "mitigation_results_digest",
]

#: Artifact kinds :func:`detect_kind` can identify.
ARTIFACT_KINDS = (
    "results", "mitigation", "checkpoint", "metrics", "trace", "bench",
    "manifest", "patternspec", "sidecar",
)

#: Names re-exported from the lazily imported invariants module.
_LAZY = (
    "check_result_invariants",
    "require_result_invariants",
    "check_mitigation_invariants",
    "require_mitigation_invariants",
    "check_cross_executor",
    "results_digest",
    "mitigation_results_digest",
)


def __getattr__(name: str):
    # Lazy re-export: invariants imports core.results, which imports our
    # schema module -- resolving it at first use keeps the package
    # importable from the writers without a cycle.
    if name in _LAZY:
        from repro.validate import invariants

        return getattr(invariants, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class ArtifactReport:
    """The outcome of validating one artifact."""

    path: str
    kind: str
    digest_verified: bool = False
    legacy: bool = False
    n_records: int = 0
    warnings: List[str] = field(default_factory=list)

    def describe(self) -> str:
        bits = [self.kind]
        bits.append(
            "digest verified" if self.digest_verified else "no digest sidecar"
        )
        if self.legacy:
            bits.append("legacy format")
        if self.n_records:
            bits.append(f"{self.n_records} record(s)")
        return ", ".join(bits)


# ------------------------------------------------------------- detection


def _decode(path, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArtifactCorruptError(
            f"{path}: artifact is not valid UTF-8 ({exc}); the file was "
            f"truncated or corrupted"
        ) from exc


def _parse_json(path, text: str, what: str = "artifact"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactCorruptError(
            f"{path}: {what} is not parseable JSON ({exc}); the file was "
            f"truncated or corrupted"
        ) from exc


def detect_kind(path: PathLike, raw: Optional[bytes] = None) -> str:
    """Identify an artifact's kind from its content (not its name).

    The one filename-based case is ``*.sha256`` digest sidecars; every
    other kind is recognized by its parsed shape.  Unrecognizable
    content raises :class:`~repro.errors.ArtifactInvalidError` (or
    :class:`~repro.errors.ArtifactCorruptError` when it does not parse
    at all).
    """
    if str(path).endswith(".sha256"):
        return "sidecar"
    if raw is None:
        raw = _read_bytes(path)
    text = _decode(path, raw)
    stripped = text.strip()
    if not stripped:
        raise ArtifactInvalidError(f"{path}: artifact is empty")
    lines = stripped.splitlines()
    try:
        payload = json.loads(stripped)
    except json.JSONDecodeError:
        payload = None
    if payload is not None and len(lines) == 1 and isinstance(payload, dict):
        # One-line JSONL files (a header-only journal, a one-event
        # trace) parse as a single document too -- classify by shape.
        if payload.get("format") == JOURNAL_FORMAT:
            return "checkpoint"
        if "event" in payload and "t" in payload:
            return "trace"
    if isinstance(payload, list):
        return "results"
    if isinstance(payload, dict):
        fmt = payload.get("format")
        if fmt == RESULTS_FORMAT or "measurements" in payload:
            return "results"
        if fmt == MITIGATION_FORMAT or "points" in payload:
            return "mitigation"
        if fmt == METRICS_FORMAT or "counters" in payload:
            return "metrics"
        if fmt == BENCH_FORMAT or "speedup_vs_seed" in payload:
            return "bench"
        if fmt == MANIFEST_FORMAT or "shards" in payload:
            return "manifest"
        if fmt == PATTERNSPEC_FORMAT or "specs" in payload:
            return "patternspec"
        raise ArtifactInvalidError(
            f"{path}: $ is a JSON object of no known artifact kind "
            f"(format={fmt!r}; expected one of {RESULTS_FORMAT!r}, "
            f"{MITIGATION_FORMAT!r}, {METRICS_FORMAT!r}, {BENCH_FORMAT!r}, "
            f"{MANIFEST_FORMAT!r}, {PATTERNSPEC_FORMAT!r})"
        )
    # Multi-line content that is not one JSON document: JSONL.  Classify
    # by the first line; a first line that does not parse means a torn
    # header -- corruption, not a kind-detection failure.
    first = _parse_json(path, lines[0], what="first line")
    if isinstance(first, dict) and first.get("format") == JOURNAL_FORMAT:
        return "checkpoint"
    if isinstance(first, dict) and "event" in first and "t" in first:
        return "trace"
    raise ArtifactInvalidError(
        f"{path}: line 1 is JSON of no known artifact kind "
        f"({type(first).__name__}); expected a {JOURNAL_FORMAT!r} header "
        f"or a trace event"
    )


def _read_bytes(path: PathLike) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ArtifactInvalidError(f"{path}: cannot read artifact: {exc}") from exc


# ------------------------------------------------------------ validation


def validate_artifact(
    path: PathLike,
    kind: Optional[str] = None,
    check_invariants: bool = True,
) -> ArtifactReport:
    """Validate one artifact through every applicable layer.

    Verifies the digest sidecar when one exists, parses and
    schema-validates the payload, runs the physical-invariant guards on
    result artifacts (``check_invariants=False`` skips them), and
    reports provenance drift as warnings.  Raises the
    :class:`~repro.errors.ArtifactError` family on any failure; returns
    an :class:`ArtifactReport` on success.
    """
    if kind is None and str(path).endswith(".sha256"):
        return _validate_sidecar(path)
    raw = _read_bytes(path)
    if kind is None:
        try:
            kind = detect_kind(path, raw)
        except ArtifactInvalidError:
            # Undetectable content next to a digest sidecar: check the
            # bytes first -- a flipped bit that mangles the shape should
            # surface as corruption, not as an unknown kind.  (The
            # journal-aware check also covers plain sidecars: a full
            # content match falls out of its first comparison.)
            if integrity.has_digest(path):
                integrity.verify_journal_bytes(path, raw)
            raise
    if kind not in ARTIFACT_KINDS:
        raise ArtifactInvalidError(
            f"{path}: unknown artifact kind {kind!r} "
            f"(expected one of {list(ARTIFACT_KINDS)})"
        )
    if kind == "sidecar":
        return _validate_sidecar(path)
    report = ArtifactReport(path=str(path), kind=kind)
    if kind == "checkpoint":
        # An append-only journal with the crash-window-tolerant
        # running-hash sidecar discipline.
        verified, note = integrity.verify_journal_bytes(path, raw)
        report.digest_verified = verified
        if note:
            report.warnings.append(note)
    else:
        from repro.atomicio import read_digest

        recorded = read_digest(path)
        if recorded is not None:
            actual = integrity.sha256_bytes(raw)
            if actual != recorded:
                raise ArtifactCorruptError(
                    f"{path}: content digest mismatch -- file hashes to "
                    f"sha256:{actual} but its sidecar records "
                    f"sha256:{recorded}; the artifact was modified or "
                    f"corrupted after it was written"
                )
            report.digest_verified = True
    text = _decode(path, raw)

    if kind == "results":
        payload = _parse_json(path, text)
        outcome = validate_results_payload(payload, source=str(path))
        report.legacy = outcome["legacy"]
        records = payload if isinstance(payload, list) else payload["measurements"]
        report.n_records = len(records)
        if report.legacy:
            report.warnings.append(
                f"legacy results dump (no "
                f"'format': {RESULTS_FORMAT!r} field); re-dump to upgrade"
            )
        if check_invariants:
            from repro.core.results import ResultSet
            from repro.validate.invariants import require_result_invariants

            require_result_invariants(
                ResultSet.from_payload(payload, outcome), source=str(path)
            )
    elif kind == "mitigation":
        payload = _parse_json(path, text)
        validate_mitigation_payload(payload, source=str(path))
        report.n_records = len(payload["points"])
        if check_invariants:
            # Lazy: the campaign machinery (engine, executors) must not
            # load for pure schema checks on other artifact kinds.
            from repro.mitigations.campaign import MitigationResults
            from repro.validate.invariants import (
                require_mitigation_invariants,
            )

            require_mitigation_invariants(
                MitigationResults.from_payload(payload), source=str(path)
            )
    elif kind == "checkpoint":
        report.n_records, warnings = _validate_journal_text(path, raw)
        report.warnings.extend(warnings)
    elif kind == "metrics":
        payload = _parse_json(path, text)
        validate_metrics_payload(payload, source=str(path))
        report.n_records = len(payload.get("counters", {}))
        if "provenance" in payload:
            report.warnings.extend(check_provenance(payload["provenance"]))
    elif kind == "trace":
        report.n_records, warnings = _validate_trace_text(path, raw)
        report.warnings.extend(warnings)
    elif kind == "manifest":
        payload = _parse_json(path, text)
        validate_manifest_payload(payload, source=str(path))
        report.n_records = payload["n_measurements"]
        report.warnings.extend(_verify_manifest_shards(path, payload))
    elif kind == "patternspec":
        payload = _parse_json(path, text)
        validate_patternspec_payload(payload, source=str(path))
        report.n_records = len(payload["specs"])
        if "provenance" in payload:
            report.warnings.extend(check_provenance(payload["provenance"]))
        if check_invariants:
            # Semantic layer: every spec must actually compile -- the
            # DSL's own validation (overlap rules, timing floors, the
            # iteration runtime bound) is the invariant surface here.
            from repro.errors import PatternSpecError
            from repro.patterns.dsl import PatternSpec

            for i, spec in enumerate(payload["specs"]):
                try:
                    PatternSpec.from_dict(spec)
                except PatternSpecError as exc:
                    raise ArtifactInvalidError(
                        f"{path}: $.specs[{i}] does not compile: {exc}"
                    ) from exc
    else:  # bench
        payload = _parse_json(path, text)
        validate_bench_payload(payload, source=str(path))
        report.n_records = len(payload.get("seconds", {}))
    return report


def _verify_manifest_shards(path: PathLike, payload: Dict) -> List[str]:
    """Digest-check every shard a manifest names, one file at a time.

    Each shard's bytes are streamed through sha256
    (:func:`repro.atomicio.sha256_file`) and compared against the
    manifest record by :func:`~repro.validate.integrity.verify_sealed_shard`
    -- the population is never parsed, let alone materialized, so
    validation memory stays flat no matter how many measurements the
    shards hold.
    """
    for shard in payload["shards"]:
        integrity.verify_sealed_shard(path, shard)
    return [f"verified {len(payload['shards'])} shard digest(s)"]


def _validate_sidecar(path: PathLike) -> ArtifactReport:
    """A ``*.sha256`` sidecar validates the artifact it names."""
    from repro.atomicio import verify_digest

    target = str(path)[: -len(".sha256")]
    if not os.path.exists(target):
        raise ArtifactInvalidError(
            f"{path}: digest sidecar names {target}, which does not exist"
        )
    verify_digest(target, required=True)
    return ArtifactReport(
        path=str(path), kind="sidecar", digest_verified=True,
        warnings=[f"verified the digest of {target}"],
    )


def _journal_records(
    path: PathLike, raw: bytes, what: str, torn_note: str
) -> Tuple[List[Tuple[int, object]], List[str]]:
    """Split JSONL bytes through the loaders' own torn-line rule.

    :func:`repro.core.checkpoint.split_journal` decides what is
    committed; a torn tail becomes a warning ending in ``torn_note``.
    """
    from repro.core.checkpoint import split_journal

    try:
        records, torn = split_journal(raw)
    except ArtifactCorruptError as exc:
        raise ArtifactCorruptError(
            f"{path}: {what} is corrupted: {exc}"
        ) from exc
    if not records:
        raise ArtifactInvalidError(f"{path}: {what} is empty")
    warnings: List[str] = []
    if torn is not None:
        number = raw.count(b"\n", 0, torn) + 1
        warnings.append(
            f"line {number} is torn (crash mid-append: no terminating "
            f"newline); {torn_note}"
        )
    return records, warnings


def _validate_journal_text(
    path: PathLike, raw: bytes
) -> Tuple[int, List[str]]:
    """Schema-validate a checkpoint journal line by line."""
    lines, warnings = _journal_records(
        path, raw, "checkpoint journal",
        "a resume will drop it and re-measure its shard",
    )
    header = validate_journal_header(lines[0][1], source=str(path))
    if "provenance" in header:
        warnings.extend(check_provenance(header["provenance"]))
    n_shards = header["n_shards"]
    seen: Dict[int, int] = {}
    for number, entry in lines[1:]:
        shard = validate_journal_entry(
            entry, number, source=str(path), entries=header.get("entries")
        )
        check_journal_shard(shard, number, seen, n_shards, source=str(path))
    return len(seen), warnings


def _validate_trace_text(path: PathLike, raw: bytes) -> Tuple[int, List[str]]:
    """Schema-validate a JSONL trace line by line."""
    lines, warnings = _journal_records(
        path, raw, "trace", "every preceding event is intact"
    )
    for number, event in lines:
        validate_trace_event(event, number, source=str(path))
    return len(lines), warnings


def validate_paths(
    paths: Sequence[PathLike],
    check_invariants: bool = True,
) -> List[Tuple[str, Optional[ArtifactReport], Optional[ArtifactError]]]:
    """Validate a batch of artifacts, capturing per-path outcomes.

    Returns one ``(path, report, error)`` triple per input path --
    exactly one of ``report`` / ``error`` is set.  Non-artifact errors
    (bugs) propagate; the :class:`~repro.errors.ArtifactError` family is
    captured so one bad file does not mask the others.
    """
    outcomes: List[
        Tuple[str, Optional[ArtifactReport], Optional[ArtifactError]]
    ] = []
    for path in paths:
        try:
            report = validate_artifact(path, check_invariants=check_invariants)
        except ArtifactError as exc:
            outcomes.append((str(path), None, exc))
        else:
            outcomes.append((str(path), report, None))
    return outcomes
