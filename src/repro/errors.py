"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the failure domain (timing violations,
calibration failures, program assembly errors, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TimingViolationError(ReproError):
    """A DRAM command sequence violates a JEDEC timing constraint.

    Raised by the bender timing validator when, e.g., a row is precharged
    before ``tRAS`` has elapsed, or re-activated before ``tRP``.
    """


class ProgramError(ReproError):
    """A DRAM Bender program is malformed (bad operands, unbalanced loops,
    references to undefined labels, ...)."""


class DeviceStateError(ReproError):
    """A DRAM command was issued in an illegal device state.

    Examples: activating a bank that already has an open row, reading from
    a bank with no open row, precharging twice.
    """


class CalibrationError(ReproError):
    """The disturbance-model calibration failed to converge on a target
    anchor value (e.g. the bisection bracket never contained the target)."""


class ProfileError(ReproError):
    """An unknown chip profile was requested, or a profile definition is
    internally inconsistent."""


class ExperimentError(ReproError):
    """A characterization experiment was configured inconsistently
    (e.g. victim rows outside the bank, iteration budget of zero)."""


class PatternSpecError(ExperimentError):
    """A declarative pattern spec (:mod:`repro.patterns.dsl`) is invalid:
    no non-decoy aggressor, duplicate aggressor offsets, an on-time below
    ``tRAS``, a decoy adjacent to a victim, victims overlapping
    aggressors, a refresh-gap that blows the iteration-runtime bound, or
    a malformed name.  Subclasses :class:`ExperimentError` so every
    placement-error handler in the engine keeps working."""


class MitigationError(ReproError):
    """A read-disturbance mitigation mechanism was configured incorrectly."""


class ExecutorError(ReproError):
    """The sweep execution layer failed to run a campaign's shards.

    Base class of the executor failure domain; see
    :class:`ShardTimeoutError`, :class:`ShardFailedError`,
    :class:`ResultIntegrityError`, and :class:`PoolBrokenError` for the
    specific failure modes.
    """


class ShardTimeoutError(ExecutorError):
    """A shard exceeded its per-shard wall-clock timeout.

    Classified *transient*: the shard is retried (with backoff) up to the
    retry policy's ``max_retries``.
    """


class ResultIntegrityError(ExecutorError):
    """A shard returned measurements that do not match its work units
    (missing, duplicated, out-of-order, or mislabeled records).

    Classified *transient*: measurements are pure functions of the plan,
    so a re-run of the shard yields a clean result unless the corruption
    is deterministic.
    """


class PoolBrokenError(ExecutorError):
    """The process pool died repeatedly (more than the policy's
    ``max_pool_restarts``).  The engine reacts by degrading to the next
    executor in the ladder (process -> thread -> serial) instead of
    aborting the campaign."""


class ShardFailedError(ExecutorError):
    """A shard permanently failed: either its error is non-retryable
    (deterministic :class:`ReproError`\\ s recur on retry) or its retry
    budget is exhausted.  Raised with the underlying cause chained."""


class PreflightError(ReproError):
    """A mandatory session preflight check failed: the thermal loop did
    not settle, the refresh-window bound does not hold, TRR/ECC is not
    verified off, or the mapping reverse-engineered through the rig
    contradicts the module's declared row remapping.  Permanent:
    measurements taken on such a rig would not be trustworthy."""


class CheckpointError(ReproError):
    """A checkpoint journal cannot be used for this campaign (plan
    fingerprint mismatch, malformed journal, or entries inconsistent
    with the current plan)."""


class CheckpointBusyError(CheckpointError):
    """Another live writer holds the journal's advisory append lock.

    Two writers appending to one journal would interleave shard records
    (duplicate-shard corruption on the next load), so the journal takes
    an ``O_EXCL`` lockfile on open-for-append and raises this instead.
    A lock whose owning process is dead is reclaimed with a logged
    warning; a *live* owner is never displaced, and a writer whose
    lockfile no longer carries its token has its next append refused
    with this error rather than interleaving."""


class ArtifactError(ReproError):
    """An on-disk campaign artifact (result dump, checkpoint journal,
    metrics report, trace, benchmark record) cannot be trusted.

    Base class of the artifact-validation failure domain; see
    :class:`ArtifactInvalidError` (structure/schema),
    :class:`ArtifactCorruptError` (byte-level corruption), and
    :class:`InvariantViolationError` (physical-invariant violations).
    """


class ArtifactInvalidError(ArtifactError):
    """An artifact parses but violates its schema: wrong or unknown
    format version, a missing/mistyped field, or duplicate records.
    The message names the offending file and the JSON path of the first
    bad field (e.g. ``$.measurements[3].t_on``)."""


class ArtifactCorruptError(ArtifactError):
    """An artifact's bytes are damaged: its content digest does not
    match the recorded sha256 sidecar, or the file cannot be decoded or
    parsed at all.  The message names the file (and, for digest
    mismatches, both digests)."""


class InvariantViolationError(ArtifactError):
    """A result artifact violates a physical invariant of the paper
    (ACmin monotonicity vs tAggON, the pattern-ordering observations,
    Table 2 anchor drift, or cross-executor determinism).  Raised by
    :mod:`repro.validate.invariants` with every violation listed."""
