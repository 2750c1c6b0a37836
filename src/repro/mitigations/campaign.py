"""Mitigation stress-evaluation campaign.

Answers the paper's closing question (Section 5, "Implications")
quantitatively: *how much stronger must activation-count mitigations get
as ``tAggON`` grows?*  The campaign sweeps {mitigation x pattern x
tAggON x evaluation-chip profile} and emits a versioned
``repro-mitigation-v1`` artifact of per-point critical parameters.  It
is a second campaign kind on the characterization engine
(:mod:`repro.core.engine`): this module owns only the plan, the shard
runner, the point codec and the result container, and the engine's
campaign envelope (``start_campaign`` / ``run_plan`` /
``finish_campaign``) supplies checkpoint/resume, retries, the serial
fallback for a broken pool, observability and the ``validate=True``
self-check.

Per point, the campaign measures:

* the *bare* command-level baseline (ACmin and time-to-first-bitflip
  with no mitigation attached), which anchors the search budget and the
  refresh-window survival call;
* the critical mitigation parameter: smallest protecting probability for
  probability mechanisms (PARA and its press-weighted variant), largest
  protecting threshold for counting mechanisms (Graphene and its
  press-weighted variant), each as a bracketed
  :class:`~repro.mitigations.evaluator.CriticalParameter`;
* refresh-window survival: whether the victim's time to first bitflip
  exceeds ``tREFW`` (the first-line mitigation -- shrink the window --
  suffices) and ``tREFW/4``.

Determinism: every quantity derives from seeded RNG streams and a fresh
chip per protected run, never from execution order, so the campaign is
bit-identical across the serial, process and auto executors and across
checkpoint/resume.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.atomicio import atomic_write_text, write_digest
from repro.backend.base import build_session
from repro.constants import (
    DEFAULT_TIMINGS,
    T_AGG_ON_TRAS,
    T_AGG_ON_636NS,
    T_AGG_ON_TREFI,
    T_AGG_ON_9TREFI,
)
from repro.core.checkpoint import JournalCodec
from repro.core.engine import (
    SerialExecutor,
    finish_campaign,
    run_plan,
    start_campaign,
)
from repro.core.faults import RetryPolicy, RunReport
from repro.core.honest import measure_location_honest
from repro.core.results import finite_or_none, parse_dump_json, read_dump_text
from repro.bender.softmc import SoftMCSession
from repro.dram.chip import Chip
from repro.dram.datapattern import CHECKERBOARD
from repro.errors import (
    ExperimentError,
    MitigationError,
    ResultIntegrityError,
)
from repro.mitigations.evaluator import (
    GRAPHENE_SEARCH_CAP,
    CriticalParameter,
    MitigationEvaluator,
)
from repro.mitigations.graphene import Graphene
from repro.mitigations.para import Para
from repro.mitigations.timeaware import PressWeightedGraphene, PressWeightedPara
from repro.obs import Observability
from repro.patterns.base import ALL_PATTERNS, AccessPattern
from repro.testing import make_synthetic_chip, make_synthetic_model

__all__ = [
    "MITIGATION_T_VALUES",
    "EVAL_CHIP_PROFILES",
    "EvalChipProfile",
    "build_eval_chip",
    "MITIGATION_KINDS",
    "MitigationWorkUnit",
    "MitigationShard",
    "MitigationPlan",
    "MitigationPoint",
    "point_to_record",
    "point_from_record",
    "MITIGATION_CODEC",
    "MitigationResults",
    "MitigationWorkerSpec",
    "MitigationShardRunner",
    "mitigation_plan_fingerprint",
    "MitigationCampaign",
]

logger = logging.getLogger("repro.mitigations")

#: Default tAggON sweep: the paper's anchors from pure RowHammer (tRAS)
#: through the RowPress regime (636 ns, tREFI, 9 x tREFI).
MITIGATION_T_VALUES: Tuple[float, ...] = (
    T_AGG_ON_TRAS,
    T_AGG_ON_636NS,
    T_AGG_ON_TREFI,
    T_AGG_ON_9TREFI,
)


# ----------------------------------------------------- evaluation chips


@dataclass(frozen=True)
class EvalChipProfile:
    """A named synthetic evaluation chip, rebuildable from its key.

    Evaluation chips are deliberately small and weak (low flip
    thresholds) so command-level critical-parameter searches finish
    quickly; the key is all that crosses the process-pool boundary.
    """

    key: str
    theta_scale: float
    press_scale: float
    rows: int = 64
    anti_cell_fraction: float = 0.03
    description: str = ""


#: The profiled evaluation chips a process worker can rebuild by key.
#:
#: The press scales are deliberately high: the synthetic population keeps
#: hammer gain and press loss in *separate* per-cell accumulators, so
#: press lowers ACmin only once ``press_loss x coupling`` rivals the
#: hammer rate.  These profiles put that crossover at the paper's 636 ns
#: anchor, so the combined pattern's ACmin -- and with it the required
#: mitigation strength -- decreases at every tAggON anchor above tRAS,
#: the §5 effect the campaign quantifies.
EVAL_CHIP_PROFILES: Dict[str, EvalChipProfile] = {
    "E0": EvalChipProfile(
        key="E0",
        theta_scale=120.0,
        press_scale=6.0,
        description="baseline eval chip: press rivals hammer from the "
        "636 ns anchor up",
    ),
    "E1": EvalChipProfile(
        key="E1",
        theta_scale=90.0,
        press_scale=9.0,
        description="weaker cells with a stronger press response "
        "(worst-case provisioning)",
    ),
}


def build_eval_chip(chip_key: str) -> Chip:
    """A fresh evaluation chip from its profile key."""
    profile = EVAL_CHIP_PROFILES.get(chip_key)
    if profile is None:
        raise ExperimentError(
            f"unknown evaluation chip {chip_key!r} (profiled: "
            f"{sorted(EVAL_CHIP_PROFILES)})"
        )
    return make_synthetic_chip(
        theta_scale=profile.theta_scale,
        rows=profile.rows,
        key=profile.key,
        model=make_synthetic_model(press_scale=profile.press_scale),
        anti_cell_fraction=profile.anti_cell_fraction,
    )


# ----------------------------------------------------------- mechanisms

#: Mechanism name -> (search kind, parameter factory).  "probability"
#: mechanisms are searched with
#: :meth:`~repro.mitigations.evaluator.MitigationEvaluator.search_critical_probability`
#: (factory signature ``(p, seed)``), "threshold" mechanisms with
#: :meth:`~...search_critical_threshold` (factory signature
#: ``(threshold,)``).
MITIGATION_KINDS: Dict[str, Tuple[str, Callable]] = {
    "para": ("probability", Para),
    "para-press": ("probability", PressWeightedPara),
    "graphene": ("threshold", Graphene),
    "graphene-press": ("threshold", PressWeightedGraphene),
}


# ------------------------------------------------------------ work-list


@dataclass(frozen=True)
class MitigationWorkUnit:
    """One (chip, mechanism, pattern, tAggON) stress evaluation."""

    chip_key: str
    mitigation: str
    pattern: AccessPattern
    t_on: float


@dataclass(frozen=True)
class MitigationShard:
    """All tAggON points of one (chip, mechanism, pattern) series.

    The series is the dispatch granularity: the per-point baselines and
    searches reuse nothing across points (every protected run needs a
    fresh chip), but keeping a series on one worker keeps the journal's
    entries aligned with the table's row groups.  Implements the shard
    protocol of :mod:`repro.core.engine` (``index``/``units`` plus
    ``label``/``obs_fields``).
    """

    index: int
    chip_key: str
    mitigation: str
    pattern: AccessPattern
    units: Tuple[MitigationWorkUnit, ...]

    @property
    def label(self) -> str:
        return f"{self.chip_key} {self.mitigation} {self.pattern.name}"

    @property
    def obs_fields(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "chip": self.chip_key,
            "mitigation": self.mitigation,
            "pattern": self.pattern.name,
        }


@dataclass(frozen=True)
class MitigationPlan:
    """The fully enumerated work-list of one mitigation campaign."""

    shards: Tuple[MitigationShard, ...]

    @property
    def n_measurements(self) -> int:
        return sum(len(s.units) for s in self.shards)

    @staticmethod
    def build(
        chips: Sequence[str],
        mitigations: Sequence[str],
        t_values: Sequence[float] = MITIGATION_T_VALUES,
        patterns: Sequence[AccessPattern] = ALL_PATTERNS,
    ) -> "MitigationPlan":
        """Enumerate the campaign in canonical order.

        Canonical order: chips in call order, then mechanisms, patterns,
        and tAggON values in call order -- one shard per (chip,
        mechanism, pattern) series.
        """
        if not t_values:
            raise ExperimentError("need at least one tAggON value")
        unknown = [m for m in mitigations if m not in MITIGATION_KINDS]
        if unknown:
            raise ExperimentError(
                f"unknown mitigation(s) {unknown} (known: "
                f"{sorted(MITIGATION_KINDS)})"
            )
        shards: List[MitigationShard] = []
        for chip_key in chips:
            for mitigation in mitigations:
                for pattern in patterns:
                    units = tuple(
                        MitigationWorkUnit(chip_key, mitigation, pattern, t_on)
                        for t_on in t_values
                    )
                    shards.append(
                        MitigationShard(
                            index=len(shards),
                            chip_key=chip_key,
                            mitigation=mitigation,
                            pattern=pattern,
                            units=units,
                        )
                    )
        return MitigationPlan(shards=tuple(shards))


# -------------------------------------------------------------- results


@dataclass(frozen=True)
class MitigationPoint:
    """One evaluated (chip, mechanism, pattern, tAggON) point.

    Attributes:
        chip_key / mitigation / pattern / t_on: the point's identity
            (pattern by name, as in :class:`DieMeasurement`).
        baseline_acmin: bare ACmin (no mitigation), or ``None`` if no
            bitflip occurred within the baseline budget -- the pattern
            then needs no mitigation at this point and the critical
            fields are ``None``.
        baseline_iterations: pattern iterations at the bare ACmin.
        time_to_first_ns: bare time to the first bitflip.
        critical_value: the critical parameter (smallest protecting
            probability / largest protecting threshold), or ``None``
            when no search ran (no baseline flip) or the mechanism was
            defeated outright.
        protects_at / fails_at / n_runs / cap_hit: the search bracket,
            verbatim from :class:`CriticalParameter`.
        defeated: the mechanism failed even at maximum strength (PARA
            ``p = 1.0`` / Graphene threshold 1) -- at large tAggON the
            disturbance of a single activation pair completes before
            any activation-triggered refresh can matter, so no finite
            parameter protects (the paper's §6 observation).
        protected_by_trefw / protected_by_trefw_quarter: refresh-window
            survival -- would refreshing the victim every tREFW (or
            tREFW/4) outrun the bare time to first bitflip?
    """

    chip_key: str
    mitigation: str
    pattern: str
    t_on: float
    baseline_acmin: Optional[int]
    baseline_iterations: Optional[int]
    time_to_first_ns: Optional[float]
    critical_value: Optional[float]
    protects_at: Optional[float]
    fails_at: Optional[float]
    n_runs: int
    cap_hit: bool
    defeated: bool
    protected_by_trefw: bool
    protected_by_trefw_quarter: bool

    @property
    def identity(self) -> Tuple[str, str, str, float]:
        return (self.chip_key, self.mitigation, self.pattern, self.t_on)


def point_to_record(point: MitigationPoint) -> Dict:
    """Encode one point as a JSON-safe record (exact float round-trip)."""
    p = point
    return {
        "chip_key": p.chip_key,
        "mitigation": p.mitigation,
        "pattern": p.pattern,
        "t_on": finite_or_none(p.t_on),
        "baseline_acmin": p.baseline_acmin,
        "baseline_iterations": p.baseline_iterations,
        "time_to_first_ns": finite_or_none(p.time_to_first_ns),
        "critical_value": finite_or_none(p.critical_value),
        "protects_at": finite_or_none(p.protects_at),
        "fails_at": finite_or_none(p.fails_at),
        "n_runs": p.n_runs,
        "cap_hit": p.cap_hit,
        "defeated": p.defeated,
        "protected_by_trefw": p.protected_by_trefw,
        "protected_by_trefw_quarter": p.protected_by_trefw_quarter,
    }


def point_from_record(rec: Dict) -> MitigationPoint:
    """Decode one record (see :func:`point_to_record`)."""
    return MitigationPoint(
        chip_key=rec["chip_key"],
        mitigation=rec["mitigation"],
        pattern=rec["pattern"],
        t_on=rec["t_on"],
        baseline_acmin=rec["baseline_acmin"],
        baseline_iterations=rec["baseline_iterations"],
        time_to_first_ns=rec["time_to_first_ns"],
        critical_value=rec["critical_value"],
        protects_at=rec["protects_at"],
        fails_at=rec["fails_at"],
        n_runs=rec["n_runs"],
        cap_hit=rec["cap_hit"],
        defeated=rec["defeated"],
        protected_by_trefw=rec["protected_by_trefw"],
        protected_by_trefw_quarter=rec["protected_by_trefw_quarter"],
    )


#: Checkpoint codec for mitigation campaigns: journals carry
#: ``repro-mitigation-point-v1`` records instead of measurements, and
#: the header names the entry format so the two journal kinds can never
#: be decoded as each other.
MITIGATION_CODEC = JournalCodec(
    entries="repro-mitigation-point-v1",
    encode=point_to_record,
    decode=point_from_record,
)


class MitigationResults:
    """An ordered collection of mitigation points (the campaign artifact).

    Serialized like :class:`~repro.core.results.ResultSet`, through the
    same dump reader: a versioned ``repro-mitigation-v1`` envelope,
    atomic dumps with an optional sha256 sidecar, and strict
    (``allow_nan=False``) JSON.
    """

    def __init__(self, points: Iterable[MitigationPoint] = ()) -> None:
        self._points: List[MitigationPoint] = list(points)

    def add(self, point: MitigationPoint) -> None:
        self._points.append(point)

    def extend(self, points: Iterable[MitigationPoint]) -> None:
        self._points.extend(points)

    def __iter__(self) -> Iterator[MitigationPoint]:
        return iter(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def where(
        self,
        chip_key: Optional[str] = None,
        mitigation: Optional[str] = None,
        pattern: Optional[str] = None,
        t_on: Optional[float] = None,
    ) -> "MitigationResults":
        """Filter by exact field values (``None`` matches anything)."""
        return MitigationResults(
            p
            for p in self._points
            if (chip_key is None or p.chip_key == chip_key)
            and (mitigation is None or p.mitigation == mitigation)
            and (pattern is None or p.pattern == pattern)
            and (t_on is None or p.t_on == t_on)
        )

    def to_json(self) -> str:
        from repro.validate.schema import MITIGATION_FORMAT

        return json.dumps(
            {
                "format": MITIGATION_FORMAT,
                "points": [point_to_record(p) for p in self._points],
            },
            indent=2,
            allow_nan=False,
        )

    def dump(
        self, path: Union[str, "os.PathLike"], digest: bool = False
    ) -> None:
        """Atomically write the JSON dump (optionally with a sidecar)."""
        atomic_write_text(path, self.to_json() + "\n")
        if digest:
            write_digest(path)

    @staticmethod
    def load(path) -> "MitigationResults":
        """Restore a dump, verifying any sha256 sidecar first."""
        return MitigationResults.from_json(
            read_dump_text(path, "mitigation dump"), source=str(path)
        )

    @staticmethod
    def from_json(
        text: str, source: Optional[str] = None
    ) -> "MitigationResults":
        """Decode a dump, validating its format version and schema."""
        from repro.validate.schema import validate_mitigation_payload

        payload = parse_dump_json(text, "mitigation dump", source)
        validate_mitigation_payload(payload, source=source)
        return MitigationResults(
            point_from_record(rec) for rec in payload["points"]
        )


# --------------------------------------------------------------- runner


@dataclass(frozen=True)
class MitigationWorkerSpec:
    """Picklable recipe a process worker rebuilds its runner from.

    Carries only value-typed search knobs, so it crosses the pool
    boundary cheaply (the process executor pickles it when workers
    cannot fork) and its ``repr`` fingerprints the campaign
    configuration.

    Attributes:
        base_row: pattern placement row on the evaluation chips.
        baseline_budget: iteration cap of the bare-ACmin search.
        search_margin: protected runs get ``margin x baseline``
            iterations -- protection must hold well past the bare flip
            point, not just at it.
        min_search_iterations: floor of that budget (very weak points
            would otherwise search with a handful of iterations).
        tolerance / trials: probability-search bisection knobs.
        graphene_cap: threshold-search ramp ceiling.
    """

    base_row: int = 10
    baseline_budget: int = 20_000
    search_margin: float = 4.0
    min_search_iterations: int = 64
    tolerance: float = 0.05
    trials: int = 2
    graphene_cap: int = GRAPHENE_SEARCH_CAP

    def check_shards(self, shards: Sequence[MitigationShard]) -> None:
        """Refuse shards a worker could not rebuild from this spec."""
        unknown = sorted(
            {s.chip_key for s in shards} - set(EVAL_CHIP_PROFILES)
        )
        if unknown:
            raise ExperimentError(
                f"process executor rebuilds evaluation chips from profiles, "
                f"but {unknown} are not profiled chip keys (known: "
                f"{sorted(EVAL_CHIP_PROFILES)})"
            )
        bad = sorted(
            {s.mitigation for s in shards} - set(MITIGATION_KINDS)
        )
        if bad:
            raise ExperimentError(
                f"unknown mitigation(s) {bad} (known: "
                f"{sorted(MITIGATION_KINDS)})"
            )

    def build_runner(self) -> "MitigationShardRunner":
        return MitigationShardRunner(self)


class MitigationShardRunner:
    """Evaluates mitigation shards point by point.

    Stateless across points by construction -- every protected run uses
    a fresh chip from the profile key, and every stochastic quantity
    comes from named RNG streams -- so results are independent of which
    worker runs a shard and when.
    """

    def __init__(self, spec: MitigationWorkerSpec) -> None:
        #: The picklable worker recipe; the process executor runs its
        #: vocabulary check before dispatch, whatever the worker mode.
        self.spec = spec

    def build_runner(self) -> "MitigationShardRunner":
        """The per-shard runner of a fork-inherited pool worker.

        The runner is stateless apart from its immutable spec, so this
        is simply a sibling over the same spec.
        """
        return MitigationShardRunner(self.spec)

    @staticmethod
    def validate(
        shard: MitigationShard, points: Sequence[MitigationPoint]
    ) -> None:
        """Integrity-check one shard's points against its units."""
        expected = [
            (u.chip_key, u.mitigation, u.pattern.name, u.t_on)
            for u in shard.units
        ]
        got = [p.identity for p in points]
        if got != expected:
            raise ResultIntegrityError(
                f"shard {shard.index} ({shard.label}) returned points "
                f"{got}, expected {expected}"
            )

    def run(self, shard: MitigationShard) -> List[MitigationPoint]:
        spec = self.spec
        chip_factory = lambda: build_eval_chip(shard.chip_key)  # noqa: E731
        evaluator = MitigationEvaluator(chip_factory, spec.base_row)
        kind, factory = MITIGATION_KINDS[shard.mitigation]
        out: List[MitigationPoint] = []
        for unit in shard.units:
            out.append(
                self._evaluate_point(unit, evaluator, kind, factory)
            )
        return out

    def _evaluate_point(
        self,
        unit: MitigationWorkUnit,
        evaluator: MitigationEvaluator,
        kind: str,
        factory: Callable,
    ) -> MitigationPoint:
        spec = self.spec
        baseline = measure_location_honest(
            SoftMCSession(build_eval_chip(unit.chip_key)),
            unit.pattern,
            spec.base_row,
            unit.t_on,
            CHECKERBOARD,
            max_budget_iterations=spec.baseline_budget,
        )
        placement = unit.pattern.place(
            spec.base_row,
            unit.t_on,
            EVAL_CHIP_PROFILES[unit.chip_key].rows,
            DEFAULT_TIMINGS,
        )
        iteration_ns = placement.iteration_latency(DEFAULT_TIMINGS)
        time_to_first = (
            None
            if baseline.iterations is None
            else baseline.iterations * iteration_ns
        )
        critical: Optional[CriticalParameter] = None
        defeated = False
        if baseline.iterations is not None:
            budget = max(
                spec.min_search_iterations,
                int(baseline.iterations * spec.search_margin),
            )
            try:
                if kind == "probability":
                    critical = evaluator.search_critical_probability(
                        unit.pattern,
                        unit.t_on,
                        factory=factory,
                        iterations=budget,
                        tolerance=spec.tolerance,
                        trials=spec.trials,
                    )
                else:
                    critical = evaluator.search_critical_threshold(
                        unit.pattern,
                        unit.t_on,
                        factory=factory,
                        iterations=budget,
                        cap=spec.graphene_cap,
                    )
            except MitigationError:
                # Maximum strength already fails: at large tAggON one
                # activation pair completes the disturbance before any
                # activation-triggered refresh can matter.  Record the
                # defeat instead of crashing the shard -- an infinite
                # requirement is the campaign's most important data
                # point, not an error.
                defeated = True
        # Refresh-window survival from the bare baseline: refreshing the
        # victim every window outruns the pattern iff the bare time to
        # first bitflip exceeds the window.  No flip within the (larger)
        # baseline budget means every window survives.
        trefw = DEFAULT_TIMINGS.tREFW
        return MitigationPoint(
            chip_key=unit.chip_key,
            mitigation=unit.mitigation,
            pattern=unit.pattern.name,
            t_on=unit.t_on,
            baseline_acmin=baseline.acmin,
            baseline_iterations=baseline.iterations,
            time_to_first_ns=time_to_first,
            critical_value=None if critical is None else critical.value,
            protects_at=None if critical is None else critical.protects_at,
            fails_at=None if critical is None else critical.fails_at,
            n_runs=0 if critical is None else critical.n_runs,
            cap_hit=False if critical is None else critical.cap_hit,
            defeated=defeated,
            protected_by_trefw=(
                time_to_first is None or time_to_first > trefw
            ),
            protected_by_trefw_quarter=(
                time_to_first is None or time_to_first > trefw / 4.0
            ),
        )


def mitigation_plan_fingerprint(
    spec: MitigationWorkerSpec, plan: MitigationPlan
) -> str:
    """Deterministic fingerprint of (search spec, plan order).

    Same construction as :func:`repro.core.checkpoint.plan_fingerprint`:
    the spec's value-based dataclass repr plus every unit in canonical
    order, so a journal can never seed a differently shaped campaign.
    """
    parts = [repr(spec)]
    for shard in plan.shards:
        parts.append(
            f"shard|{shard.index}|{shard.chip_key}|{shard.mitigation}|"
            f"{shard.pattern.name}"
        )
        parts.extend(f"unit|{u.t_on!r}" for u in shard.units)
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


# ------------------------------------------------------------- campaign


class MitigationCampaign:
    """Executes mitigation stress sweeps through the shared engine core.

    Plans the (chip, mechanism, pattern, tAggON) work-list and runs it
    inside the engine's campaign envelope
    (:func:`repro.core.engine.start_campaign`,
    :func:`~repro.core.engine.run_plan`,
    :func:`~repro.core.engine.finish_campaign`); only the plan, the
    fingerprint, the device-protections preflight, the result container
    and the invariant guard are its own.
    """

    def __init__(
        self,
        spec: Optional[MitigationWorkerSpec] = None,
        executor=None,
        obs: Optional[Observability] = None,
        backend=None,
    ) -> None:
        self._spec = spec if spec is not None else MitigationWorkerSpec()
        self._executor = executor if executor is not None else SerialExecutor()
        self._obs = obs
        self._last_report: Optional[RunReport] = None
        self._session = build_session(backend)

    @property
    def spec(self) -> MitigationWorkerSpec:
        return self._spec

    @property
    def session(self):
        """The device session that preflights the rig (``None``: none)."""
        return self._session

    @property
    def last_report(self) -> Optional[RunReport]:
        return self._last_report

    def run(
        self,
        chips: Sequence[str] = ("E0",),
        mitigations: Sequence[str] = ("para", "graphene"),
        t_values: Sequence[float] = MITIGATION_T_VALUES,
        patterns: Sequence[AccessPattern] = ALL_PATTERNS,
        policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        fault_plan=None,
        validate: bool = False,
    ) -> MitigationResults:
        """Run a full mitigation campaign in canonical order.

        Same semantics as
        :meth:`~repro.core.runner.CharacterizationRunner.characterize`:
        ``policy`` adds shard retries and timeouts; ``checkpoint`` names a
        journal appended after every completed shard (mitigation-point
        codec); ``resume=True`` seeds from it and the final results are
        bit-identical to an uninterrupted run; ``validate=True`` arms
        digests and requires the mitigation invariants
        (:func:`repro.validate.invariants.require_mitigation_invariants`)
        to hold before results are returned.
        """
        plan = MitigationPlan.build(chips, mitigations, t_values, patterns)
        fingerprint = mitigation_plan_fingerprint(self._spec, plan)
        obs = self._obs
        session = self._session
        report = start_campaign(
            plan, fingerprint, self._executor, obs, session
        )
        self._last_report = report
        if session is not None:
            # The module-scoped preflight checks (refresh-window bound,
            # mapping reverse-engineering) do not apply to the synthetic
            # evaluation chips; protections are still verified.
            session.ensure_device_protections()
        completed = run_plan(
            plan,
            MitigationShardRunner(self._spec),
            self._executor,
            fingerprint,
            policy=policy,
            fault_plan=fault_plan,
            checkpoint=checkpoint,
            resume=resume,
            digest=validate,
            codec=MITIGATION_CODEC,
            report=report,
            obs=obs,
        )
        if validate:
            from repro.validate import invariants
        return finish_campaign(
            plan,
            completed,
            MitigationResults(),
            report,
            obs,
            session,
            invariants.require_mitigation_invariants if validate else None,
        )
