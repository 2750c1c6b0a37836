"""Mitigation stress-evaluation campaign.

Answers the paper's closing question (Section 5, "Implications")
quantitatively: *how much stronger must activation-count mitigations get
as ``tAggON`` grows?*  The campaign sweeps {mitigation x pattern x
tAggON x evaluation-chip profile} and emits a versioned
``repro-mitigation-v1`` artifact of per-point critical parameters.  It
is a second campaign kind (:data:`MITIGATION_KIND`) on the
characterization engine (:mod:`repro.core.engine`): this module owns
the evaluation chips, the work units and plan builder, the point
evaluation and the point format; the engine's plan, fingerprint,
shard-result check, results base and campaign envelope supply
checkpoint/resume, retries, the serial fallback for a broken pool,
observability and the ``validate=True`` self-check.

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

import json
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backend.base import build_session
from repro.constants import (
    DEFAULT_TIMINGS,
    T_AGG_ON_TRAS,
    T_AGG_ON_636NS,
    T_AGG_ON_TREFI,
    T_AGG_ON_9TREFI,
)
from repro.core.checkpoint import plan_fingerprint
from repro.core.engine import (
    SerialExecutor,
    Shard,
    SweepPlan,
    finish_campaign,
    run_plan,
    start_campaign,
)
from repro.core.faults import RetryPolicy, RunReport
from repro.core.honest import measure_location_honest
from repro.core.results import MeasurementKind, ResultsBase, finite_or_none
from repro.bender.softmc import SoftMCSession
from repro.dram.chip import Chip
from repro.dram.datapattern import CHECKERBOARD
from repro.errors import ExperimentError, MitigationError
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
from repro.validate.schema import (
    MITIGATION_FORMAT,
    MITIGATION_POINT_FORMAT,
    validate_mitigation_payload,
)

__all__ = [
    "MITIGATION_T_VALUES",
    "EVAL_CHIP_PROFILES",
    "EvalChipProfile",
    "build_eval_chip",
    "MITIGATION_KINDS",
    "MitigationWorkUnit",
    "build_mitigation_plan",
    "MitigationPoint",
    "point_to_record",
    "point_from_record",
    "MitigationResults",
    "MITIGATION_KIND",
    "MitigationWorkerSpec",
    "MitigationShardRunner",
    "MitigationCampaign",
]

#: Default tAggON sweep: the paper's anchors from pure RowHammer (tRAS)
#: through the RowPress regime (636 ns, tREFI, 9 x tREFI).
MITIGATION_T_VALUES: Tuple[float, ...] = (
    T_AGG_ON_TRAS, T_AGG_ON_636NS, T_AGG_ON_TREFI, T_AGG_ON_9TREFI,
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


def _require_chips(keys: Iterable[str]) -> None:
    unknown = sorted(set(keys) - set(EVAL_CHIP_PROFILES))
    if unknown:
        raise ExperimentError(
            f"unknown evaluation chip(s) {unknown} (profiled: "
            f"{sorted(EVAL_CHIP_PROFILES)})"
        )


def _require_mechanisms(names: Iterable[str]) -> None:
    unknown = sorted(set(names) - set(MITIGATION_KINDS))
    if unknown:
        raise ExperimentError(
            f"unknown mitigation(s) {unknown} (known: "
            f"{sorted(MITIGATION_KINDS)})"
        )


# ------------------------------------------------------------ work-list


@dataclass(frozen=True)
class MitigationWorkUnit:
    """One (chip, mechanism, pattern, tAggON) stress evaluation."""

    chip_key: str
    mitigation: str
    pattern: AccessPattern
    t_on: float

    @property
    def identity(self) -> Tuple[str, str, str, float]:
        """The identity of the point that answers this unit."""
        return (self.chip_key, self.mitigation, self.pattern.name, self.t_on)

    @property
    def fingerprint_line(self) -> str:
        return f"unit|{self.t_on!r}"


def build_mitigation_plan(
    chips: Sequence[str],
    mitigations: Sequence[str],
    t_values: Sequence[float] = MITIGATION_T_VALUES,
    patterns: Sequence[AccessPattern] = ALL_PATTERNS,
) -> SweepPlan:
    """Enumerate a mitigation campaign in canonical order: chips, then
    mechanisms, patterns and tAggON values, each in call order.

    One shard per (chip, mechanism, pattern) series: its points share
    nothing (every protected run needs a fresh chip), but keeping a
    series on one worker aligns the journal with the table's row groups.
    """
    if not t_values:
        raise ExperimentError("need at least one tAggON value")
    _require_chips(chips)
    _require_mechanisms(mitigations)
    shards: List[Shard] = []
    for chip_key in chips:
        for mitigation in mitigations:
            for pattern in patterns:
                label = f"{chip_key} {mitigation} {pattern.name}"
                shards.append(Shard(
                    len(shards),
                    (chip_key, mitigation, pattern.name),
                    tuple(
                        MitigationWorkUnit(chip_key, mitigation, pattern, t_on)
                        for t_on in t_values
                    ),
                    label=label,
                    obs_fields=dict(label=label, chip=chip_key,
                                    mitigation=mitigation, pattern=pattern.name),
                ))
    return SweepPlan(shards=tuple(shards), kind=MITIGATION_KIND)


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


#: A point record's keys: the point's fields, in declaration order.
_POINT_FIELDS = tuple(f.name for f in fields(MitigationPoint))


def point_to_record(point: MitigationPoint) -> Dict:
    """Encode one point as a JSON-safe record (exact float round-trip;
    a non-finite float becomes ``None``)."""
    return {name: finite_or_none(getattr(point, name)) for name in _POINT_FIELDS}


def point_from_record(rec: Dict) -> MitigationPoint:
    """Decode one record (see :func:`point_to_record`)."""
    return MitigationPoint(**{name: rec[name] for name in _POINT_FIELDS})


class MitigationResults(ResultsBase):
    """The campaign artifact: mitigation points on the results base
    :class:`~repro.core.results.ResultSet` shares, dumped as a versioned
    ``repro-mitigation-v1`` envelope of strict (``allow_nan=False``) JSON.
    """

    what = "mitigation dump"
    check_payload = staticmethod(validate_mitigation_payload)

    def to_json(self) -> str:
        points = [point_to_record(p) for p in self]
        payload = {"format": MITIGATION_FORMAT, "points": points}
        return json.dumps(payload, indent=2, allow_nan=False)

    @staticmethod
    def from_payload(payload, outcome=None) -> "MitigationResults":
        """Decode a parsed dump the schema already accepted."""
        return MitigationResults(
            point_from_record(rec) for rec in payload["points"]
        )


#: The mitigation campaign kind: journals carry
#: ``repro-mitigation-point-v1`` records instead of measurements, and
#: the header names the entry format so the two journal kinds can never
#: be decoded as each other.
MITIGATION_KIND = MeasurementKind(
    entries=MITIGATION_POINT_FORMAT,
    encode=point_to_record,
    decode=point_from_record,
    results=MitigationResults,
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

    def check_shards(self, shards: Sequence[Shard]) -> None:
        """Refuse shards a worker could not run from this spec (chip
        keys were checked when the plan was built)."""
        _require_mechanisms({s.key[1] for s in shards})

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
        #: The picklable worker recipe the process executor checks.
        self.spec = spec

    def build_runner(self) -> "MitigationShardRunner":
        """The per-shard runner of a fork-inherited pool worker (the
        runner is stateless, so itself)."""
        return self

    def run(self, shard: Shard) -> List[MitigationPoint]:
        chip_key, mitigation, _ = shard.key
        evaluator = MitigationEvaluator(
            lambda: build_eval_chip(chip_key), self.spec.base_row
        )
        kind, factory = MITIGATION_KINDS[mitigation]
        return [
            self._evaluate_point(unit, evaluator, kind, factory)
            for unit in shard.units
        ]

    def _evaluate_point(
        self,
        unit: MitigationWorkUnit,
        evaluator: MitigationEvaluator,
        kind: str,
        factory: Callable,
    ) -> MitigationPoint:
        spec = self.spec
        baseline = measure_location_honest(
            SoftMCSession(build_eval_chip(unit.chip_key)), unit.pattern,
            spec.base_row, unit.t_on, CHECKERBOARD,
            max_budget_iterations=spec.baseline_budget,
        )
        iteration_ns = unit.pattern.place(
            spec.base_row, unit.t_on, EVAL_CHIP_PROFILES[unit.chip_key].rows,
            DEFAULT_TIMINGS,
        ).iteration_latency(DEFAULT_TIMINGS)
        iterations = baseline.iterations
        time_to_first = None if iterations is None else iterations * iteration_ns
        critical: Optional[CriticalParameter] = None
        defeated = False
        if iterations is not None:
            budget = max(
                spec.min_search_iterations,
                int(iterations * spec.search_margin),
            )
            try:
                if kind == "probability":
                    critical = evaluator.search_critical_probability(
                        unit.pattern, unit.t_on, factory=factory,
                        iterations=budget, tolerance=spec.tolerance,
                        trials=spec.trials,
                    )
                else:
                    critical = evaluator.search_critical_threshold(
                        unit.pattern, unit.t_on, factory=factory,
                        iterations=budget, cap=spec.graphene_cap,
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
            baseline_iterations=iterations,
            time_to_first_ns=time_to_first,
            critical_value=None if critical is None else critical.value,
            protects_at=None if critical is None else critical.protects_at,
            fails_at=None if critical is None else critical.fails_at,
            n_runs=0 if critical is None else critical.n_runs,
            cap_hit=False if critical is None else critical.cap_hit,
            defeated=defeated,
            protected_by_trefw=time_to_first is None or time_to_first > trefw,
            protected_by_trefw_quarter=(
                time_to_first is None or time_to_first > trefw / 4.0
            ),
        )


# ------------------------------------------------------------- campaign


class MitigationCampaign:
    """Executes mitigation stress sweeps through the shared engine core.

    Plans the (chip, mechanism, pattern, tAggON) work-list and runs it
    inside the engine's campaign envelope
    (:func:`repro.core.engine.start_campaign`,
    :func:`~repro.core.engine.run_plan`,
    :func:`~repro.core.engine.finish_campaign`); only the plan, the
    device-protections preflight and the invariant guard are its own.
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

        ``policy``, ``checkpoint``, ``resume`` and ``fault_plan`` as in
        :meth:`~repro.core.runner.CharacterizationRunner.characterize`
        (the journal holds mitigation points); ``validate=True`` arms
        digests and requires the mitigation invariants
        (:func:`repro.validate.invariants.require_mitigation_invariants`)
        to hold before results are returned.
        """
        plan = build_mitigation_plan(chips, mitigations, t_values, patterns)
        fingerprint = plan_fingerprint(self._spec, plan)
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
            report=report,
            obs=obs,
        )
        if validate:
            from repro.validate import invariants
        return finish_campaign(
            plan,
            completed,
            report,
            obs,
            session,
            invariants.require_mitigation_invariants if validate else None,
        )
