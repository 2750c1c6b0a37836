"""Declarative attack-pattern DSL.

A :class:`PatternSpec` describes an access pattern *symbolically*: a set
of aggressors at row offsets from a placement base, each with its own
on-time schedule and repeat count, optional decoy rows (activated to
thrash in-DRAM TRR samplers but never disturbing a victim), an optional
idle refresh-gap appended to every iteration, and -- usually derived --
the victim rows under observation.  Specs exist in three equivalent
forms:

* the **builder API** (:class:`PatternBuilder`) for programmatic use;
* the **dict/JSON form** (:meth:`PatternSpec.to_dict` /
  :meth:`PatternSpec.from_dict`), the wire format of the versioned
  ``repro-patternspec-v1`` artifact;
* the frozen :class:`PatternSpec` itself, which is the *compiled* form:
  it places onto concrete rows exactly like the fixed
  :class:`~repro.patterns.base.AccessPattern` objects, lowers to DRAM
  Bender programs through the same
  :mod:`~repro.patterns.compiler`, and exposes closed-form
  per-iteration contributions through the shared
  :func:`~repro.patterns.base.placement_contributions`.

Because both execution paths consume the same
:class:`~repro.patterns.base.PatternPlacement`, the honest
(command-level) and closed-form analyses agree by construction; the
differential test harness (``tests/test_dsl_differential.py``) proves it
per spec.  The paper's three patterns and the many-sided generalization
re-expressed here compile to byte-identical Bender programs.

Validation is strict and typed: every way a spec can be wrong raises
:class:`~repro.errors.PatternSpecError` at construction time (never at
measurement time, and never a bare ``ValueError``).

Solo semantics
--------------

The command-level :class:`~repro.dram.bank.Bank` flags an activation
*solo* when it re-opens the row opened immediately before
(``bank.py``), which weakens the hammer kick and modulates the press
loss per cell.  The closed-form path models solo per *pattern*, so the
DSL keeps the two paths equivalent with one structural rule: a spec is
``solo`` iff it activates exactly one distinct row per iteration, and
``repeat > 1`` is only legal on decoys or in single-distinct-row specs
(a mid-iteration back-to-back re-open of a victim-adjacent aggressor
would be solo on the command bus but not in the closed form).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.constants import (
    CHARACTERIZATION_TEMPERATURE_C,
    DDR4Timings,
    DEFAULT_TIMINGS,
    ITERATION_RUNTIME_BOUND,
)
from repro.disturb.model import DisturbanceModel
from repro.errors import PatternSpecError
from repro.patterns.base import (
    ALL_PATTERNS,
    AccessPattern,
    PatternPlacement,
    VictimContribution,
    placement_contributions,
)
from repro.patterns.nsided import ManySidedPattern

#: Legal spec names: lowercase, digits, and ``+ . _ -`` separators.
NAME_RE = re.compile(r"^[a-z0-9][a-z0-9+._-]*$")

#: Symbolic on-time schedules: ``"press"`` resolves to the swept
#: ``tAggON``; ``"hammer"`` to ``tRAS`` (minimum-legal, pure RowHammer).
ON_TIME_SYMBOLS: Tuple[str, ...] = ("press", "hammer")

#: Sanity bounds keeping generated programs and stacks finite.
MAX_OFFSET = 512
MAX_ACTS_PER_ITERATION = 1024

OnTime = Union[str, float]


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise PatternSpecError(message)


@dataclass(frozen=True)
class AggressorSpec:
    """One aggressor row of a pattern, at ``offset`` rows from the base.

    Attributes:
        offset: signed row offset from the placement base row.
        on_time: ``"press"`` (the swept ``tAggON``), ``"hammer"``
            (``tRAS``), or a fixed on-time in ns (>= ``tRAS``).
        repeat: consecutive activations per iteration (>= 1); legal above
            1 only on decoys or in single-distinct-row specs.
        decoy: decoy rows are activated (they cost activations and time,
            and feed TRR samplers) but must not neighbor any victim, so
            they deposit no observable disturbance.
    """

    offset: int
    on_time: OnTime = "press"
    repeat: int = 1
    decoy: bool = False

    def __post_init__(self) -> None:
        _check(
            isinstance(self.offset, int) and not isinstance(self.offset, bool),
            f"aggressor offset must be an int, got {self.offset!r}",
        )
        _check(
            abs(self.offset) <= MAX_OFFSET,
            f"aggressor offset {self.offset} exceeds +/-{MAX_OFFSET}",
        )
        _check(
            isinstance(self.repeat, int)
            and not isinstance(self.repeat, bool)
            and self.repeat >= 1,
            f"aggressor repeat must be an int >= 1, got {self.repeat!r}",
        )
        _check(
            isinstance(self.decoy, bool),
            f"aggressor decoy flag must be a bool, got {self.decoy!r}",
        )
        if isinstance(self.on_time, str):
            _check(
                self.on_time in ON_TIME_SYMBOLS,
                f"unknown on-time schedule {self.on_time!r} "
                f"(expected one of {list(ON_TIME_SYMBOLS)} or a float)",
            )
        else:
            _check(
                isinstance(self.on_time, (int, float))
                and not isinstance(self.on_time, bool)
                and float(self.on_time) == float(self.on_time)  # not NaN
                and float(self.on_time) != float("inf"),
                f"fixed on-time must be a finite number, got {self.on_time!r}",
            )
            object.__setattr__(self, "on_time", float(self.on_time))
            _check(
                self.on_time >= DEFAULT_TIMINGS.tRAS,
                f"fixed on-time {self.on_time} ns below "
                f"tRAS={DEFAULT_TIMINGS.tRAS} ns is not timing-legal",
            )

    def resolve_on_time(self, t_on: float, timings: DDR4Timings) -> float:
        """The concrete row-open time at sweep point ``t_on``."""
        if self.on_time == "press":
            return t_on
        if self.on_time == "hammer":
            return timings.tRAS
        return float(self.on_time)

    def to_dict(self) -> Dict:
        return {
            "offset": self.offset,
            "on_time": self.on_time,
            "repeat": self.repeat,
            "decoy": self.decoy,
        }


@dataclass(frozen=True)
class PatternSpec:
    """A declarative, placeable, compilable access pattern.

    Duck-compatible with :class:`~repro.patterns.base.AccessPattern`
    (``name`` / ``solo`` / ``place`` / ``iteration_contributions``), so
    specs flow through the engine, the mitigation evaluator, and the
    honest prober unchanged.  Additionally exposes
    ``victim_offsets`` so the closed-form fast path can build stacks
    over the spec's exact footprint
    (:func:`repro.core.acmin.pattern_footprint`).

    ``victims`` is normally ``None`` (derived: every row adjacent to a
    non-decoy aggressor that is not itself an aggressor); an explicit
    tuple narrows the observation set.
    """

    name: str
    aggressors: Tuple[AggressorSpec, ...]
    gap_ns: float = 0.0
    victims: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check(
            isinstance(self.name, str)
            and len(self.name) <= 64
            and NAME_RE.match(self.name) is not None,
            f"pattern name {self.name!r} is not a valid spec name "
            "(lowercase alphanumerics plus '+._-', max 64 chars)",
        )
        _check(
            isinstance(self.aggressors, tuple)
            and all(isinstance(a, AggressorSpec) for a in self.aggressors),
            "aggressors must be a tuple of AggressorSpec",
        )
        _check(bool(self.aggressors), "a pattern needs at least one aggressor")
        offsets = [a.offset for a in self.aggressors]
        _check(
            len(set(offsets)) == len(offsets),
            f"duplicate aggressor offsets in {sorted(offsets)}",
        )
        non_decoy = [a for a in self.aggressors if not a.decoy]
        _check(
            bool(non_decoy),
            "a pattern needs at least one non-decoy aggressor "
            "(decoys alone disturb nothing observable)",
        )
        distinct_rows = len(set(offsets))
        for agg in self.aggressors:
            _check(
                agg.repeat == 1 or agg.decoy or distinct_rows == 1,
                f"repeat={agg.repeat} on non-decoy aggressor at offset "
                f"{agg.offset}: back-to-back re-opens are solo on the "
                "command bus but not in the closed form; repeat > 1 is "
                "only legal on decoys or single-row specs",
            )
        acts = sum(a.repeat for a in self.aggressors)
        _check(
            acts <= MAX_ACTS_PER_ITERATION,
            f"{acts} activations per iteration exceeds the "
            f"{MAX_ACTS_PER_ITERATION} bound",
        )
        _check(
            isinstance(self.gap_ns, (int, float))
            and not isinstance(self.gap_ns, bool)
            and float(self.gap_ns) == float(self.gap_ns)
            and float(self.gap_ns) != float("inf")
            and float(self.gap_ns) >= 0.0,
            f"gap_ns must be a finite number >= 0, got {self.gap_ns!r}",
        )
        object.__setattr__(self, "gap_ns", float(self.gap_ns))
        # The iteration must fit the paper's runtime bound even at the
        # minimum-legal on-times, else no sweep point could ever run one
        # iteration (a refresh-gap violation).
        timings = DEFAULT_TIMINGS
        min_latency = self.gap_ns + sum(
            (a.resolve_on_time(timings.tRAS, timings) + timings.tRP) * a.repeat
            for a in self.aggressors
        )
        _check(
            min_latency <= ITERATION_RUNTIME_BOUND,
            f"iteration latency {min_latency:.0f} ns (at minimum on-times) "
            f"exceeds the {ITERATION_RUNTIME_BOUND:.0f} ns runtime bound: "
            "the gap/schedule admits zero iterations",
        )
        if self.victims is not None:
            _check(
                isinstance(self.victims, tuple)
                and bool(self.victims)
                and all(
                    isinstance(v, int) and not isinstance(v, bool)
                    for v in self.victims
                ),
                "victims must be a non-empty tuple of int offsets (or None "
                "to derive them)",
            )
            _check(
                len(set(self.victims)) == len(self.victims),
                f"duplicate victim offsets in {sorted(self.victims)}",
            )
            object.__setattr__(
                self, "victims", tuple(sorted(self.victims))
            )
        derived = self._derive_victims()
        victims = self.victims if self.victims is not None else derived
        _check(
            bool(victims),
            "the pattern derives no victims (every neighbor of a non-decoy "
            "aggressor is itself an aggressor)",
        )
        agg_set = set(offsets)
        overlap = sorted(set(victims) & agg_set)
        _check(
            not overlap,
            f"victim offsets {overlap} overlap aggressor rows",
        )
        dead = sorted(set(victims) - set(derived))
        _check(
            not dead,
            f"victim offsets {dead} are not adjacent to any non-decoy "
            "aggressor (they can never flip)",
        )
        _check(
            all(abs(v) <= MAX_OFFSET + 1 for v in victims),
            f"victim offsets {sorted(victims)} exceed +/-{MAX_OFFSET + 1}",
        )
        # Decoys must be invisible: a decoy adjacent to a victim would
        # deposit disturbance the closed form does not model.
        for agg in self.aggressors:
            if not agg.decoy:
                continue
            touched = {agg.offset - 1, agg.offset + 1} & set(victims)
            _check(
                not touched,
                f"decoy at offset {agg.offset} neighbors victim offsets "
                f"{sorted(touched)}; decoys must not disturb any victim",
            )

    # ------------------------------------------------------------ derived sets

    def _derive_victims(self) -> Tuple[int, ...]:
        agg_set = {a.offset for a in self.aggressors}
        neighbors = set()
        for agg in self.aggressors:
            if not agg.decoy:
                neighbors.add(agg.offset - 1)
                neighbors.add(agg.offset + 1)
        return tuple(sorted(neighbors - agg_set))

    @property
    def victim_offsets(self) -> Tuple[int, ...]:
        """Victim row offsets, ascending (the spec's stack footprint)."""
        if self.victims is not None:
            return self.victims
        return self._derive_victims()

    @property
    def aggressor_offsets(self) -> Tuple[int, ...]:
        return tuple(a.offset for a in self.aggressors)

    @property
    def acts_per_iteration(self) -> int:
        return sum(a.repeat for a in self.aggressors)

    @property
    def solo(self) -> bool:
        """Every activation re-opens one single row back-to-back (the
        command-level solo condition holds for the whole loop)."""
        return len({a.offset for a in self.aggressors}) == 1

    # -------------------------------------------------------------- placement

    def place(
        self,
        base_row: int,
        t_on: float,
        rows_in_bank: int,
        timings: DDR4Timings = DEFAULT_TIMINGS,
    ) -> PatternPlacement:
        """Bind the spec to concrete rows around ``base_row``.

        Aggressors are emitted in spec order (repeats consecutively);
        victims ascending.  Identical placements to the fixed paper
        patterns for their DSL twins, hence byte-identical compiled
        programs.
        """
        if t_on < timings.tRAS:
            raise PatternSpecError(
                f"tAggON={t_on} ns below tRAS={timings.tRAS} ns is not "
                "timing-legal"
            )
        victims = tuple(base_row + v for v in self.victim_offsets)
        rows_used = [base_row + a.offset for a in self.aggressors]
        rows_used.extend(victims)
        lo, hi = min(rows_used), max(rows_used)
        if lo < 0 or hi >= rows_in_bank:
            raise PatternSpecError(
                f"pattern {self.name!r} at base row {base_row} does not fit "
                f"in a bank of {rows_in_bank} rows (needs rows {lo}..{hi})"
            )
        aggressors: List[Tuple[int, float]] = []
        for agg in self.aggressors:
            resolved = agg.resolve_on_time(t_on, timings)
            if resolved < timings.tRAS:
                raise PatternSpecError(
                    f"aggressor at offset {agg.offset} resolves to on-time "
                    f"{resolved} ns below tRAS={timings.tRAS} ns"
                )
            aggressors.extend(
                (base_row + agg.offset, resolved) for _ in range(agg.repeat)
            )
        first = self.aggressors[0].offset
        inner = next((v for v in self.victim_offsets if v > first), None)
        inner_victim = base_row + (
            inner if inner is not None else self.victim_offsets[0]
        )
        return PatternPlacement(
            aggressors=tuple(aggressors),
            victims=victims,
            inner_victim=inner_victim,
            extra_wait_ns=self.gap_ns,
        )

    # ---------------------------------------------------------- contributions

    def iteration_contributions(
        self,
        placement: PatternPlacement,
        model: DisturbanceModel,
        temperature_c: float = CHARACTERIZATION_TEMPERATURE_C,
    ) -> List[VictimContribution]:
        """Closed-form per-iteration weights -- the same shared function
        the fixed patterns use; decoy activations land outside the victim
        set and deposit nothing, mirroring their honest-path
        invisibility."""
        return placement_contributions(placement, model, temperature_c)

    # ------------------------------------------------------------ wire format

    def to_dict(self) -> Dict:
        """The JSON-able dict form (``repro-patternspec-v1`` spec entry)."""
        return {
            "name": self.name,
            "aggressors": [a.to_dict() for a in self.aggressors],
            "gap_ns": self.gap_ns,
            "victims": list(self.victims) if self.victims is not None else None,
        }

    @classmethod
    def from_dict(cls, data: object) -> "PatternSpec":
        """Parse the dict/JSON form, raising
        :class:`~repro.errors.PatternSpecError` on any malformation."""
        _check(isinstance(data, dict), f"spec must be a dict, got {_tn(data)}")
        unknown = sorted(set(data) - {"name", "aggressors", "gap_ns", "victims"})
        _check(not unknown, f"unknown spec fields {unknown}")
        _check("name" in data, "spec is missing 'name'")
        _check("aggressors" in data, "spec is missing 'aggressors'")
        raw_aggs = data["aggressors"]
        _check(
            isinstance(raw_aggs, (list, tuple)),
            f"'aggressors' must be a list, got {_tn(raw_aggs)}",
        )
        aggressors = []
        for i, raw in enumerate(raw_aggs):
            _check(
                isinstance(raw, dict),
                f"aggressors[{i}] must be a dict, got {_tn(raw)}",
            )
            bad = sorted(set(raw) - {"offset", "on_time", "repeat", "decoy"})
            _check(not bad, f"aggressors[{i}] has unknown fields {bad}")
            _check("offset" in raw, f"aggressors[{i}] is missing 'offset'")
            aggressors.append(
                AggressorSpec(
                    offset=raw["offset"],
                    on_time=raw.get("on_time", "press"),
                    repeat=raw.get("repeat", 1),
                    decoy=raw.get("decoy", False),
                )
            )
        victims = data.get("victims")
        if victims is not None:
            _check(
                isinstance(victims, (list, tuple)),
                f"'victims' must be a list or null, got {_tn(victims)}",
            )
            victims = tuple(victims)
        return cls(
            name=data["name"],
            aggressors=tuple(aggressors),
            gap_ns=data.get("gap_ns", 0.0),
            victims=victims,
        )


def _tn(value: object) -> str:
    return type(value).__name__


class PatternBuilder:
    """Fluent builder for :class:`PatternSpec`.

    >>> spec = (
    ...     PatternBuilder("decoy-flood")
    ...     .aggressor(0)
    ...     .aggressor(2)
    ...     .decoy(6, on_time="hammer")
    ...     .gap(DEFAULT_TIMINGS.tREFI)
    ...     .build()
    ... )
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._aggressors: List[AggressorSpec] = []
        self._gap_ns = 0.0
        self._victims: Optional[Tuple[int, ...]] = None

    def aggressor(
        self, offset: int, on_time: OnTime = "press", repeat: int = 1
    ) -> "PatternBuilder":
        self._aggressors.append(
            AggressorSpec(offset=offset, on_time=on_time, repeat=repeat)
        )
        return self

    def decoy(
        self, offset: int, on_time: OnTime = "hammer", repeat: int = 1
    ) -> "PatternBuilder":
        self._aggressors.append(
            AggressorSpec(offset=offset, on_time=on_time, repeat=repeat, decoy=True)
        )
        return self

    def gap(self, ns: float) -> "PatternBuilder":
        self._gap_ns = ns
        return self

    def victims(self, *offsets: int) -> "PatternBuilder":
        self._victims = tuple(offsets)
        return self

    def build(self) -> PatternSpec:
        return PatternSpec(
            name=self._name,
            aggressors=tuple(self._aggressors),
            gap_ns=self._gap_ns,
            victims=self._victims,
        )


# --------------------------------------------------------------------- twins
#
# The paper's patterns re-expressed in the DSL.  Same names, identical
# placements, hence byte-identical compiled programs and bit-identical
# measurement digests (proven by tests/test_dsl_differential.py).


def single_sided_spec() -> PatternSpec:
    """DSL twin of :data:`~repro.patterns.base.SINGLE_SIDED`."""
    return PatternSpec("single-sided", (AggressorSpec(0, "press"),))


def double_sided_spec() -> PatternSpec:
    """DSL twin of :data:`~repro.patterns.base.DOUBLE_SIDED`."""
    return PatternSpec(
        "double-sided", (AggressorSpec(0, "press"), AggressorSpec(2, "press"))
    )


def combined_spec() -> PatternSpec:
    """DSL twin of :data:`~repro.patterns.base.COMBINED`."""
    return PatternSpec(
        "combined", (AggressorSpec(0, "press"), AggressorSpec(2, "hammer"))
    )


def n_sided_spec(n: int, combined: bool = False) -> PatternSpec:
    """DSL twin of :class:`~repro.patterns.nsided.ManySidedPattern`."""
    _check(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1,
        f"n-sided needs an int n >= 1, got {n!r}",
    )
    kind = "combined" if combined else "pressed"
    aggressors = tuple(
        AggressorSpec(
            2 * i, "press" if (i == 0 or not combined) else "hammer"
        )
        for i in range(n)
    )
    return PatternSpec(f"{n}-sided-{kind}", aggressors)


# ------------------------------------------------------------- new families


def half_double_spec() -> PatternSpec:
    """Half-Double-style layout: two aggressor *pairs* flank a middle
    victim two rows from each pair's center, with outer victims past each
    pair -- a wide ``(-1, 2, 5)`` footprint exercising non-canonical
    stacks end to end."""
    return PatternSpec(
        "half-double",
        (
            AggressorSpec(0, "press"),
            AggressorSpec(1, "press"),
            AggressorSpec(3, "press"),
            AggressorSpec(4, "press"),
        ),
    )


def decoy_flood_spec(n_decoys: int = 6) -> PatternSpec:
    """TRRespass-style decoy flood: the double-sided core plus
    ``n_decoys`` far decoy rows hammered at ``tRAS`` each iteration.

    The decoys deposit nothing on the victims (their neighbors are
    outside the footprint) but thrash a TRR sampler's aggressor table
    and inflate the activation cost per iteration -- the canonical
    evasion trade-off, measurable against the mitigation evaluator.
    """
    _check(
        isinstance(n_decoys, int) and not isinstance(n_decoys, bool)
        and 1 <= n_decoys <= 64,
        f"decoy-flood needs 1..64 decoys, got {n_decoys!r}",
    )
    aggressors = [AggressorSpec(0, "press"), AggressorSpec(2, "press")]
    aggressors.extend(
        AggressorSpec(6 + 2 * i, "hammer", decoy=True) for i in range(n_decoys)
    )
    return PatternSpec("decoy-flood", tuple(aggressors))


def hammer_press_hybrid_spec() -> PatternSpec:
    """Non-uniform schedule: alternate *press* (held open ``tAggON``) and
    *hammer* (``tRAS``) aggressors across three rows, so each victim sees
    a different gain/loss mix -- footprint ``(-1, 1, 3, 5)``."""
    return PatternSpec(
        "hammer-press-hybrid",
        (
            AggressorSpec(0, "press"),
            AggressorSpec(2, "hammer"),
            AggressorSpec(4, "press"),
        ),
    )


def retention_assisted_spec(gap_ns: float = DEFAULT_TIMINGS.tREFI) -> PatternSpec:
    """Combined hammer+press core with one ``tREFI`` of idle appended to
    every iteration: fewer activations fit the runtime bound, modeling
    an attacker who hides inside nominal refresh scheduling."""
    return PatternSpec(
        "retention-assisted",
        (AggressorSpec(0, "press"), AggressorSpec(2, "hammer")),
        gap_ns=gap_ns,
    )


# ----------------------------------------------------------------- registry

#: The built-in DSL pattern families, by name.
PATTERN_FAMILIES: Dict[str, object] = {
    "half-double": half_double_spec,
    "decoy-flood": decoy_flood_spec,
    "hammer-press-hybrid": hammer_press_hybrid_spec,
    "retention-assisted": retention_assisted_spec,
}

_PAPER_BY_NAME: Dict[str, AccessPattern] = {p.name: p for p in ALL_PATTERNS}

_NSIDED_RE = re.compile(r"^(\d+)-sided-(pressed|combined)$")

PatternLike = Union[AccessPattern, PatternSpec, ManySidedPattern]


def registry_names() -> Tuple[str, ...]:
    """Every fixed name :func:`resolve_pattern` accepts (the paper's
    three plus the DSL families; ``N-sided-pressed|combined`` resolve
    parametrically on top)."""
    return tuple(_PAPER_BY_NAME) + tuple(PATTERN_FAMILIES)


def resolve_pattern(name_or_spec: Union[str, PatternLike]) -> PatternLike:
    """Resolve a pattern reference to a placeable pattern object.

    Pattern instances pass through; the paper's three names resolve to
    their fixed singletons (preserving plan/work-unit equality with
    :data:`~repro.patterns.base.ALL_PATTERNS`); family names resolve
    through :data:`PATTERN_FAMILIES`; ``"<n>-sided-pressed"`` /
    ``"<n>-sided-combined"`` resolve parametrically.  Anything else
    raises :class:`~repro.errors.PatternSpecError`.
    """
    if isinstance(name_or_spec, (AccessPattern, PatternSpec, ManySidedPattern)):
        return name_or_spec
    _check(
        isinstance(name_or_spec, str),
        f"pattern reference must be a name or pattern object, "
        f"got {_tn(name_or_spec)}",
    )
    fixed = _PAPER_BY_NAME.get(name_or_spec)
    if fixed is not None:
        return fixed
    family = PATTERN_FAMILIES.get(name_or_spec)
    if family is not None:
        return family()
    match = _NSIDED_RE.match(name_or_spec)
    if match is not None:
        return n_sided_spec(int(match.group(1)), match.group(2) == "combined")
    raise PatternSpecError(
        f"unknown pattern {name_or_spec!r}; known names: "
        f"{list(registry_names())} plus '<n>-sided-pressed|combined'"
    )


def resolve_patterns(
    names: Sequence[Union[str, PatternLike]]
) -> Tuple[PatternLike, ...]:
    """Resolve a sequence of pattern references, rejecting duplicates."""
    resolved = tuple(resolve_pattern(name) for name in names)
    _check(bool(resolved), "empty pattern list")
    seen = [p.name for p in resolved]
    dupes = sorted({n for n in seen if seen.count(n) > 1})
    _check(not dupes, f"duplicate pattern names {dupes}")
    return resolved


def describe_pattern(
    pattern: PatternLike,
    t_on: float = DEFAULT_TIMINGS.tRAS,
    timings: DDR4Timings = DEFAULT_TIMINGS,
) -> Dict:
    """Lint/summary record of a pattern at one sweep point (the CLI's
    ``patterns list|lint`` payload)."""
    offsets = list(getattr(pattern, "victim_offsets", ())) + list(
        getattr(pattern, "aggressor_offsets", ())
    )
    base = max(1, -min(offsets)) if offsets else 1  # keep every row >= 0
    placement = pattern.place(base, t_on, rows_in_bank=1 << 30, timings=timings)
    record = {
        "name": pattern.name,
        "solo": bool(pattern.solo),
        "base_row": base,
        "acts_per_iteration": placement.acts_per_iteration,
        "iteration_latency_ns": placement.iteration_latency(timings),
        "victim_offsets": [row - base for row in placement.victims],
        "aggressor_offsets": sorted(
            {row - base for row, _ in placement.aggressors}
        ),
        "gap_ns": placement.extra_wait_ns,
    }
    if isinstance(pattern, PatternSpec):
        record["spec"] = pattern.to_dict()
    return record
