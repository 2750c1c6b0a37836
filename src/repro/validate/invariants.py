"""Physical-invariant guards over characterization results.

Schema and digest checks prove an artifact is *intact*; these checks
prove it is *physically plausible* under the source paper's model.  Each
guard is a direct mechanization of a paper claim:

* **I1 -- monotonicity** (Obs. 4/5, Figs. 4-6): per (module, die,
  pattern, trial), ACmin never increases with tAggON -- keeping a row
  open longer adds RowPress disturbance on top of each activation, so
  fewer activations are needed.  Censored points (``acmin=None`` under
  the 60 ms budget) are legal at any tail of the curve and are skipped.
* **I2 -- RowHammer degeneracy** (Sec. 3): at ``tAggON == tRAS`` the
  combined pattern *is* double-sided RowHammer (there is no extra open
  time to press in), so paired (die, trial) ACmin values must be equal.
* **I3 -- combined reaches bitflips sooner** (Obs. 1-3): for large
  ``tAggON`` (>= 636 ns, the paper's first RowPress anchor) the combined
  pattern's time to the first bitflip never exceeds double-sided
  RowHammer's on the same (die, trial) -- that is the paper's headline
  result.  Below 636 ns the orderings legitimately interleave, so the
  guard only applies from the anchor up.
* **I4 -- timing identity** (Sec. 3.2): ``time_to_first_ns`` must equal
  ``acmin`` x the per-activation latency of its pattern
  (``(tAggON + tRAS)/2 + tRP`` for combined, ``tAggON + tRP`` for the
  other paper patterns; DSL patterns resolve through the registry and
  derive the latency from their placement, which reduces to the same
  formulas for the paper names) -- a derived field that disagrees with
  its inputs marks a corrupted or hand-edited record.
* **I5 -- activation parity**: a pattern activates its full aggressor
  set (decoys included) each iteration, so ACmin must be a positive
  multiple of the pattern's activations per iteration (2 for
  double-sided and combined, 1 for single-sided, placement-derived for
  DSL names).  Records whose pattern name is not in the DSL registry
  (ad-hoc specs run programmatically) skip I4/I5 -- their schedule is
  not recoverable from the name alone.
* **I6 -- Table 2 anchor drift**: per-module censored-mean ACmin at the
  paper's anchor points must stay within calibration tolerance of the
  published :data:`~repro.dram.profiles.MODULE_PROFILES` values
  (rel. 0.05 for the RowHammer baseline, rel. 0.25 for the RowPress /
  combined anchors -- the tolerances the calibration suite guarantees).

:func:`check_result_invariants` returns every violation as a readable
line; :func:`require_result_invariants` raises
:class:`~repro.errors.InvariantViolationError` listing them.
:func:`check_cross_executor` proves determinism by running the same
small campaign on two executors and comparing canonical digests.

Mitigation-campaign artifacts (``repro-mitigation-v1``) get their own
guard family, mechanizing the paper's Section 5 implication and the
campaign's Hypothesis 2:

* **M1 -- baseline consistency**: the bare (unprotected) baseline of a
  (chip, pattern, tAggON) point is mechanism-independent, so every
  mechanism evaluated at that point must record the identical
  ``baseline_acmin`` / ``baseline_iterations`` / ``time_to_first_ns``.
* **M2 -- baseline monotonicity**: like I1, the bare ACmin never
  increases with tAggON along a (chip, pattern) curve.
* **M3 -- probability monotonicity** (Hypothesis 2): along each (chip,
  probability-mechanism, pattern) series the *true* critical
  probability -- bracketed in ``(fails_at, protects_at]`` -- is
  non-decreasing in tAggON; a defeated point (no finite ``p`` protects)
  is ``+inf`` and must never be followed by a finite requirement.
* **M4 -- threshold monotonicity** (Hypothesis 2, counting side): along
  each (chip, counting-mechanism, pattern) series the critical
  threshold never *increases* with tAggON -- the mitigation must only
  get stronger (refresh earlier); a defeated point is treated as
  threshold 0 and must never be followed by a weaker requirement.
* **M5 -- tRAS degeneracy**: at ``tAggON == tRAS`` the combined
  pattern *is* double-sided RowHammer, so the paired points must agree
  on every measured field (baseline and critical parameter alike).
* **M6 -- refresh-window consistency**: the survival booleans must
  match their own record's ``time_to_first_ns`` against ``tREFW`` (and
  ``tREFW/4``), and surviving the full window implies surviving the
  quarter window.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.constants import DDR4Timings
from repro.core.results import MEASUREMENT_KIND, DieMeasurement, ResultSet
from repro.errors import InvariantViolationError
from repro.validate.schema import KNOWN_PATTERNS

__all__ = [
    "check_result_invariants",
    "require_result_invariants",
    "check_mitigation_invariants",
    "require_mitigation_invariants",
    "check_cross_executor",
    "results_digest",
    "mitigation_results_digest",
]

#: Patterns that activate their aggressors in pairs (one per victim side).
_TWO_SIDED = ("double-sided", "combined")

#: First RowPress anchor (ns): Observation 1-3 orderings are only
#: guaranteed from here up (below it RowHammer and RowPress effects are
#: comparable and the curves legitimately cross).
_ORDERING_T_MIN = 636.0

#: Relative slack on floating-point comparisons of derived quantities.
_FLOAT_RTOL = 1e-9


def _acts_per_iteration(pattern: str) -> int:
    return 2 if pattern in _TWO_SIDED else 1


def _per_activation_ns(pattern: str, t_on: float, timings: DDR4Timings) -> float:
    if pattern == "combined":
        return (t_on + timings.tRAS) / 2.0 + timings.tRP
    return t_on + timings.tRP


#: Probe placement geometry for DSL-resolved I4/I5 derivation: a base
#: row comfortably clear of any legal DSL offset (|offset| <= 512) in a
#: nominally unbounded bank.
_PROBE_BASE = 1024
_PROBE_ROWS = 1 << 30


def _pattern_timing(
    name: str,
    t_on: float,
    timings: DDR4Timings,
    cache: Dict[Tuple[str, float], Optional[Tuple[int, float]]],
) -> Optional[Tuple[int, float]]:
    """``(acts_per_iteration, per_activation_ns)`` of a named pattern.

    Paper names use the closed-form Section 3.2 formulas; every other
    name is resolved through the DSL registry
    (:func:`repro.patterns.dsl.resolve_pattern`) and derived from its
    probe placement -- ``iteration_latency / n_aggressors`` covers
    mixed on-times, decoys, repeats, and refresh gaps in one identity,
    and reduces to the legacy formulas for the paper patterns.  Returns
    ``None`` for names the registry cannot resolve (ad-hoc specs):
    their schedule is not recoverable from the name, so I4/I5 skip.
    """
    key = (name, t_on)
    if key in cache:
        return cache[key]
    if name in KNOWN_PATTERNS:
        result: Optional[Tuple[int, float]] = (
            _acts_per_iteration(name),
            _per_activation_ns(name, t_on, timings),
        )
    else:
        from repro.errors import PatternSpecError
        from repro.patterns.dsl import resolve_pattern

        try:
            pattern = resolve_pattern(name)
            placement = pattern.place(
                _PROBE_BASE, t_on, rows_in_bank=_PROBE_ROWS, timings=timings
            )
            acts = len(placement.aggressors)
            result = (acts, placement.iteration_latency(timings) / acts)
        except PatternSpecError:
            result = None
    cache[key] = result
    return result


def _label(m) -> str:
    return (
        f"{m.module_key} die {m.die} {m.pattern} t_on={m.t_on:g}ns "
        f"trial {m.trial}"
    )


def check_result_invariants(
    results: ResultSet,
    timings: Optional[DDR4Timings] = None,
    anchor_rtol: float = 0.25,
    rh_anchor_rtol: float = 0.05,
    ordering_rtol: float = 0.02,
    max_violations: int = 20,
) -> List[str]:
    """Check every physical invariant; returns violation lines (empty = ok).

    ``max_violations`` bounds the returned list (a corrupted dump can
    violate thousands of points; the first few name the problem).
    """
    timings = timings if timings is not None else DDR4Timings()
    violations: List[str] = []

    def report(line: str) -> bool:
        """Record one violation; returns False once the bound is hit."""
        if len(violations) < max_violations:
            violations.append(line)
        return len(violations) < max_violations

    # One pass to group measurements along every axis the checks need.
    curves: Dict[Tuple, List] = defaultdict(list)  # I1
    by_point: Dict[Tuple, object] = {}  # I2 / I3 pairing
    timing_cache: Dict[Tuple[str, float], Optional[Tuple[int, float]]] = {}
    for m in results:
        curves[(m.module_key, m.die, m.pattern, m.trial)].append(m)
        by_point[(m.module_key, m.die, m.pattern, m.t_on, m.trial)] = m

        # I4 / I5: record-local identities (skipped for pattern names
        # the DSL registry cannot resolve -- see _pattern_timing).
        timing = (
            _pattern_timing(m.pattern, m.t_on, timings, timing_cache)
            if m.acmin is not None
            else None
        )
        if timing is not None:
            acts, per_activation = timing
            if m.acmin % acts != 0:
                if not report(
                    f"I5 activation parity: {_label(m)} has acmin={m.acmin}, "
                    f"not a multiple of the pattern's {acts} "
                    f"activation(s) per iteration"
                ):
                    return violations
            expected = m.acmin * per_activation
            if not math.isclose(
                m.time_to_first_ns, expected, rel_tol=1e-6, abs_tol=1e-3
            ):
                if not report(
                    f"I4 timing identity: {_label(m)} records "
                    f"time_to_first_ns={m.time_to_first_ns!r} but "
                    f"acmin={m.acmin} x per-activation latency "
                    f"{per_activation:g}ns = {expected:g}ns"
                ):
                    return violations

    # I1: ACmin non-increasing in tAggON along each curve.
    for (module, die, pattern, trial), points in curves.items():
        points.sort(key=lambda m: m.t_on)
        previous = None
        for m in points:
            if m.acmin is None:
                continue
            if previous is not None and m.acmin > previous.acmin:
                if not report(
                    f"I1 monotonicity: {module} die {die} {pattern} trial "
                    f"{trial}: acmin rises from {previous.acmin} at "
                    f"t_on={previous.t_on:g}ns to {m.acmin} at "
                    f"t_on={m.t_on:g}ns (ACmin must be non-increasing in "
                    f"tAggON)"
                ):
                    return violations
            previous = m

    # I2 / I3: paired combined-vs-double-sided orderings.
    for (module, die, pattern, t_on, trial), m in by_point.items():
        if pattern != "combined":
            continue
        ds = by_point.get((module, die, "double-sided", t_on, trial))
        if ds is None:
            continue
        if math.isclose(t_on, timings.tRAS, rel_tol=_FLOAT_RTOL):
            if m.acmin != ds.acmin:
                if not report(
                    f"I2 RowHammer degeneracy: {module} die {die} trial "
                    f"{trial} at t_on=tRAS={timings.tRAS:g}ns: combined "
                    f"acmin={m.acmin!r} != double-sided acmin={ds.acmin!r} "
                    f"(the patterns are identical at tAggON=tRAS)"
                ):
                    return violations
        if (
            t_on >= _ORDERING_T_MIN * (1 - _FLOAT_RTOL)
            and m.time_to_first_ns is not None
            and ds.time_to_first_ns is not None
            and m.time_to_first_ns
            > ds.time_to_first_ns * (1 + ordering_rtol)
        ):
            if not report(
                f"I3 combined ordering: {module} die {die} trial {trial} "
                f"at t_on={t_on:g}ns: combined reaches its first bitflip "
                f"in {m.time_to_first_ns:g}ns, later than double-sided's "
                f"{ds.time_to_first_ns:g}ns (Obs. 1-3: combined must not "
                f"be slower for tAggON >= {_ORDERING_T_MIN:g}ns)"
            ):
                return violations

    # I6: Table 2 anchor drift against the published per-module profiles.
    violations.extend(
        _check_anchor_drift(
            results, anchor_rtol, rh_anchor_rtol,
            max_violations - len(violations),
        )
    )
    return violations[:max_violations]


def _censored_mean(values: Sequence[Optional[int]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def _check_anchor_drift(
    results: ResultSet,
    anchor_rtol: float,
    rh_anchor_rtol: float,
    budget: int,
) -> List[str]:
    """I6: measured per-module anchor means vs. the published profiles.

    Only module keys with a published profile participate (synthetic
    test chips are skipped).  Because Table 2 publishes *population*
    statistics, the mean comparison only runs when the cell covers the
    module's full die population (``profile.n_dies``) -- a single-die
    dump can legitimately sit a couple of sigma from the mean.  Censored
    cells are handled conservatively: under the 60 ms budget censoring
    is legitimate (the calibration suite's "known infeasible" cells), so
    a fully censored cell is skipped, and a *partially* censored
    RowPress/combined cell only gets the published-None check (its
    surviving-die mean is biased low).  A fully measured full-population
    mean must agree with the profile, and any measured value where the
    profile says "No Bitflip" is a violation regardless of sample size.
    """
    from repro.dram.profiles import MODULE_PROFILES

    if budget <= 0:
        return []
    out: List[str] = []
    by_cell: Dict[
        Tuple[str, str, float], List[Tuple[int, Optional[int]]]
    ] = defaultdict(list)
    for m in results:
        if m.module_key in MODULE_PROFILES:
            by_cell[(m.module_key, m.pattern, m.t_on)].append((m.die, m.acmin))

    def drift(measured: float, published: float) -> float:
        return abs(measured - published) / published

    for (module, pattern, t_on), cell in sorted(by_cell.items()):
        if len(out) >= budget:
            break
        profile = MODULE_PROFILES[module]
        values = [acmin for _, acmin in cell]
        full_sample = len({die for die, _ in cell}) >= profile.n_dies
        measured = _censored_mean(values)
        if pattern == "double-sided" and math.isclose(t_on, 36.0):
            published = profile.acmin_rh36[0]
            if measured is None:
                out.append(
                    f"I6 anchor drift: {module} double-sided at "
                    f"t_on=36ns observed no bitflips, but Table 2 "
                    f"publishes ACmin={published:g} (the RowHammer "
                    f"baseline always flips)"
                )
            elif full_sample and drift(measured, published) > rh_anchor_rtol:
                out.append(
                    f"I6 anchor drift: {module} double-sided at t_on=36ns: "
                    f"measured mean ACmin {measured:.1f} is "
                    f"{100 * drift(measured, published):.1f}% away from "
                    f"Table 2's {published:g} (tolerance "
                    f"{100 * rh_anchor_rtol:.0f}%)"
                )
            continue
        table = (
            profile.acmin_rp
            if pattern == "double-sided"
            else profile.acmin_combined
            if pattern == "combined"
            else None
        )
        if table is None:
            continue
        pair = _table_cell(table, t_on)
        if pair is _MISSING:
            continue
        if measured is None:
            continue  # censored under the runtime budget: legal
        if pair is None:
            out.append(
                f"I6 anchor drift: {module} {pattern} at t_on={t_on:g}ns "
                f"measured mean ACmin {measured:.1f}, but Table 2 "
                f"publishes No Bitflip for this cell"
            )
        elif not full_sample or None in values:
            # Partial-die samples sit legitimately off the population
            # mean, and a partially censored cell's surviving-die mean
            # is biased low (the 60 ms budget truncates the high-ACmin
            # tail).  Either way the drift comparison would flag
            # healthy data, so skip it.
            continue
        elif drift(measured, pair[0]) > anchor_rtol:
            out.append(
                f"I6 anchor drift: {module} {pattern} at t_on={t_on:g}ns: "
                f"measured mean ACmin {measured:.1f} is "
                f"{100 * drift(measured, pair[0]):.1f}% away from Table 2's "
                f"{pair[0]:g} (tolerance {100 * anchor_rtol:.0f}%)"
            )
    return out


_MISSING = object()


def _table_cell(table: Dict[float, object], t_on: float):
    """Look up an anchor cell with float-tolerant key matching."""
    if t_on in table:
        return table[t_on]
    for key, value in table.items():
        if math.isclose(key, t_on, rel_tol=_FLOAT_RTOL):
            return value
    return _MISSING


def require_result_invariants(
    results: ResultSet,
    source: Optional[str] = None,
    timings: Optional[DDR4Timings] = None,
) -> None:
    """Raise :class:`InvariantViolationError` listing every violation."""
    violations = check_result_invariants(results, timings=timings)
    if violations:
        prefix = f"{source}: " if source else ""
        listing = "\n  - ".join(violations)
        raise InvariantViolationError(
            f"{prefix}{len(violations)} physical-invariant violation(s):"
            f"\n  - {listing}"
        )


# ----------------------------------------------------------- mitigation

#: Mechanisms searched on a probability in [0, 1] (PARA family) vs. an
#: activation-count threshold (Graphene family).  Kept in sync with
#: ``repro.validate.schema.KNOWN_MITIGATIONS``.
_PROBABILITY_MECHANISMS = ("para", "para-press")
_THRESHOLD_MECHANISMS = ("graphene", "graphene-press")


def _mitigation_label(p) -> str:
    return f"{p.chip_key} {p.mitigation} {p.pattern} t_on={p.t_on:g}ns"


def _probability_requirement(p) -> Tuple[float, float]:
    """(lower, upper) bound on the true critical probability of a point.

    The bisection brackets the true critical ``p*`` in
    ``(fails_at, protects_at]``; a defeated point requires more than any
    probability (``+inf``), and a point whose baseline never flipped
    requires nothing (``0``).
    """
    if p.defeated:
        return (math.inf, math.inf)
    if p.critical_value is None:
        return (0.0, 0.0)
    lower = p.fails_at if p.fails_at is not None else 0.0
    return (lower, p.protects_at)


def _threshold_requirement(p) -> float:
    """The critical threshold of a point, on the "strength" ordering.

    Smaller thresholds refresh earlier, i.e. are *stronger*; a defeated
    point needs a threshold below any integer (``0``), and a point with
    no baseline flip -- or whose doubling ramp hit the cap without ever
    failing -- tolerates an unbounded threshold (``+inf``).
    """
    if p.defeated:
        return 0.0
    if p.critical_value is None or p.cap_hit:
        return math.inf
    return p.critical_value


def check_mitigation_invariants(
    results,
    timings: Optional[DDR4Timings] = None,
    max_violations: int = 20,
) -> List[str]:
    """Check the mitigation guards (M1-M6); returns violation lines.

    ``results`` is a :class:`repro.mitigations.campaign.MitigationResults`
    (any iterable of points with its field surface works -- the checks
    are duck-typed so this layer never imports the campaign machinery).
    """
    timings = timings if timings is not None else DDR4Timings()
    violations: List[str] = []

    baselines: Dict[Tuple, object] = {}
    series: Dict[Tuple, List] = defaultdict(list)
    by_point: Dict[Tuple, object] = {}
    for p in results:
        if len(violations) >= max_violations:
            return violations

        # M1: one bare baseline per (chip, pattern, t_on), whichever
        # mechanism measured it.
        key = (p.chip_key, p.pattern, p.t_on)
        seen = baselines.get(key)
        if seen is None:
            baselines[key] = p
        elif (
            (p.baseline_acmin, p.baseline_iterations, p.time_to_first_ns)
            != (
                seen.baseline_acmin,
                seen.baseline_iterations,
                seen.time_to_first_ns,
            )
        ):
            violations.append(
                f"M1 baseline consistency: {_mitigation_label(p)} records "
                f"baseline acmin={p.baseline_acmin!r} "
                f"iterations={p.baseline_iterations!r} "
                f"time={p.time_to_first_ns!r}, but {seen.mitigation} "
                f"measured acmin={seen.baseline_acmin!r} "
                f"iterations={seen.baseline_iterations!r} "
                f"time={seen.time_to_first_ns!r} at the same point (the "
                f"bare baseline is mechanism-independent)"
            )

        series[(p.chip_key, p.mitigation, p.pattern)].append(p)
        by_point[(p.chip_key, p.mitigation, p.pattern, p.t_on)] = p

        # M6: record-local refresh-window consistency.
        survives_full = (
            p.time_to_first_ns is None or p.time_to_first_ns > timings.tREFW
        )
        survives_quarter = (
            p.time_to_first_ns is None
            or p.time_to_first_ns > timings.tREFW / 4.0
        )
        if p.protected_by_trefw != survives_full:
            violations.append(
                f"M6 refresh window: {_mitigation_label(p)} records "
                f"protected_by_trefw={p.protected_by_trefw}, but "
                f"time_to_first_ns={p.time_to_first_ns!r} vs "
                f"tREFW={timings.tREFW:g}ns says {survives_full}"
            )
        elif p.protected_by_trefw_quarter != survives_quarter:
            violations.append(
                f"M6 refresh window: {_mitigation_label(p)} records "
                f"protected_by_trefw_quarter={p.protected_by_trefw_quarter},"
                f" but time_to_first_ns={p.time_to_first_ns!r} vs "
                f"tREFW/4={timings.tREFW / 4.0:g}ns says {survives_quarter}"
            )
        elif p.protected_by_trefw and not p.protected_by_trefw_quarter:
            violations.append(
                f"M6 refresh window: {_mitigation_label(p)} survives the "
                f"full tREFW window but not the shorter tREFW/4 window "
                f"(more frequent refresh can only help)"
            )

    # M2 / M3 / M4: per-series orderings along tAggON.
    for (chip, mitigation, pattern), points in sorted(series.items()):
        if len(violations) >= max_violations:
            return violations
        points.sort(key=lambda p: p.t_on)

        previous = None
        for p in points:
            if p.baseline_acmin is None:
                continue
            if (
                previous is not None
                and p.baseline_acmin > previous.baseline_acmin
            ):
                violations.append(
                    f"M2 baseline monotonicity: {chip} {mitigation} "
                    f"{pattern}: bare acmin rises from "
                    f"{previous.baseline_acmin} at "
                    f"t_on={previous.t_on:g}ns to {p.baseline_acmin} at "
                    f"t_on={p.t_on:g}ns (ACmin must be non-increasing in "
                    f"tAggON)"
                )
                break
            previous = p

        if mitigation in _PROBABILITY_MECHANISMS:
            previous = None
            for p in points:
                if previous is not None:
                    # Non-decreasing true requirement: the next point's
                    # upper bound must not sit below the previous
                    # point's lower bound.
                    lower_prev, _ = _probability_requirement(previous)
                    _, upper_next = _probability_requirement(p)
                    if upper_next < lower_prev:
                        violations.append(
                            f"M3 probability monotonicity: {chip} "
                            f"{mitigation} {pattern}: the critical "
                            f"probability falls from above "
                            f"{lower_prev:g} at t_on={previous.t_on:g}ns "
                            f"to at most {upper_next:g} at "
                            f"t_on={p.t_on:g}ns (Hypothesis 2: required "
                            f"strength is non-decreasing in tAggON)"
                        )
                        break
                previous = p
        elif mitigation in _THRESHOLD_MECHANISMS:
            previous = None
            for p in points:
                if previous is not None:
                    thr_prev = _threshold_requirement(previous)
                    thr_next = _threshold_requirement(p)
                    if thr_next > thr_prev:
                        violations.append(
                            f"M4 threshold monotonicity: {chip} "
                            f"{mitigation} {pattern}: the critical "
                            f"threshold rises from {thr_prev:g} at "
                            f"t_on={previous.t_on:g}ns to {thr_next:g} "
                            f"at t_on={p.t_on:g}ns (Hypothesis 2: the "
                            f"counter must only get stricter as tAggON "
                            f"grows)"
                        )
                        break
                previous = p

    # M5: combined == double-sided at tAggON = tRAS.
    for (chip, mitigation, pattern, t_on), p in sorted(by_point.items()):
        if len(violations) >= max_violations:
            return violations
        if pattern != "combined":
            continue
        if not math.isclose(t_on, timings.tRAS, rel_tol=_FLOAT_RTOL):
            continue
        ds = by_point.get((chip, mitigation, "double-sided", t_on))
        if ds is None:
            continue
        fields = (
            "baseline_acmin",
            "baseline_iterations",
            "time_to_first_ns",
            "critical_value",
            "defeated",
        )
        for name in fields:
            mine, theirs = getattr(p, name), getattr(ds, name)
            if mine != theirs:
                violations.append(
                    f"M5 RowHammer degeneracy: {chip} {mitigation} at "
                    f"t_on=tRAS={timings.tRAS:g}ns: combined "
                    f"{name}={mine!r} != double-sided {name}={theirs!r} "
                    f"(the patterns are identical at tAggON=tRAS)"
                )
                break
    return violations[:max_violations]


def require_mitigation_invariants(
    results,
    source: Optional[str] = None,
    timings: Optional[DDR4Timings] = None,
) -> None:
    """Raise :class:`InvariantViolationError` listing every violation."""
    violations = check_mitigation_invariants(results, timings=timings)
    if violations:
        prefix = f"{source}: " if source else ""
        listing = "\n  - ".join(violations)
        raise InvariantViolationError(
            f"{prefix}{len(violations)} mitigation-invariant violation(s):"
            f"\n  - {listing}"
        )


def mitigation_results_digest(results) -> str:
    """Canonical sha256 of a MitigationResults (order-independent); the
    mitigation counterpart of :func:`results_digest`."""
    from repro.mitigations.campaign import MITIGATION_KIND

    return MITIGATION_KIND.digest(results)


# ------------------------------------------------------------ determinism


def results_digest(results: Iterable[DieMeasurement]) -> str:
    """Canonical sha256 of a ResultSet (order-independent, census
    included): :meth:`~repro.core.results.MeasurementKind.digest` of the
    characterization kind."""
    return MEASUREMENT_KIND.digest(results)


def check_cross_executor(
    config=None,
    module_keys: Sequence[str] = ("S0",),
    t_values: Sequence[float] = (36.0, 636.0),
    trials: int = 1,
    workers: int = 2,
    executors: Sequence[str] = ("serial", "process"),
    patterns: Optional[Sequence] = None,
) -> str:
    """Prove cross-executor determinism on a small probe campaign.

    Runs the same (modules, t_values, trials) sweep on each named
    executor (``"serial"``, ``"process"`` -- the pool in whatever
    worker-state mode this platform uses -- or ``"auto"``) with
    independent caches and compares canonical digests;
    raises :class:`InvariantViolationError` on a mismatch and returns
    the common digest otherwise.  The probe is
    deliberately small (one module, two points by default): determinism
    is a property of the named-RNG derivation, not of campaign size.
    The default pair proves the pool path against the in-process one
    (a second or two of pool spin-up).

    ``patterns`` restricts (or extends) the probe's pattern set: each
    entry is an :class:`~repro.patterns.base.AccessPattern` /
    :class:`~repro.patterns.dsl.PatternSpec` instance or a DSL registry
    name (``"half-double"``, ``"4-sided-combined"``, ...) resolved via
    :func:`repro.patterns.dsl.resolve_pattern`.  The default ``None``
    sweeps the paper's three patterns, exactly as before the DSL.
    """
    # Local imports: the validation layer must not drag the execution
    # engine in for pure artifact checks.
    from repro.core.engine import (
        AutoExecutor,
        ProcessExecutor,
        SerialExecutor,
    )
    from repro.core.experiment import CharacterizationConfig
    from repro.core.runner import CharacterizationRunner
    from repro.errors import ExperimentError
    from repro.patterns.base import ALL_PATTERNS
    from repro.patterns.dsl import resolve_pattern
    from repro.system import build_modules

    factories = {
        "serial": SerialExecutor,
        "process": lambda: ProcessExecutor(workers),
        "auto": lambda: AutoExecutor(workers),
    }
    if len(executors) < 2:
        raise ExperimentError(
            "check_cross_executor needs at least two executors to compare"
        )
    unknown = [name for name in executors if name not in factories]
    if unknown:
        raise ExperimentError(
            f"unknown executor(s) {unknown} (expected one of "
            f"{sorted(factories)})"
        )
    if config is None:
        config = CharacterizationConfig()
    if patterns is None:
        patterns = ALL_PATTERNS
    resolved_patterns = tuple(
        resolve_pattern(p) if isinstance(p, str) else p for p in patterns
    )
    modules = build_modules(module_keys, config)
    digests: Dict[str, str] = {}
    for name in executors:
        results = CharacterizationRunner(config).characterize(
            modules, t_values, resolved_patterns, trials=trials,
            executor=factories[name](),
        )
        digests[name] = results_digest(results)
    reference_name = executors[0]
    reference = digests[reference_name]
    for name, digest in digests.items():
        if digest != reference:
            raise InvariantViolationError(
                f"cross-executor determinism violated: the same campaign "
                f"digests to sha256:{reference} on {reference_name} but "
                f"sha256:{digest} on {name}; named-RNG derivation or "
                f"canonical merge order is broken"
            )
    return reference
