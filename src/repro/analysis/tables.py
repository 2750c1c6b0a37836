"""Table generation (Tables 1 and 2 of the paper, plus extensions).

Table 1 is the static chip inventory; Table 2 is the per-module ACmin and
time-to-first-bitflip summary at the three anchor on-times, generated from
measurements and printable side by side with the paper's values;
:func:`population_rows` rolls the same aggregates up per (module,
pattern, tAggON) for ``repro-characterize query``.  The
mitigation-strength table (:func:`mitigation_table_rows`) is this
reproduction's answer to the paper's Section 5 implication: per
(chip, pattern, tAggON), the critical parameter each evaluated mechanism
needs -- the smallest protecting PARA probability, the largest protecting
Graphene threshold -- next to the bare baseline and the refresh-window
survival calls.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.results import ResultSet
from repro.dram.profiles import (
    MANUFACTURER_NAMES,
    MODULE_PROFILES,
    ModuleProfile,
)

#: Table 2 anchor columns: (label, pattern, tAggON ns).
TABLE2_COLUMNS: Tuple[Tuple[str, str, float], ...] = (
    ("RH @ 36ns", "double-sided", 36.0),
    ("RP @ 7.8us", "double-sided", 7_800.0),
    ("RP @ 70.2us", "double-sided", 70_200.0),
    ("Comb @ 7.8us", "combined", 7_800.0),
    ("Comb @ 70.2us", "combined", 70_200.0),
)


def table1_inventory() -> List[Dict[str, str]]:
    """The Table 1 chip inventory, one record per module profile."""
    rows = []
    for key in sorted(MODULE_PROFILES):
        p = MODULE_PROFILES[key]
        rows.append(
            {
                "module": key,
                "manufacturer": MANUFACTURER_NAMES[p.manufacturer],
                "dimm_part": p.dimm_part,
                "dram_part": p.dram_part,
                "die_rev": p.die_rev,
                "density": f"{p.organization.density_gbit} Gb",
                "organization": p.organization.org_label,
                "chips": str(p.n_dies),
                "date": p.date_code,
            }
        )
    return rows


def _acmin_avg_min(results: ResultSet) -> Optional[Tuple[float, float]]:
    values = [m.acmin for m in results if m.acmin is not None]
    if not values:
        return None
    return (sum(values) / len(values), min(values))


def _time_avg_min(results: ResultSet) -> Optional[Tuple[float, float]]:
    values = [
        m.time_to_first_ms for m in results if m.time_to_first_ms is not None
    ]
    if not values:
        return None
    return (sum(values) / len(values), min(values))


def table2_rows(results: ResultSet) -> List[Dict[str, object]]:
    """Measured Table 2: per module, ACmin and time avg (min) per anchor.

    Each row carries both the measured value and the paper's published
    value (or ``None`` for "No Bitflip"), ready for the EXPERIMENTS.md
    comparison.
    """
    rows: List[Dict[str, object]] = []
    for key in results.module_keys():
        profile = MODULE_PROFILES.get(key)
        row: Dict[str, object] = {"module": key}
        for label, pattern, t_on in TABLE2_COLUMNS:
            subset = results.where(module_key=key, pattern=pattern, t_on=t_on)
            row[f"{label} [acmin]"] = _acmin_avg_min(subset)
            row[f"{label} [time ms]"] = _time_avg_min(subset)
            if profile is not None:
                row[f"{label} [paper acmin]"] = _paper_acmin(profile, pattern, t_on)
        rows.append(row)
    return rows


def population_rows(results: ResultSet) -> List[Dict[str, object]]:
    """Per-(module, pattern, tAggON) rollups of a stored population.

    The ``query`` table: one row per cell, in sorted key order, with the
    measurement count, how many flipped, ACmin and time avg (min) in
    :func:`table2_rows`' tuple shape, and the exact p50/p90 ACmin order
    statistics (``-`` when nothing flipped).
    """
    rows: List[Dict[str, object]] = []
    cells = results.group_by(lambda m: (m.module_key, m.pattern, m.t_on))
    for (module, pattern, t_on), cell in sorted(cells.items()):
        acmins = sorted(m.acmin for m in cell if m.acmin is not None)
        rows.append(
            {
                "group": module,
                "pattern": pattern,
                "tAggON": f"{t_on:g} ns",
                "n": len(cell),
                "flipped": len(acmins),
                "acmin avg (min)": _acmin_avg_min(cell),
                "acmin p50": _order_statistic(acmins, 0.5),
                "acmin p90": _order_statistic(acmins, 0.9),
                "time ms avg (min)": _time_avg_min(cell),
            }
        )
    return rows


def _order_statistic(ordered: Sequence[int], q: float) -> str:
    """The ``q``-quantile of sorted values, ``ordered[ceil(q n) - 1]``."""
    if not ordered:
        return "-"
    return f"{ordered[max(0, math.ceil(q * len(ordered)) - 1)]:g}"


def _paper_acmin(
    profile: ModuleProfile, pattern: str, t_on: float
) -> Optional[Tuple[float, float]]:
    if pattern == "double-sided" and t_on == 36.0:
        return profile.acmin_rh36
    table = profile.acmin_rp if pattern == "double-sided" else profile.acmin_combined
    return table.get(t_on)


# -------------------------------------------------- mitigation strength

#: Mechanisms whose critical parameter is a probability (shown as-is)
#: vs. an activation-count threshold (shown as an integer).
_PROBABILITY_MECHANISMS = ("para", "para-press")


def _format_critical(point) -> str:
    """One mechanism's critical parameter as a table cell."""
    if point.defeated:
        return "defeated"
    if point.critical_value is None:
        return "-"  # no bare bitflip: nothing to mitigate at this point
    if point.mitigation in _PROBABILITY_MECHANISMS:
        return f"{point.critical_value:.4g}"
    prefix = ">=" if point.cap_hit else ""
    return f"{prefix}{point.critical_value:.0f}"


def mitigation_table_rows(results) -> List[Dict[str, object]]:
    """The "required mitigation strength vs tAggON" table.

    One row per (chip, pattern, tAggON) in campaign order, carrying the
    shared bare baseline, one critical-parameter column per evaluated
    mechanism, and the refresh-window survival calls.  Reading down a
    (chip, pattern) block shows the paper's Section 5 implication
    directly: the PARA column rises toward 1 (or ``defeated``) and the
    Graphene column falls toward 1 (or ``defeated``) as tAggON grows.

    ``results`` is a :class:`repro.mitigations.campaign.MitigationResults`
    (duck-typed: any iterable of mitigation points works).
    """
    points = list(results)
    mechanisms = sorted({p.mitigation for p in points})
    by_cell: Dict[Tuple[str, str, float], Dict[str, object]] = {}
    order: List[Tuple[str, str, float]] = []
    for p in points:
        key = (p.chip_key, p.pattern, p.t_on)
        if key not in by_cell:
            by_cell[key] = {}
            order.append(key)
        by_cell[key][p.mitigation] = p

    rows: List[Dict[str, object]] = []
    for chip, pattern, t_on in sorted(
        order, key=lambda k: (k[0], k[1], k[2])
    ):
        cell = by_cell[(chip, pattern, t_on)]
        any_point = next(iter(cell.values()))
        row: Dict[str, object] = {
            "chip": chip,
            "pattern": pattern,
            "tAggON": f"{t_on:g} ns",
            "ACmin (bare)": (
                "No Bitflip"
                if any_point.baseline_acmin is None
                else str(any_point.baseline_acmin)
            ),
        }
        for mechanism in mechanisms:
            label = (
                f"{mechanism} [p]"
                if mechanism in _PROBABILITY_MECHANISMS
                else f"{mechanism} [thr]"
            )
            point = cell.get(mechanism)
            row[label] = "-" if point is None else _format_critical(point)
        row["tREFW ok"] = "yes" if any_point.protected_by_trefw else "no"
        row["tREFW/4 ok"] = (
            "yes" if any_point.protected_by_trefw_quarter else "no"
        )
        rows.append(row)
    return rows


@dataclass
class StrengthSeries:
    """One "required strength vs tAggON" line (ascii_line_plot-ready).

    ``means`` carries the critical parameter; defeated or never-flipping
    points are NaN (the plot skips them -- an infinite requirement has
    no finite y).
    """

    label: str
    t_values: List[float] = field(default_factory=list)
    means: List[float] = field(default_factory=list)


def mitigation_strength_series(
    results, mitigation: str, chip_key: Optional[str] = None
) -> List[StrengthSeries]:
    """Per-pattern strength curves for one mechanism.

    One series per (chip, pattern), sorted by tAggON -- the figure
    behind the Section 5 implication ("required mitigation strength vs
    tAggON").  Restrict to one evaluation chip with ``chip_key``.
    """
    nan = float("nan")
    grouped: Dict[Tuple[str, str], List] = {}
    for p in results:
        if p.mitigation != mitigation:
            continue
        if chip_key is not None and p.chip_key != chip_key:
            continue
        grouped.setdefault((p.chip_key, p.pattern), []).append(p)
    series: List[StrengthSeries] = []
    for (chip, pattern), points in sorted(grouped.items()):
        points.sort(key=lambda p: p.t_on)
        series.append(
            StrengthSeries(
                label=f"{chip}/{pattern}",
                t_values=[p.t_on for p in points],
                means=[
                    nan
                    if p.defeated or p.critical_value is None
                    else p.critical_value
                    for p in points
                ],
            )
        )
    return series


def mitigation_to_csv(results) -> str:
    """Flat CSV of a mitigation campaign (one line per point)."""
    buf = io.StringIO()
    buf.write(
        "chip,mitigation,pattern,t_agg_on_ns,baseline_acmin,"
        "time_to_first_ns,critical_value,defeated,cap_hit,"
        "protected_by_trefw,protected_by_trefw_quarter\n"
    )

    def cell(value: object) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            return f"{value:g}"
        return str(value)

    for p in results:
        buf.write(
            ",".join(
                cell(v)
                for v in (
                    p.chip_key, p.mitigation, p.pattern, p.t_on,
                    p.baseline_acmin, p.time_to_first_ns, p.critical_value,
                    p.defeated, p.cap_hit, p.protected_by_trefw,
                    p.protected_by_trefw_quarter,
                )
            )
            + "\n"
        )
    return buf.getvalue()


def _format_cell(value: object) -> str:
    if value is None:
        return "No Bitflip"
    if isinstance(value, tuple):
        avg, mn = value
        return f"{_format_number(avg)} ({_format_number(mn)})"
    return str(value)


def _format_number(x: float) -> str:
    if x != x:  # NaN
        return "-"
    if abs(x) >= 10_000:
        return f"{x / 1000:.1f}K"
    if abs(x) >= 100:
        return f"{x:.0f}"
    return f"{x:.2g}"


def format_table(
    rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None
) -> str:
    """Render records as an aligned text table."""
    if not rows:
        return "(empty table)\n"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_format_cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(w) for col, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
