"""Figure-series generation (Figs. 4, 5, 6 of the paper).

Each function reduces a :class:`~repro.core.results.ResultSet` to the
series a figure plots: x = tAggON, y = mean metric per manufacturer (or
module) with a standard-deviation band, one series per pattern.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.aggregate import (
    AggregatePoint,
    aggregate_acmin,
    aggregate_direction_fraction,
    aggregate_overlap,
    aggregate_time_ms,
)
from repro.core.results import ResultSet


@dataclass
class Fig4Series:
    """One line of a Fig.-4-style plot.

    Attributes:
        label: e.g. ``"S/combined"``.
        t_values: x axis (tAggON, ns).
        points: aggregate per x value (NaN mean = no die flipped).
    """

    label: str
    t_values: List[float] = field(default_factory=list)
    points: List[AggregatePoint] = field(default_factory=list)

    @property
    def means(self) -> List[float]:
        return [p.mean for p in self.points]

    @property
    def stds(self) -> List[float]:
        return [p.std for p in self.points]


def fig4_series(
    results: ResultSet,
    metric: str = "time",
    group_by_manufacturer: bool = True,
) -> List[Fig4Series]:
    """Fig. 4 series: time-to-first-bitflip or ACmin vs tAggON.

    Args:
        metric: ``"time"`` (milliseconds, top row of Fig. 4) or
            ``"acmin"`` (bottom row).
        group_by_manufacturer: group series per manufacturer (as in the
            paper) or per module.
    """
    if metric == "time":
        aggregator = aggregate_time_ms
    elif metric == "acmin":
        aggregator = aggregate_acmin
    else:
        raise ValueError(f"unknown Fig. 4 metric {metric!r}")
    groups = sorted(
        {m.manufacturer if group_by_manufacturer else m.module_key for m in results}
    )
    out: List[Fig4Series] = []
    for group in groups:
        subset = (
            results.where(manufacturer=group)
            if group_by_manufacturer
            else results.where(module_key=group)
        )
        for pattern in subset.patterns():
            sub = subset.where(pattern=pattern)
            series = Fig4Series(label=f"{group}/{pattern}")
            for t_on in sub.t_values():
                series.t_values.append(t_on)
                series.points.append(aggregator(sub.where(t_on=t_on)))
            out.append(series)
    return out


def fig5_series(results: ResultSet) -> List[Fig4Series]:
    """Fig. 5 series: fraction of 1-to-0 bitflips of the combined pattern
    vs tAggON, one series per module (the paper plots per die)."""
    out: List[Fig4Series] = []
    for key in results.module_keys():
        sub = results.where(module_key=key, pattern="combined")
        series = Fig4Series(label=key)
        for t_on in sub.t_values():
            series.t_values.append(t_on)
            series.points.append(
                aggregate_direction_fraction(sub.where(t_on=t_on))
            )
        out.append(series)
    return out


def fig6_series(
    results: ResultSet,
    conventional_pattern: str,
    group_by_manufacturer: bool = True,
) -> List[Fig4Series]:
    """Fig. 6 series: overlap of the combined pattern's bitflips with a
    conventional pattern's, vs tAggON.

    Args:
        conventional_pattern: ``"single-sided"`` (top row of Fig. 6) or
            ``"double-sided"`` (bottom row).
    """
    groups = sorted(
        {m.manufacturer if group_by_manufacturer else m.module_key for m in results}
    )
    out: List[Fig4Series] = []
    for group in groups:
        subset = (
            results.where(manufacturer=group)
            if group_by_manufacturer
            else results.where(module_key=group)
        )
        combined = subset.where(pattern="combined")
        conventional = subset.where(pattern=conventional_pattern)
        series = Fig4Series(label=f"{group}/vs-{conventional_pattern}")
        for t_on in combined.t_values():
            series.t_values.append(t_on)
            series.points.append(
                aggregate_overlap(
                    combined.where(t_on=t_on), conventional.where(t_on=t_on)
                )
            )
        out.append(series)
    return out


def series_to_csv(series_list: Sequence[Fig4Series]) -> str:
    """Render series as CSV (label, t_agg_on_ns, mean, std, n, n_total)."""
    buf = io.StringIO()
    buf.write("label,t_agg_on_ns,mean,std,n,n_total\n")
    for series in series_list:
        for t_on, point in zip(series.t_values, series.points):
            buf.write(
                f"{series.label},{t_on:g},{point.mean:.6g},{point.std:.6g},"
                f"{point.n},{point.n_total}\n"
            )
    return buf.getvalue()
