"""Aggregation of measurements across dies / trials / modules.

The paper's Fig. 4 plots, per manufacturer, the mean and standard
deviation across all tested dies of the time to first bitflip and ACmin
at each tAggON.  Measurements that observed no bitflip within the runtime
bound are excluded from the aggregates (they have no value), matching the
censored semantics of the published numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.bitflips import BitflipCensus, direction_fraction_1_to_0
from repro.core.overlap import overlap_ratio
from repro.core.results import ResultSet


@dataclass(frozen=True)
class AggregatePoint:
    """Mean +/- std of one metric at one (group, tAggON) point.

    ``n`` counts the contributing measurements; ``n_total`` includes the
    censored ("No Bitflip") ones.
    """

    mean: float
    std: float
    n: int
    n_total: int

    @property
    def all_flipped(self) -> bool:
        return self.n == self.n_total


def _aggregate(values: List[Optional[float]]) -> AggregatePoint:
    present = [v for v in values if v is not None and not math.isnan(v)]
    n = len(present)
    if n == 0:
        return AggregatePoint(math.nan, math.nan, 0, len(values))
    mean = sum(present) / n
    var = sum((v - mean) ** 2 for v in present) / n
    return AggregatePoint(mean, math.sqrt(var), n, len(values))


def aggregate_acmin(results: ResultSet) -> AggregatePoint:
    """Mean/std of ACmin over the measurements in ``results``."""
    return _aggregate([m.acmin for m in results])


def aggregate_time_ms(results: ResultSet) -> AggregatePoint:
    """Mean/std of time-to-first-bitflip (ms) over the measurements."""
    return _aggregate([m.time_to_first_ms for m in results])


def aggregate_direction_fraction(results: ResultSet) -> AggregatePoint:
    """Mean/std of the 1-to-0 bitflip fraction (Fig. 5 metric)."""
    values: List[Optional[float]] = []
    for m in results:
        frac = direction_fraction_1_to_0(m.census)
        values.append(None if math.isnan(frac) else frac)
    return _aggregate(values)


def aggregate_overlap(
    combined: ResultSet, conventional: ResultSet
) -> AggregatePoint:
    """Mean/std of the bitflip overlap ratio (Fig. 6 metric).

    Measurements are matched by (module, die, tAggON, trial); pairs where
    the conventional pattern observed no bitflips are skipped (the ratio
    is undefined there).
    """
    conv_index: Dict[Tuple, BitflipCensus] = {
        (m.module_key, m.die, m.t_on, m.trial): m.census for m in conventional
    }
    values: List[Optional[float]] = []
    for m in combined:
        conv = conv_index.get((m.module_key, m.die, m.t_on, m.trial))
        if conv is None:
            continue
        values.append(overlap_ratio(m.census, conv))
    return _aggregate(values)


def per_t_aggregates(
    results: ResultSet,
    metric: Callable[[ResultSet], AggregatePoint],
) -> Dict[float, AggregatePoint]:
    """Apply a metric aggregator per tAggON value."""
    return {
        t_on: metric(results.where(t_on=t_on)) for t_on in results.t_values()
    }


def exclude_press_immune(results: ResultSet) -> ResultSet:
    """Drop measurements of the press-immune modules (M1/M2).

    Their dies report No Bitflip for most press measurements, and which
    of them clear the 60 ms activation budget differs across patterns
    (the budgets differ), so including them makes censored cross-die
    aggregates incomparable *between* patterns -- the paper's
    per-manufacturer curves are dominated by the press-responsive dies.
    """
    from repro.dram.profiles import MODULE_PROFILES

    immune = {k for k, p in MODULE_PROFILES.items() if p.press_immune}
    return results.filter(lambda m: m.module_key not in immune)
