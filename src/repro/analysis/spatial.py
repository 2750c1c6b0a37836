"""Spatial analysis of bitflip censuses.

Prior work (paper ref [75], HPCA 2024) shows read-disturbance
vulnerability varies spatially; for the combined pattern the immediately
interesting spatial questions are which *victim role* flips (the inner
victim between the aggressors vs the outer victims) and how flips spread
along the row.  These reductions drive the spatial-distribution
benchmark and give downstream mitigation studies (e.g. blast-radius
sizing) the numbers they need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from repro.core.bitflips import BitflipCensus, key_cols, key_rows
from repro.errors import ExperimentError


@dataclass(frozen=True)
class RoleBreakdown:
    """Bitflip counts per victim role.

    ``inner`` is the victim between the two aggressors; ``outer`` are the
    rows one beyond each aggressor; ``elsewhere`` should be zero for a
    blast radius of 1 (its nonzero-ness is itself a finding).
    """

    inner: int
    outer: int
    elsewhere: int

    @property
    def total(self) -> int:
        return self.inner + self.outer + self.elsewhere

    @property
    def inner_fraction(self) -> float:
        return self.inner / self.total if self.total else float("nan")


def role_breakdown(
    census: BitflipCensus, base_rows: Iterable[int]
) -> RoleBreakdown:
    """Classify each flipped cell by its victim role.

    ``base_rows`` are the pattern locations' base physical rows (the
    lower aggressor of each triple, as used by the runner).
    """
    inner_rows = set()
    outer_rows = set()
    for base in base_rows:
        inner_rows.add(base + 1)
        outer_rows.update((base - 1, base + 3))
    overlap = inner_rows & outer_rows
    if overlap:
        raise ExperimentError(
            f"pattern locations share victim rows: {sorted(overlap)[:4]}"
        )
    rows = key_rows(census.all_keys)
    inner = int(np.isin(rows, list(inner_rows)).sum())
    outer = int(np.isin(rows, list(outer_rows)).sum())
    return RoleBreakdown(inner=inner, outer=outer, elsewhere=rows.size - inner - outer)


def flips_per_row(census: BitflipCensus) -> Dict[int, int]:
    """Histogram of flips over physical rows."""
    rows, counts = np.unique(key_rows(census.all_keys), return_counts=True)
    return dict(zip(rows.tolist(), counts.tolist()))


def column_histogram(
    census: BitflipCensus, n_cols: int, n_bins: int = 8
) -> Tuple[int, ...]:
    """Histogram of flips over equal column bins (spatial spread along
    the row)."""
    if n_bins < 1 or n_cols < n_bins:
        raise ExperimentError("need at least one column per bin")
    cols = key_cols(census.all_keys)
    outside = cols[cols >= n_cols]
    if outside.size:
        raise ExperimentError(f"column {outside[0]} outside the row ({n_cols})")
    return tuple(np.bincount(cols * n_bins // n_cols, minlength=n_bins).tolist())


def column_spread_is_uniform(
    histogram: Mapping[int, int] | Tuple[int, ...],
    tolerance: float = 0.5,
) -> bool:
    """Chi-square-style uniformity check of a column histogram.

    Returns ``True`` when no bin deviates from the uniform expectation by
    more than ``tolerance`` (relative).  With per-cell i.i.d.
    susceptibility the spread should be uniform; clustering would signal
    a modeling or layout artifact.
    """
    values = list(histogram.values()) if isinstance(histogram, Mapping) else list(histogram)
    total = sum(values)
    if total == 0:
        return True
    expected = total / len(values)
    return all(abs(v - expected) <= tolerance * expected + 3 for v in values)
