"""Bitflip-set overlap metric (paper Section 4, Fig. 6).

The paper defines the overlap between the combined pattern's bitflips and
a conventional pattern's bitflips as

    |unique bitflips observed in BOTH patterns|
    -------------------------------------------
    |unique bitflips observed in the CONVENTIONAL pattern|

computed per (die, tAggON) and averaged across dies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bitflips import BitflipCensus


def overlap_ratio(
    combined: BitflipCensus, conventional: BitflipCensus
) -> Optional[float]:
    """Overlap of ``combined``'s flips with ``conventional``'s flips.

    Returns ``None`` when the conventional pattern observed no bitflips
    (the ratio is undefined; the paper's plots simply have no point there).
    """
    conventional_keys = conventional.all_keys
    if not conventional_keys.size:
        return None
    common = np.intersect1d(combined.all_keys, conventional_keys, assume_unique=True)
    return common.size / conventional_keys.size
