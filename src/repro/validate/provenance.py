"""Provenance stamps: where a campaign's numbers came from.

A characterization result is only as trustworthy as the environment that
produced it: a different numpy, interpreter, or seed-derivation scheme
can legally change bit-exact outputs even though the physics model is
unchanged.  :func:`provenance_stamp` captures the minimal environment
fingerprint (Python, numpy, platform, the named-RNG seed scheme), which
the engine stamps into every :class:`~repro.core.faults.RunReport` and
digest-enabled artifacts persist; :func:`check_provenance` reports the
drift between a recorded stamp and the current environment so a resume
or a validation pass can warn before mixing measurements from different
worlds.
"""

from __future__ import annotations

import platform
import sys
from typing import Dict, List, Optional

import numpy as np

__all__ = ["SEED_SCHEME", "provenance_stamp", "check_provenance"]

#: Identifier of the seed-derivation scheme (see :mod:`repro.rng`):
#: BLAKE2b over the repr'd key tuple into a numpy SeedSequence.  Two
#: paths implement it and must agree bit for bit: ``rng.stream`` (the
#: definition, one generator per stream) and ``rng.row_streams`` (its
#: batched port of BLAKE2b, SeedSequence and PCG64 seeding, which
#: ``victim_rows_block`` seeds a die's rows with).  Bump if the
#: derivation ever changes -- old results would stop being
#: bit-reproducible.
SEED_SCHEME = "blake2b-seedsequence-v1"

#: The stamp fields compared by :func:`check_provenance`, in report order.
_FIELDS = ("python", "numpy", "platform", "machine", "seed_scheme")


def provenance_stamp() -> Dict[str, str]:
    """The current environment's provenance stamp (JSON-safe dict)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
        "seed_scheme": SEED_SCHEME,
    }


def check_provenance(
    recorded: Dict, current: Optional[Dict[str, str]] = None
) -> List[str]:
    """Compare a recorded stamp against ``current`` (default: this host).

    Returns one human-readable drift line per differing field, empty when
    the environments match.  Unknown or missing fields are reported too:
    a stamp that cannot be compared is itself a provenance problem.
    """
    if current is None:
        current = provenance_stamp()
    drift: List[str] = []
    if not isinstance(recorded, dict):
        return [f"provenance stamp is {type(recorded).__name__}, not a dict"]
    for key in _FIELDS:
        have, want = current.get(key), recorded.get(key)
        if want is None:
            drift.append(f"provenance field {key!r} missing from the stamp")
        elif have != want:
            drift.append(
                f"provenance drift in {key!r}: recorded {want!r}, "
                f"current environment has {have!r}"
            )
    return drift
