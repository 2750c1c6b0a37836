"""Stacked per-die victim populations (the vectorized fast path).

A pattern location at base physical row ``b`` disturbs a set of victim
*roles*, each identified by its row offset from the base.  The paper's
patterns share the canonical three-role footprint
(:data:`DEFAULT_OFFSETS`):

* ``outer_lo``  -- row ``b - 1`` (below aggressor R0),
* ``inner``     -- row ``b + 1`` (between the two aggressors),
* ``outer_hi``  -- row ``b + 3`` (above aggressor R2),

but the footprint is a *parameter* of the stack: DSL patterns
(:mod:`repro.patterns.dsl`) with wider layouts -- n-sided, half-double --
build stacks over their own offset tuples through the same constructors.

For one die, one row selection, and one footprint, all locations' cells
of a role are stacked into ``(n_locations, n_cells)`` arrays, so the
per-measurement analysis (for any pattern / tAggON / trial) is a handful
of whole-array numpy operations instead of a Python loop over locations.

All roles additionally live in one contiguous *fused* stack of shape
``(n_roles * n_locations, n_cells)`` (role-major, in offset order: the
rows of a role are a contiguous slice); the per-role :class:`RoleArrays`
are views into it.  The closed-form analysis operates on the fused stack
-- one numpy dispatch per step instead of one per role -- while per-role
consumers (tests, the honest-path comparisons) keep their familiar view.

The arrays are byte-for-byte the same cell populations the command-level
:class:`~repro.disturb.tracker.DisturbanceTracker` sees (both derive from
:func:`repro.disturb.population.victim_row_cells` with the same seeds,
keyed purely by (bank, physical row)), which is what lets the test suite
assert exact agreement between the two execution paths -- and what makes
a canonical-footprint stack bit-identical regardless of which patterns
ride on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.dram.chip import Chip, _row_key
from repro.dram.datapattern import DataPattern
from repro.dram.rowselect import RowSelection
from repro.disturb.population import trial_jitter, victim_rows_block
from repro.errors import ExperimentError

#: The canonical victim-role footprint shared by the paper's three
#: patterns (and by every DSL pattern whose victims fit inside it).
DEFAULT_OFFSETS: Tuple[int, ...] = (-1, 1, 3)

#: Canonical role names of the default footprint.
_CANONICAL_NAMES: Dict[int, str] = {-1: "outer_lo", 1: "inner", 3: "outer_hi"}

#: Victim roles and their row offset from a location's base row
#: (the canonical footprint, kept for its established name->offset map).
ROLE_OFFSETS: Dict[str, int] = {"outer_lo": -1, "inner": 1, "outer_hi": 3}

#: Fixed role order of the *canonical* fused stack (the iteration order
#: of :data:`ROLE_OFFSETS`); wide-footprint stacks order roles by their
#: own offset tuple instead.
ROLE_ORDER: Tuple[str, ...] = tuple(ROLE_OFFSETS)


def role_name(offset: int) -> str:
    """The display name of a victim role at ``offset``.

    Canonical offsets keep their established names (``outer_lo`` /
    ``inner`` / ``outer_hi``); any other offset is named by its signed
    distance from the base row (``off+5``, ``off-2``).
    """
    return _CANONICAL_NAMES.get(offset, f"off{offset:+d}")


def role_names(offsets: Tuple[int, ...]) -> Tuple[str, ...]:
    """Role names of a footprint, in stack (offset-tuple) order."""
    return tuple(role_name(offset) for offset in offsets)

#: Array fields of :class:`RoleArrays`; each per-role view slices every
#: one of them out of the fused stack.  ``rows`` is 1-D; every other
#: field is a ``(rows, n_cells)`` stack.
FUSED_FIELDS: Tuple[str, ...] = (
    "rows",
    "theta",
    "g_h_lo",
    "g_h_hi",
    "g_p_lo",
    "g_p_hi",
    "solo_hammer_mod",
    "solo_press_exp",
    "charged",
    "stored",
    "press_lo",
    "press_hi",
    "stored_bool",
)


@dataclass(frozen=True)
class RoleArrays:
    """Cells of one victim role, stacked over all locations of a die.

    All 2-D arrays have shape ``(n_locations, n_cells)``.

    ``press_lo`` / ``press_hi`` are the press couplings masked to charged
    cells and ``stored_bool`` is ``stored`` as booleans -- derived once at
    build time so the per-measurement analysis avoids re-deriving them for
    every (pattern, tAggON, trial) point.
    """

    role: str
    rows: np.ndarray  # (n_locations,) physical row of this role per location
    theta: np.ndarray
    g_h_lo: np.ndarray
    g_h_hi: np.ndarray
    g_p_lo: np.ndarray
    g_p_hi: np.ndarray
    solo_hammer_mod: np.ndarray
    solo_press_exp: np.ndarray
    charged: np.ndarray  # bool: cell holds charge given the stored data
    stored: np.ndarray  # uint8 stored bits
    press_lo: np.ndarray  # g_p_lo where charged, else 0 (press-only denom)
    press_hi: np.ndarray  # g_p_hi where charged, else 0
    stored_bool: np.ndarray  # bool view of ``stored``

    @property
    def n_locations(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_cells(self) -> int:
        return int(self.theta.shape[1])


@dataclass(frozen=True)
class StackedDie:
    """All victim roles of one die under one row selection and footprint.

    ``role_offsets`` is the stack's victim footprint (row offsets from
    each location's base, ascending); ``fused`` stacks the roles in that
    order into single ``(n_roles * n_locations, n_cells)`` arrays and
    ``roles`` holds per-role views into it, keyed by :func:`role_name`.
    """

    module_key: str
    die_index: int
    bank: int
    base_rows: Tuple[int, ...]
    roles: Dict[str, RoleArrays]
    fused: RoleArrays = None
    role_offsets: Tuple[int, ...] = DEFAULT_OFFSETS
    _jitter_cache: Dict[Tuple, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n_locations(self) -> int:
        return len(self.base_rows)

    @property
    def role_order(self) -> Tuple[str, ...]:
        """Role names in stack order (the footprint's offset order)."""
        return role_names(self.role_offsets)

    def jitter(self, role: str, trial: int, sigma: float = 0.02) -> np.ndarray:
        """Per-trial multiplicative threshold jitter for one role.

        The jitter depends only on (role offset, trial, sigma) -- not on
        the pattern, the footprint, or tAggON -- so it is cached for the
        die's lifetime, reused across every point of a sweep, and
        identical for the same role across stacks of different widths.
        """
        key = (role, trial, sigma)
        cached = self._jitter_cache.get(key)
        if cached is None:
            arrays = self.roles[role]
            offset = self.role_offsets[self.role_order.index(role)]
            flat = trial_jitter(
                self.module_key,
                self.die_index,
                _jitter_key(self.bank, offset),
                arrays.theta.size,
                trial,
                sigma=sigma,
            )
            cached = flat.reshape(arrays.theta.shape)
            self._jitter_cache[key] = cached
        return cached

    def fused_jitter(self, trial: int, sigma: float = 0.02) -> np.ndarray:
        """Role-fused jitter stack (cached), matching ``fused`` row order."""
        key = ("__fused__", trial, sigma)
        cached = self._jitter_cache.get(key)
        if cached is None:
            cached = np.concatenate(
                [self.jitter(role, trial, sigma) for role in self.role_order]
            )
            self._jitter_cache[key] = cached
        return cached


def build_stacked_die(
    chip: Chip,
    bank: int,
    selection: RowSelection,
    data_pattern: DataPattern,
    offsets: Tuple[int, ...] = DEFAULT_OFFSETS,
) -> StackedDie:
    """Materialize the stacked victim populations of one die.

    All ``n_roles * n_locations`` victim rows are generated in one bulk
    draw (:func:`~repro.disturb.population.victim_rows_block`) directly
    into the fused stack; the per-role arrays are views into it.
    ``offsets`` is the victim footprint (default: the paper patterns'
    canonical triple); every ``base + offset`` row must fit in the bank.
    """
    offsets = tuple(offsets)
    base_rows = selection.base_rows(chip.geometry)
    n_cells = chip.geometry.cols_simulated
    n_loc = len(base_rows)
    lo = min(base_rows) + min(offsets)
    hi = max(base_rows) + max(offsets)
    if lo < 0 or hi >= chip.geometry.rows:
        raise ExperimentError(
            f"victim footprint {offsets} over base rows "
            f"{min(base_rows)}..{max(base_rows)} needs rows {lo}..{hi}, "
            f"outside a bank of {chip.geometry.rows} rows"
        )
    rows_per_role = [
        np.array([b + offset for b in base_rows]) for offset in offsets
    ]
    all_rows = np.concatenate(rows_per_role)
    block = victim_rows_block(
        chip.module_key,
        chip.die_index,
        [_row_key(bank, int(r)) for r in all_rows],
        n_cells,
        chip.population,
    )
    # Stored bits depend only on row parity, so two template rows cover
    # the whole stack.
    stored = np.where(
        (all_rows % 2 == 0)[:, None],
        data_pattern.victim_bits(0, n_cells),
        data_pattern.victim_bits(1, n_cells),
    )
    stored_bool = stored.astype(bool)
    charged = stored_bool ^ block["anti"]
    fused = RoleArrays(
        role="__fused__",
        rows=all_rows,
        theta=block["theta"],
        g_h_lo=block["g_h_lo"],
        g_h_hi=block["g_h_hi"],
        g_p_lo=block["g_p_lo"],
        g_p_hi=block["g_p_hi"],
        solo_hammer_mod=block["solo_hammer_mod"],
        solo_press_exp=block["solo_press_exp"],
        charged=charged,
        stored=stored,
        press_lo=np.where(charged, block["g_p_lo"], 0.0),
        press_hi=np.where(charged, block["g_p_hi"], 0.0),
        stored_bool=stored_bool,
    )
    roles: Dict[str, RoleArrays] = {}
    for k, role in enumerate(role_names(offsets)):
        sl = slice(k * n_loc, (k + 1) * n_loc)
        roles[role] = RoleArrays(
            role=role,
            **{name: getattr(fused, name)[sl] for name in FUSED_FIELDS},
        )
    return StackedDie(
        module_key=chip.module_key,
        die_index=chip.die_index,
        bank=bank,
        base_rows=tuple(base_rows),
        roles=roles,
        fused=fused,
        role_offsets=offsets,
    )


def _jitter_key(bank: int, offset: int) -> int:
    """Stable integer key distinguishing jitter streams per (bank, role
    offset) -- footprint-independent, so a role draws the same jitter
    stream in a canonical stack and in any wider stack containing it."""
    return _row_key(bank, offset & 0xFFFF)
