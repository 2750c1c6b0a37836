"""Per-cell disturbance-susceptibility populations.

Each simulated victim row carries, per cell:

* ``theta`` -- the flip threshold (amount of accumulated disturbance that
  flips the cell), lognormally distributed;
* ``g_h_lo / g_h_hi`` -- hammer (charge-gain) coupling to the aggressor
  physically below / above the victim;
* ``g_p_lo / g_p_hi`` -- press (charge-loss) coupling to the aggressor
  below / above;
* ``anti`` -- whether the cell is an anti-cell (charged state encodes
  logical 0); Mfr. M dies other than the 16 Gb B-die are
  anti-cell-majority, which inverts the bitflip-direction trend (paper
  Fig. 5 footnote).

All arrays are generated deterministically from
``(module_key, die_index, physical_row)``, so the *same* victim row seen by
different access patterns (or by the closed-form fast path and the
command-level interpreter) always has identical cells -- this is what makes
the bitflip-overlap analysis of Fig. 6 meaningful.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro import rng


@dataclass(frozen=True)
class PopulationParams:
    """Statistical parameters of the cell population.

    Attributes:
        sigma_theta: lognormal sigma of the flip thresholds.
        sigma_hammer: lognormal sigma of the hammer couplings (the
            couplings to the two sides are independent: the two physical
            borders of a victim row differ).
        sigma_press: lognormal sigma of a cell's intrinsic press
            susceptibility, shared by both sides (press-induced charge
            loss is dominated by the cell's own leakage paths).
        sigma_press_side: lognormal sigma of the per-side press
            modulation on top of the shared cell strength.
        sigma_solo_hammer: lognormal sigma of the per-cell modulation of
            the solo-activation (single-sided) hammer kick -- back-to-back
            re-activations disturb a differently-ordered cell population
            than alternating double-sided activations, which is what
            keeps the single-sided-vs-combined bitflip overlap small at
            small tAggON (paper Fig. 6, top row).
        sigma_solo_press_exp: lognormal sigma of the per-cell *exponent*
            on the solo press efficiency ``gamma(t)``: a cell's solo
            press coupling is ``g_p * gamma(t)**e``.  When ``gamma`` is
            near 1 (large tAggON) the modulation vanishes and the
            single-sided and combined patterns flip the same press-weak
            cells (overlap rises above 75%, paper Observation 5).
        anti_cell_fraction: probability that a cell is an anti-cell.
        theta_scale: global threshold scale; the calibration solver
            adjusts this so the weakest-cell ACmin matches the paper's
            RowHammer anchor.
        die_scale: per-die multiplicative threshold scale (mean 1 across a
            module's dies), reproducing the avg-vs-min spread of Table 2.
        press_scale: per-die multiplicative press-coupling scale.  The
            die-to-die variation of RowPress susceptibility is *not* the
            same as that of RowHammer (the mechanisms differ); the
            calibration solves these so the per-die combined-pattern
            ACmin distribution matches Table 2's press anchors.
    """

    sigma_theta: float = 0.5
    sigma_hammer: float = 0.25
    sigma_press: float = 0.35
    sigma_press_side: float = 0.05
    sigma_solo_hammer: float = 0.5
    sigma_solo_press_exp: float = 0.6
    anti_cell_fraction: float = 0.03
    theta_scale: float = 1.0
    die_scale: float = 1.0
    press_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.anti_cell_fraction <= 1.0:
            raise ValueError("anti_cell_fraction must be in [0, 1]")
        for name in (
            "sigma_theta",
            "sigma_hammer",
            "sigma_press",
            "sigma_press_side",
            "sigma_solo_hammer",
            "sigma_solo_press_exp",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("theta_scale", "die_scale", "press_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def replace(self, **kwargs) -> "PopulationParams":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def with_theta_scale(self, theta_scale: float) -> "PopulationParams":
        return self.replace(theta_scale=theta_scale)

    def with_die_scale(self, die_scale: float) -> "PopulationParams":
        return self.replace(die_scale=die_scale)

    def with_press_scale(self, press_scale: float) -> "PopulationParams":
        return self.replace(press_scale=press_scale)


@dataclass(frozen=True)
class VictimRowCells:
    """Susceptibility arrays for the cells of one victim row."""

    physical_row: int
    theta: np.ndarray
    g_h_lo: np.ndarray
    g_h_hi: np.ndarray
    g_p_lo: np.ndarray
    g_p_hi: np.ndarray
    solo_hammer_mod: np.ndarray
    solo_press_exp: np.ndarray
    anti: np.ndarray  # bool

    @property
    def n_cells(self) -> int:
        return int(self.theta.shape[0])

    def charged_mask(self, stored_bits: np.ndarray) -> np.ndarray:
        """Which cells hold charge given the stored logical bits.

        True cells are charged when storing 1; anti-cells when storing 0.
        """
        bits = np.asarray(stored_bits, dtype=bool)
        if bits.shape != self.anti.shape:
            raise ValueError("stored_bits shape does not match the row")
        return bits ^ self.anti


def victim_row_cells(
    module_key: str,
    die_index: int,
    physical_row: int,
    n_cells: int,
    params: PopulationParams,
) -> VictimRowCells:
    """Generate the deterministic cell population of one victim row."""
    gen = rng.stream("cells", module_key, die_index, physical_row, n_cells)
    scale = params.theta_scale * params.die_scale
    # One batched draw for all eight lognormal fields.  ``normal(0, s, n)``
    # consumes exactly ``n`` samples of the underlying standard-normal
    # stream scaled by ``s``, so scaling rows of a single
    # ``standard_normal((8, n))`` block is bit-identical to eight
    # sequential ``gen.normal`` calls (and several times faster).
    sigmas = np.array(
        [
            params.sigma_theta,
            params.sigma_hammer,
            params.sigma_hammer,
            params.sigma_press,
            params.sigma_press_side,
            params.sigma_press_side,
            params.sigma_solo_hammer,
            params.sigma_solo_press_exp,
        ]
    )
    lognorm = np.exp(sigmas[:, None] * gen.standard_normal((8, n_cells)))
    theta = scale * lognorm[0]
    g_h_lo = lognorm[1]
    g_h_hi = lognorm[2]
    press_strength = lognorm[3]
    g_p_lo = params.press_scale * press_strength * lognorm[4]
    g_p_hi = params.press_scale * press_strength * lognorm[5]
    solo_hammer_mod = lognorm[6]
    solo_press_exp = lognorm[7]
    anti = gen.random(n_cells) < params.anti_cell_fraction
    return VictimRowCells(
        physical_row=physical_row,
        theta=theta,
        g_h_lo=g_h_lo,
        g_h_hi=g_h_hi,
        g_p_lo=g_p_lo,
        g_p_hi=g_p_hi,
        solo_hammer_mod=solo_hammer_mod,
        solo_press_exp=solo_press_exp,
        anti=anti,
    )


def victim_rows_block(
    module_key: str,
    die_index: int,
    physical_rows,
    n_cells: int,
    params: PopulationParams,
):
    """Stacked cell populations of many victim rows at once.

    Returns a dict of ``(n_rows, n_cells)`` arrays (same fields as
    :class:`VictimRowCells`).  Bit-identical per row to
    :func:`victim_row_cells`: each row consumes its own named stream in
    the same draw order (seeded in one batch by :func:`repro.rng.row_streams`,
    which equals :func:`repro.rng.stream` per row); only the post-draw
    arithmetic is hoisted out of the per-row loop (the hoisted ops are
    elementwise in the same order, so every float is reproduced
    exactly).  This is the bulk fast path used to build stacked dies;
    the per-row function remains the authoritative definition (and is
    what the command-level interpreter uses), which the test suite
    asserts by comparing the two.  ``physical_rows`` are the rows'
    ``int`` stream keys.
    """
    n_rows = len(physical_rows)
    z = np.empty((n_rows, 8, n_cells))
    anti_u = np.empty((n_rows, n_cells))
    gens = rng.row_streams(
        ("cells", module_key, die_index), physical_rows, (n_cells,)
    )
    for i, gen in enumerate(gens):
        gen.standard_normal(out=z[i])
        gen.random(out=anti_u[i])
    sigmas = np.array(
        [
            params.sigma_theta,
            params.sigma_hammer,
            params.sigma_hammer,
            params.sigma_press,
            params.sigma_press_side,
            params.sigma_press_side,
            params.sigma_solo_hammer,
            params.sigma_solo_press_exp,
        ]
    )
    np.multiply(z, sigmas[None, :, None], out=z)
    np.exp(z, out=z)
    # One strided pass makes every field contiguous at once; the per-field
    # slices below are then free views (or cheap contiguous elementwise
    # ops) instead of one strided copy each.
    zf = np.ascontiguousarray(z.transpose(1, 0, 2))
    scale = params.theta_scale * params.die_scale
    press = params.press_scale * zf[3]
    return dict(
        theta=scale * zf[0],
        g_h_lo=zf[1],
        g_h_hi=zf[2],
        g_p_lo=press * zf[4],
        g_p_hi=press * zf[5],
        solo_hammer_mod=zf[6],
        solo_press_exp=zf[7],
        anti=anti_u < params.anti_cell_fraction,
    )


def trial_jitter(
    module_key: str,
    die_index: int,
    physical_row: int,
    n_cells: int,
    trial: int,
    sigma: float = 0.02,
) -> np.ndarray:
    """Multiplicative per-cell threshold jitter for one measurement trial.

    Trial 0 is jitter-free (the reference measurement); the paper repeats
    each measurement three times, and run-to-run variation in real chips
    is small but nonzero.
    """
    if trial == 0 or sigma == 0.0:
        return np.ones(n_cells)
    gen = rng.stream("jitter", module_key, die_index, physical_row, trial)
    return np.exp(gen.normal(0.0, sigma, n_cells))
