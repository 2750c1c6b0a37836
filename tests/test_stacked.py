"""Tests for the stacked per-die populations."""

import numpy as np

from repro.core.stacked import ROLE_OFFSETS, build_stacked_die
from repro.dram.datapattern import CHECKERBOARD
from repro.dram.rowselect import RowSelection

from repro.testing import make_synthetic_chip

SEL = RowSelection(locations_per_region=4, n_regions=1, stride=8)


def build(chip=None):
    chip = chip or make_synthetic_chip(rows=256)
    return build_stacked_die(chip, 0, SEL, CHECKERBOARD)


def test_roles_and_shapes():
    stacked = build()
    assert set(stacked.roles) == {"inner", "outer_lo", "outer_hi"}
    for role in stacked.roles.values():
        assert role.theta.shape == (4, 64)
        assert role.rows.shape == (4,)


def test_role_rows_offset_from_base():
    stacked = build()
    for role, offset in ROLE_OFFSETS.items():
        expected = [b + offset for b in stacked.base_rows]
        assert stacked.roles[role].rows.tolist() == expected


def test_stacked_cells_match_chip_cells():
    """The fast path sees byte-identical populations to the tracker."""
    chip = make_synthetic_chip(rows=256)
    stacked = build(chip)
    inner = stacked.roles["inner"]
    for i, row in enumerate(inner.rows):
        cells = chip.cells(0, int(row))
        assert (inner.theta[i] == cells.theta).all()
        assert (inner.g_p_lo[i] == cells.g_p_lo).all()
        assert (inner.solo_press_exp[i] == cells.solo_press_exp).all()


def test_charged_consistent_with_data_pattern():
    stacked = build()
    inner = stacked.roles["inner"]
    expected = inner.stored.astype(bool) ^ np.stack(
        [
            make_synthetic_chip(rows=256).cells(0, int(r)).anti
            for r in inner.rows
        ]
    )
    assert (inner.charged == expected).all()


def test_jitter_trial_zero_identity():
    stacked = build()
    assert (stacked.jitter("inner", 0) == 1.0).all()


def test_jitter_shapes_and_determinism():
    a = build().jitter("inner", 2)
    b = build().jitter("inner", 2)
    assert a.shape == (4, 64)
    assert (a == b).all()
    assert not (a == build().jitter("outer_lo", 2)).all()
