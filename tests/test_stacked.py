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


_CELL_FIELDS = (
    "theta", "g_h_lo", "g_h_hi", "g_p_lo", "g_p_hi",
    "solo_hammer_mod", "solo_press_exp",
)


def _assert_stack_matches_chip(chip, bank, selection):
    stacked = build_stacked_die(chip, bank, selection, CHECKERBOARD)
    for arrays in stacked.roles.values():
        for i, row in enumerate(arrays.rows):
            cells = chip.cells(bank, int(row))
            for field in _CELL_FIELDS:
                assert np.array_equal(
                    getattr(arrays, field)[i], getattr(cells, field)
                ), (bank, int(row), field)
            # ``anti`` reaches the stack only through ``charged``.
            assert np.array_equal(
                arrays.charged[i], cells.charged_mask(arrays.stored[i])
            )
    return stacked


def test_stacked_cells_match_chip_cells():
    """The batched draw (``victim_rows_block``) sees byte-identical
    populations to the tracker's per-row ``victim_row_cells``, on bank 0
    and on a bank whose row keys lie above 2**32."""
    chip = make_synthetic_chip(rows=256)
    for bank in (0, 3):
        _assert_stack_matches_chip(chip, bank, SEL)


def test_stacked_cells_match_chip_cells_anti_cell_majority(
    m4_module, fast_config
):
    """The same on a calibrated Micron die: anti-cell-majority, with
    calibrated theta/die/press scales, on bank 1."""
    chip = m4_module.chip(1)
    assert chip.population.anti_cell_fraction > 0.5
    stacked = _assert_stack_matches_chip(chip, 1, fast_config.selection)
    inner = stacked.roles["inner"]
    assert (inner.charged != inner.stored_bool).mean() > 0.5


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
