"""Tests for the chip: lazy banks, deterministic cells, address scramble."""

import numpy as np
import pytest

from repro.dram.mapping import XorScrambleMapping
from repro.errors import DeviceStateError

from repro.testing import make_synthetic_chip


def test_banks_are_lazy_and_cached():
    chip = make_synthetic_chip()
    bank = chip.bank(0)
    assert chip.bank(0) is bank
    assert chip.bank(1) is not bank


def test_bank_index_out_of_range():
    chip = make_synthetic_chip()
    with pytest.raises(DeviceStateError):
        chip.bank(chip.n_banks)


def test_cells_are_deterministic():
    a = make_synthetic_chip().cells(0, 7)
    b = make_synthetic_chip().cells(0, 7)
    assert (a.theta == b.theta).all()
    assert (a.g_p_lo == b.g_p_lo).all()
    assert (a.anti == b.anti).all()


def test_cells_differ_across_rows_banks_dies():
    chip = make_synthetic_chip()
    base = chip.cells(0, 7)
    assert not (chip.cells(0, 8).theta == base.theta).all()
    assert not (chip.cells(1, 7).theta == base.theta).all()
    other_die = make_synthetic_chip(die_index=1)
    assert not (other_die.cells(0, 7).theta == base.theta).all()


def test_identity_mapping_by_default():
    chip = make_synthetic_chip()
    assert chip.to_physical(13) == 13
    assert chip.to_logical(13) == 13


def test_scramble_roundtrip():
    mapping = XorScrambleMapping(trigger_mask=0x8, xor_mask=0x6)
    chip = make_synthetic_chip(mapping=mapping)
    for logical in range(32):
        assert chip.to_logical(chip.to_physical(logical)) == logical


def test_charged_mask_uses_anti_cells():
    cells = make_synthetic_chip().cells(0, 3)
    ones = np.ones(cells.n_cells, dtype=np.uint8)
    charged = cells.charged_mask(ones)
    # True cells storing 1 are charged; anti cells storing 1 are not.
    assert (charged == ~cells.anti).all()


def test_charged_mask_shape_check():
    cells = make_synthetic_chip().cells(0, 3)
    with pytest.raises(ValueError):
        cells.charged_mask(np.ones(3, dtype=np.uint8))
