"""Tests for the DRAM bank state machine and flip materialization."""

import numpy as np
import pytest

from repro.dram.bank import Bank
from repro.dram.topology import BankGeometry
from repro.errors import DeviceStateError

from repro.testing import make_synthetic_chip

GEOM = BankGeometry(rows=32, cols_simulated=16)


def make_bank():
    return Bank(GEOM)


def bits(value: int = 0) -> np.ndarray:
    return np.full(GEOM.cols_simulated, value, dtype=np.uint8)


def test_activate_precharge_cycle():
    bank = make_bank()
    bank.activate(3, now=0.0)
    assert bank.open_row == 3
    bank.precharge(now=36.0)
    assert bank.open_row is None


def test_double_activation_rejected():
    bank = make_bank()
    bank.activate(3, now=0.0)
    with pytest.raises(DeviceStateError):
        bank.activate(4, now=10.0)


def test_precharge_without_open_row_rejected():
    with pytest.raises(DeviceStateError):
        make_bank().precharge(now=0.0)


def test_activate_out_of_range_rejected():
    with pytest.raises(DeviceStateError):
        make_bank().activate(GEOM.rows, now=0.0)


def test_write_then_read_roundtrip():
    bank = make_bank()
    bank.activate(5, now=0.0)
    bank.write(5, bits(1), now=10.0)
    assert (bank.read(5, now=20.0) == 1).all()


def test_read_unwritten_row_rejected():
    bank = make_bank()
    bank.activate(5, now=0.0)
    with pytest.raises(DeviceStateError):
        bank.read(5, now=10.0)


def test_write_wrong_shape_rejected():
    bank = make_bank()
    bank.activate(5, now=0.0)
    with pytest.raises(DeviceStateError):
        bank.write(5, np.ones(3, dtype=np.uint8), now=1.0)


def test_write_non_binary_rejected():
    bank = make_bank()
    bank.activate(5, now=0.0)
    with pytest.raises(DeviceStateError):
        bank.write(5, np.full(GEOM.cols_simulated, 2, dtype=np.uint8), now=1.0)


def test_time_going_backwards_rejected():
    bank = make_bank()
    bank.activate(5, now=100.0)
    with pytest.raises(DeviceStateError):
        bank.precharge(now=50.0)


def test_refresh_open_row_rejected():
    chip = make_synthetic_chip()
    bank = chip.bank(0)
    bank.activate(5, now=0.0)
    with pytest.raises(DeviceStateError):
        bank.refresh_row(5, now=1.0)


def _hammer(bank, row, n, t_on=7_800.0, start=0.0):
    """Raw hammer helper operating directly on the bank."""
    now = start
    for _ in range(n):
        bank.activate(row, now)
        now += t_on
        bank.precharge(now)
        now += 15.0
    return now


def test_disturbance_flips_victim_and_write_resets():
    chip = make_synthetic_chip(theta_scale=30.0)
    bank = chip.bank(0)
    victim = 10
    init = np.ones(chip.geometry.cols_simulated, dtype=np.uint8)
    bank.activate(victim, 0.0)
    bank.write(victim, init, 1.0)
    bank.precharge(40.0)
    now = _hammer(bank, victim - 1, 500, start=100.0)
    bank.activate(victim, now + 20.0)
    flipped = bank.read(victim, now + 30.0)
    assert (flipped != init).any()
    bank.precharge(now + 60.0)
    # Re-writing restores the data and clears the accumulators.
    bank.activate(victim, now + 100.0)
    bank.write(victim, init, now + 101.0)
    assert (bank.read(victim, now + 102.0) == init).all()


def test_flips_materialize_only_on_activation():
    chip = make_synthetic_chip(theta_scale=30.0)
    bank = chip.bank(0)
    victim = 10
    init = np.ones(chip.geometry.cols_simulated, dtype=np.uint8)
    bank.activate(victim, 0.0)
    bank.write(victim, init, 1.0)
    bank.precharge(40.0)
    _hammer(bank, victim - 1, 500, start=100.0)
    # stored_bits inspects raw storage: not yet materialized.
    assert (bank.stored_bits(victim) == init).all()


@pytest.mark.parametrize(
    "data",
    [
        np.array([256, 257] * (GEOM.cols_simulated // 2), dtype=np.int64),
        np.array([0.6, 1.9] * (GEOM.cols_simulated // 2)),
    ],
    ids=["int64-wraps-to-0-1", "float-truncates-to-0-1"],
)
def test_write_rejects_values_the_uint8_cast_would_turn_into_bits(data):
    bank = make_bank()
    bank.activate(5, now=0.0)
    with pytest.raises(DeviceStateError, match="0/1"):
        bank.write(5, data, now=1.0)
    assert bank.stored_bits(5) is None


def test_write_and_read_without_open_row_rejected():
    bank = make_bank()
    with pytest.raises(DeviceStateError, match="no row is open"):
        bank.write(None, bits(1), now=0.0)
    with pytest.raises(DeviceStateError, match="no row is open"):
        bank.read(None, now=1.0)
    bank.activate(5, now=2.0)
    bank.write(5, bits(1), now=3.0)
    bank.precharge(now=40.0)
    with pytest.raises(DeviceStateError, match="no row is open"):
        bank.write(None, bits(0), now=60.0)
    with pytest.raises(DeviceStateError, match="no row is open"):
        bank.read(None, now=61.0)
