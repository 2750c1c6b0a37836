"""Tests for the program interpreter (time accounting, device dispatch)."""

import numpy as np
import pytest

from repro.bender.interpreter import Interpreter
from repro.bender.program import ProgramBuilder
from repro.constants import DEFAULT_TIMINGS
from repro.dram.mapping import XorScrambleMapping
from repro.errors import DeviceStateError, TimingViolationError

from repro.testing import make_synthetic_chip


def write_read_program(row, bits):
    t = DEFAULT_TIMINGS
    builder = ProgramBuilder()
    builder.act(0, row).wait(t.tRCD).wr(0, bits).wait(t.tRAS - t.tRCD)
    builder.pre(0).wait(t.tRP)
    builder.act(0, row).wait(t.tRCD).rd(0).wait(t.tRAS - t.tRCD)
    builder.pre(0).wait(t.tRP)
    return builder.build()


def test_write_read_roundtrip_and_counts():
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    bits = np.tile(np.array([1, 0], dtype=np.uint8), 32)
    result = interp.run(write_read_program(7, bits))
    assert result.activations == 2
    assert len(result.reads) == 1
    _bank, row, data = result.reads[0]
    assert row == 7
    assert (data == bits).all()


def test_time_advances_only_via_wait_and_ref():
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    builder = ProgramBuilder()
    builder.act(0, 1).wait(100.0).pre(0).wait(15.0)
    result = interp.run(builder.build())
    assert result.elapsed_ns == pytest.approx(115.0)
    assert interp.now == pytest.approx(115.0)


def test_timing_violations_propagate():
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    builder = ProgramBuilder()
    builder.act(0, 1).wait(5.0).pre(0)  # tRAS violation
    with pytest.raises(TimingViolationError):
        interp.run(builder.build())


def test_ref_advances_trfc_and_counts():
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    builder = ProgramBuilder()
    builder.ref()
    result = interp.run(builder.build())
    assert result.refreshes == 1
    assert result.elapsed_ns == pytest.approx(DEFAULT_TIMINGS.tRFC)


def test_act_translates_through_row_scramble():
    mapping = XorScrambleMapping(trigger_mask=0x8, xor_mask=0x6)
    chip = make_synthetic_chip(mapping=mapping)
    interp = Interpreter(chip)
    logical = 0xA  # scrambled: physical 0xC
    bits = np.ones(chip.geometry.cols_simulated, dtype=np.uint8)
    result = interp.run(write_read_program(logical, bits))
    physical = mapping.to_physical(logical)
    assert physical != logical
    # The device stored the data at the physical row.
    assert (chip.bank(0).stored_bits(physical) == bits).all()
    # The read-back result reports the physical row it came from.
    assert result.reads[0][1] == physical


def test_observers_see_act_and_ref():
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    events = []
    interp.add_observer(lambda ev, bank, row, now: events.append((ev, row)))
    builder = ProgramBuilder()
    builder.act(0, 3).wait(36.0).pre(0).wait(15.0).ref()
    interp.run(builder.build())
    assert ("ACT", 3) in events
    assert ("REF", -1) in events


def test_hammer_loop_induces_bitflips_end_to_end():
    chip = make_synthetic_chip(theta_scale=30.0)
    interp = Interpreter(chip)
    t = DEFAULT_TIMINGS
    victim, aggressor = 11, 10
    init = np.ones(chip.geometry.cols_simulated, dtype=np.uint8)
    builder = ProgramBuilder()
    builder.act(0, victim).wait(t.tRCD).wr(0, init).wait(t.tRAS - t.tRCD)
    builder.pre(0).wait(t.tRP)
    with builder.loop(500):
        builder.act(0, aggressor).wait(7_800.0).pre(0).wait(t.tRP)
    builder.act(0, victim).wait(t.tRCD).rd(0).wait(t.tRAS - t.tRCD)
    builder.pre(0).wait(t.tRP)
    result = interp.run(builder.build())
    assert result.activations == 502
    assert (result.reads[0][2] != init).any()


def test_write_without_open_row_rejected():
    t = DEFAULT_TIMINGS
    chip = make_synthetic_chip()
    builder = ProgramBuilder()
    builder.act(0, 7).wait(t.tRAS).pre(0).wait(t.tRP)
    builder.wr(0, np.ones(64, dtype=np.uint8))
    with pytest.raises(DeviceStateError, match="no row is open"):
        Interpreter(chip).run(builder.build())
    assert chip.bank(0).stored_bits(chip.to_physical(7)) is None
