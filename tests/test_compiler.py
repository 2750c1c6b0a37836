"""Tests for pattern-to-program compilation."""

import numpy as np
import pytest

from repro.bender.interpreter import Interpreter
from repro.bender.isa import Opcode
from repro.constants import DEFAULT_TIMINGS
from repro.dram.datapattern import CHECKERBOARD
from repro.patterns import COMBINED, DOUBLE_SIDED, SINGLE_SIDED
from repro.patterns.compiler import (
    compile_hammer_loop,
    compile_init,
    compile_readback,
)

from repro.testing import make_synthetic_chip


def test_hammer_loop_activation_count():
    placement = DOUBLE_SIDED.place(10, 7_800.0, 64)
    program = compile_hammer_loop(placement, iterations=25)
    acts = sum(1 for i in program.flat() if i.opcode is Opcode.ACT)
    assert acts == 50


def test_hammer_loop_runtime_matches_timing_model():
    placement = COMBINED.place(10, 7_800.0, 64)
    program = compile_hammer_loop(placement, iterations=10)
    interp = Interpreter(make_synthetic_chip())
    result = interp.run(program)
    assert result.elapsed_ns == pytest.approx(10 * placement.iteration_latency())


def test_compiled_programs_are_timing_legal():
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    placement = SINGLE_SIDED.place(10, 36.0, 64)
    interp.run(compile_init(placement, CHECKERBOARD, chip.geometry.cols_simulated))
    interp.run(compile_hammer_loop(placement, iterations=100))
    interp.run(compile_readback(placement))


def test_init_writes_all_pattern_rows():
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    placement = DOUBLE_SIDED.place(10, 36.0, 64)
    interp.run(compile_init(placement, CHECKERBOARD, chip.geometry.cols_simulated))
    bank = chip.bank(0)
    for row in (9, 10, 11, 12, 13):
        assert bank.stored_bits(row) is not None
    # Aggressors get 0xAA, victims 0x55.
    assert bank.stored_bits(10)[0] == 1  # 0xAA leads with 1
    assert bank.stored_bits(11)[0] == 0  # 0x55 leads with 0


def test_readback_returns_each_victim_once():
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    placement = DOUBLE_SIDED.place(10, 36.0, 64)
    interp.run(compile_init(placement, CHECKERBOARD, chip.geometry.cols_simulated))
    result = interp.run(compile_readback(placement))
    assert [row for _, row, _ in result.reads] == list(placement.victims)


def test_compiler_translates_to_logical_addresses():
    from repro.dram.mapping import BlockInvertMapping

    mapping = BlockInvertMapping(block_size=4)
    chip = make_synthetic_chip(mapping=mapping)
    interp = Interpreter(chip)
    # Physical triple 9/10/11; compile with the inverse translation.
    placement = SINGLE_SIDED.place(9, 36.0, 64)
    program = compile_init(
        placement,
        CHECKERBOARD,
        chip.geometry.cols_simulated,
        to_logical=mapping.to_logical,
    )
    interp.run(program)
    # The data must have landed at the *physical* rows.
    assert chip.bank(0).stored_bits(9) is not None
    assert chip.bank(0).stored_bits(10) is not None
