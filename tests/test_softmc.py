"""Tests for the SoftMC host session."""

import numpy as np
import pytest

from repro.bender.softmc import SoftMCSession
from repro.dram.mapping import XorScrambleMapping

from repro.testing import make_synthetic_chip


def test_write_read_row_roundtrip():
    session = SoftMCSession(make_synthetic_chip())
    bits = np.tile(np.array([0, 1], dtype=np.uint8), 32)
    session.write_row(9, bits)
    assert (session.read_row(9) == bits).all()


def test_roundtrip_through_scramble():
    mapping = XorScrambleMapping(trigger_mask=0x8, xor_mask=0x6)
    session = SoftMCSession(make_synthetic_chip(mapping=mapping))
    bits = np.ones(64, dtype=np.uint8)
    session.write_row(0xA, bits)
    # Reading the same logical row returns the same data even though it
    # lives at a different physical row.
    assert (session.read_row(0xA) == bits).all()


def test_session_time_is_monotone():
    session = SoftMCSession(make_synthetic_chip())
    t0 = session.now
    session.write_row(3, np.zeros(64, dtype=np.uint8))
    t1 = session.now
    session.read_row(3)
    assert t0 < t1 < session.now


def test_explicit_refresh_counts():
    session = SoftMCSession(make_synthetic_chip())
    session.refresh(3)
    # Three REFs advanced time by ~3 x tREFI.
    assert session.now >= 3 * 350.0


def _hammer_program(bank, aggressor, iterations):
    from repro.bender.program import ProgramBuilder

    builder = ProgramBuilder()
    with builder.loop(iterations):
        builder.act(bank, aggressor)
        builder.wait(7_800.0)
        builder.pre(bank)
        builder.wait(15.0)
    return builder.build()


def test_refresh_restores_disturbed_victim():
    from repro.core.honest import measure_location_honest
    from repro.dram.datapattern import CHECKERBOARD
    from repro.patterns import SINGLE_SIDED

    # Measure the flip point on a fresh chip (small rows: the rolling
    # refresh pointer can cover the whole bank with few REFs).
    probe = SoftMCSession(make_synthetic_chip(theta_scale=50.0, rows=64))
    honest = measure_location_honest(
        probe, SINGLE_SIDED, 10, 7_800.0, CHECKERBOARD, max_budget_iterations=4000
    )
    assert honest.iterations is not None
    below = max(1, int(honest.iterations * 0.6))

    session = SoftMCSession(make_synthetic_chip(theta_scale=50.0, rows=64))
    victim = 11
    init = CHECKERBOARD.victim_bits(victim, 64)
    session.write_row(victim, init)
    # Hammer below the flip point twice with a full-bank refresh between:
    # the refresh restores the victim, so no flip; 2x below without a
    # refresh would have flipped (below >= 0.6 * ACmin each).
    session.run(_hammer_program(session.bank, 10, below))
    session.refresh(64)  # rolling pointer covers all 64 rows
    session.run(_hammer_program(session.bank, 10, below))
    assert (session.read_row(victim) == init).all()


def test_observer_forwarding():
    session = SoftMCSession(make_synthetic_chip())
    seen = []
    session.add_observer(lambda ev, bank, row, now: seen.append(ev))
    session.write_row(3, np.zeros(64, dtype=np.uint8))
    assert "ACT" in seen
