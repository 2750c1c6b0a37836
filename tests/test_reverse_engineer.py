"""Tests for row-mapping reverse engineering (paper Section 3.2)."""

import pytest

from repro.bender.softmc import SoftMCSession
from repro.core.reverse_engineer import (
    find_physical_neighbors,
    infer_physical_order,
    reverse_engineer_mapping,
)
from repro.dram.mapping import IdentityMapping, XorScrambleMapping
from repro.errors import ExperimentError

from repro.testing import make_synthetic_chip

#: Low thresholds so a few hundred hammer iterations flip the victims.
THETA = 50.0
ITERS = 600


def session_with(mapping):
    chip = make_synthetic_chip(theta_scale=THETA, mapping=mapping, rows=64)
    return SoftMCSession(chip)


def test_identity_mapping_neighbors():
    session = session_with(IdentityMapping())
    obs = find_physical_neighbors(session, 10, iterations=ITERS)
    assert set(obs.flipped_logical_rows) == {9, 11}


def test_scrambled_mapping_recovers_true_neighbors():
    mapping = XorScrambleMapping(trigger_mask=0x8, xor_mask=0x6)
    session = session_with(mapping)
    logical = 0xA  # physical 0xC
    obs = find_physical_neighbors(session, logical, iterations=ITERS)
    physical = mapping.to_physical(logical)
    expected = {
        mapping.to_logical(physical - 1),
        mapping.to_logical(physical + 1),
    }
    assert set(obs.flipped_logical_rows) == expected
    # With this scramble the logical neighbors differ from the physical.
    assert expected != {logical - 1, logical + 1}


def test_reverse_engineer_multiple_rows():
    session = session_with(IdentityMapping())
    neighbor_map = reverse_engineer_mapping(
        session, [10, 20, 30], iterations=ITERS
    )
    assert set(neighbor_map) == {10, 20, 30}
    assert set(neighbor_map[20]) == {19, 21}


def test_infer_physical_order_identity():
    neighbor_map = {r: (r - 1, r + 1) for r in range(10, 15)}
    order = infer_physical_order(neighbor_map, start=12)
    # The walk recovers a contiguous run around the start row.
    assert order == sorted(order)
    assert 12 in order
    assert len(order) >= 5


def test_infer_order_rejects_unknown_start():
    with pytest.raises(ExperimentError):
        infer_physical_order({}, start=3)


def test_out_of_range_aggressor_rejected():
    session = session_with(IdentityMapping())
    with pytest.raises(ExperimentError):
        find_physical_neighbors(session, 1_000_000)
