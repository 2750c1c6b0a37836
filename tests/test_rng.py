"""Tests for deterministic named RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng


def test_same_keys_same_stream():
    a = rng.stream("cells", "S0", 0, 42).random(8)
    b = rng.stream("cells", "S0", 0, 42).random(8)
    assert (a == b).all()


def test_different_keys_different_stream():
    a = rng.stream("cells", "S0", 0, 42).random(8)
    b = rng.stream("cells", "S0", 0, 43).random(8)
    assert not (a == b).all()


def test_key_order_matters():
    assert rng.derive_seed("a", "b") != rng.derive_seed("b", "a")


def test_int_and_str_keys_distinct():
    assert rng.derive_seed(1) != rng.derive_seed("1")


def test_seed_is_64_bit():
    seed = rng.derive_seed("x")
    assert 0 <= seed < 2**64


# ------------------------------------------------------------ typed keys


@pytest.mark.parametrize(
    "key", [np.int64(5), np.uint32(5), True, 5.0, b"cells", None, ("a", 1)]
)
def test_untyped_keys_are_refused(key):
    """Only exact str and int keys: the hash is over ``repr(key)``, and
    ``repr(np.int64(5))`` depends on the numpy version."""
    with pytest.raises(TypeError, match="str or int"):
        rng.derive_seed("cells", key)
    with pytest.raises(TypeError, match="str or int"):
        rng.stream(key)
    with pytest.raises(TypeError, match="str or int"):
        list(rng.row_streams(("cells", key), [1]))
    with pytest.raises(TypeError, match="str or int"):
        list(rng.row_streams(("cells",), [1], (key,)))


@pytest.mark.parametrize("row", [np.int64(5), True, 5.0, "5"])
def test_row_keys_must_be_int(row):
    with pytest.raises(TypeError, match="row keys must be int"):
        list(rng.row_streams(("cells", "S0", 0), [1, row], (64,)))


# ------------------------------------------------------- the batched path

_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _reference_states(seeds):
    return np.array(
        [np.random.SeedSequence(int(s)).generate_state(4, np.uint64) for s in seeds],
        dtype=np.uint64,
    ).reshape(-1, 4)


def test_seed_sequence_states_edge_seeds():
    seeds = np.array(_EDGE_SEEDS, dtype=np.uint64)
    got = rng.seed_sequence_states(seeds)
    assert got.dtype == np.uint64 and got.shape == (len(seeds), 4)
    assert np.array_equal(got, _reference_states(_EDGE_SEEDS))


def test_seed_sequence_states_random_seeds():
    seeds = np.random.default_rng(20240611).integers(
        0, 2**64, size=10_000, dtype=np.uint64, endpoint=False
    )
    # Half the batch below 2**32: one entropy word instead of two.
    seeds[::2] >>= np.uint64(32)
    assert np.array_equal(rng.seed_sequence_states(seeds), _reference_states(seeds))


def test_seed_sequence_states_empty():
    assert rng.seed_sequence_states(np.array([], dtype=np.uint64)).shape == (0, 4)


_keys = st.one_of(st.text(max_size=6), st.integers(min_value=-(2**70), max_value=2**70))


@settings(max_examples=60, deadline=None)
@given(
    prefix=st.lists(_keys, max_size=3),
    banks=st.lists(st.integers(0, 15), min_size=1, max_size=5),
    row=st.integers(0, 2**32 - 1),
    suffix=st.lists(_keys, max_size=2),
    n=st.integers(1, 40),
)
def test_row_streams_equal_stream(prefix, banks, row, suffix, n):
    """Each re-seated generator draws exactly what ``rng.stream`` draws,
    for row keys on bank 0 and above 2**32 (bank != 0)."""
    rows = [(bank << 32) | (row + i) for i, bank in enumerate(banks)]
    drawn = [
        (gen.standard_normal((8, n)), gen.random(n))
        for gen in rng.row_streams(prefix, rows, suffix)
    ]
    assert len(drawn) == len(rows)
    for key, (z, u) in zip(rows, drawn):
        ref = rng.stream(*prefix, key, *suffix)
        assert np.array_equal(z, ref.standard_normal((8, n)))
        assert np.array_equal(u, ref.random(n))


def test_row_streams_reseat_one_generator():
    gens = list(rng.row_streams(("cells", "S0", 0), [3, 4, 5], (64,)))
    assert gens[0] is gens[1] is gens[2]
    assert list(rng.row_streams(("cells",), [])) == []
