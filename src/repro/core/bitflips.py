"""Bitflip records and direction statistics.

A *bitflip census* is the set of flipped cells observed while measuring
one (die, pattern, tAggON) point, identified by ``(physical_row, column)``
together with the direction of each flip.  Censuses feed the
directionality analysis (Fig. 5) and the overlap analysis (Fig. 6).
"""

from __future__ import annotations

from itertools import chain
from typing import FrozenSet, Iterable, Tuple

import numpy as np

from repro.errors import ExperimentError

FlipKey = Tuple[int, int]  # (physical_row, column)

#: Low bits of a census key that hold the column.
COL_BITS = 32
#: Exclusive upper bounds of a census coordinate (see :class:`BitflipCensus`).
ROW_LIMIT = 1 << 31
COL_LIMIT = 1 << COL_BITS
_COL_MASK = COL_LIMIT - 1


def _readonly(keys: np.ndarray) -> np.ndarray:
    keys.flags.writeable = False
    return keys


_NO_KEYS = _readonly(np.empty(0, dtype=np.int64))


def flip_keys(rows, cols) -> np.ndarray:
    """Census keys ``(row << 32) | col`` of parallel coordinate arrays
    (unsorted; every coordinate must already lie in the key's range)."""
    return (np.asarray(rows, dtype=np.int64) << COL_BITS) | np.asarray(
        cols, dtype=np.int64
    )


def unique_keys(keys) -> np.ndarray:
    """``keys`` sorted with duplicates dropped: ``np.unique``'s result,
    several times faster at census sizes."""
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    if keys.size > 1:
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            keys = keys[np.concatenate(([True], ~repeated))]
    return keys


def key_rows(keys: np.ndarray) -> np.ndarray:
    """The row of each census key."""
    return keys >> COL_BITS


def key_cols(keys: np.ndarray) -> np.ndarray:
    """The column of each census key."""
    return keys & _COL_MASK


def key_pairs(keys: np.ndarray) -> np.ndarray:
    """The ``(n, 2)`` int64 array of ``[row, col]`` pairs, in key order."""
    return np.column_stack((key_rows(keys), key_cols(keys)))


def sql_key(row: str, col: str) -> str:
    """The census key of SQL integer expressions ``row`` and ``col``."""
    return f"(({row}) << {COL_BITS}) | ({col})"


def sql_key_coords(key: str) -> Tuple[str, str]:
    """The row and column SQL expressions of a census key expression."""
    return f"({key}) >> {COL_BITS}", f"({key}) & {_COL_MASK}"


def _pair_set(keys: np.ndarray) -> FrozenSet[FlipKey]:
    return frozenset(zip(key_rows(keys).tolist(), key_cols(keys).tolist()))


def _checked_keys(pairs: Iterable, direction: str) -> np.ndarray:
    """Sorted unique keys of ``(row, col)`` pairs, each coordinate
    checked against the key's range (a typed error, never a wrapped
    key or an ``OverflowError``)."""
    what = f"census {direction} flips"
    try:
        items = [tuple(pair) for pair in pairs]
    except TypeError as exc:
        raise ExperimentError(f"{what} must be (row, col) pairs: {exc}") from None
    if not items:
        return _NO_KEYS
    if {len(pair) for pair in items} != {2}:
        raise ExperimentError(f"{what} must be (row, col) pairs")
    flat = list(chain.from_iterable(items))
    odd = set(map(type, flat)) - {int}
    for kind in odd:
        if not issubclass(kind, np.integer):
            raise ExperimentError(
                f"{what} must have integer coordinates, got {kind.__name__}"
            )
    if odd:
        flat = [int(value) for value in flat]
    rows, cols = flat[0::2], flat[1::2]
    for name, values, limit in (("row", rows, ROW_LIMIT), ("col", cols, COL_LIMIT)):
        low, high = min(values), max(values)
        if low < 0 or high >= limit:
            raise ExperimentError(
                f"{what}: {name} {low if low < 0 else high} is outside "
                f"[0, 2**{limit.bit_length() - 1})"
            )
    return _readonly(unique_keys(flip_keys(rows, cols)))


class BitflipCensus:
    """The unique bitflips observed for one measurement.

    Each direction is stored as one sorted, de-duplicated int64 array of
    cell keys ``(row << 32) | col``, valid for ``0 <= row < 2**31`` and
    ``0 <= col < 2**32``.  Over that range key order is ``(row, col)``
    tuple order, so a direction's keys read back as its pairs in sorted
    order.  The arrays are read-only; nothing else is stored.

    Build a census from ``(row, col)`` pairs (each coordinate checked:
    a negative, ``bool``, non-integer or out-of-range coordinate raises
    :class:`~repro.errors.ExperimentError`), or from keys a producer
    already holds (:meth:`from_flips`, :meth:`from_keys`).

    Attributes:
        keys_1_to_0 / keys_0_to_1: the stored key arrays.
        flips_1_to_0 / flips_0_to_1: the same cells as frozensets of
            ``(row, col)`` tuples, built on each read.
    """

    __slots__ = ("keys_1_to_0", "keys_0_to_1")

    def __init__(self, flips_1_to_0: Iterable = (), flips_0_to_1: Iterable = ()):
        set_key = object.__setattr__
        set_key(self, "keys_1_to_0", _checked_keys(flips_1_to_0, "1-to-0"))
        set_key(self, "keys_0_to_1", _checked_keys(flips_0_to_1, "0-to-1"))

    @classmethod
    def from_keys(cls, keys_1_to_0, keys_0_to_1) -> "BitflipCensus":
        """A census over key arrays that are already sorted and unique."""
        census = cls.__new__(cls)
        for name, keys in (("keys_1_to_0", keys_1_to_0), ("keys_0_to_1", keys_0_to_1)):
            keys = np.asarray(keys, dtype=np.int64)
            object.__setattr__(
                census, name, _readonly(keys) if keys.size else _NO_KEYS
            )
        return census

    @classmethod
    def from_flips(cls, keys, one_to_zero) -> "BitflipCensus":
        """The census of flipped cells ``keys`` (see :func:`flip_keys`;
        duplicates collapse), 1-to-0 where ``one_to_zero`` is true."""
        keys = np.asarray(keys, dtype=np.int64)
        down = np.asarray(one_to_zero, dtype=bool)
        return cls.from_keys(unique_keys(keys[down]), unique_keys(keys[~down]))

    def __setattr__(self, name, value):
        raise AttributeError(f"BitflipCensus is immutable (cannot set {name!r})")

    def __reduce__(self):
        return type(self).from_keys, (self.keys_1_to_0, self.keys_0_to_1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitflipCensus):
            return NotImplemented
        return self is other or (
            np.array_equal(self.keys_1_to_0, other.keys_1_to_0)
            and np.array_equal(self.keys_0_to_1, other.keys_0_to_1)
        )

    def __hash__(self) -> int:
        return hash((self.keys_1_to_0.tobytes(), self.keys_0_to_1.tobytes()))

    def __repr__(self) -> str:
        return (
            f"BitflipCensus({self.keys_1_to_0.size} 1-to-0, "
            f"{self.keys_0_to_1.size} 0-to-1)"
        )

    @property
    def flips_1_to_0(self) -> FrozenSet[FlipKey]:
        return _pair_set(self.keys_1_to_0)

    @property
    def flips_0_to_1(self) -> FrozenSet[FlipKey]:
        return _pair_set(self.keys_0_to_1)

    @property
    def all_keys(self) -> np.ndarray:
        """Sorted unique keys of every flipped cell, either direction."""
        if not self.keys_0_to_1.size:
            return self.keys_1_to_0
        if not self.keys_1_to_0.size:
            return self.keys_0_to_1
        return unique_keys(np.concatenate((self.keys_1_to_0, self.keys_0_to_1)))

    @property
    def all_flips(self) -> FrozenSet[FlipKey]:
        return _pair_set(self.all_keys)

    @property
    def n_flips(self) -> int:
        return self.keys_1_to_0.size + self.keys_0_to_1.size

    @staticmethod
    def union(censuses: Iterable["BitflipCensus"]) -> "BitflipCensus":
        """Union of several censuses (e.g. across a die's locations)."""
        censuses = list(censuses)
        if not censuses:
            return BitflipCensus()
        return BitflipCensus.from_keys(
            unique_keys(np.concatenate([c.keys_1_to_0 for c in censuses])),
            unique_keys(np.concatenate([c.keys_0_to_1 for c in censuses])),
        )


def direction_fraction_1_to_0(census: BitflipCensus) -> float:
    """Fraction of 1-to-0 flips among all observed flips (Fig. 5 metric).

    Returns ``nan`` for an empty census (no bitflips observed).
    """
    total = census.n_flips
    if total == 0:
        return float("nan")
    return census.keys_1_to_0.size / total
