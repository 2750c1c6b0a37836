"""Deterministic random-number management.

Every stochastic component in the library (per-cell coupling variation,
per-die spread, per-trial jitter) derives its generator from a *named
stream* so that results are reproducible and independent components do not
perturb each other's randomness.  Streams are derived by hashing a tuple of
string/int keys into a ``numpy`` ``SeedSequence``.

:func:`stream` is the definition.  :func:`row_streams` is its batched
twin for many streams that differ in one integer key (a die's victim
rows): it reproduces every step of :func:`stream` -- BLAKE2b, numpy's
``SeedSequence`` hash and ``PCG64``'s seeding -- for all rows at once, and
re-seats one generator per row instead of building one.  The two must
agree bit for bit (``tests/test_rng.py``).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

Key = Union[str, int]


def _encode(key: Key) -> bytes:
    """The bytes one key adds to a stream's hash.

    Only exact ``str`` and ``int`` keys: the hash is over ``repr(key)``,
    and the repr of anything else (a numpy integer under numpy 2 reads
    ``np.int64(5)``, a bool ``True``) would pick a different stream than
    the equal ``int``.
    """
    if type(key) is not str and type(key) is not int:
        raise TypeError(
            f"stream keys must be str or int, got {type(key).__name__} {key!r}"
        )
    return repr(key).encode("utf-8") + b"\x00"


def derive_seed(*keys: Key) -> int:
    """Derive a stable 64-bit seed from a sequence of keys.

    The derivation is independent of Python's per-process hash
    randomization (it uses BLAKE2b), so two processes with the same keys
    always produce the same stream.
    """
    h = hashlib.blake2b(digest_size=8)
    for key in keys:
        h.update(_encode(key))
    return int.from_bytes(h.digest(), "little")


def stream(*keys: Key) -> np.random.Generator:
    """Return a ``numpy`` generator for the named stream."""
    return np.random.default_rng(np.random.SeedSequence(derive_seed(*keys)))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


class _HashConst:
    """The running hash constant of one SeedSequence pass.

    It depends only on how many words were hashed, never on the data,
    so one scalar serves every seed of a batch.
    """

    def __init__(self, init: int, mult: int) -> None:
        self._value = init
        self._mult = mult

    def hash(self, words: np.ndarray) -> np.ndarray:
        """numpy's ``hashmix`` over a column of uint32 words."""
        words = words ^ np.uint32(self._value)
        self._value = (self._value * self._mult) & _MASK32
        words = words * np.uint32(self._value)
        return words ^ (words >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def seed_sequence_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed.

    ``seeds`` holds 64-bit seeds; returns a ``(len(seeds), 4)`` uint64
    array.  Runs numpy's entropy mix and state generation column-wise in
    uint32 arithmetic.  A seed is entropy of at most two 32-bit words,
    which numpy pads with zero words to the pool size, so a seed below
    2**32 is hashed exactly like the pair ``(seed, 0)``.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = [seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)]
    entropy += [np.zeros_like(entropy[0])] * (_POOL_SIZE - len(entropy))
    hc = _HashConst(_INIT_A, _MULT_A)
    pool = [hc.hash(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hc.hash(pool[src]))
    hc = _HashConst(_INIT_B, _MULT_B)
    words = [hc.hash(pool[i % _POOL_SIZE]) for i in range(8)]
    # Little-endian word pairs make the uint64s, as numpy's view does.
    state = np.stack(words, axis=1).astype(np.uint64)
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


def row_streams(
    prefix: Sequence[Key], rows: Iterable[int], suffix: Sequence[Key] = ()
) -> Iterator[np.random.Generator]:
    """Yield ``stream(*prefix, row, *suffix)`` for each row, in order.

    Bit-identical to calling :func:`stream` once per row, at a fraction
    of the set-up: the prefix is hashed once and its BLAKE2b state
    copied per row, every row's SeedSequence state comes from one
    :func:`seed_sequence_states` pass, and each PCG64 state is computed
    by PCG's seeding step (``pcg64_set_seed``) in Python ints.  One
    generator is yielded for every row, re-seated in place: draw from
    it before advancing the iterator.  Row keys must be exact ``int``s,
    as :func:`derive_seed` requires.
    """
    head = hashlib.blake2b(digest_size=8)
    for key in prefix:
        head.update(_encode(key))
    tail = b"".join(_encode(key) for key in suffix)
    digests = []
    for row in rows:
        if type(row) is not int:
            raise TypeError(
                f"row keys must be int, got {type(row).__name__} {row!r}"
            )
        h = head.copy()
        h.update(b"%d\x00" % row)  # repr(int), see _encode
        h.update(tail)
        digests.append(h.digest())
    seeds = np.frombuffer(b"".join(digests), dtype="<u8")
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for s_hi, s_lo, i_hi, i_lo in seed_sequence_states(seeds).tolist():
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen
