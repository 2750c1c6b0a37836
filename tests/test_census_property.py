"""The packed census against a frozenset reference model.

``BitflipCensus`` stores each direction as one sorted int64 key array.
On seeded random pair lists (duplicates and the key range's edges
included) every census metric, equality, hashing, pickling and the
census bytes of the journal and the dump must match what a census of
two frozensets of ``(row, col)`` tuples gives.
"""

from __future__ import annotations

import json
import pickle
import random
from collections import Counter

import pytest

from repro.analysis.spatial import flips_per_row
from repro.core.bitflips import (
    COL_LIMIT,
    ROW_LIMIT,
    BitflipCensus,
    direction_fraction_1_to_0,
)
from repro.core.checkpoint import CheckpointJournal
from repro.core.overlap import overlap_ratio
from repro.core.results import DieMeasurement, ResultSet, measurement_to_record
from repro.errors import ArtifactInvalidError, ExperimentError
from repro.validate.schema import validate_measurement_record

SEEDS = range(12)

#: Coordinates at the edges of the key's range.
EDGE_ROWS = (0, 1, 2**31 - 1)
EDGE_COLS = (0, 1, 2**32 - 1)


def random_pairs(rng: random.Random):
    """A pair list with duplicates: small coordinates collide often."""
    pairs = []
    for _ in range(rng.randrange(0, 60)):
        row = rng.choice(EDGE_ROWS) if rng.random() < 0.1 else rng.randrange(12)
        col = rng.choice(EDGE_COLS) if rng.random() < 0.1 else rng.randrange(8)
        pairs.append((row, col))
    return pairs


class Reference:
    """The census as two frozensets of tuples."""

    def __init__(self, ones, zeros):
        self.ones, self.zeros = frozenset(ones), frozenset(zeros)

    @property
    def all_flips(self):
        return self.ones | self.zeros

    @property
    def n_flips(self):
        return len(self.ones) + len(self.zeros)


def draw(seed):
    rng = random.Random(seed)
    ones, zeros = random_pairs(rng), random_pairs(rng)
    return BitflipCensus(ones, zeros), Reference(ones, zeros)


def measurement(census, trial=0):
    return DieMeasurement("S0", "S", 0, "combined", 636.0, trial, 1200,
                          5e5, census=census)


def reference_record(ref, trial=0):
    rec = measurement_to_record(measurement(None, trial))
    rec["flips_1_to_0"] = sorted(ref.ones)
    rec["flips_0_to_1"] = sorted(ref.zeros)
    return rec


@pytest.mark.parametrize("seed", SEEDS)
def test_metrics_match_the_reference(seed):
    census, ref = draw(seed)
    assert census.flips_1_to_0 == ref.ones
    assert census.flips_0_to_1 == ref.zeros
    assert census.n_flips == ref.n_flips
    assert census.all_flips == ref.all_flips
    fraction = direction_fraction_1_to_0(census)
    if ref.n_flips:
        assert fraction == len(ref.ones) / ref.n_flips
    else:
        assert fraction != fraction
    assert flips_per_row(census) == dict(Counter(r for r, _ in ref.all_flips))


@pytest.mark.parametrize("seed", SEEDS)
def test_union_and_overlap_match_the_reference(seed):
    (a, ra), (b, rb), (c, rc) = draw(seed), draw(seed + 100), draw(seed + 200)
    union = BitflipCensus.union([a, b, c])
    assert union.flips_1_to_0 == ra.ones | rb.ones | rc.ones
    assert union.flips_0_to_1 == ra.zeros | rb.zeros | rc.zeros
    want = (
        len(ra.all_flips & rb.all_flips) / len(rb.all_flips)
        if rb.all_flips else None
    )
    assert overlap_ratio(a, b) == want
    assert overlap_ratio(a, BitflipCensus()) is None


@pytest.mark.parametrize("seed", SEEDS)
def test_equality_hash_and_pickle(seed):
    census, ref = draw(seed)
    # The same cells, listed in another order and repeated, are equal.
    again = BitflipCensus(sorted(ref.ones, reverse=True) * 2, list(ref.zeros))
    assert again == census and hash(again) == hash(census)
    assert measurement(again) == measurement(census)
    restored = pickle.loads(pickle.dumps(census))
    assert restored == census and hash(restored) == hash(census)
    assert not restored.keys_1_to_0.flags.writeable
    if ref.ones:
        fewer = BitflipCensus(sorted(ref.ones)[1:], ref.zeros)
        assert fewer != census
    swapped = BitflipCensus(ref.zeros, ref.ones)
    assert (swapped == census) == (ref.ones == ref.zeros)


@pytest.mark.parametrize("seed", SEEDS)
def test_dump_bytes_match_the_reference(seed):
    census, ref = draw(seed)
    got = ResultSet([measurement(census)]).to_json(include_census=True)
    want = json.dumps(
        {
            "format": "repro-results-v1",
            "census_included": True,
            "measurements": [reference_record(ref)],
        },
        indent=2,
        allow_nan=False,
    )
    assert got == want
    assert list(ResultSet.from_json(got))[0].census == census


def test_journal_bytes_match_the_reference(tmp_path):
    drawn = [draw(seed) for seed in SEEDS]
    journal = CheckpointJournal(tmp_path / "journal.jsonl")
    journal.start("fp", len(drawn))
    for index, (census, _ref) in enumerate(drawn):
        journal.record(index, [measurement(census, trial=index)])
    journal.release()
    lines = (tmp_path / "journal.jsonl").read_text().splitlines()[1:]
    for index, ((census, ref), line) in enumerate(zip(drawn, lines)):
        want = json.dumps(
            {"shard": index, "measurements": [reference_record(ref, index)]},
            allow_nan=False,
        )
        assert line == want
    loaded = CheckpointJournal(tmp_path / "journal.jsonl").load("fp", len(drawn))
    for index, (census, _ref) in enumerate(drawn):
        assert loaded[index] == [measurement(census, trial=index)]


@pytest.mark.parametrize("axis", [0, 1], ids=["row", "col"])
def test_schema_bounds_are_the_key_range(axis):
    """The schema, which cannot import the census, bounds a census pair
    exactly where a census starts to reject it."""
    limit = (ROW_LIMIT, COL_LIMIT)[axis]
    for value, fits in ((limit - 1, True), (limit, False)):
        pair = [0, 0]
        pair[axis] = value
        rec = measurement_to_record(measurement(None))
        rec["flips_1_to_0"], rec["flips_0_to_1"] = [pair], []
        if fits:
            validate_measurement_record(rec, "$")
            assert BitflipCensus([pair]).n_flips == 1
        else:
            with pytest.raises(ArtifactInvalidError, match="must be < 2"):
                validate_measurement_record(rec, "$")
            with pytest.raises(ExperimentError, match="is outside"):
                BitflipCensus([pair])
