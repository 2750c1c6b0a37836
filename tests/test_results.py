"""Tests for measurement records and result sets."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.bitflips import BitflipCensus
from repro.core.results import (
    DieMeasurement,
    ResultSet,
    encode_dump,
    measurement_to_record,
)
from repro.errors import ExperimentError


def meas(module="S0", mfr="S", die=0, pattern="combined", t_on=36.0, trial=0,
         acmin=100, time_ns=5e6):
    return DieMeasurement(
        module_key=module,
        manufacturer=mfr,
        die=die,
        pattern=pattern,
        t_on=t_on,
        trial=trial,
        acmin=acmin,
        time_to_first_ns=time_ns,
        census=BitflipCensus(frozenset({(1, 2)}), frozenset()),
    )


def test_time_ms_property():
    assert meas(time_ns=5e6).time_to_first_ms == pytest.approx(5.0)
    assert meas(acmin=None, time_ns=None).time_to_first_ms is None


def test_flipped_property():
    assert meas().flipped
    assert not meas(acmin=None, time_ns=None).flipped


def test_where_filters():
    rs = ResultSet([
        meas(module="S0", pattern="combined", t_on=36.0),
        meas(module="S0", pattern="double-sided", t_on=36.0),
        meas(module="H0", mfr="H", pattern="combined", t_on=636.0),
    ])
    assert len(rs.where(module_key="S0")) == 2
    assert len(rs.where(pattern="combined")) == 2
    assert len(rs.where(manufacturer="H", t_on=636.0)) == 1
    assert len(rs.where(module_key="S0", pattern="combined")) == 1


def test_value_enumerations():
    rs = ResultSet([meas(t_on=36.0), meas(t_on=636.0), meas(pattern="x")])
    assert rs.t_values() == [36.0, 636.0]
    assert "x" in rs.patterns()
    assert rs.module_keys() == ["S0"]


def test_group_by():
    rs = ResultSet([meas(die=0), meas(die=1), meas(die=1)])
    groups = rs.group_by(lambda m: (m.die,))
    assert len(groups[(0,)]) == 1
    assert len(groups[(1,)]) == 2


def test_json_roundtrip_without_census():
    # Distinct trials: from_json rejects duplicate measurement identities.
    rs = ResultSet([meas(), meas(trial=1, acmin=None, time_ns=None)])
    restored = ResultSet.from_json(rs.to_json())
    assert len(restored) == 2
    values = [m.acmin for m in restored]
    assert values == [100, None]
    # Censuses were stripped: restored as "not recorded", which is
    # distinct from a recorded census with zero flips.
    assert all(m.census is None for m in restored)
    assert not any(m.has_census for m in restored)


def test_json_roundtrip_with_census():
    rs = ResultSet([meas()])
    restored = ResultSet.from_json(rs.to_json(include_census=True))
    first = list(restored)[0]
    assert first.has_census
    assert first.census.flips_1_to_0 == frozenset({(1, 2)})


def test_json_census_included_flag():
    rs = ResultSet([meas()])
    stripped = json.loads(rs.to_json())
    assert stripped["census_included"] is False
    full = json.loads(rs.to_json(include_census=True))
    assert full["census_included"] is True
    assert full["measurements"][0]["flips_1_to_0"] == [[1, 2]]


def test_json_legacy_flat_list_roundtrip():
    # Pre-flag dumps were bare lists; per-record census fields decide.
    legacy = json.dumps([
        {
            "module_key": "S0", "manufacturer": "S", "die": 0,
            "pattern": "combined", "t_on": 36.0, "trial": 0,
            "acmin": 10, "time_to_first_ns": 1.0,
            "flips_1_to_0": [[3, 4]], "flips_0_to_1": [],
        },
        {
            "module_key": "S0", "manufacturer": "S", "die": 1,
            "pattern": "combined", "t_on": 36.0, "trial": 0,
            "acmin": None, "time_to_first_ns": None,
        },
    ])
    restored = list(ResultSet.from_json(legacy))
    assert restored[0].census.flips_1_to_0 == frozenset({(3, 4)})
    assert restored[1].census is None


def test_extend_and_iter():
    rs = ResultSet()
    rs.add(meas())
    rs.extend([meas(die=1), meas(die=2)])
    assert len(list(rs)) == 3


# ------------------------------------------------ dump encoder byte identity


def reference_json(rs, include_census):
    """The bytes ``to_json`` must write: the library's indented encoder."""
    return json.dumps(
        {
            "format": "repro-results-v1",
            "census_included": include_census,
            "measurements": [
                measurement_to_record(m, include_census) for m in rs
            ],
        },
        indent=2,
        allow_nan=False,
        default=np.ndarray.tolist,
    )


def census(ones=(), zeros=()):
    return BitflipCensus(frozenset(ones), frozenset(zeros))


ENCODER_CORPUS = {
    "empty": ResultSet(),
    "census-none-and-empty": ResultSet([
        dataclasses.replace(meas(), census=None),
        dataclasses.replace(meas(trial=1), census=census()),
        dataclasses.replace(
            meas(trial=2), census=census(zeros=[(0, 0), (3, 1), (3, 0)])
        ),
    ]),
    "no-flip-and-non-finite-times": ResultSet([
        meas(acmin=None, time_ns=None),
        meas(trial=1, time_ns=float("nan")),
        meas(trial=2, time_ns=float("inf")),
        meas(trial=3, time_ns=float("-inf")),
    ]),
    "escaped-strings": ResultSet([
        meas(module='S"0\\é', mfr="Å", pattern="comb☃ned\t\n"),
        meas(module="\U0001f600", pattern='"'),
    ]),
    "numbers": ResultSet([
        meas(t_on=7800.0, time_ns=0.1, acmin=2**70,
             die=10**12, trial=2**40),
        meas(t_on=70200.0, time_ns=1e-07, acmin=1),
        meas(t_on=np.float64(636.0), time_ns=1e300, trial=1),
        dataclasses.replace(
            meas(t_on=36.0, trial=2),
            census=census(
                ones=[(0, 2**32 - 1), (2**31 - 1, 0), (5, 7)],
                zeros=[(0, 0)],
            ),
        ),
    ]),
}


@pytest.mark.parametrize("include_census", [True, False])
@pytest.mark.parametrize("case", sorted(ENCODER_CORPUS))
def test_to_json_is_byte_identical_to_the_library(case, include_census):
    rs = ENCODER_CORPUS[case]
    assert rs.to_json(include_census) == reference_json(rs, include_census)


def record(ones, zeros=(), **fields):
    """A census record built by hand, past what a census can hold."""
    rec = measurement_to_record(meas(**fields), include_census=True)
    rec["flips_1_to_0"], rec["flips_0_to_1"] = list(ones), list(zeros)
    return rec


#: Hand-built records whose census pairs no BitflipCensus holds: the
#: record-level encoder still prints them as the library does.
RECORD_CORPUS = {
    "numbers": [
        record(
            ones=[(-(2**70), 5), (-3, -7), (2**65, 0)], zeros=[(0, -1)],
            t_on=36.0, trial=2,
        ),
    ],
    "bool-in-census-pair": [record(ones=[(True, 5), (2, 3)])],
}


@pytest.mark.parametrize("case", sorted(RECORD_CORPUS))
def test_encode_dump_is_byte_identical_for_hand_built_records(case):
    records = RECORD_CORPUS[case]
    assert encode_dump(records, True) == json.dumps(
        {
            "format": "repro-results-v1",
            "census_included": True,
            "measurements": records,
        },
        indent=2,
        allow_nan=False,
    )


def test_encode_dump_rejects_what_the_library_rejects():
    """A numpy integer in a hand-built record's pair raises ``TypeError``
    exactly as the library does (no silent ``%d`` formatting)."""
    records = [record(ones=[(np.int64(4), 5)])]
    with pytest.raises(TypeError, match="int64"):
        json.dumps(records, indent=2)
    with pytest.raises(TypeError, match="int64"):
        encode_dump(records, True)


def test_census_normalizes_numpy_coordinates():
    rs = ResultSet([
        dataclasses.replace(meas(), census=census(ones=[(np.int64(4), np.uint8(5))]))
    ])
    assert list(rs)[0].census == census(ones=[(4, 5)])
    assert rs.to_json(include_census=True) == reference_json(rs, True)
    assert json.loads(rs.to_json(include_census=True))["measurements"][0][
        "flips_1_to_0"
    ] == [[4, 5]]


@pytest.mark.parametrize("pair, problem", [
    ((-1, 5), "row -1 is outside"),
    ((5, -1), "col -1 is outside"),
    ((2**31, 0), "row 2147483648 is outside"),
    ((0, 2**32), "col 4294967296 is outside"),
    ((-(2**70), 0), "row -1180591620717411303424 is outside"),
    ((True, 5), "integer coordinates, got bool"),
    ((1, np.bool_(False)), "integer coordinates, got bool"),
    ((1.0, 5), "integer coordinates, got float"),
    (("1", 5), "integer coordinates, got str"),
    ((1, 2, 3), "must be \\(row, col\\) pairs"),
    (7, "must be \\(row, col\\) pairs"),
], ids=["negative-row", "negative-col", "row-2**31", "col-2**32", "huge",
        "bool", "numpy-bool", "float", "str", "triple", "scalar"])
def test_census_rejects_what_its_key_cannot_hold(pair, problem):
    with pytest.raises(ExperimentError, match=problem):
        census(ones=[pair])
    with pytest.raises(ExperimentError, match=problem):
        census(zeros=[(0, 0), pair])
