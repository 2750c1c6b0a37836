"""Tests for the SQLite bitflip database."""

import pytest

from repro.core.bitflips import BitflipCensus
from repro.core.flipdb import BitflipDatabase
from repro.core.results import DieMeasurement, ResultSet
from repro.errors import ExperimentError

pytestmark = pytest.mark.population


def meas(die=0, trial=0, t_on=7_800.0, pattern="combined", acmin=100,
         ones=((11, 3), (11, 4)), zeros=((9, 0),)):
    return DieMeasurement(
        module_key="S0",
        manufacturer="S",
        die=die,
        pattern=pattern,
        t_on=t_on,
        trial=trial,
        acmin=acmin,
        time_to_first_ns=None if acmin is None else acmin * 1000.0,
        census=BitflipCensus(frozenset(ones), frozenset(zeros)),
    )


@pytest.fixture
def db():
    with BitflipDatabase(":memory:") as database:
        yield database


def test_store_and_roundtrip(db):
    db.store(meas())
    restored = list(db.measurements(module="S0"))[0]
    assert restored.acmin == 100
    assert restored.census.flips_1_to_0 == {(11, 3), (11, 4)}
    assert restored.census.flips_0_to_1 == {(9, 0)}


def test_duplicate_measurement_rejected(db):
    db.store(meas())
    with pytest.raises(ExperimentError):
        db.store(meas())


def test_no_bitflip_measurement_roundtrip(db):
    db.store(meas(acmin=None, ones=(), zeros=()))
    restored = list(db.measurements())[0]
    assert restored.acmin is None
    assert restored.census.n_flips == 0


def test_filters(db):
    db.store_results(ResultSet([
        meas(die=0, pattern="combined"),
        meas(die=1, pattern="combined"),
        meas(die=0, pattern="double-sided"),
        meas(die=0, pattern="combined", t_on=36.0),
    ]))
    assert db.n_measurements() == 4
    assert len(db.measurements(die=0)) == 3
    assert len(db.measurements(pattern="combined")) == 3
    assert len(db.measurements(pattern="combined", t_on=7_800.0)) == 2


def test_unique_flips_across_measurements(db):
    db.store(meas(die=0, ones=((11, 3),), zeros=()))
    db.store(meas(die=1, ones=((11, 3), (11, 4)), zeros=()))
    flips = db.unique_flips("S0", "combined", 7_800.0)
    assert flips == {(11, 3), (11, 4)}
    assert db.unique_flips("S0", "combined", 7_800.0, die=0) == {(11, 3)}


def test_repeatability_metric(db):
    db.store(meas(trial=0, ones=((11, 3), (11, 4)), zeros=()))
    db.store(meas(trial=1, ones=((11, 3), (11, 5)), zeros=()))
    # intersection {3} over union {3,4,5}.
    assert db.repeatability("S0", 0, "combined", 7_800.0) == pytest.approx(1 / 3)


def test_repeatability_needs_two_trials(db):
    db.store(meas(trial=0))
    assert db.repeatability("S0", 0, "combined", 7_800.0) is None


def test_repeatability_on_calibrated_module(s0_module, fast_runner, db):
    """Trial jitter keeps most flips but not all: repeatability lands
    strictly between 0 and 1, as real chips show."""
    results = fast_runner.characterize(
        [s0_module], [7_800.0], dies=[0], trials=3
    )
    db.store_results(results)
    value = db.repeatability("S0", 0, "combined", 7_800.0)
    assert value is not None
    assert 0.2 < value < 1.0


def test_file_backed_database(tmp_path):
    path = str(tmp_path / "flips.sqlite")
    with BitflipDatabase(path) as db1:
        db1.store(meas())
    with BitflipDatabase(path) as db2:
        assert db2.n_measurements() == 1


# ----------------------------------------------------- regression: bugfixes


def test_repeatability_counts_zero_flip_trials(db):
    """A trial with zero bitflips must drag repeatability to 0.0.

    The old implementation built the per-trial sets only from bitflip
    rows, so a flip-free trial never entered the intersection/union and
    the metric was computed over the flipping trials alone --
    overestimating repeatability.
    """
    db.store(meas(trial=0, ones=((11, 3), (11, 4)), zeros=()))
    db.store(meas(trial=1, acmin=None, ones=(), zeros=()))
    assert db.repeatability("S0", 0, "combined", 7_800.0) == 0.0


def test_repeatability_single_flipping_trial_is_not_none(db):
    """Two stored trials with one flipping: 0.0, never None.

    The old implementation saw only one per-trial set (the flipping
    one) and returned None as if a single trial had been stored.
    """
    db.store(meas(trial=0, ones=((11, 3),), zeros=()))
    db.store(meas(trial=1, acmin=None, ones=(), zeros=()))
    db.store(meas(trial=2, ones=((11, 3),), zeros=()))
    assert db.repeatability("S0", 0, "combined", 7_800.0) == 0.0


def test_repeatability_all_trials_flip_free(db):
    db.store(meas(trial=0, acmin=None, ones=(), zeros=()))
    db.store(meas(trial=1, acmin=None, ones=(), zeros=()))
    assert db.repeatability("S0", 0, "combined", 7_800.0) == 0.0


def test_store_results_is_atomic(db):
    """A duplicate mid-set rolls back the whole store_results call."""
    db.store(meas(die=1))  # the future collision
    batch = ResultSet([
        meas(die=0),
        meas(die=1),  # duplicate -> IntegrityError mid-set
        meas(die=2),
    ])
    with pytest.raises(ExperimentError):
        db.store_results(batch)
    # Nothing from the failed set may remain -- not even the die-0
    # measurement inserted before the failure.
    assert db.n_measurements() == 1
    assert len(db.measurements(die=0)) == 0
    assert len(db.measurements(die=2)) == 0


def test_t_on_query_hits_round_tripped_floats(db):
    """Quantized tAggON keys: a float that took a different arithmetic
    path still hits its sweep point."""
    stored = 36.0 + 0.1 + 0.2          # 36.30000000000000
    queried = 36.3                     # != stored under float equality
    assert stored != queried
    db.store(meas(t_on=stored))
    assert len(db.measurements(t_on=queried)) == 1
    assert db.unique_flips("S0", "combined", queried) == {
        (11, 3), (11, 4), (9, 0),
    }


def test_t_on_query_hits_geomspace_round_trip(db):
    import json

    exact = 106.06601717798213
    db.store(meas(t_on=exact))
    round_tripped = json.loads(json.dumps(exact))
    assert len(db.measurements(t_on=round_tripped)) == 1
    # And reconstruction keeps the exact REAL value, not the quantized key.
    assert list(db.measurements())[0].t_on == exact


def test_distinct_sweep_points_do_not_collide(db):
    db.store(meas(t_on=36.0))
    db.store(meas(t_on=36.3))
    assert db.n_measurements() == 2
    assert len(db.measurements(t_on=36.0)) == 1
    assert len(db.measurements(t_on=36.3)) == 1


def test_v1_schema_migrates_in_place(tmp_path):
    """A pre-quantization (v1) database opens, migrates, and queries."""
    import sqlite3

    path = str(tmp_path / "legacy.sqlite")
    conn = sqlite3.connect(path)
    conn.executescript("""
        CREATE TABLE measurements (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            module TEXT NOT NULL,
            manufacturer TEXT NOT NULL,
            die INTEGER NOT NULL,
            pattern TEXT NOT NULL,
            t_on REAL NOT NULL,
            trial INTEGER NOT NULL,
            acmin INTEGER,
            time_to_first_ns REAL,
            UNIQUE(module, die, pattern, t_on, trial)
        );
        CREATE TABLE bitflips (
            measurement_id INTEGER NOT NULL REFERENCES measurements(id),
            row INTEGER NOT NULL,
            col INTEGER NOT NULL,
            one_to_zero INTEGER NOT NULL
        );
    """)
    conn.execute(
        "INSERT INTO measurements (module, manufacturer, die, pattern, "
        "t_on, trial, acmin, time_to_first_ns) "
        "VALUES ('S0', 'S', 0, 'combined', 7800.0, 0, 100, 100000.0)"
    )
    conn.execute("INSERT INTO bitflips VALUES (1, 11, 3, 1)")
    conn.commit()
    conn.close()

    with BitflipDatabase(path) as db:
        assert db.n_measurements() == 1
        # Quantized filtering works on the backfilled column.
        assert len(db.measurements(t_on=7_800.0)) == 1
        restored = list(db.measurements())[0]
        assert restored.census.flips_1_to_0 == {(11, 3)}
        # And new inserts carry the quantized key.
        db.store(meas(die=1))
        assert len(db.measurements(t_on=7_800.0)) == 2
