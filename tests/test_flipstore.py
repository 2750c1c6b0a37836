"""Population-scale flip store: streaming sink, sharded export, ``query``.

The tentpole property: a campaign streamed through :class:`FlipSink`
during the sweep reproduces the in-memory ``results_digest``
bit-identically, and the sealed shard manifest validates shard-by-shard
without materializing the population.
"""

import json
from pathlib import Path

import pytest

from repro.core.flipdb import (
    BitflipDatabase,
    FlipSink,
    iter_shard_measurements,
    quantize_t_on,
)
from repro.core.results import ResultSet
from repro.errors import (
    ArtifactCorruptError,
    ArtifactInvalidError,
    ExperimentError,
)
from repro.obs.metrics import MetricsRegistry
from repro.validate import validate_artifact
from repro.validate.invariants import results_digest
from repro.validate.schema import validate_manifest_payload

pytestmark = pytest.mark.population

T_VALUES = [36.0, 7_800.0]


@pytest.fixture(scope="module")
def population(tmp_path_factory, fast_runner, s0_module, m4_module):
    """One two-module campaign streamed through the sink, sealed to shards.

    Shared by the whole module: the campaign runs once, every test reads
    the same store/manifest (read-only -- tests that mutate copy first).
    """
    root = tmp_path_factory.mktemp("population")
    store = root / "flips.sqlite"
    metrics = MetricsRegistry()
    with FlipSink(store, batch_size=16, metrics=metrics) as sink:
        results = fast_runner.characterize(
            [s0_module, m4_module], T_VALUES, trials=2, sink=sink
        )
        export = sink.db.export_shards(root / "shards", metrics=metrics)
        sink_stats = (sink.n_rows, sink.n_skipped, sink.n_batches)
    return {
        "root": root,
        "store": store,
        "manifest": root / "shards" / export.manifest_path.split("/")[-1],
        "results": results,
        "digest": results_digest(results),
        "export": export,
        "metrics": metrics,
        "sink_stats": sink_stats,
    }


# ------------------------------------------------------------ the tentpole


def test_sink_digest_matches_in_memory(population):
    """Streamed store == in-memory ResultSet, bit-identically."""
    with BitflipDatabase(population["store"]) as db:
        assert db.results_digest() == population["digest"]
        assert db.n_measurements() == len(population["results"])


def test_export_digest_matches_in_memory(population):
    assert population["export"].results_digest == population["digest"]


def test_sink_counters(population):
    n_rows, n_skipped, n_batches = population["sink_stats"]
    assert n_rows == len(population["results"])
    assert n_skipped == 0
    # The sink flushes whenever the buffer crosses batch_size=16, so a
    # 144-row campaign needs several batches but never more than rows.
    assert 2 <= n_batches <= n_rows
    counters = population["metrics"].counters_with_prefix("sink.")
    assert counters["sink.rows_written"] == n_rows
    assert counters["sink.batches"] == n_batches
    assert counters["sink.shards_sealed"] == len(population["export"].shards)
    assert counters["sink.bytes_sealed"] == population["export"].n_bytes


def test_sink_replay_is_idempotent(population, tmp_path):
    """Re-accepting the same measurements stores nothing new."""
    store = tmp_path / "replay.sqlite"
    results = list(population["results"])
    with FlipSink(store, batch_size=32) as sink:
        sink.accept(results)
        sink.flush()
        first_digest = sink.db.results_digest()
        sink.accept(results)  # a resumed campaign re-streams its shards
        sink.flush()
        assert sink.n_rows == len(results)
        assert sink.n_skipped == len(results)
        assert sink.db.results_digest() == first_digest == population["digest"]


def test_sink_close_is_idempotent(tmp_path):
    sink = FlipSink(tmp_path / "s.sqlite")
    sink.close()
    sink.close()
    assert sink.closed
    with pytest.raises(ExperimentError):
        sink.accept([])


def test_sink_close_commits_buffered_measurements(population, tmp_path):
    """Everything accepted before close() is durable -- the Ctrl-C path."""
    store = tmp_path / "interrupted.sqlite"
    results = list(population["results"])[:5]
    sink = FlipSink(store, batch_size=1024)  # nothing auto-flushes
    sink.accept(results)
    sink.close()
    with BitflipDatabase(store) as db:
        assert db.n_measurements() == 5


def test_sink_resumed_campaign_converges(
    population, fast_runner, s0_module, m4_module, tmp_path
):
    """An interrupted+resumed campaign's sink store equals the clean run.

    The first attempt dies on an injected shard fault having streamed a
    prefix of the shards; the resume streams journal-recovered shards
    plus the rest into the *same* store -- idempotent OR IGNORE inserts
    converge it to the full population, bit-identical by digest.
    """
    from repro.core.faults import FaultPlan, FaultSpec, RetryPolicy
    from repro.errors import ShardFailedError

    store = tmp_path / "resume.sqlite"
    journal = tmp_path / "campaign.jsonl"
    policy = RetryPolicy(max_retries=0, backoff_base=0.0)
    with FlipSink(store, batch_size=4) as sink:
        with pytest.raises(ShardFailedError):
            fast_runner.characterize(
                [s0_module, m4_module], T_VALUES, trials=2,
                checkpoint=journal, sink=sink, policy=policy,
                fault_plan=FaultPlan([FaultSpec(shard_index=3, kind="raise")]),
            )
    with FlipSink(store, batch_size=4) as sink:
        resumed = fast_runner.characterize(
            [s0_module, m4_module], T_VALUES, trials=2,
            checkpoint=journal, resume=True, sink=sink, policy=policy,
        )
        assert sink.db.results_digest() == population["digest"]
    assert results_digest(resumed) == population["digest"]


# --------------------------------------------------------- sharded export


def test_manifest_validates_and_counts(population):
    report = validate_artifact(population["manifest"])
    assert report.kind == "manifest"
    assert report.digest_verified  # the manifest's own .sha256 sidecar
    assert report.n_records == len(population["results"])


def test_shards_are_one_per_module(population):
    shards = population["export"].shards
    assert sorted(s.module for s in shards) == ["M4", "S0"]
    for shard in shards:
        assert shard.name == f"shard-{shard.module}.json"


def test_iter_shard_measurements_reproduces_digest(population):
    streamed = ResultSet(iter_shard_measurements(population["manifest"]))
    assert results_digest(streamed) == population["digest"]


def test_corrupted_shard_fails_validation(population, tmp_path):
    import shutil

    shard_dir = population["manifest"].parent
    bad_dir = tmp_path / "bad"
    shutil.copytree(shard_dir, bad_dir)
    victim = bad_dir / population["export"].shards[0].name
    raw = bytearray(victim.read_bytes())
    raw[len(raw) // 3] ^= 0x04
    victim.write_bytes(bytes(raw))
    with pytest.raises(ArtifactCorruptError):
        validate_artifact(bad_dir / "manifest.json")
    with pytest.raises(ArtifactCorruptError):
        list(iter_shard_measurements(bad_dir / "manifest.json"))


def test_missing_shard_fails_validation(population, tmp_path):
    import shutil

    bad_dir = tmp_path / "missing"
    shutil.copytree(population["manifest"].parent, bad_dir)
    (bad_dir / population["export"].shards[0].name).unlink()
    with pytest.raises(ArtifactInvalidError):
        validate_artifact(bad_dir / "manifest.json")


def test_manifest_schema_rejects_count_mismatch(population):
    payload = json.loads(population["manifest"].read_text())
    payload["n_measurements"] += 1
    with pytest.raises(ArtifactInvalidError):
        validate_manifest_payload(payload)


def test_manifest_schema_rejects_path_traversal():
    with pytest.raises(ArtifactInvalidError):
        validate_manifest_payload(
            {
                "format": "repro-flipshards-v1",
                "group_by": "module",
                "n_measurements": 0,
                "results_digest": "0" * 64,
                "shards": [
                    {
                        "name": "../evil.json",
                        "module": "S0",
                        "n_measurements": 0,
                        "bytes": 1,
                        "sha256": "0" * 64,
                    }
                ],
            }
        )


# ----------------------------------------------------------------- plumbing


def test_quantize_t_on_buckets():
    assert quantize_t_on(36.0 + 0.1 + 0.2) == quantize_t_on(36.3) == 36_300
    assert quantize_t_on(7_800.0) == 7_800_000
    assert quantize_t_on(36.0) != quantize_t_on(36.3)


def test_store_iteration_order_is_identity_not_insertion(tmp_path):
    from tests.test_flipdb import meas

    with BitflipDatabase(tmp_path / "order.sqlite") as db:
        db.store(meas(die=1, t_on=7_800.0))
        db.store(meas(die=0, t_on=36.0))
        db.store(meas(die=0, t_on=7_800.0))
        seen = [(m.die, m.t_on) for m in db.iter_measurements()]
    assert seen == [(0, 36.0), (0, 7_800.0), (1, 7_800.0)]


# ------------------------------------------------------------- CLI query

QUERY_GOLDEN = Path(__file__).parent / "fixtures" / "query_golden"


@pytest.fixture(scope="module")
def query_store(tmp_path_factory):
    """CI's population demo, exported once into a flip store."""
    from repro.cli import main

    root = tmp_path_factory.mktemp("query")
    store = root / "flips.sqlite"
    assert main([
        "export", "--modules", "S0", "H0", "--points", "2",
        "--t-max", "7800", "--trials", "1", "--workers", "0",
        "--out", str(root / "shards"), "--store", str(store),
    ]) == 0
    return store


@pytest.mark.parametrize(
    "golden,filters,rows_scanned",
    [
        ("all.txt", [], 108),
        (
            "S0-combined-7800.txt",
            ["--module", "S0", "--pattern", "combined", "--t-on", "7800"],
            8,
        ),
    ],
    ids=["all", "S0-combined-7800"],
)
def test_cli_query_matches_golden(
    golden, filters, rows_scanned, query_store, tmp_path, capsys
):
    """``query`` over CI's population demo prints the pinned bytes.

    The store path in the header line is normalized to ``<store>``;
    ``query.rows_scanned`` counts every measurement the filters match.
    """
    from repro.cli import main

    metrics = tmp_path / "metrics.json"
    assert main(
        ["query", "--store", str(query_store), "--metrics", str(metrics)]
        + filters
    ) == 0
    out = capsys.readouterr().out.replace(f"in {query_store}\n", "in <store>\n")
    assert out == (QUERY_GOLDEN / golden).read_text()
    counters = json.loads(metrics.read_text())["counters"]
    assert counters["query.rows_scanned"] == rows_scanned


@pytest.mark.parametrize(
    "flags",
    [
        ["--modules", "S0"],
        ["--modules", "S0", "--points", "3", "--t-max", "7800",
         "--trials", "2", "--patterns", "combined"],
    ],
    ids=["modules", "every-sweep-flag"],
)
def test_cli_query_refuses_sweep_flags(flags, query_store, capsys):
    """A sweep flag (``--modules`` for ``--module``) is refused, not
    silently ignored in favour of the whole population."""
    from repro.cli import main

    assert main(["query", "--store", str(query_store)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for flag in (f for f in flags if f.startswith("--")):
        assert flag in captured.err
    assert "--module," in captured.err and "--pattern" in captured.err
