"""A hand-edited checkpoint journal must not resume.

``CheckpointJournal.load`` schema-checks every entry through
``validate_journal_entry`` before decoding it, for both journal codecs
(characterization measurements and ``repro-mitigation-point-v1``
points).  Each tamper below keeps the journal valid JSON and carries no
digest sidecar, so only the schema can catch it; the resume must raise
``CheckpointError`` naming the offending ``$.path``.  So must a shard
index recorded twice or past the header's ``n_shards``, and so must a
header whose ``n_shards`` disagrees with the plan.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.core.engine import SerialExecutor
from repro.core.runner import CharacterizationRunner
from repro.errors import CheckpointError
from repro.mitigations.campaign import MitigationCampaign
from repro.patterns import DOUBLE_SIDED

pytestmark = pytest.mark.faults


def _set(key, value):
    def tamper(entry):
        entry["measurements"][0][key] = value
    return tamper


def _drop(key):
    def tamper(entry):
        entry["measurements"][0].pop(key)
    return tamper


def _drop_measurements(entry):
    entry.pop("measurements")


def _shard_99(entry):
    entry["shard"] = 99


def _tampered(journal, tmp_path, tamper):
    """A copy of ``journal`` whose first shard entry went through ``tamper``."""
    lines = journal.read_text().splitlines()
    entry = json.loads(lines[1])
    tamper(entry)
    lines[1] = json.dumps(entry)
    copy = tmp_path / f"tampered-{journal.name}"
    copy.write_text("\n".join(lines) + "\n")
    return copy


# ------------------------------------------------------- characterization


def _characterize(config, module, journal, resume=False):
    runner = CharacterizationRunner(config)
    return runner.characterize(
        [module], [36.0], [DOUBLE_SIDED], trials=1,
        executor=SerialExecutor(), checkpoint=str(journal), resume=resume,
    )


@pytest.fixture(scope="module")
def measurement_journal(fast_config, s0_module, tmp_path_factory):
    journal = tmp_path_factory.mktemp("char") / "campaign.jsonl"
    _characterize(fast_config, s0_module, journal)
    return journal


@pytest.mark.parametrize("tamper, problem", [
    (_set("acmin", -5), "$.measurements[0].acmin must be > 0, got -5"),
    (_set("time_to_first_ns", "soon"),
     "$.measurements[0].time_to_first_ns must be a number, got str"),
    (_set("flips_1_to_0", [[1]]),
     "$.measurements[0].flips_1_to_0[0] must be a [row, col] pair, "
     "got 1 element(s)"),
    (_set("flips_0_to_1", [[-1, 5]]),
     "$.measurements[0].flips_0_to_1[0][0] must be >= 0, got -1"),
    (_set("flips_1_to_0", [[0, 2**32]]),
     "$.measurements[0].flips_1_to_0[0][1] must be < 2**32, got 4294967296"),
    (_drop("die"), "$.measurements[0].die is missing"),
    (_drop_measurements, "$.measurements is missing"),
    (_shard_99, "$.shard is 99, but the header declares only 8 shard(s)"),
], ids=["acmin", "time", "census-pair", "census-negative", "census-oversized",
        "field", "entry", "shard"])
def test_tampered_measurement_journal_does_not_resume(
    fast_config, s0_module, measurement_journal, tmp_path, tamper, problem
):
    journal = _tampered(measurement_journal, tmp_path, tamper)
    with pytest.raises(CheckpointError, match=re.escape(f"line 2: {problem}")):
        _characterize(fast_config, s0_module, journal, resume=True)


# ------------------------------------------------------------- mitigation


def _mitigate(journal, resume=False):
    return MitigationCampaign().run(
        chips=("E0",), mitigations=("para",), t_values=(36.0,),
        patterns=(DOUBLE_SIDED,), checkpoint=str(journal), resume=resume,
    )


@pytest.fixture(scope="module")
def mitigation_journal(tmp_path_factory):
    journal = tmp_path_factory.mktemp("mit") / "mitigation.ckpt"
    _mitigate(journal)
    return journal


@pytest.mark.parametrize("tamper, problem", [
    (_set("baseline_acmin", -5),
     "$.measurements[0].baseline_acmin must be > 0, got -5"),
    (_set("time_to_first_ns", "soon"),
     "$.measurements[0].time_to_first_ns must be a number, got str"),
    (_set("fails_at", [1]), "$.measurements[0].fails_at must be a number, "
     "got list"),
    (_drop("n_runs"), "$.measurements[0].n_runs is missing"),
    (_drop_measurements, "$.measurements is missing"),
    (_shard_99, "$.shard is 99, but the header declares only 1 shard(s)"),
], ids=["acmin", "time", "shape", "field", "entry", "shard"])
def test_tampered_mitigation_journal_does_not_resume(
    mitigation_journal, tmp_path, tamper, problem
):
    journal = _tampered(mitigation_journal, tmp_path, tamper)
    with pytest.raises(CheckpointError, match=re.escape(f"line 2: {problem}")):
        _mitigate(journal, resume=True)


def test_untampered_journals_still_resume(
    fast_config, s0_module, measurement_journal, mitigation_journal, tmp_path
):
    journal = _tampered(measurement_journal, tmp_path, lambda entry: None)
    _characterize(fast_config, s0_module, journal, resume=True)
    journal = _tampered(mitigation_journal, tmp_path, lambda entry: None)
    _mitigate(journal, resume=True)



# ------------------------------------------------- one shard per line


def _duplicate_first_entry(journal, tmp_path):
    lines = journal.read_text().splitlines()
    copy = tmp_path / f"duplicated-{journal.name}"
    copy.write_text("\n".join(lines[:2] + lines[1:]) + "\n")
    return copy


@pytest.mark.parametrize("kind", ["characterization", "mitigation"])
def test_duplicated_shard_does_not_resume(
    kind, fast_config, s0_module, measurement_journal, mitigation_journal,
    tmp_path,
):
    """``load`` applies the one-shard-per-line rule of ``validate``."""
    problem = "line 3: $.shard 0 was already recorded on line 2"
    with pytest.raises(CheckpointError, match=re.escape(problem)):
        if kind == "characterization":
            journal = _duplicate_first_entry(measurement_journal, tmp_path)
            _characterize(fast_config, s0_module, journal, resume=True)
        else:
            journal = _duplicate_first_entry(mitigation_journal, tmp_path)
            _mitigate(journal, resume=True)


# ------------------------------------------------------- header n_shards


def _header_n_shards(journal, tmp_path, n_shards, last_shard=None):
    """A copy of ``journal`` whose header declares ``n_shards``; with
    ``last_shard``, its last entry is renumbered to that shard."""
    lines = journal.read_text().splitlines()
    header = json.loads(lines[0])
    header["n_shards"] = n_shards
    lines[0] = json.dumps(header)
    if last_shard is not None:
        entry = json.loads(lines[-1])
        entry["shard"] = last_shard
        lines[-1] = json.dumps(entry)
    copy = tmp_path / f"header-{n_shards}-{journal.name}"
    copy.write_text("\n".join(lines) + "\n")
    return copy


@pytest.mark.parametrize("n_shards, last_shard", [(100, 99), (1, None)],
                         ids=["up", "down"])
def test_edited_header_n_shards_does_not_resume(
    fast_config, s0_module, measurement_journal, tmp_path, n_shards, last_shard
):
    journal = _header_n_shards(measurement_journal, tmp_path, n_shards, last_shard)
    problem = (f"header declares n_shards {n_shards}, but the current plan "
               f"has 8 shard(s)")
    with pytest.raises(CheckpointError, match=re.escape(problem)):
        _characterize(fast_config, s0_module, journal, resume=True)


@pytest.mark.parametrize("n_shards, last_shard", [(100, 99), (1, None)],
                         ids=["up", "down"])
def test_cli_edited_header_n_shards_exits_2(tmp_path, capsys, n_shards, last_shard):
    args = ["mitigate", "--chips", "E0", "--mitigations", "para",
            "--patterns", "double-sided", "combined", "--workers", "0"]
    journal = tmp_path / "mitigation.ckpt"
    assert main(args + ["--checkpoint", str(journal)]) == 0
    capsys.readouterr()
    edited = _header_n_shards(journal, tmp_path, n_shards, last_shard)
    assert main(args + ["--checkpoint", str(edited), "--resume"]) == 2
    err = capsys.readouterr().err
    assert f"header declares n_shards {n_shards}, but the current plan has " \
        "2 shard(s)" in err
