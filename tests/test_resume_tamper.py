"""A hand-edited checkpoint journal must not resume.

``CheckpointJournal.load`` schema-checks every entry through
``validate_journal_entry`` before decoding it, for both journal codecs
(characterization measurements and ``repro-mitigation-point-v1``
points).  Each tamper below keeps the journal valid JSON and carries no
digest sidecar, so only the schema can catch it; the resume must raise
``CheckpointError`` naming the offending ``$.path``.
"""

from __future__ import annotations

import json
import re

import pytest

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
    (_drop("die"), "$.measurements[0].die is missing"),
    (_drop_measurements, "$.measurements is missing"),
], ids=["acmin", "time", "census-pair", "census-negative", "field", "entry"])
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
], ids=["acmin", "time", "shape", "field", "entry"])
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
