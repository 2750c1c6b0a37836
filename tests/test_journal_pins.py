"""Byte pins of digest-less checkpoint journals, one per campaign kind.

A journal without a digest sidecar carries no provenance stamp, so its
bytes are a pure function of the plan and its results: the header's
plan fingerprint (the configuration's ``repr`` plus every shard and
unit line) and one line per shard.  Pinning the sha256 of the whole file
pins both plan fingerprints, the header layout and the record encoding
of each kind, so a journal written by an earlier release keeps resuming.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.runner import CharacterizationRunner
from repro.mitigations.campaign import MitigationCampaign
from repro.patterns import ALL_PATTERNS

#: The characterization pin: ``fast_config``, module S0, two tAggON
#: points, one trial -- 8 shards, censuses included.
CHARACTERIZATION_SHA256 = (
    "e3c032ff43e2aaec46f0ef7b0283bf208bbb9cfabc8f9f89b246fdaa7f03a50b"
)
CHARACTERIZATION_FINGERPRINT = "60c826257ffd003c"

#: The mitigation pin: the journal ``mitigate --chips E0 --mitigations
#: para --workers 0 --checkpoint J`` writes (3 shards x 4 tAggON points).
MITIGATION_SHA256 = (
    "1241696e2565f5938c8e599510af1826d0e111d65a4242de9928e53f67ed6dac"
)
MITIGATION_FINGERPRINT = "56425efd6f95d963"


def _header(path):
    with open(path, "rb") as handle:
        return json.loads(handle.readline())


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_characterization_journal_bytes_are_pinned(
    fast_config, s0_module, tmp_path
):
    journal = tmp_path / "characterization.ckpt"
    runner = CharacterizationRunner(fast_config)
    fresh = runner.characterize(
        [s0_module], [36.0, 7_800.0], ALL_PATTERNS, trials=1,
        checkpoint=str(journal),
    )
    assert _header(journal)["fingerprint"] == CHARACTERIZATION_FINGERPRINT
    assert _sha256(journal) == CHARACTERIZATION_SHA256
    resumed_runner = CharacterizationRunner(fast_config)
    resumed = resumed_runner.characterize(
        [s0_module], [36.0, 7_800.0], ALL_PATTERNS, trials=1,
        checkpoint=str(journal), resume=True,
    )
    assert resumed_runner.last_report.n_resumed == s0_module.n_dies
    assert resumed.to_json(include_census=True) == fresh.to_json(
        include_census=True
    )


@pytest.mark.mitigations
def test_mitigation_journal_bytes_are_pinned(tmp_path):
    journal = tmp_path / "mitigation.ckpt"
    fresh = MitigationCampaign().run(
        chips=("E0",), mitigations=("para",), checkpoint=str(journal)
    )
    assert _header(journal)["fingerprint"] == MITIGATION_FINGERPRINT
    assert _sha256(journal) == MITIGATION_SHA256
    campaign = MitigationCampaign()
    resumed = campaign.run(
        chips=("E0",), mitigations=("para",), checkpoint=str(journal),
        resume=True,
    )
    assert campaign.last_report.n_resumed == 3
    assert resumed.to_json() == fresh.to_json()
