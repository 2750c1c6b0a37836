"""Replay the schema mutation corpus through the public validators.

``tests/fixtures/schema_corpus.json`` holds, for each artifact format, a
minimal valid payload plus single-field mutations of it (missing, wrong
type, bool for int, null, negative, zero, fractional, NaN and +-inf),
and at least one violation per cross-field rule (census pairs, null
ACmin with a time, duplicate identities, the mitigation flags, manifest
names and digests, the bench speedup shapes).  Each entry pins the
validator's verdict: ``"ok"`` plus its return value, or the exact
:class:`~repro.errors.ArtifactInvalidError` message.  Any change to a
message, a path or a verdict fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ArtifactInvalidError
from repro.validate import schema

pytestmark = pytest.mark.validate

CORPUS = json.loads(
    (Path(__file__).parent / "fixtures" / "schema_corpus.json").read_text()
)


def _normalized(result):
    return list(result) if isinstance(result, tuple) else result


@pytest.mark.parametrize("validator", sorted({e["validator"] for e in CORPUS}))
def test_corpus_replays_verdicts_and_messages(validator):
    mismatches = []
    for entry in (e for e in CORPUS if e["validator"] == validator):
        validate = getattr(schema, validator)
        payload = entry["payload"]
        try:
            result = validate(payload, *entry["args"])
        except ArtifactInvalidError as exc:
            got = str(exc)
        else:
            if entry.get("returns") == "payload":
                got = "ok" if result is payload else f"returned {result!r}"
            elif _normalized(result) == entry.get("returns"):
                got = "ok"
            else:
                got = f"returned {result!r}"
        if got != entry["expect"]:
            mismatches.append((entry["note"], entry["expect"], got))
    assert not mismatches, "\n".join(
        f"{note}: expected {want!r}, got {got!r}"
        for note, want, got in mismatches
    )


def test_corpus_covers_every_public_validator():
    public = {name for name in schema.__all__ if name.startswith("validate_")}
    assert {e["validator"] for e in CORPUS} == public
