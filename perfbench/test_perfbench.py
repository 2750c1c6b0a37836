"""Self-test of the benchmark on tiny inputs (one module, one tAggON, one
search).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((HERE / "digests.json").read_text())


def _units(kind: str):
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def _emitted(result):
    return {name: unit for name, (_value, unit) in result["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.run_workload(workload, seed=1, seconds=0, trace=False, scope="tiny")
    assert result["correct"], result["mismatches"]
    assert _emitted(result) == _units("end_to_end")
    assert result["metrics"]["setup_s"][0] > 0
    assert result["metrics"]["wall_s"][0] > 0
    assert result["host"]["nproc"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = run.run_workload(workload, seed=1, seconds=0, trace=True, scope="tiny")
    assert result["correct"], result["mismatches"]
    assert _emitted(result) == _units("per_layer")
    metrics = {name: value for name, (value, _unit) in result["metrics"].items()}
    layer_self = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert layer_self + metrics["unattributed_s"] == pytest.approx(metrics["trace.wall_s"])
    assert metrics["trace.spans"] > 0


def test_campaign_fails_only_the_s3_mapping_preflight():
    result = run.run_workload("campaign", seed=2, seconds=0, trace=True, scope="tiny")
    assert result["preflight_failed"] == ["S3"]
    assert result["metrics"]["backend.preflight_failed"][0] == 1
    assert result["metrics"]["ops_failed_ratio"][0] > 0


def test_durable_stage_pins_the_same_anchor_population():
    for scope in ("full", "tiny"):
        pinned = PINNED[scope]["campaign"]
        assert pinned["durable"] == pinned["manifest"] == pinned["anchors"]


def test_tampered_digest_fails_the_run(tmp_path):
    pinned = dict(PINNED["tiny"]["mitigate"], points="0" * 64)
    result = run.run_workload(
        "mitigate", seed=1, seconds=0, trace=False, scope="tiny", pinned=pinned
    )
    assert not result["correct"]
    assert result["mismatches"]

    # Through the command line: exit 1 and a result that says so.
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    tampered = json.loads((tmp_path / "perfbench" / "digests.json").read_text())
    tampered["tiny"]["mitigate"]["points"] = "0" * 64
    (tmp_path / "perfbench" / "digests.json").write_text(json.dumps(tampered))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mitigate", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--scope", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 1, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 2
    assert done.stdout == ""
