"""Tests for the module factory and the command-line interface."""

import pytest

from repro.cli import main, sweep_points
from repro.system import build_module, build_modules


def test_build_module_uses_calibration(fast_config):
    module = build_module("S0", fast_config)
    assert module.key == "S0"
    assert module.n_dies == 8
    assert module.model.press(7_800.0) == pytest.approx(1.0)


def test_build_modules_multiple(fast_config):
    modules = build_modules(["S0", "M1"], fast_config)
    assert [m.key for m in modules] == ["S0", "M1"]


def test_sweep_points_include_anchors():
    points = sweep_points(5, t_max=70_200.0)
    for anchor in (36.0, 636.0, 7_800.0, 70_200.0):
        assert anchor in points
    assert points == sorted(points)


def test_cli_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Samsung" in out
    assert "M393A2K40CB2-CTD" in out


def test_cli_fig5_csv(capsys):
    code = main([
        "fig5", "--modules", "S0", "--points", "2", "--trials", "1",
        "--t-max", "7800", "--csv",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("label,t_agg_on_ns")
    assert "S0" in out


def test_cli_report(capsys):
    code = main(["report", "--modules", "S1", "--trials", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "S1 RH @ 36ns" in out
    assert "cells match within" in out


def test_cli_campaign(capsys):
    code = main(["campaign", "--modules", "S1", "--trials", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "settled in" in out
    assert "S1 RH @ 36ns" in out


def test_cli_campaign_honours_runner_flags(tmp_path, capsys):
    """``campaign`` runs through the runner: --checkpoint writes a
    journal that validates, and --resume over it reruns nothing and
    reproduces the same digest."""
    from repro.core.results import ResultSet
    from repro.validate.invariants import results_digest

    journal = tmp_path / "campaign.jsonl"
    base = [
        "campaign", "--modules", "S1", "--trials", "1", "--workers", "0",
        "--validate", "--checkpoint", str(journal),
    ]
    fresh, resumed = tmp_path / "fresh.json", tmp_path / "resumed.json"
    assert main(base + ["--dump", str(fresh)]) == 0
    fresh_out = capsys.readouterr().out
    assert main(["validate", str(journal), str(fresh)]) == 0
    capsys.readouterr()
    assert main(base + ["--resume", "--dump", str(resumed)]) == 0
    captured = capsys.readouterr()
    assert "8 total, 8 resumed from checkpoint, 0 executed" in captured.err
    assert captured.out == fresh_out
    assert results_digest(ResultSet.load(resumed)) == results_digest(
        ResultSet.load(fresh)
    )


def test_cli_fig6_ascii(capsys):
    code = main([
        "fig6", "--modules", "S0", "--points", "2", "--trials", "1",
        "--t-max", "7800",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Fig. 6" in out
    assert "single-sided" in out


def test_cli_keyboard_interrupt_exits_130(monkeypatch, capsys):
    from repro.core.runner import CharacterizationRunner

    def interrupt(self, *args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(CharacterizationRunner, "characterize", interrupt)
    code = main([
        "fig5", "--modules", "S0", "--points", "2", "--trials", "1",
        "--t-max", "7800",
    ])
    assert code == 130
    assert "interrupted" in capsys.readouterr().err


def test_cli_closed_stdout_exits_141(monkeypatch):
    """A reader that went away (``| head``) ends the CLI on the SIGPIPE
    convention, with stdout on the null device, not in a traceback."""
    import io
    import os
    import sys

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["table1"]) == 141
    assert sys.stdout.name == os.devnull
    sys.stdout.close()


#: Runs the CLI in a child process that parks for up to a minute right
#: after journaling its first shard, so the test can signal it at a
#: known point: one shard durable, the rest not yet run.
_PARKED_CLI = """
import sys
import time

from repro.cli import main
from repro.core.checkpoint import CheckpointJournal

record = CheckpointJournal.record


def record_then_park(self, *args, **kwargs):
    record(self, *args, **kwargs)
    CheckpointJournal.record = record
    time.sleep(60)


CheckpointJournal.record = record_then_park
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.faults
@pytest.mark.parametrize(
    "signum,workers",
    [("SIGTERM", "0"), ("SIGTERM", "2"), ("SIGKILL", "0")],
    ids=["sigterm-serial", "sigterm-workers2", "sigkill-serial"],
)
def test_cli_killed_campaign_resumes_bit_identically(
    tmp_path, capsys, signum, workers
):
    """SIGTERM unwinds like Ctrl-C (exit 130, lock released); SIGKILL
    leaves a stale lock that --resume reclaims.  Either way the resumed
    dump is byte-identical to an uninterrupted run's."""
    import os
    import signal
    import subprocess
    import sys
    import time

    import repro

    journal = tmp_path / "campaign.jsonl"
    lock = tmp_path / "campaign.jsonl.lock"
    base = [
        "table2", "--modules", "S1", "--trials", "1", "--workers", workers,
        "--checkpoint", str(journal),
    ]
    resumed, fresh = tmp_path / "resumed.json", tmp_path / "fresh.json"
    # The child imports the same repro package this test runs against.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.Popen(
        [sys.executable, "-c", _PARKED_CLI, *base, "--dump", str(resumed)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        # Header plus one shard record: the child is parked.
        while not journal.exists() or journal.read_bytes().count(b"\n") < 2:
            assert child.poll() is None, child.communicate()
            assert time.monotonic() < deadline, "no shard was ever journaled"
            time.sleep(0.02)
        child.send_signal(getattr(signal, signum))
        _, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()

    if signum == "SIGTERM":
        assert child.returncode == 130, err
        assert "interrupted" in err
        assert not lock.exists()
    else:
        assert child.returncode == -signal.SIGKILL
        assert lock.exists()  # the dead writer's lock is left behind
    assert not resumed.exists()

    assert main(base + ["--resume", "--dump", str(resumed)]) == 0
    assert "1 resumed from checkpoint, 7 executed" in capsys.readouterr().err
    assert not lock.exists()
    assert main(["table2", "--modules", "S1", "--trials", "1", "--workers",
                 "0", "--dump", str(fresh)]) == 0
    assert resumed.read_bytes() == fresh.read_bytes()
