"""Repository benchmark: three workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` measures end to end with tracing off: set-up (import,
module calibration, preflight) is repeated and its median reported as
``setup_s``; the workload then repeats under ``workers="auto"`` until
``--seconds`` have been measured (at least twice).  Both times are put
on a host of fixed speed with the fixed kernel in ``reference.py``: it
is read around every set-up and around every named part of a repetition
(a campaign pass, the shard export, one honest search), and each of
those times is multiplied by ``reference.NOMINAL_S`` over the mean of
the two readings around it.  ``setup_s`` is the median set-up and
``wall_s`` sums every part's median repetition (the raw median set-up
is printed as ``host.setup_s``).
``--trace 1`` runs set-up plus the workload three times with ``workers=1``,
so every wrapped call happens in-process: a warm-up pass, a traced pass
and an untraced reference pass (their difference is ``trace.overhead_s``).
It reports the per-layer metrics (see ``layers.py``) and writes the spans
to ``out/<workload>.spans.npz``.  Every repetition's outputs are checked
against the digests pinned in ``digests.json``; ``--scope tiny`` runs the
self-test's one-module inputs instead of the paper-scale ones.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name the
host and every metric with its unit.  The exit code is 0 when every
output matched its pinned digest, 1 when one did not, and 2 on a usage
or environment error.  ``--workload all`` runs every workload in its own
process and prints one combined result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up repetitions per untraced run (``setup_s`` is their median).
SETUP_REPS = 3

#: Fewest timed repetitions per untraced run, however long one takes.
#: The host's speed drifts by tens of percent within seconds and by up to
#: 2x over minutes.  The readings around a part take out most of that;
#: ``wall_s`` then keeps each part's median repetition, which neither a
#: stall the readings missed nor a reading they overstate can move far.
MIN_REPS = 2

WORKLOAD_NAMES = ("campaign", "honest", "mitigate")

#: The end-to-end metrics of an untraced run.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = [{here!r}, {src!r}]\n"
    "start = time.perf_counter()\n"
    "import workloads\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds() -> float:
    """Time the benchmark's imports in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE.format(here=str(HERE), src=str(SRC))],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_record(executors: Dict[str, Optional[dict]]) -> dict:
    """The host a run measured on, with the executors ``auto`` chose."""
    import numpy
    from repro.validate.provenance import provenance_stamp

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "provenance": provenance_stamp(),
        "executors": executors,
    }


class Checker:
    """Compares each repetition's digests with the pinned ones."""

    def __init__(self, pinned: Dict[str, str]) -> None:
        self.pinned = pinned
        self.mismatches: List[str] = []
        self.seen: Dict[str, str] = {}

    def check(self, digests: Dict[str, str]) -> None:
        for name, value in digests.items():
            self.seen[name] = value
            want = self.pinned.get(name)
            if want != value:
                self.mismatches.append(f"{name}: got {value}, pinned {want}")
        missing = sorted(set(self.pinned) - set(digests))
        self.mismatches.extend(f"{name}: not produced" for name in missing)


def _fidelity(outcome) -> Dict[str, Tuple[float, str]]:
    import workloads

    results = outcome.results
    if "anchors" not in results:
        names = ["fidelity.table2_max_rel_err"] + [
            f"fidelity.{kind}.{mfr}"
            for kind in ("obs3_residual_70us", "ss_overlap_70us")
            for mfr in workloads.MANUFACTURERS
        ]
        return {name: (0.0, "ratio") for name in names}
    return {
        name: (value, "ratio")
        for name, value in workloads.fidelity(results["sweep"], results["anchors"]).items()
    }


def _ops_failed_ratio(prepared, outcome) -> float:
    attempted = prepared.preflights + outcome.ops
    return len(prepared.preflight_failed) / attempted


def run_untraced(workload, seconds: int, import_s: float, checker: Checker) -> dict:
    import reference
    import workloads

    def steady(raw_s: float, before: float, after: float) -> float:
        """``raw_s`` on a host of fixed speed, by the readings around it."""
        return raw_s * reference.NOMINAL_S * 2 / (before + after)

    setup_readings = [reference.reading()]
    setups: List[float] = []
    raw_setups: List[float] = []
    for rep in range(SETUP_REPS):
        imported = import_s if rep == 0 else import_seconds()
        workloads.clear_caches()
        start = time.perf_counter()
        prepared = workload.setup()
        raw_setups.append(imported + time.perf_counter() - start)
        setup_readings.append(reference.reading())
        setups.append(steady(raw_setups[-1], *setup_readings[-2:]))
    timed = 0.0
    laps_record: List[dict] = []
    parts: Dict[str, List[float]] = {}
    attempted = 0
    while len(laps_record) < MIN_REPS or timed < seconds:
        outcome = None  # free the previous repetition's results first
        gc.collect()
        workloads.clear_caches()
        workload.before_rep()
        laps = workloads.Laps(reference.reading)
        outcome = workload.run(prepared, "auto", laps)
        timed += sum(laps.parts.values())
        laps_record.append({"parts": laps.parts, "readings": laps.readings})
        readings = laps.readings
        for i, (part, part_s) in enumerate(laps.parts.items()):
            parts.setdefault(part, []).append(steady(part_s, readings[i], readings[i + 1]))
        attempted += outcome.ops
        checker.check(workload.digest(outcome))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(statistics.median(samples) for samples in parts.values()), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = dict(_fidelity(outcome))
    report["host.setup_s"] = (statistics.median(raw_setups), "s")
    report["ops_failed_ratio"] = (_ops_failed_ratio(prepared, outcome), "ratio")
    return {
        "metrics": metrics,
        "report": report,
        "attempted": attempted,
        "samples": {"setup_s": raw_setups, "setup_readings": setup_readings, "laps": laps_record},
        "preflight_failed": prepared.preflight_failed,
        "executors": outcome.executors,
    }


def _serial_pass(workload, checker: Checker) -> Tuple[float, object, object]:
    """Set-up plus one ``workers=1`` repetition: (seconds, prepared, outcome)."""
    import workloads

    gc.collect()
    workloads.clear_caches()
    workload.before_rep()
    start = time.perf_counter()
    prepared = workload.setup()
    outcome = workload.run(prepared, 1, workloads.Laps())
    seconds = time.perf_counter() - start
    checker.check(workload.digest(outcome))
    return seconds, prepared, outcome


def run_traced(workload, checker: Checker) -> dict:
    import layers
    import workloads
    from spans import Tracer

    # The first pass in a process pays one-off costs (the allocator
    # growing the heap, first-touch page faults), so it only warms up;
    # the untraced reference pass runs after the traced one.
    _, _, warm = _serial_pass(workload, checker)
    attempted = warm.ops
    warm = None
    with Tracer() as tracer:
        layers.install(tracer)
        traced_s, prepared, outcome = _serial_pass(workload, checker)
    attempted += outcome.ops
    untraced_s, _, reference = _serial_pass(workload, checker)
    attempted += reference.ops
    reference = None
    tracer.write(workloads.OUT_DIR / f"{workload.name}.spans.npz")
    extra = dict(outcome.extra)
    extra["backend.preflight_failed"] = len(prepared.preflight_failed)
    metrics = layers.per_layer_metrics(tracer, traced_s, untraced_s, extra)
    metrics["ops_failed_ratio"] = (_ops_failed_ratio(prepared, outcome), "ratio")
    metrics.update(_fidelity(outcome))
    return {
        "metrics": metrics,
        "report": {},
        "attempted": attempted,
        "samples": {},
        "preflight_failed": prepared.preflight_failed,
        "executors": outcome.executors,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: int,
    trace: bool,
    scope: str = "full",
    import_s: float = 0.0,
    pinned: Optional[Dict[str, str]] = None,
) -> dict:
    """Run one workload; returns metrics, digests and the host record.

    ``pinned`` overrides the digests read from ``digests.json``.
    """
    import workloads

    if pinned is None:
        pinned = json.loads((HERE / "digests.json").read_text())[scope][name]
    workload = workloads.WORKLOADS[name](workloads.SCOPES[scope], seed)
    checker = Checker(pinned)
    if trace:
        run = run_traced(workload, checker)
    else:
        run = run_untraced(workload, seconds, import_s, checker)
    run.update(
        workload=name,
        scope=scope,
        seed=seed,
        trace=int(trace),
        correct=not checker.mismatches,
        mismatches=checker.mismatches,
        digests=checker.seen,
        host=host_record(run.pop("executors")),
    )
    return run


def _print_run(run: dict) -> None:
    print(f"# host {json.dumps(run['host'], sort_keys=True)}")
    label = f"{run['workload']} (trace {run['trace']})"
    for name, (value, unit) in sorted({**run["metrics"], **run["report"]}.items()):
        print(f"# {label} {name} = {value:.6g} {unit}")
    print(f"# {label} digests {json.dumps(run['digests'], sort_keys=True)}")
    print(f"# {label} preflight failed: {run['preflight_failed']}")
    for line in run["mismatches"]:
        print(f"# {label} DIGEST MISMATCH {line}")


def _result_line(correct: bool, attempted: int, metrics: Dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": 0,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def _run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    correct, attempted, metrics = True, 0, {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scope", args.scope,
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1):
            print(f"perfbench: workload {name} exited {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        for metric, cell in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (cell["value"], cell["unit"])
    print(_result_line(correct, attempted, metrics))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scope", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(HERE), str(SRC)]
    start = time.perf_counter()
    import workloads  # timed: the import share of setup_s

    import_s = time.perf_counter() - start
    run = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scope, import_s
    )
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = workloads.OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    record.write_text(json.dumps(run, indent=1, sort_keys=True, default=str) + "\n")
    _print_run(run)
    contract = END_TO_END if not args.trace else tuple(run["metrics"])
    print(_result_line(run["correct"], run["attempted"], {k: run["metrics"][k] for k in contract}))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
