"""The traced run's layer vocabulary and the per-layer metrics.

:func:`install` wraps the public functions and methods through which
work enters each ``repro`` layer; :func:`per_layer_metrics` reduces the
recorded spans and counters to the named per-layer metrics.  Each span
name is ``<layer>.<call>``; a layer's self time is the self time of all
its spans, and the layer self times plus ``unattributed_s`` add up to the
traced wall time.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro import system
from repro.backend.session import DeviceSession
from repro.bender.interpreter import Interpreter
from repro.bender.timing import TimingChecker
from repro.core import engine, honest
from repro.core.acmin import DieAnalysis, DieSweepAnalyzer
from repro.core.checkpoint import CheckpointJournal
from repro.core.flipdb import BitflipDatabase, FlipSink
from repro.core.stacked import StackedDie
from repro.disturb.tracker import DisturbanceTracker
from repro.dram.bank import Bank
from repro.mitigations import campaign as mitigation_campaign
from repro.mitigations.base import Mitigation
from repro.patterns.base import AccessPattern
from repro.patterns.dsl import PatternSpec

from spans import Tracer

LAYERS = (
    "system", "backend", "stacked", "patterns", "acmin", "engine", "flipdb",
    "checkpoint", "honest", "interp", "timing", "bank", "tracker", "mitigations",
)


def _count_trials(counters, args, kwargs, analyses) -> None:
    counters["acmin.trials"] += len(analyses)


def _count_flips(counters, args, kwargs, census) -> None:
    counters["acmin.flips"] += census.n_flips


def _count_measurements(counters, args, kwargs, measurements) -> None:
    counters["engine.measurements"] += len(measurements)


def _count_probes(counters, args, kwargs, found) -> None:
    counters["honest.probes"] += found.probes


def _count_program(counters, args, kwargs, result) -> None:
    counters["interp.commands"] += args[1].dynamic_instruction_count()
    counters["interp.acts"] += result.activations


#: (owner, attribute, span name, counter hook).  Functions a module
#: imports by name are patched in that importing module.
PATCHES = (
    (system, "build_modules", "system.build_modules", None),
    (DeviceSession, "ensure_preflight", "backend.preflight", None),
    (engine, "build_stacked_die", "stacked.build", None),
    (StackedDie, "fused_jitter", "stacked.jitter", None),
    (AccessPattern, "iteration_contributions", "patterns.contributions", None),
    (PatternSpec, "iteration_contributions", "patterns.contributions", None),
    (honest, "compile_init", "patterns.compile", None),
    (honest, "compile_hammer_loop", "patterns.compile", None),
    (honest, "compile_readback", "patterns.compile", None),
    (DieSweepAnalyzer, "analyze_trials", "acmin.analyze", _count_trials),
    (DieAnalysis, "census", "acmin.census", _count_flips),
    (DieAnalysis, "acmin", "acmin.reduce", None),
    (engine.ShardRunner, "run", "engine.shard", _count_measurements),
    (mitigation_campaign.MitigationShardRunner, "run", "engine.shard", None),
    (engine.SerialExecutor, "map_shards", "engine.map", None),
    (FlipSink, "accept", "flipdb.accept", None),
    (FlipSink, "flush", "flipdb.flush", None),
    (BitflipDatabase, "export_shards", "flipdb.export", None),
    (CheckpointJournal, "record", "checkpoint.record", None),
    (honest, "measure_location_honest", "honest.search", _count_probes),
    (mitigation_campaign, "measure_location_honest", "honest.search", _count_probes),
    (Interpreter, "run", "interp.run", _count_program),
    (TimingChecker, "check_act", "timing.check", None),
    (TimingChecker, "check_pre", "timing.check", None),
    (TimingChecker, "check_column", "timing.check", None),
    (TimingChecker, "check_ref", "timing.check", None),
    (Bank, "activate", "bank.activate", None),
    (Bank, "precharge", "bank.precharge", None),
    (DisturbanceTracker, "on_activation", "tracker.on_activation", None),
    (DisturbanceTracker, "flip_mask", "tracker.flip_mask", None),
    (Mitigation, "_observe", "mitigations.observer", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point (undone when the tracer exits)."""
    for owner, attr, span, count in PATCHES:
        tracer.patch(owner, attr, span, count)


def per_layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    untraced_wall_s: float,
    extra: Dict[str, float],
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    ``extra`` supplies the numbers spans cannot see (``flipdb.rows``,
    ``flipdb.bytes``, ``checkpoint.bytes``, ``mitigations.search_runs``,
    ``backend.preflight_failed``); missing ones read 0.
    """
    summary = tracer.summary()
    counters = tracer.counters

    def total(span: str) -> float:
        return summary.get(span, {}).get("total_s", 0.0)

    def calls(span: str) -> int:
        return summary.get(span, {}).get("count", 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    searches = calls("honest.search")
    returned = counters["engine.measurements"]
    m: Dict[str, Tuple[float, str]] = {
        "system.build_modules_s": (total("system.build_modules"), "s"),
        "backend.preflight_s": (total("backend.preflight"), "s"),
        "backend.preflight_failed": (extra.get("backend.preflight_failed", 0), "count"),
        "stacked.build_s": (total("stacked.build"), "s"),
        "stacked.builds": (calls("stacked.build"), "count"),
        "stacked.jitter_s": (total("stacked.jitter"), "s"),
        "patterns.contributions_s": (total("patterns.contributions"), "s"),
        "patterns.compile_s": (total("patterns.compile"), "s"),
        "patterns.programs": (calls("patterns.compile"), "count"),
        "acmin.analyze_s": (total("acmin.analyze"), "s"),
        "acmin.points": (calls("acmin.analyze"), "count"),
        "acmin.trials": (counters["acmin.trials"], "count"),
        "acmin.census_s": (total("acmin.census"), "s"),
        "acmin.flips": (counters["acmin.flips"], "count"),
        "acmin.reduce_s": (total("acmin.reduce"), "s"),
        "engine.shard_s": (total("engine.shard"), "s"),
        "engine.shards": (calls("engine.shard"), "count"),
        "engine.map_s": (total("engine.map"), "s"),
        "engine.overhead_s": (total("engine.map") - total("engine.shard"), "s"),
        "engine.memo_hit_ratio": (
            ratio(returned - counters["acmin.trials"], returned), "ratio"
        ),
        "flipdb.accept_s": (total("flipdb.accept"), "s"),
        "flipdb.flush_s": (total("flipdb.flush"), "s"),
        "flipdb.rows": (extra.get("flipdb.rows", 0), "count"),
        "flipdb.export_s": (total("flipdb.export"), "s"),
        "flipdb.bytes": (extra.get("flipdb.bytes", 0), "bytes"),
        "checkpoint.record_s": (total("checkpoint.record"), "s"),
        "checkpoint.records": (calls("checkpoint.record"), "count"),
        "checkpoint.bytes": (extra.get("checkpoint.bytes", 0), "bytes"),
        "honest.probes": (counters["honest.probes"], "count"),
        "honest.probes_per_search": (ratio(counters["honest.probes"], searches), "count"),
        "interp.commands": (counters["interp.commands"], "count"),
        "interp.acts": (counters["interp.acts"], "count"),
        "timing.check_s": (total("timing.check"), "s"),
        "timing.checks": (calls("timing.check"), "count"),
        "bank.activate_s": (total("bank.activate"), "s"),
        "bank.precharge_s": (total("bank.precharge"), "s"),
        "tracker.on_activation_s": (total("tracker.on_activation"), "s"),
        "tracker.activations": (calls("tracker.on_activation"), "count"),
        "tracker.flip_mask_s": (total("tracker.flip_mask"), "s"),
        "mitigations.observer_s": (total("mitigations.observer"), "s"),
        "mitigations.observer_calls": (calls("mitigations.observer"), "count"),
        "mitigations.search_runs": (extra.get("mitigations.search_runs", 0), "count"),
    }
    attributed = 0.0
    for layer in LAYERS:
        own = sum(
            stats["self_s"]
            for span, stats in summary.items()
            if span.split(".", 1)[0] == layer
        )
        m[f"{layer}.self_s"] = (own, "s")
        attributed += own
    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    m["trace.spans"] = (tracer.n_spans, "count")
    m["unattributed_s"] = (traced_wall_s - attributed, "s")
    return m
