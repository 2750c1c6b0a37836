"""Wall-clock benchmark: sweep engine + batch fast path vs the seed loop.

Times the paper's full 14-module characterization protocol -- the 7-point
tAggON sweep and the Table 2 anchor points, each measurement repeated
``TRIALS_PER_MEASUREMENT`` (3) times as in the paper's methodology --
through four execution paths:

* ``seed``: a frozen replica of the pre-engine serial loop (per-row cell
  draws, per-measurement role weights, per-trial jitter regeneration,
  per-role masked divides, Python-loop census), kept verbatim in this
  file so the baseline cannot silently inherit later optimizations;
* ``engine_serial``: :meth:`~repro.core.runner.CharacterizationRunner.characterize`
  with the serial executor (workers=1) and the batched multi-trial fast
  path;
* ``engine_workers4``: the same engine with ``workers=4`` on the process
  pool (fork-inherited worker state on Linux, the pickled worker spec
  elsewhere);
* ``engine_auto``: the CLI-default :class:`~repro.core.engine.AutoExecutor`
  -- calibration probe, then serial or process per its decision.

The host this runs on shows bursty 2-3x timing noise, so the sides are
interleaved round-robin and each side's best-of-N is used; the measured
numbers, speedups, per-executor worker counts, and the auto executor's
calibration decision are recorded in ``BENCH_sweep.json`` at the repo
root.  Gates: the best engine configuration must clear the >= 3x
acceptance bar everywhere; with >= 2 cores (or ``REPRO_BENCH_GATE=workers``,
the CI perf-smoke setting) the process pool must also beat the serial
engine; on a single core the auto executor must have *chosen* serial --
the pool can only add overhead there, and the calibration probe exists
precisely to avoid paying it.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro import rng
from repro.atomicio import atomic_write_text, write_digest
from repro.constants import TRIALS_PER_MEASUREMENT
from repro.core import acmin as acmin_mod
from repro.core.bitflips import BitflipCensus
from repro.core.results import DieMeasurement, ResultSet
from repro.core.runner import CharacterizationRunner
from repro.core.stacked import ROLE_OFFSETS, role_name
from repro.disturb.population import trial_jitter
from repro.dram import chip as chip_mod
from repro.dram.chip import _row_key
from repro.patterns import ALL_PATTERNS

from conftest import ANCHOR_T_VALUES, SWEEP_T_VALUES

#: Interleaved repetitions per side (best-of-N is reported).
_REPS = 2

#: Required speedup of the best engine configuration over the seed loop.
_REQUIRED_SPEEDUP = 3.0


# --------------------------------------------------------------------------
# Frozen replica of the seed (pre-engine) execution path.  This is the
# measured baseline: the exact per-row draws, per-measurement weight
# evaluation, per-trial jitter regeneration, masked divides, and
# Python-loop census of the seed runner, independent of the optimized
# modules so later work cannot accidentally speed the baseline up.
# --------------------------------------------------------------------------


def _seed_cells(module_key, die_index, bank, physical_row, n_cells, params):
    """Seed per-row population draw: eight sequential lognormal fields."""
    gen = rng.stream("cells", module_key, die_index, _row_key(bank, physical_row), n_cells)
    scale = params.theta_scale * params.die_scale
    theta = scale * np.exp(gen.normal(0.0, params.sigma_theta, n_cells))
    g_h_lo = np.exp(gen.normal(0.0, params.sigma_hammer, n_cells))
    g_h_hi = np.exp(gen.normal(0.0, params.sigma_hammer, n_cells))
    press_strength = np.exp(gen.normal(0.0, params.sigma_press, n_cells))
    g_p_lo = params.press_scale * press_strength * np.exp(
        gen.normal(0.0, params.sigma_press_side, n_cells)
    )
    g_p_hi = params.press_scale * press_strength * np.exp(
        gen.normal(0.0, params.sigma_press_side, n_cells)
    )
    solo_hammer_mod = np.exp(gen.normal(0.0, params.sigma_solo_hammer, n_cells))
    solo_press_exp = np.exp(gen.normal(0.0, params.sigma_solo_press_exp, n_cells))
    anti = gen.random(n_cells) < params.anti_cell_fraction
    return dict(
        theta=theta,
        g_h_lo=g_h_lo,
        g_h_hi=g_h_hi,
        g_p_lo=g_p_lo,
        g_p_hi=g_p_hi,
        solo_hammer_mod=solo_hammer_mod,
        solo_press_exp=solo_press_exp,
        anti=anti,
    )


class _SeedRole:
    """Seed per-role stacked arrays (plain attribute bag)."""

    def __init__(self, rows, fields, stored, charged):
        self.rows = rows
        self.stored = stored
        self.charged = charged
        for name, value in fields.items():
            setattr(self, name, value)


def _seed_build_stacked(chip, bank, selection, data_pattern):
    """Seed stacked-die build: per-role, per-row draws and np.stack."""
    base_rows = selection.base_rows(chip.geometry)
    n_cells = chip.geometry.cols_simulated
    roles = {}
    for role, offset in ROLE_OFFSETS.items():
        rows = np.array([b + offset for b in base_rows])
        cells = [
            _seed_cells(
                chip.module_key, chip.die_index, bank, int(r), n_cells, chip.population
            )
            for r in rows
        ]
        fields = {
            name: np.stack([c[name] for c in cells])
            for name in (
                "theta",
                "g_h_lo",
                "g_h_hi",
                "g_p_lo",
                "g_p_hi",
                "solo_hammer_mod",
                "solo_press_exp",
            )
        }
        anti = np.stack([c["anti"] for c in cells])
        stored = np.stack([data_pattern.victim_bits(int(r), n_cells) for r in rows])
        roles[role] = _SeedRole(rows, fields, stored, stored.astype(bool) ^ anti)
    return roles


def _seed_jitter(module_key, die_index, bank, role, shape, trial, sigma):
    """Seed jitter: regenerated for every (measurement, role) call."""
    flat = trial_jitter(
        module_key,
        die_index,
        _row_key(bank, ROLE_OFFSETS[role] & 0xFFFF),
        shape[0] * shape[1],
        trial,
        sigma=sigma,
    )
    return flat.reshape(shape)


def _seed_analyze(roles, stacked_key, pattern, t_on, model, temperature_c, timings, trial, sigma):
    """Seed closed-form analysis: per-role loops, masked divides, pow."""
    placement, weights = acmin_mod._role_weights(
        pattern, t_on, model, temperature_c, timings
    )
    solo = pattern.solo
    if solo:
        gamma = model.solo_press_gamma(t_on)
        delta = model.solo_hammer_factor
    n_iters = {}
    module_key, die_index, bank = stacked_key
    for offset, (w_lo, w_hi, v_lo, v_hi) in weights.items():
        role = role_name(offset)  # role weights are keyed by row offset
        arrays = roles[role]
        gain = w_lo * arrays.g_h_lo + w_hi * arrays.g_h_hi
        loss = v_lo * arrays.g_p_lo + v_hi * arrays.g_p_hi
        if solo:
            gain = gain * delta * arrays.solo_hammer_mod
            loss = loss * gamma**arrays.solo_press_exp
        theta = arrays.theta
        if trial != 0:
            theta = theta * _seed_jitter(
                module_key, die_index, bank, role, theta.shape, trial, sigma
            )
        denom = np.where(arrays.charged, loss, gain)
        out = np.full(theta.shape, np.inf)
        np.divide(theta, denom, out=out, where=denom > 0)
        n_iters[role] = out
    return placement, n_iters


def _seed_min_iters_per_location(n_iters):
    mins = [arr.min(axis=1) for arr in n_iters.values()]
    return np.minimum.reduce(mins)


def _seed_acmin(n_iters, acts_per_iteration, latency_ns, bound_ns):
    min_iters = float(_seed_min_iters_per_location(n_iters).min())
    if not math.isfinite(min_iters):
        return None
    iters = max(1, math.ceil(min_iters))
    if iters > int(bound_ns // latency_ns):
        return None
    return iters * acts_per_iteration


def _seed_census(roles, n_iters, latency_ns, multiplier, bound_ns):
    budget = int(bound_ns // latency_ns)
    loc_min = _seed_min_iters_per_location(n_iters)
    with np.errstate(invalid="ignore"):
        loc_census_iters = np.minimum(
            np.where(np.isfinite(loc_min), np.ceil(loc_min * multiplier), 0.0),
            budget,
        )
    ones = []
    zeros = []
    for role, arr in n_iters.items():
        role_arrays = roles[role]
        flips = arr <= loc_census_iters[:, None]
        if not flips.any():
            continue
        loc_idx, col_idx = np.nonzero(flips)
        rows = role_arrays.rows[loc_idx]
        stored = role_arrays.stored[loc_idx, col_idx]
        for row, col, bit in zip(rows, col_idx, stored):
            key = (int(row), int(col))
            if bit:
                ones.append(key)
            else:
                zeros.append(key)
    return BitflipCensus(frozenset(ones), frozenset(zeros))


class _SeedRunner:
    """The seed characterization loop: nested module/die/pattern/t/trial."""

    def __init__(self, config):
        self._config = config
        self._stacked = {}

    def _stacked_die(self, module, die):
        key = (module.key, die)
        stacked = self._stacked.get(key)
        if stacked is None:
            stacked = _seed_build_stacked(
                module.chip(die),
                self._config.bank,
                self._config.selection,
                self._config.data_pattern,
            )
            self._stacked[key] = stacked
        return stacked

    def measure(self, module, die, pattern, t_on, trial):
        cfg = self._config
        roles = self._stacked_die(module, die)
        placement, n_iters = _seed_analyze(
            roles,
            (module.key, die, cfg.bank),
            pattern,
            t_on,
            module.model,
            cfg.temperature_c,
            cfg.timings,
            trial,
            cfg.jitter_sigma,
        )
        latency = placement.iteration_latency(cfg.timings)
        acts = placement.acts_per_iteration
        acmin = _seed_acmin(n_iters, acts, latency, cfg.runtime_bound_ns)
        census = _seed_census(
            roles, n_iters, latency, cfg.census_multiplier, cfg.runtime_bound_ns
        )
        # The seed measure() recomputed the min reduction for the
        # time-to-first query; replicate that second pass.
        acmin_again = _seed_acmin(n_iters, acts, latency, cfg.runtime_bound_ns)
        time_to_first = (
            None if acmin_again is None else (acmin_again / acts) * latency
        )
        return DieMeasurement(
            module_key=module.key,
            manufacturer=module.manufacturer,
            die=die,
            pattern=pattern.name,
            t_on=t_on,
            trial=trial,
            acmin=acmin,
            time_to_first_ns=time_to_first,
            census=census,
        )

    def characterize(self, modules, t_values, patterns, trials):
        results = ResultSet()
        for module in modules:
            for die in range(module.n_dies):
                for pattern in patterns:
                    for t_on in t_values:
                        for trial in range(trials):
                            results.add(self.measure(module, die, pattern, t_on, trial))
        return results


# --------------------------------------------------------------------------
# The benchmark.
# --------------------------------------------------------------------------


def _clear_shared_caches():
    chip_mod._cached_cells.cache_clear()
    acmin_mod._cached_role_weights.cache_clear()


def _campaign_seed(config, modules):
    _clear_shared_caches()
    runner = _SeedRunner(config)
    sweep = runner.characterize(
        modules, SWEEP_T_VALUES, ALL_PATTERNS, trials=TRIALS_PER_MEASUREMENT
    )
    anchors = runner.characterize(
        modules, ANCHOR_T_VALUES, ALL_PATTERNS, trials=TRIALS_PER_MEASUREMENT
    )
    return sweep, anchors


def _campaign_engine(
    config, modules, workers=None, executor_factory=None, reports=None
):
    """One engine-side campaign: sweep + anchors on a fresh runner.

    ``executor_factory`` (when given) builds a fresh executor per
    engine run and overrides ``workers``; ``reports`` (a list) collects
    the :class:`~repro.core.faults.RunReport` of each run so the
    benchmark can record the auto executor's calibration decision.
    """
    _clear_shared_caches()
    runner = CharacterizationRunner(config)

    def _kwargs():
        if executor_factory is not None:
            return {"executor": executor_factory()}
        return {"workers": workers}

    sweep = runner.characterize(
        modules,
        SWEEP_T_VALUES,
        ALL_PATTERNS,
        trials=TRIALS_PER_MEASUREMENT,
        **_kwargs(),
    )
    if reports is not None:
        reports.append(runner.last_report)
    anchors = runner.characterize(
        modules,
        ANCHOR_T_VALUES,
        ALL_PATTERNS,
        trials=TRIALS_PER_MEASUREMENT,
        **_kwargs(),
    )
    if reports is not None:
        reports.append(runner.last_report)
    return sweep, anchors


@pytest.mark.perf
def test_disabled_observability_is_zero_overhead(bench_config, modules, monkeypatch):
    """With no Observability attached, the hot path must perform zero
    observability operations -- enforced by making every MetricsRegistry
    operation raise and running an uninstrumented campaign, so only a
    stray instrumented call trips it."""
    from repro.obs import metrics as metrics_mod

    def trip(*args, **kwargs):
        raise AssertionError("observability touched on the disabled path")

    for name in ("__init__", "inc", "gauge", "observe", "timer", "counter"):
        monkeypatch.setattr(metrics_mod.MetricsRegistry, name, trip)

    runner = CharacterizationRunner(bench_config)
    results = runner.characterize(
        modules[:1], SWEEP_T_VALUES[:2], ALL_PATTERNS, trials=1
    )
    assert len(results) > 0


@pytest.mark.perf
def test_sweep_engine_speedup(bench_config, modules):
    """Engine + batch fast path >= 3x over the seed loop, recorded."""
    from repro.core.engine import AutoExecutor, fork_sharing_available

    cpu_count = os.cpu_count() or 1
    auto_reports: List[object] = []
    sides: Dict[str, object] = {
        "seed": lambda: _campaign_seed(bench_config, modules),
        "engine_serial": lambda: _campaign_engine(bench_config, modules, 1),
        "engine_workers4": lambda: _campaign_engine(bench_config, modules, 4),
        "engine_auto": lambda: _campaign_engine(
            bench_config,
            modules,
            executor_factory=lambda: AutoExecutor(),
            reports=auto_reports,
        ),
    }
    engine_sides = [name for name in sides if name != "seed"]
    times: Dict[str, List[float]] = {name: [] for name in sides}
    outputs: Dict[str, Tuple[ResultSet, ResultSet]] = {}
    # Interleave the sides round-robin: the host's timing noise is bursty,
    # so adjacent measurements are the fairest comparison.  Best-of-N per
    # side is reported.
    for _ in range(_REPS):
        for name, run in sides.items():
            start = time.perf_counter()
            outputs[name] = run()
            times[name].append(time.perf_counter() - start)
    best = {name: min(vals) for name, vals in times.items()}

    # All sides measured the same campaign.
    n_sweep = len(outputs["seed"][0])
    n_anchor = len(outputs["seed"][1])
    for name in engine_sides:
        assert len(outputs[name][0]) == n_sweep
        assert len(outputs[name][1]) == n_anchor
    # Executor determinism: every engine side is bit-identical.
    for name in engine_sides[1:]:
        assert list(outputs["engine_serial"][0]) == list(outputs[name][0]), name
        assert list(outputs["engine_serial"][1]) == list(outputs[name][1]), name

    auto_decision = None
    for report in auto_reports:
        if report is not None and report.auto_decision is not None:
            auto_decision = dict(report.auto_decision)
    speedups = {name: best["seed"] / best[name] for name in engine_sides}
    record = {
        "format": "repro-bench-v1",
        "campaign": {
            "n_modules": len(modules),
            "n_dies": sum(m.n_dies for m in modules),
            "sweep_t_values": SWEEP_T_VALUES,
            "anchor_t_values": ANCHOR_T_VALUES,
            "trials_per_measurement": TRIALS_PER_MEASUREMENT,
            "n_sweep_measurements": n_sweep,
            "n_anchor_measurements": n_anchor,
        },
        "host": {
            "cpu_count": cpu_count,
            "fork_sharing_available": fork_sharing_available(),
        },
        "executors": {
            "engine_serial": {"workers": 1},
            "engine_workers4": {
                "workers": 4,
                "worker_state": "fork" if fork_sharing_available() else "spec",
            },
            "engine_auto": {
                "workers": "auto",
                "calibration": auto_decision,
            },
        },
        "reps_per_side": _REPS,
        "seconds": {name: round(val, 3) for name, val in best.items()},
        "all_seconds": {
            name: [round(v, 3) for v in vals] for name, vals in times.items()
        },
        "speedup_vs_seed": {name: round(val, 2) for name, val in speedups.items()},
        "required_speedup": _REQUIRED_SPEEDUP,
    }
    out_path = Path(__file__).resolve().parents[1] / "BENCH_sweep.json"
    atomic_write_text(out_path, json.dumps(record, indent=2) + "\n")
    write_digest(out_path)  # repro-characterize validate checks it

    best_speedup = max(speedups.values())
    assert best_speedup >= _REQUIRED_SPEEDUP, (
        f"best engine speedup {best_speedup:.2f}x < {_REQUIRED_SPEEDUP}x "
        f"(seed {best['seed']:.2f}s, engine {best})"
    )
    # The auto executor's calibration must have run and reached a verdict.
    assert auto_decision is not None and auto_decision.get("chosen")
    if cpu_count == 1:
        # One core: a pool can only add overhead, and the probe exists to
        # notice that.  Auto must have *chosen* serial (a wall-clock gate
        # would just re-measure host noise).
        assert auto_decision["chosen"] == "serial", auto_decision
    gate_workers = os.environ.get("REPRO_BENCH_GATE", "") == "workers"
    if cpu_count >= 2 or gate_workers:
        # With real cores the process pool must actually win: no slower
        # than the serial engine (strict in CI gate mode, 10% timing-noise
        # allowance elsewhere).
        margin = 1.0 if gate_workers else 1.10
        parallel_best = best["engine_workers4"]
        assert parallel_best <= best["engine_serial"] * margin, (
            f"parallel engine best {parallel_best:.2f}s does not beat "
            f"serial engine {best['engine_serial']:.2f}s on "
            f"{cpu_count} cores (times: {best})"
        )
    if cpu_count >= 4:
        # With real cores the process pool itself must clear the bar.
        assert speedups["engine_workers4"] >= _REQUIRED_SPEEDUP
