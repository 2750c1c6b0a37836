"""Top-level factory: build calibrated simulated modules.

Ties the substrates together: looks up the Table 1/2 profile, runs the
calibration solver, and assembles a :class:`repro.dram.Module` whose
simulated dies reproduce the paper's per-module measurements.
"""

from __future__ import annotations

import logging
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

from repro.core import engine
from repro.core.experiment import CharacterizationConfig
from repro.disturb import calibration
from repro.disturb.calibration import (
    ModuleCalibration,
    adopt_calibration,
    calibrate_module,
    is_calibrated,
    solve_module,
)
from repro.dram.module import Module
from repro.dram.profiles import MODULE_PROFILES, ModuleProfile, get_profile

__all__ = ["build_module", "build_modules", "build_all_modules"]

logger = logging.getLogger("repro.system")


def build_module(
    key: str, config: Optional[CharacterizationConfig] = None
) -> Module:
    """Build the calibrated simulated module with Table 2 label ``key``.

    Calibration is performed (and cached) for the given characterization
    configuration; the same configuration must be used to measure the
    module, since the anchors are matched on the configured cell
    population.
    """
    if config is None:
        config = CharacterizationConfig()
    profile = get_profile(key)
    return _assemble(profile, config, calibrate_module(key, config))


def _assemble(
    profile: ModuleProfile,
    config: CharacterizationConfig,
    calibration: ModuleCalibration,
) -> Module:
    return Module(
        profile=profile,
        geometry=config.geometry,
        model=calibration.model,
        population=calibration.population,
        die_scales=calibration.die_scales,
        die_press_scales=calibration.die_press_scales,
    )


def build_modules(
    keys: Sequence[str], config: Optional[CharacterizationConfig] = None
) -> List[Module]:
    """Build several calibrated modules, in ``keys`` order.

    Every key is checked first (an unknown one raises
    :class:`~repro.errors.ProfileError` before any calibration).  The
    modules not yet in the calibration cache are then calibrated serially
    or on a process pool, by the rule the engine's ``auto`` executor
    uses for campaign shards: the first uncached module is calibrated
    in-process as a probe, and the rest go to ``min(usable CPUs,
    remaining modules)`` workers only when this process may run on at
    least 2 CPUs and the estimated serial remainder reaches
    :attr:`~repro.core.engine.AutoExecutor.min_parallel_seconds`: the
    probe's seconds per warm die (its dies after the first, which runs
    cold) times the remaining dies, plus its seconds outside its dies
    (the module-level solves) times the remaining modules.
    A 1-CPU affinity mask therefore calibrates serially, and so does a
    build with one uncached module.  Pooled results enter the cache, are
    bit for bit the serial ones, and the pool is shut down before this
    returns; if it breaks, the remaining modules are calibrated serially
    with a ``UserWarning``.
    """
    if config is None:
        config = CharacterizationConfig()
    profiles = [get_profile(key) for key in keys]
    calibrations = _calibrate(list(dict.fromkeys(keys)), config)
    return [
        _assemble(profile, config, calibrations[profile.key])
        for profile in profiles
    ]


def _calibrate(
    keys: List[str], config: CharacterizationConfig
) -> Dict[str, ModuleCalibration]:
    """Calibrate distinct ``keys``, on a pool when the estimate pays."""
    solved: Dict[str, ModuleCalibration] = {}
    pending = [key for key in keys if not is_calibrated(key, config)]
    cpus = engine._usable_cpus()
    if cpus >= 2 and len(pending) >= 2:
        probe = pending.pop(0)
        die_seconds: List[float] = []
        start = time.monotonic()
        solved[probe] = adopt_calibration(
            probe, config, calibration.solve_module(probe, config, die_seconds)
        )
        probe_seconds = time.monotonic() - start
        # The process's first die runs cold (~45 % slower): the estimate
        # uses the probe's later dies only, plus the probe's seconds
        # outside its dies (the module-level solves) once per module.
        warm = die_seconds[1:] or die_seconds
        per_die = sum(warm) / len(warm)
        per_module = max(0.0, probe_seconds - sum(die_seconds))
        estimate = (
            per_die * sum(MODULE_PROFILES[k].n_dies for k in pending)
            + per_module * len(pending)
        )
        threshold = engine.AutoExecutor.min_parallel_seconds
        workers = min(cpus, len(pending))
        pooled = estimate >= threshold
        logger.info(
            "calibration: %s for %d module(s) (%d usable CPU(s), probe %s "
            "%.3fs, %.4fs per warm die, %.4fs per module solve, ~%.3fs "
            "serial left, pool threshold %gs)",
            f"pool of {workers} workers" if pooled else "serial",
            len(pending), cpus, probe, probe_seconds, per_die, per_module,
            estimate, threshold,
        )
        if pooled:
            solved.update(_calibrate_on_pool(pending, config, workers))
    elif pending:
        logger.info(
            "calibration: serial for %d module(s) (%d usable CPU(s))",
            len(pending), cpus,
        )
    for key in keys:
        if key not in solved:
            solved[key] = calibrate_module(key, config)
    return solved


def _calibrate_on_pool(
    keys: List[str], config: CharacterizationConfig, workers: int
) -> Dict[str, ModuleCalibration]:
    """One pool task per module, the largest (8-die) modules first.

    Returns what the pool solved: all of ``keys``, or after a pool break
    (warned about) the ones that finished before it.
    """
    order = sorted(keys, key=lambda key: -MODULE_PROFILES[key].n_dies)
    solved: Dict[str, ModuleCalibration] = {}
    broken: Optional[BrokenProcessPool] = None
    # The platform's start method, as for the engine's shard pool: under
    # fork a worker skips re-importing numpy and the solver.  A task is
    # only (key, config) in and a ModuleCalibration out, so forkserver
    # and spawn work alike.  Workers keep their freed memory between
    # modules, as shard workers do between shards.
    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=engine.fix_malloc_thresholds
    )
    try:
        futures = [pool.submit(solve_module, key, config) for key in order]
        for key, future in zip(order, futures):
            solved[key] = adopt_calibration(key, config, future.result())
    except BrokenProcessPool as exc:
        broken = exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    if broken is not None:
        message = (
            f"calibration pool broke ({broken}); calibrating the remaining "
            f"{len(keys) - len(solved)} module(s) serially"
        )
        logger.warning(message)
        warnings.warn(message, UserWarning, stacklevel=4)
    return solved


def build_all_modules(
    config: Optional[CharacterizationConfig] = None,
    manufacturer: Optional[str] = None,
) -> List[Module]:
    """Build every Table 2 module (optionally one manufacturer's)."""
    keys = sorted(MODULE_PROFILES)
    if manufacturer is not None:
        keys = [k for k in keys if MODULE_PROFILES[k].manufacturer == manufacturer]
    return build_modules(keys, config)
