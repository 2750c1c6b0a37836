"""Set-up calibration on the process pool (``system.build_modules``).

Each test forces the decision it needs: the pool by claiming 2 usable
CPUs and a zero amortization threshold, serial by claiming one CPU.
Tests that must see the pool compute clear the calibration cache first.
"""

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import system
from repro.core import engine
from repro.disturb import calibration
from repro.disturb.calibration import (
    calibrate_module,
    calibrated_modules,
    is_calibrated,
    solve_module,
)
from repro.errors import CalibrationError, ProfileError
from tests.test_calibration import _PINNED_FINGERPRINT, _calibration_fingerprint


class _SpyPool(ProcessPoolExecutor):
    """The real pool, recording what was submitted to it."""

    started = 0
    submitted = []

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)

    def submit(self, fn, key, config):
        type(self).submitted.append(key)
        return super().submit(fn, key, config)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("no calibration pool may start here")


@pytest.fixture
def spy(monkeypatch):
    monkeypatch.setattr(_SpyPool, "started", 0)
    monkeypatch.setattr(_SpyPool, "submitted", [])
    monkeypatch.setattr(system, "ProcessPoolExecutor", _SpyPool)
    return _SpyPool


@pytest.fixture
def force_pool(monkeypatch, spy):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine.AutoExecutor, "min_parallel_seconds", 0.0)
    return spy


@pytest.fixture
def cold_cache():
    calibration._calibrate_cached.cache_clear()


def _raise_for_h1(key, config):
    if key == "H1":
        raise CalibrationError("H1: injected failure")
    return solve_module(key, config)


def _die_for_h1(key, config):
    if key == "H1":
        os._exit(1)
    return solve_module(key, config)


def _no_in_process_solve(key, config):
    raise AssertionError(f"{key} solved in-process")


def test_pool_reproduces_pinned_fingerprint(
    monkeypatch, force_pool, cold_cache, fast_config
):
    system.build_modules(calibrated_modules(), fast_config)
    assert force_pool.started == 1
    # The probe (H0, first in key order) runs in-process; every other
    # module crosses the pool, 8-die modules first.
    assert force_pool.submitted[:7] == ["M1", "M2", "S0", "S1", "S2", "S3", "S4"]
    assert sorted(force_pool.submitted) == calibrated_modules()[1:]
    # The fingerprint now reads the cache alone.
    monkeypatch.setattr(calibration, "solve_module", _no_in_process_solve)
    assert _calibration_fingerprint(fast_config) == _PINNED_FINGERPRINT


def test_pooled_modules_equal_serial_ones(
    monkeypatch, force_pool, cold_cache, fast_config
):
    keys = ["S1", "H2", "M2", "M3"]
    pooled = system.build_modules(keys, fast_config)
    assert force_pool.started == 1 and len(force_pool.submitted) == 3
    calibration._calibrate_cached.cache_clear()
    serial = [system.build_module(key, fast_config) for key in keys]
    assert [m.key for m in pooled] == keys
    for a, b in zip(pooled, serial):
        assert pickle.dumps(a) == pickle.dumps(b), a.key


def test_cache_holds_pooled_modules_and_clear_recomputes(
    force_pool, cold_cache, fast_config
):
    keys = ["H3", "M4", "S2"]
    system.build_modules(keys, fast_config)
    assert all(is_calibrated(key, fast_config) for key in keys)
    first = [calibrate_module(key, fast_config) for key in keys]
    # Cached now: a second build neither probes nor pools.
    system.build_modules(keys, fast_config)
    assert force_pool.started == 1
    calibration._calibrate_cached.cache_clear()
    assert not any(is_calibrated(key, fast_config) for key in keys)
    system.build_modules(keys, fast_config)
    assert force_pool.started == 2
    assert force_pool.submitted == ["S2", "M4", "S2", "M4"]
    again = [calibrate_module(key, fast_config) for key in keys]
    assert all(a is not b for a, b in zip(first, again))
    assert [pickle.dumps(a) for a in first] == [pickle.dumps(b) for b in again]


def test_duplicate_keys(force_pool, cold_cache, fast_config):
    keys = ["H0", "S0", "H0", "M0", "S0"]
    modules = system.build_modules(keys, fast_config)
    assert [m.key for m in modules] == keys
    assert force_pool.submitted == ["S0", "M0"]
    assert pickle.dumps(modules[0]) == pickle.dumps(modules[2])
    assert pickle.dumps(modules[1]) == pickle.dumps(modules[4])


def test_unknown_key_raises_before_any_pool(monkeypatch, force_pool, cold_cache, fast_config):
    monkeypatch.setattr(system, "ProcessPoolExecutor", _NoPool)
    with pytest.raises(ProfileError, match="unknown module 'Z9'"):
        system.build_modules(["H0", "H1", "Z9"], fast_config)
    assert not is_calibrated("H0", fast_config)


def test_worker_calibration_error_surfaces_unchanged(
    monkeypatch, force_pool, cold_cache, fast_config
):
    monkeypatch.setattr(system, "solve_module", _raise_for_h1)
    with pytest.raises(CalibrationError) as err:
        system.build_modules(["H0", "H1", "H2"], fast_config)
    assert type(err.value) is CalibrationError
    assert str(err.value) == "H1: injected failure"
    assert force_pool.started == 1


def test_one_module_and_one_cpu_start_no_pool(monkeypatch, cold_cache, fast_config):
    monkeypatch.setattr(system, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(engine.AutoExecutor, "min_parallel_seconds", 0.0)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    system.build_modules(["H1"], fast_config)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
    system.build_modules(["H2", "H3", "M0"], fast_config)
    assert all(is_calibrated(k, fast_config) for k in ("H1", "H2", "H3", "M0"))


def test_below_threshold_starts_no_pool(monkeypatch, cold_cache, fast_config):
    monkeypatch.setattr(system, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine.AutoExecutor, "min_parallel_seconds", 1e9)
    system.build_modules(["H2", "H3"], fast_config)


def test_cold_first_die_starts_no_pool(monkeypatch, cold_cache, fast_config):
    """A process's first die runs cold (here 0.4 s slower).  Estimated
    from the probe's later dies, the ~0.1 s of real work left stays
    serial; an estimate from all the probe's dies would exceed 1 s."""
    monkeypatch.setattr(system, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    aggregates = calibration._die_aggregates
    cold = [0.4]

    def first_die_slow(*args):
        if cold:
            time.sleep(cold.pop())
        return aggregates(*args)

    monkeypatch.setattr(calibration, "_die_aggregates", first_die_slow)
    assert engine.AutoExecutor.min_parallel_seconds == 1.0
    system.build_modules(["H0", "H1", "H2", "H3"], fast_config)
    assert not cold


def test_module_solve_seconds_count_toward_the_pool(
    monkeypatch, spy, cold_cache, fast_config
):
    """The estimate adds the probe's seconds outside its dies (the
    module-level solves) once per module left: a probe whose dies are
    fast but whose module solve took 0.4 s leaves ~1.2 s for three more
    modules, so the pool starts; the dies alone would stay below 1 s."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    scales = calibration.solve_die_scales
    slow = [0.4]

    def slow_module_solve(*args):
        if slow:
            time.sleep(slow.pop())
        return scales(*args)

    monkeypatch.setattr(calibration, "solve_die_scales", slow_module_solve)
    assert engine.AutoExecutor.min_parallel_seconds == 1.0
    system.build_modules(["H0", "H1", "H2", "H3"], fast_config)
    assert not slow
    assert spy.started == 1
    assert sorted(spy.submitted) == ["H1", "H2", "H3"]


def test_broken_pool_finishes_serially_with_warning(
    monkeypatch, force_pool, cold_cache, fast_config
):
    keys = ["H0", "H1", "H2", "M0"]
    expected = [pickle.dumps(solve_module(key, fast_config)) for key in keys]
    monkeypatch.setattr(system, "solve_module", _die_for_h1)
    with pytest.warns(UserWarning, match="calibration pool broke"):
        system.build_modules(keys, fast_config)
    assert [pickle.dumps(calibrate_module(k, fast_config)) for k in keys] == expected
