"""Mandatory session preflight: the paper's methodology checks (§3).

Before a session measures anything, four properties of the rig must be
verified -- ported from the characterization methodology:

1. **Thermal settle** -- the PID heater loop
   (:class:`~repro.thermal.TemperatureController`) must hold the
   configured temperature (paper: 50 C) within +/-0.2 C; a loop that
   cannot settle (e.g. a setpoint beyond the heater's reach) would
   confound every temperature-sensitive count.
2. **Refresh-window bound** -- the per-measurement runtime bound must
   fit inside tREFW, or "no bitflip within the bound" would be
   confounded by refresh.
3. **TRR / ECC disabled** -- the rig must report target-row refresh
   off, and no die of the module may have on-die ECC armed
   (disturbance counts would be silently corrected away).
4. **Mapping reverse-engineering** -- hammer a probe row on a scratch
   chip that carries the module's row remapping, through the rig's own
   command path (:mod:`repro.core.reverse_engineer`), and require the
   observed physical neighbors to match the mapping the analysis layer
   will assume.

The probe runs on a synthetic low-threshold scratch chip so preflight
never disturbs campaign state.  Any failed check raises
:class:`~repro.errors.PreflightError` (permanent -- fail fast).
"""

from __future__ import annotations

import time
from typing import Dict

from repro.errors import ExperimentError, PreflightError
from repro.thermal import TemperatureController

__all__ = [
    "run_preflight",
    "check_device_protections",
    "PROBE_ROWS",
    "PROBE_COLS",
    "PROBE_ITERATIONS",
]

#: Scratch-chip probe geometry: small enough that reverse-engineering
#: one row's neighbors costs tens of milliseconds, large enough that
#: the window of candidate rows fits every vendor scramble's locality.
PROBE_ROWS = 32
PROBE_COLS = 16
PROBE_AGGRESSOR = 12
PROBE_ITERATIONS = 400


def _check_thermal(config) -> Dict[str, object]:
    controller = TemperatureController(setpoint_c=config.temperature_c)
    try:
        settle_steps = controller.settle()
    except ExperimentError as exc:
        raise PreflightError(f"thermal settle failed: {exc}") from exc
    return {
        "passed": True,
        "settle_steps": int(settle_steps),
        "temperature_c": float(controller.read()),
    }


def _check_refresh_window(config) -> Dict[str, object]:
    bound = config.runtime_bound_ns
    trefw = config.timings.tREFW
    if bound > trefw:
        raise PreflightError(
            f"refresh-window bound violated: the per-measurement runtime "
            f"bound ({bound:g} ns) exceeds tREFW ({trefw:g} ns); "
            f"'no bitflip within the bound' would be confounded by refresh"
        )
    return {
        "passed": True,
        "runtime_bound_ns": bound,
        "trefw_ns": trefw,
        "margin_ns": trefw - bound,
    }


def check_device_protections(device) -> Dict[str, object]:
    """Device-level protection check: the rig must report TRR off.

    The module-independent half of the protections preflight -- also run
    standalone by campaigns that measure synthetic chips instead of
    modules (the mitigation campaign).
    """
    if device.describe().get("trr_enabled"):
        raise PreflightError(
            f"device {device.device_id} reports target-row refresh "
            f"enabled; disable TRR before characterizing"
        )
    return {"passed": True, "device": device.device_id}


def _check_protections(device, module) -> Dict[str, object]:
    outcome = check_device_protections(device)
    ecc_dies = [
        die for die in range(module.n_dies)
        if module.chip(die).on_die_ecc is not None
    ]
    if ecc_dies:
        raise PreflightError(
            f"module {module.key} has on-die ECC armed on dies "
            f"{ecc_dies}; characterization requires raw (uncorrected) "
            f"readback"
        )
    return outcome


def _check_mapping(device, module) -> Dict[str, object]:
    from repro.core.reverse_engineer import find_physical_neighbors
    from repro.testing import make_synthetic_chip

    mapping = module.mapping
    expected = sorted(
        row
        for row in mapping.physical_neighbors(PROBE_AGGRESSOR, PROBE_ROWS)
        if row is not None
    )
    chip = make_synthetic_chip(
        rows=PROBE_ROWS,
        cols=PROBE_COLS,
        key=f"PROBE-{module.key}",
        mapping=mapping,
    )
    observation = find_physical_neighbors(
        device.open_session(chip),
        PROBE_AGGRESSOR,
        window=4,
        iterations=PROBE_ITERATIONS,
        t_on=7_800.0,
    )
    observed = sorted(observation.flipped_logical_rows)
    if observed != expected:
        raise PreflightError(
            f"mapping reverse-engineering failed for module "
            f"{module.key}: hammering logical row {PROBE_AGGRESSOR} "
            f"flipped rows {observed}, but the declared mapping "
            f"({type(mapping).__name__}) predicts {expected}; "
            f"the analysis would mis-pair aggressors and victims"
        )
    return {
        "passed": True,
        "aggressor": PROBE_AGGRESSOR,
        "neighbors": observed,
        "mapping": type(mapping).__name__,
    }


def run_preflight(device, module, config) -> Dict[str, object]:
    """All four methodology checks for one module on one rig.

    Raises :class:`~repro.errors.PreflightError` on the first failed
    check.
    """
    t0 = time.monotonic()
    outcome = {
        "thermal": _check_thermal(config),
        "refresh_window": _check_refresh_window(config),
        "protections": _check_protections(device, module),
        "mapping": _check_mapping(device, module),
    }
    outcome["seconds"] = round(time.monotonic() - t0, 4)
    return outcome
