"""DeviceSession: one characterization rig and its preflight record.

Before a campaign measures anything, the session runs the paper's
mandatory methodology preflight (:mod:`repro.backend.preflight`) for
every module on its one rig, caches each outcome per module key, and
records the outcomes on the campaign's
:class:`~repro.core.faults.RunReport` (``report.preflight``).  The
measurements themselves never pass through the session.
"""

from __future__ import annotations

from typing import Dict

from repro.backend.base import SimBackend

__all__ = ["DeviceSession"]


class DeviceSession:
    """One rig (a :class:`SimBackend` by default) plus its preflights."""

    def __init__(self, device=None) -> None:
        self.device = device if device is not None else SimBackend()
        self._obs = None
        self._preflighted: Dict[str, Dict] = {}

    def attach(self, obs) -> None:
        """Late-bind the obs bundle preflight events go to."""
        self._obs = obs

    def snapshot_into(self, report) -> None:
        """Record the preflight outcomes on a run report."""
        if self._preflighted:
            report.preflight = {
                "modules": sorted(self._preflighted),
                "checks": {
                    key: dict(value)
                    for key, value in sorted(self._preflighted.items())
                },
            }

    def ensure_device_protections(self) -> Dict:
        """Run the device-level protections check (no module required).

        For campaigns over synthetic chips (the mitigation campaign),
        where the module-scoped checks do not apply but a TRR-armed
        device would still invalidate every disturbance count.
        """
        cached = self._preflighted.get("__devices__")
        if cached is not None:
            return cached
        from repro.backend.preflight import check_device_protections

        outcome = {"protections": check_device_protections(self.device)}
        self._preflighted["__devices__"] = outcome
        if self._obs is not None:
            self._obs.emit("preflight", module="__devices__", passed=True)
        return outcome

    def ensure_preflight(self, module, config) -> Dict:
        """Run the methodology preflight once per module (see preflight.py).

        Campaigns call this for each module before dispatching shards;
        outcomes are cached per module key, so repeated sweeps pay it
        once.  A failed check raises :class:`~repro.errors.PreflightError`
        and caches nothing.
        """
        cached = self._preflighted.get(module.key)
        if cached is not None:
            return cached
        from repro.backend.preflight import run_preflight

        outcome = run_preflight(self.device, module, config)
        self._preflighted[module.key] = outcome
        if self._obs is not None:
            self._obs.metrics.inc("preflight.modules")
            self._obs.emit(
                "preflight",
                module=module.key,
                passed=True,
                seconds=outcome["seconds"],
            )
        return outcome
