"""The characterization rig: one simulated DRAM Bender setup (paper §3).

The paper runs each module on one FPGA tester.  :class:`SimBackend`
stands in for it: :meth:`~SimBackend.describe` reports the static
device facts the preflight verifies, and
:meth:`~SimBackend.open_session` opens a command-level probe session
on a chip.  Measurements never go through the rig object -- they are
pure functions of their identity -- so the rig matters only to the
preflight (:mod:`repro.backend.preflight`), which test fakes exercise
by subclassing these two methods.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ExperimentError

__all__ = ["SimBackend", "build_session"]


class SimBackend:
    """The simulated-silicon rig: perfect commands, honest readbacks."""

    kind = "sim"

    def __init__(self, device_id: str = "sim0") -> None:
        self.device_id = device_id

    def describe(self) -> Dict[str, object]:
        """Static device facts the preflight checks verify."""
        return {
            "kind": self.kind,
            "device_id": self.device_id,
            # The simulated modules are characterization-ready by
            # construction: no target-row-refresh sampler is attached
            # outside the mitigation layer, and on-die ECC is a
            # per-chip property the preflight verifies separately.
            "trr_enabled": False,
            "ecc_enabled": False,
        }

    def open_session(self, chip):
        """A command-level probe session on one chip (preflight)."""
        from repro.bender.softmc import SoftMCSession

        return SoftMCSession(chip)


def build_session(backend):
    """Coerce a backend selection into an optional device session.

    Accepts ``None`` (no session: no preflight), ``"sim"`` (a session
    on a fresh :class:`SimBackend`), or an already-built
    :class:`~repro.backend.session.DeviceSession` (returned as-is, so
    one session's preflight cache can span several sweeps).  Anything
    else raises :class:`~repro.errors.ExperimentError`.
    """
    from repro.backend.session import DeviceSession

    if backend is None or isinstance(backend, DeviceSession):
        return backend
    if backend == "sim":
        return DeviceSession()
    raise ExperimentError(
        f"unknown backend {backend!r} (expected None, 'sim' or a "
        f"DeviceSession)"
    )
