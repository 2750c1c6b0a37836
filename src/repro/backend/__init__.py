"""The characterization rig and its mandatory methodology preflight.

See :mod:`repro.backend.base` for the simulated rig
(:class:`SimBackend`) and :func:`build_session`,
:mod:`repro.backend.session` for the :class:`DeviceSession` that
preflights each module once, and :mod:`repro.backend.preflight` for the
paper's four §3 checks.
"""

from repro.backend.base import SimBackend, build_session
from repro.backend.preflight import run_preflight
from repro.backend.session import DeviceSession

__all__ = [
    "DeviceSession",
    "SimBackend",
    "build_session",
    "run_preflight",
]
