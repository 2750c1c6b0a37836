"""The DeviceBackend protocol: what a characterization rig must do.

The execution engine never talks to silicon (simulated or otherwise)
directly; it hands :class:`DeviceOp` operations to a
:class:`DeviceBackend`.  A backend executes a compiled bender program
(or, on the closed-form fast path, an equivalent measurement operation)
and returns per-row observations plus cycle accounting, while keeping
health telemetry about itself.  Two backends ship:

* :class:`~repro.backend.sim.SimBackend` -- the existing
  :mod:`repro.dram` model behind the protocol, bit-identical to the
  pre-protocol path.
* :class:`~repro.backend.noisy.NoisySiliconBackend` -- the sim backend
  wrapped with seeded, configurable fault injection (command drops,
  readback timeouts/garbling, latency jitter, per-die intermittent
  failures, hard device loss) for robustness testing.

:class:`BackendSpec` is the picklable recipe both the CLI and process
workers build backends from; :func:`worker_session` caches one
:class:`~repro.backend.session.DeviceSession` per spec per worker
process so fault-injection attempt counters survive across tasks.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from repro.errors import ExperimentError

T = TypeVar("T")

__all__ = [
    "DeviceOp",
    "ProgramExecution",
    "DeviceBackend",
    "NoiseProfile",
    "BackendSpec",
    "SessionWorkerSpec",
    "make_backends",
    "worker_session",
    "stable_hash",
]


def stable_hash(value: object) -> int:
    """A deterministic, process-independent hash of a reprable value.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED),
    which would make fault injection and device routing differ between
    a parent and its pool workers; CRC32 over the repr is stable
    everywhere and plenty for seeding/routing.
    """
    return zlib.crc32(repr(value).encode("utf-8"))


@dataclass(frozen=True)
class DeviceOp:
    """One operation issued to a device backend.

    ``key`` is the operation's stable identity (e.g. ``("measure",
    module_key, die, pattern, t_on)``) -- the unit fault injection and
    routing key on.  ``fn`` produces the result against the simulated
    array; a remote backend would instead compile ``key`` to wire
    commands.  ``expect`` is the result length the session verifies on
    readback (``None`` skips the check for scalar results).
    """

    key: Tuple
    fn: Callable[[], object]
    expect: Optional[int] = None


@dataclass
class ProgramExecution:
    """What executing a compiled bender program produced.

    Per-row observations (``reads``, in program order) plus the
    interpreter's cycle accounting, tagged with the device that ran it.
    """

    reads: List[Tuple[int, int, np.ndarray]]
    elapsed_ns: float
    activations: int
    refreshes: int
    device_id: str = ""

    def last_read(self, bank: int, row: int) -> Optional[np.ndarray]:
        """The most recent readback of one row, or ``None``."""
        for read_bank, read_row, bits in reversed(self.reads):
            if read_bank == bank and read_row == row:
                return bits
        return None

    def flipped_rows(
        self, expected: Dict[Tuple[int, int], np.ndarray]
    ) -> Dict[Tuple[int, int], int]:
        """Per-row flip counts of the final readbacks vs expectations."""
        flips: Dict[Tuple[int, int], int] = {}
        for (bank, row), bits in expected.items():
            got = self.last_read(bank, row)
            if got is not None:
                n = int(np.count_nonzero(got != bits))
                if n:
                    flips[(bank, row)] = n
        return flips


class DeviceBackend:
    """Protocol base: one characterization device (tester + modules).

    Subclasses implement :meth:`execute` (the guarded operation seam --
    where a noisy backend injects faults) and :meth:`describe`.  The
    base class keeps the health telemetry every backend reports.
    """

    kind: str = "abstract"

    def __init__(self, device_id: str) -> None:
        self.device_id = device_id
        self._counters: Dict[str, int] = {}

    # ------------------------------------------------------------- protocol

    def describe(self) -> Dict[str, object]:
        """Static device facts the preflight checks verify."""
        raise NotImplementedError

    def execute(self, op: DeviceOp) -> object:
        """Execute one operation; may raise a ``DeviceError``."""
        raise NotImplementedError

    def run_program(self, chip, program) -> ProgramExecution:
        """Execute a compiled bender program against one chip.

        Returns the per-row readbacks and cycle accounting; routed
        through :meth:`execute` so fault injection applies to
        command-level programs exactly as it does to measurements.
        """
        raise NotImplementedError

    def open_session(self, chip):
        """A command-level probe session on this device (preflight)."""
        raise NotImplementedError

    # ------------------------------------------------------------ telemetry

    def count(self, name: str, delta: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + delta

    def health_snapshot(self) -> Dict[str, object]:
        """Telemetry counters this device accumulated."""
        return {
            "device_id": self.device_id,
            "kind": self.kind,
            "counters": dict(self._counters),
        }


@dataclass(frozen=True)
class NoiseProfile:
    """Seeded fault-injection knobs of a NoisySiliconBackend.

    Probabilities are rolled per (seed, device, op key, attempt) so two
    sessions built from the same spec misbehave identically.  Transient
    faults on one op key stop firing after ``max_faults_per_op``
    attempts *per device*, which guarantees session-level retries
    converge; ``lose_device`` is the exception -- a lost device stays
    lost.

    Attributes:
        p_command_drop: probability an op's command train is dropped
            (:class:`~repro.errors.CommandDropError`).
        p_readback_timeout: probability the readback never arrives
            (:class:`~repro.errors.ReadbackTimeoutError`).
        p_readback_garble: probability a list result comes back
            truncated or duplicated (caught by the session's length
            check as :class:`~repro.errors.ReadbackCorruptError`);
            scalar results raise the corruption directly.
        p_flaky_die: extra failure probability for ops touching a die
            listed in ``flaky_dies``
            (:class:`~repro.errors.IntermittentDieError`).
        flaky_dies: ``(module_key, die)`` pairs with intermittent
            contact.
        latency_jitter_s: uniform extra latency per op (telemetry
            only; keep tiny in tests).
        lose_device: device id that hard-fails, or ``None``.
        lose_after_ops: how many ops that device serves before dying.
        max_faults_per_op: per-(device, op key) injected-fault cap.
    """

    p_command_drop: float = 0.0
    p_readback_timeout: float = 0.0
    p_readback_garble: float = 0.0
    p_flaky_die: float = 0.0
    flaky_dies: Tuple[Tuple[str, int], ...] = ()
    latency_jitter_s: float = 0.0
    lose_device: Optional[str] = None
    lose_after_ops: int = 0
    max_faults_per_op: int = 2

    def __post_init__(self) -> None:
        for name in (
            "p_command_drop", "p_readback_timeout",
            "p_readback_garble", "p_flaky_die",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ExperimentError(f"{name} must be in [0, 1], got {p}")
        if self.latency_jitter_s < 0:
            raise ExperimentError("latency_jitter_s must be >= 0")
        if self.max_faults_per_op < 0:
            raise ExperimentError("max_faults_per_op must be >= 0")


#: The mixed-fault profile the CLI's ``--backend noisy`` uses: every
#: transient kind enabled at demo rates, die 0 of the first module
#: intermittent, and the second device lost mid-campaign.
def demo_noise(module_key: str = "S0") -> NoiseProfile:
    return NoiseProfile(
        p_command_drop=0.06,
        p_readback_timeout=0.04,
        p_readback_garble=0.04,
        p_flaky_die=1.0,
        flaky_dies=((module_key, 0),),
        lose_device="noisy1",
        lose_after_ops=40,
        max_faults_per_op=2,
    )


@dataclass(frozen=True)
class BackendSpec:
    """Picklable recipe a backend pool and its session are built from.

    Crossing the pool boundary only as this value type keeps the
    process executor's zero-copy contract: workers rebuild identical
    backends (same seeds, same noise, same policy) from a few bytes.
    """

    kind: str = "sim"
    n_devices: int = 1
    seed: int = 0
    noise: Optional[NoiseProfile] = None
    max_op_retries: int = 6
    backoff_base: float = 0.001
    backoff_factor: float = 2.0
    watchdog_s: Optional[float] = None
    quarantine_threshold: float = 0.6
    ewma_alpha: float = 0.5
    min_ops_before_quarantine: int = 2
    readmit_after: int = 8
    preflight: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("sim", "noisy"):
            raise ExperimentError(
                f"unknown backend kind {self.kind!r} (expected 'sim' or "
                f"'noisy')"
            )
        if self.n_devices < 1:
            raise ExperimentError("n_devices must be >= 1")
        if self.max_op_retries < 0:
            raise ExperimentError("max_op_retries must be >= 0")
        if not 0.0 < self.quarantine_threshold <= 1.0:
            raise ExperimentError(
                "quarantine_threshold must be in (0, 1]"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ExperimentError("ewma_alpha must be in (0, 1]")

    def build_session(self, obs=None, report=None):
        """Build the device pool and its hardened session."""
        from repro.backend.session import DeviceSession

        return DeviceSession(
            make_backends(self), self, obs=obs, report=report
        )


def make_backends(spec: BackendSpec) -> List[DeviceBackend]:
    """Build the device pool a spec describes."""
    from repro.backend.noisy import NoisySiliconBackend
    from repro.backend.sim import SimBackend

    devices: List[DeviceBackend] = []
    for index in range(spec.n_devices):
        if spec.kind == "sim":
            devices.append(SimBackend(device_id=f"sim{index}"))
        else:
            devices.append(
                NoisySiliconBackend(
                    inner=SimBackend(device_id=f"sim{index}"),
                    profile=(
                        spec.noise if spec.noise is not None else demo_noise()
                    ),
                    seed=spec.seed,
                    device_id=f"noisy{index}",
                )
            )
    return devices


@dataclass(frozen=True)
class SessionWorkerSpec:
    """Wraps any campaign worker spec with a backend recipe.

    The process executor pickles the campaign's worker spec; when a
    backend is selected this wrapper rides along and re-attaches a
    (worker-cached) :class:`~repro.backend.session.DeviceSession` to
    the rebuilt runner.  Keeping the backend *outside* the inner spec
    leaves plan fingerprints (which hash the inner spec's repr)
    unchanged -- a checkpoint journal is backend-independent, exactly
    like results are.
    """

    inner: object
    backend: BackendSpec

    def check_shards(self, shards) -> None:
        self.inner.check_shards(shards)

    def build_runner(self):
        runner = self.inner.build_runner()
        runner.attach_session(worker_session(self.backend))
        return runner


def build_session(backend, obs=None, report=None):
    """Coerce a backend selection into an optional device session.

    Accepts ``None`` (no session: direct model access), a backend kind
    string (``"sim"`` / ``"noisy"``; the noisy kind defaults to a
    two-device pool so loss/quarantine have somewhere to re-schedule),
    a :class:`BackendSpec`, or an already-built session (returned
    as-is, so one session's health ledger can span several sweeps).
    """
    if backend is None:
        return None
    from repro.backend.session import DeviceSession

    if isinstance(backend, DeviceSession):
        return backend
    if isinstance(backend, str):
        backend = BackendSpec(
            kind=backend, n_devices=2 if backend == "noisy" else 1
        )
    return backend.build_session(obs=obs, report=report)


#: Per-worker-process session cache.  Fault-injection attempt counters
#: and the health ledger must persist for the life of the worker process
#: (retries of a faulted op must see incremented counters, or injection
#: would never converge), however many runners the worker builds;
#: sessions are therefore cached per spec.
_WORKER_SESSIONS: Dict[BackendSpec, object] = {}


def worker_session(spec: BackendSpec):
    """The (cached) worker-side session of one backend spec."""
    session = _WORKER_SESSIONS.get(spec)
    if session is None:
        # Workers never re-run preflight: the parent session completed
        # it before dispatching any shard, and workers measure the same
        # modules through backends built from the same spec.
        session = spec.build_session(obs=None, report=None)
        session.mark_preflight_done()
        _WORKER_SESSIONS[spec] = session
    return session
