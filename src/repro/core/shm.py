"""Zero-copy worker state: shared-memory segments and fork inheritance.

Process-pool workers need the parent's modules and per-die cell stacks.
Rebuilding them in every worker (calibration solver and all) costs more
than the measurement work itself, and the parent already holds all of
that state.  This module gives the executor two zero-copy ways to hand
it to its workers:

Fork inheritance (the fast path)
--------------------------------

On platforms whose multiprocessing start method is ``fork`` (Linux
default), a forked worker inherits the parent's address space
copy-on-write.  The parent installs an arbitrary payload (its live
shard runner: modules, stacked dies, analyzer caches, memoized
measurements) in the module-global registry via
:func:`install_fork_state` *before* creating the pool; workers read it
back by token with :func:`fork_state`.  Nothing is copied or pickled --
the token is the only thing that crosses the pool boundary.

Shared-memory segments (the portable path)
------------------------------------------

Where fork is unavailable (``spawn``/``forkserver`` start methods) the
parent publishes each die's fused cell stack
(:class:`~repro.core.stacked.RoleArrays`) into one
:class:`multiprocessing.shared_memory.SharedMemory` segment and hands
workers a picklable :class:`StackedDieHandle` -- segment name plus a
per-field (dtype, shape, offset) manifest.  Workers attach read-only
numpy views over the same physical pages (no copy, no pickle) and
reassemble a :class:`~repro.core.stacked.StackedDie` through the same
:func:`~repro.core.stacked.stacked_from_fused` constructor the build
path uses, so the two paths cannot disagree about layout.

Lifecycle
---------

Segments are owned by the parent's :class:`SharedDieStore`, which
tracks every segment it created and unlinks them all in ``close()`` --
called from a ``finally`` in the executor, so normal completion, worker
crashes, and KeyboardInterrupt all clean ``/dev/shm``.
:func:`live_segment_names` exposes the set of not-yet-unlinked segments
for leak assertions in tests.  Attaching processes deliberately
*untrack* their segments from the resource tracker: the parent owns
unlinking, and a tracked attach would have the worker's resource
tracker unlink (or warn about) segments it does not own.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.stacked import (
    DEFAULT_OFFSETS,
    FUSED_FIELDS,
    RoleArrays,
    StackedDie,
    stacked_from_fused,
)
from repro.errors import ExperimentError

__all__ = [
    "ArraySpec",
    "StackedDieHandle",
    "publish_stacked_die",
    "attach_stacked_die",
    "attached_stacked",
    "SharedDieStore",
    "live_segment_names",
    "fork_sharing_available",
    "install_fork_state",
    "fork_state",
    "discard_fork_state",
]

#: Segment layout alignment.  64 bytes keeps every array cache-line
#: aligned, which numpy's vectorized loops prefer.
_ALIGNMENT = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


@dataclass(frozen=True)
class ArraySpec:
    """Manifest entry: where one array lives inside a segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class StackedDieHandle:
    """Picklable recipe a worker reattaches one die's cell stack from.

    A handle is a few hundred bytes (segment name plus 13 manifest
    entries) regardless of the die's size; the megabytes of cell arrays
    stay in the segment and are never pickled.
    """

    segment: str
    module_key: str
    die_index: int
    bank: int
    base_rows: Tuple[int, ...]
    arrays: Tuple[ArraySpec, ...]
    nbytes: int
    role_offsets: Tuple[int, ...] = DEFAULT_OFFSETS


def publish_stacked_die(
    stacked: StackedDie,
) -> Tuple[shared_memory.SharedMemory, StackedDieHandle]:
    """Copy one die's fused stack into a fresh shared-memory segment.

    Returns the owning segment (caller is responsible for
    ``close()``/``unlink()`` -- normally via :class:`SharedDieStore`)
    and the picklable handle workers attach with.
    """
    fused = stacked.fused
    if fused is None:
        raise ExperimentError(
            f"stacked die {stacked.module_key}/{stacked.die_index} has no "
            f"fused stack; only fused dies can be published to shared memory"
        )
    layout: List[Tuple[str, np.ndarray, int]] = []
    offset = 0
    for name in FUSED_FIELDS:
        arr = np.ascontiguousarray(getattr(fused, name))
        offset = _aligned(offset)
        layout.append((name, arr, offset))
        offset += arr.nbytes
    segment = shared_memory.SharedMemory(create=True, size=max(1, offset))
    specs: List[ArraySpec] = []
    for name, arr, off in layout:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf, offset=off)
        view[...] = arr
        specs.append(ArraySpec(name, arr.dtype.str, tuple(arr.shape), off))
    handle = StackedDieHandle(
        segment=segment.name,
        module_key=stacked.module_key,
        die_index=stacked.die_index,
        bank=stacked.bank,
        base_rows=tuple(stacked.base_rows),
        arrays=tuple(specs),
        nbytes=offset,
        role_offsets=tuple(stacked.role_offsets),
    )
    return segment, handle


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach a segment by name without claiming ownership of it.

    Python 3.13+ supports ``track=False`` directly.  On earlier versions
    the attach re-registers the name with the resource tracker -- which
    pool workers *share* with the parent (the tracker fd is inherited on
    every start method), so the extra REGISTER is an idempotent no-op
    against the parent's own registration and must not be compensated:
    an UNREGISTER here would strip the parent's entry and make the
    parent's later ``unlink()`` double-unregister (a KeyError traceback
    in the tracker process).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def attach_stacked_die(
    handle: StackedDieHandle,
) -> Tuple[shared_memory.SharedMemory, StackedDie]:
    """Reassemble a read-only :class:`StackedDie` over a published segment.

    The returned arrays are views of the shared pages (writes are
    refused); the caller must keep the returned segment referenced for
    as long as the die is used, and ``close()`` it afterwards.
    """
    segment = _attach_segment(handle.segment)
    fields: Dict[str, np.ndarray] = {}
    for spec in handle.arrays:
        view = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=segment.buf,
            offset=spec.offset,
        )
        view.flags.writeable = False
        fields[spec.name] = view
    fused = RoleArrays(role="__fused__", **fields)
    return segment, stacked_from_fused(
        handle.module_key,
        handle.die_index,
        handle.bank,
        handle.base_rows,
        fused,
        offsets=handle.role_offsets,
    )


#: Per-process attach cache: a worker attaches each segment once, however
#: many runners it builds from one spec.  The entries keep the segments
#: referenced for the worker's lifetime (the die views borrow their
#: pages); worker exit closes the mappings, and the parent owns unlinking.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, StackedDie]] = {}


def attached_stacked(handle: StackedDieHandle) -> StackedDie:
    """The (cached) attached die of one handle, for worker processes."""
    entry = _ATTACHED.get(handle.segment)
    if entry is None:
        entry = attach_stacked_die(handle)
        _ATTACHED[handle.segment] = entry
    return entry[1]


# ------------------------------------------------------- parent-side store


_LIVE_LOCK = threading.Lock()
_LIVE_SEGMENTS: set = set()


def live_segment_names() -> FrozenSet[str]:
    """Names of segments published by this process and not yet unlinked.

    The leak detector of the test suite: after any campaign -- normal,
    crashed, or interrupted -- this must be empty.
    """
    with _LIVE_LOCK:
        return frozenset(_LIVE_SEGMENTS)


class SharedDieStore:
    """Owns the shared-memory segments of one campaign.

    ``publish`` is idempotent per (module, die, footprint) -- dies
    stacked over different victim footprints (DSL patterns with wide
    layouts) publish one segment per footprint; ``close`` unlinks every
    segment and is itself idempotent, so it is safe (and required) to
    call from a ``finally`` regardless of how the campaign ended.
    """

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self._handles: Dict[
            Tuple[str, int, Tuple[int, ...]], StackedDieHandle
        ] = {}
        self._closed = False

    def publish(self, stacked: StackedDie) -> StackedDieHandle:
        if self._closed:
            raise ExperimentError("SharedDieStore is closed")
        key = (
            stacked.module_key,
            stacked.die_index,
            tuple(stacked.role_offsets),
        )
        handle = self._handles.get(key)
        if handle is None:
            segment, handle = publish_stacked_die(stacked)
            self._segments.append(segment)
            with _LIVE_LOCK:
                _LIVE_SEGMENTS.add(segment.name)
            self._handles[key] = handle
        return handle

    @property
    def handles(self) -> Dict[Tuple[str, int, Tuple[int, ...]], StackedDieHandle]:
        return dict(self._handles)

    @property
    def nbytes(self) -> int:
        return sum(handle.nbytes for handle in self._handles.values())

    def __len__(self) -> int:
        return len(self._handles)

    def close(self) -> None:
        """Unlink every published segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - OS-level double close
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            with _LIVE_LOCK:
                _LIVE_SEGMENTS.discard(segment.name)
        self._segments.clear()

    def __enter__(self) -> "SharedDieStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


# ------------------------------------------------------ fork-state registry


_FORK_TOKENS = itertools.count(1)
_FORK_STATE: Dict[int, object] = {}


def fork_sharing_available() -> bool:
    """Whether pool workers inherit this process's memory (fork start)."""
    try:
        return multiprocessing.get_start_method() == "fork"
    except Exception:  # pragma: no cover - exotic platforms
        return False


def install_fork_state(payload: object) -> int:
    """Register a payload for fork-inherited pickup; returns its token.

    Must be called *before* the pool is created: workers snapshot the
    registry when they fork.  Pair with :func:`discard_fork_state` in a
    ``finally`` so the parent-side registry does not pin the payload
    beyond the campaign.
    """
    token = next(_FORK_TOKENS)
    _FORK_STATE[token] = payload
    return token


def fork_state(token: int) -> object:
    """Look up a fork-inherited payload inside a worker."""
    try:
        return _FORK_STATE[token]
    except KeyError:
        raise ExperimentError(
            f"fork-inherited worker state {token} is not present in this "
            f"process; the pool was started with a non-fork start method "
            f"or the state was discarded before the worker forked"
        ) from None


def discard_fork_state(token: int) -> None:
    """Drop a payload from the parent-side registry (idempotent)."""
    _FORK_STATE.pop(token, None)
