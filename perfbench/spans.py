"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the ``repro`` layers
from outside the package: each wrapped call records one span (name,
parent span, start, end) into flat arrays, so millions of spans from
the command-level path stay a few tens of MB.  Module-level functions
are patched where their caller looks them up (``repro.core.engine``
imports ``build_stacked_die`` by name, so that is the name patched);
methods are patched on the class that defines them.  Every patch is
undone when the ``with`` block exits, so untraced runs in the same
process execute the original code.

A span's self time is its duration minus the durations of its direct
children.  Summed over all spans, self times add up to the time covered
by top-level spans; the rest of the traced wall time is unattributed.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Counter hook: (counters, call args, call kwargs, return value) -> None.
CountHook = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    """Records spans of wrapped calls; a context manager that patches."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self.counters: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def patch(
        self,
        owner: object,
        attr: str,
        span: str,
        count: Optional[CountHook] = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone on exit).

        ``owner`` is a module (for functions looked up by name) or the
        class that defines the method.
        """
        original = vars(owner)[attr]
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, span, count))

    def _wrap(self, fn, span: str, count: Optional[CountHook]):
        name_id = self._name_ids.get(span)
        if name_id is None:
            name_id = self._name_ids[span] = len(self.names)
            self.names.append(span)
        names, parents = self._name, self._parent
        starts, ends = self._start, self._end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- results

    @property
    def n_spans(self) -> int:
        return len(self._start)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, inclusive ``total_s``, ``self_s``."""
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        own = duration - children
        size = len(self.names)
        counts = np.bincount(name, minlength=size)
        totals = np.bincount(name, weights=duration, minlength=size)
        selfs = np.bincount(name, weights=own, minlength=size)
        return {
            span: {
                "count": int(counts[i]),
                "total_s": float(totals[i]),
                "self_s": float(selfs[i]),
            }
            for i, span in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span (name table + flat arrays) as an ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start),
            end=np.frombuffer(self._end),
        )
