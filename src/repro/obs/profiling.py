"""Opt-in profiling hooks.

Two levels of depth:

* ``Observability.profile(name)`` (implemented here as
  :func:`profile_span`) -- a cheap monotonic-clock span recorded into
  the metrics registry as the timer ``profile.<name>``; sprinkle it
  around suspect regions without changing their behaviour.
* :class:`ShardProfiler` -- a cProfile wrapper around in-process shard
  execution.  When an :class:`~repro.obs.Observability` is built with a
  ``profile_dir``, every shard that runs in-process is profiled and
  its stats dumped to ``<dir>/shard-<index>.pstats`` (inspect with
  ``python -m pstats``): every shard under the serial executor, and
  only the auto executor's probe shards when it picks the pool.
  Process-pool workers are not profiled: the profiler would have to cross the pickle boundary, and
  cProfile's overhead would distort the very numbers a pool run is
  chosen for.
"""

from __future__ import annotations

import cProfile
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, TypeVar, Union

T = TypeVar("T")

__all__ = ["profile_span", "ShardProfiler"]


@contextmanager
def profile_span(registry, name: str) -> Iterator[None]:
    """Record the enclosed block as the timer ``profile.<name>``."""
    with registry.timer(f"profile.{name}"):
        yield


class ShardProfiler:
    """Dumps one cProfile stats file per profiled call."""

    def __init__(self, directory: Union[str, os.PathLike]) -> None:
        self._dir = Path(directory)

    @property
    def directory(self) -> Path:
        return self._dir

    def call(self, label: str, fn: Callable[..., T], *args, **kwargs) -> T:
        """Run ``fn`` under cProfile, dump stats as ``<label>.pstats``."""
        self._dir.mkdir(parents=True, exist_ok=True)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            profiler.disable()
            profiler.dump_stats(str(self._dir / f"{label}.pstats"))
