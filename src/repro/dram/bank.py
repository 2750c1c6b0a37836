"""Simulated DRAM bank.

A bank owns the open-row state machine, the stored data of every row that
has been written, and (optionally) a :class:`DisturbanceTracker` that
accumulates read disturbance on the neighbors of activated rows.

Semantics follow real DRAM:

* Activating a row *restores* its cells: any disturbance-induced bitflips
  accumulated so far are materialized into the stored data at activation
  time, and the row's accumulators reset (the flipped value is what gets
  restored).
* The disturbance deposited on a victim by one aggressor activation is
  only known once the aggressor row closes (the row-open time is the
  ACT->PRE distance), so the tracker is notified on precharge.
* Writing a row overwrites its data and clears its accumulated
  disturbance.

Timing legality (tRAS/tRP/...) is enforced by the DRAM Bender interpreter,
not here; the bank enforces *state* legality (no double activation, no
read without an open row).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.constants import CHARACTERIZATION_TEMPERATURE_C
from repro.dram.topology import BankGeometry
from repro.disturb.tracker import DisturbanceTracker
from repro.errors import DeviceStateError


class Bank:
    """One DRAM bank with open-row state and per-row stored data."""

    def __init__(
        self,
        geometry: BankGeometry,
        tracker: Optional[DisturbanceTracker] = None,
        retention=None,
    ) -> None:
        self._geometry = geometry
        self._tracker = tracker
        self._retention = retention
        self._data: Dict[int, np.ndarray] = {}
        self._open_row: Optional[int] = None
        self._open_since: float = 0.0
        self._last_activated: Optional[int] = None
        self._last_restore: Dict[int, float] = {}
        self._temperature: float = CHARACTERIZATION_TEMPERATURE_C

    # ------------------------------------------------------------- properties

    @property
    def geometry(self) -> BankGeometry:
        return self._geometry

    @property
    def open_row(self) -> Optional[int]:
        """Currently open row, or ``None`` if the bank is precharged."""
        return self._open_row

    @property
    def tracker(self) -> Optional[DisturbanceTracker]:
        return self._tracker

    # --------------------------------------------------------------- commands

    def activate(
        self,
        row: int,
        now: float,
        temperature_c: float = CHARACTERIZATION_TEMPERATURE_C,
    ) -> None:
        """Open ``row`` at simulated time ``now`` (ns)."""
        if not self._geometry.contains_row(row):
            raise DeviceStateError(f"row {row} outside bank (rows={self._geometry.rows})")
        if self._open_row is not None:
            raise DeviceStateError(
                f"cannot activate row {row}: row {self._open_row} is open"
            )
        self._materialize(row, now)
        self._open_row = row
        self._open_since = now
        self._temperature = temperature_c

    def precharge(self, now: float) -> None:
        """Close the open row at simulated time ``now`` (ns)."""
        if self._open_row is None:
            raise DeviceStateError("cannot precharge: no row is open")
        row = self._open_row
        t_on = now - self._open_since
        if t_on < 0:
            raise DeviceStateError("precharge before activation (time went backwards)")
        if self._tracker is not None:
            self._tracker.on_activation(
                row, t_on, self._last_activated == row, self._temperature
            )
        self._last_activated = row
        self._open_row = None

    def write(self, row: int, bits: np.ndarray, now: float) -> None:
        """Store ``bits`` into ``row`` (the row must be open)."""
        self._check_open(row, "write to")
        bits = np.asarray(bits)
        if bits.shape != (self._geometry.cols_simulated,):
            raise DeviceStateError(
                f"row data must have {self._geometry.cols_simulated} bits"
            )
        # Check before the uint8 cast, which would wrap 256 to 0 and
        # truncate 0.6 to 0.
        if not np.isin(bits, (0, 1)).all():
            raise DeviceStateError("row data must be 0/1 bits")
        self._data[row] = bits.astype(np.uint8)
        self._last_restore[row] = now
        if self._tracker is not None:
            self._tracker.reset([row])

    def read(self, row: int, now: float) -> np.ndarray:
        """Return the current contents of ``row`` (the row must be open).

        Bitflips were already materialized when the row was activated, so
        a read simply returns the stored (possibly corrupted) data.
        """
        self._check_open(row, "read of")
        if row not in self._data:
            raise DeviceStateError(f"read of row {row} before it was ever written")
        return self._data[row].copy()

    def refresh_row(self, row: int, now: float) -> None:
        """Refresh one row: restore its charge (materializing any flips).

        Refreshing the currently *open* row is illegal; refreshing any
        other row models an interleaved mitigation refresh (the extra
        ACT/PRE a TRR/PARA/Graphene mechanism schedules).
        """
        if self._open_row == row:
            raise DeviceStateError("cannot refresh the open row")
        if row in self._data:
            self._materialize(row, now)

    # ----------------------------------------------------------------- helpers

    def stored_bits(self, row: int) -> Optional[np.ndarray]:
        """Raw stored data (for inspection in tests); None if never written."""
        data = self._data.get(row)
        return None if data is None else data.copy()

    def _check_open(self, row: Optional[int], what: str) -> None:
        if self._open_row is None:
            raise DeviceStateError("no row is open")
        if self._open_row != row:
            raise DeviceStateError(f"{what} row {row} but open row is {self._open_row}")

    def _materialize(self, row: int, now: float) -> None:
        """Fold accumulated disturbance and retention loss into stored data."""
        data = self._data.get(row)
        if data is None:
            return
        if self._tracker is not None and self._tracker.is_disturbed(row):
            flips = self._tracker.flip_mask(row, data)
            if flips.any():
                data ^= flips.astype(np.uint8)
            self._tracker.reset([row])
        if self._retention is not None:
            elapsed = now - self._last_restore.get(row, now)
            fails = self._retention.failure_mask(row, elapsed, data)
            if fails.any():
                data ^= fails.astype(np.uint8)
        self._last_restore[row] = now
