"""JEDEC timing validation for simulated command streams.

The checker tracks, per bank, the time of the last ACT and PRE and
validates the core DDR4 constraints the characterization relies on:

* ``tRAS``: a row must stay open at least 36 ns (ACT -> PRE);
* ``tRP``: a bank must stay precharged at least 15 ns (PRE -> ACT);
* ``tRCD``: no RD/WR within 13.5 ns of the ACT;
* ``tRFC``: no command while a refresh is in flight;
* ``REF``: only with every bank precharged, and ``tRP`` after the last
  PRE to any bank;
* ``tRRD_S`` / ``tRRD_L``: minimum ACT-to-ACT spacing across banks
  (other / same bank group);
* ``tFAW``: at most four ACTs in any rolling tFAW window -- the JEDEC
  rate limit that caps how fast a multi-bank hammer can activate.

Violations raise :class:`~repro.errors.TimingViolationError` -- on the real
infrastructure they would silently corrupt the experiment, which is why the
paper's methodology (Section 3.1) keeps full control of command timing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.constants import DDR4Timings, DEFAULT_TIMINGS
from repro.errors import TimingViolationError

#: Tolerance for floating-point time comparisons (1 femtosecond).
_EPS = 1e-6

_NEVER = float("-inf")


class TimingChecker:
    """Stateful validator for one chip's command stream.

    The interpreter makes exactly one ``check_*`` call per command, so
    these methods are the command path's hot loop: each limit tested on
    every command is stored less the tolerance (``tRP - _EPS`` and so
    on, the same float the comparison would compute), and the tFAW
    window is a bounded deque.
    """

    def __init__(self, timings: DDR4Timings = DEFAULT_TIMINGS) -> None:
        timings.validate()
        self._t = timings
        self._min_tras = timings.tRAS - _EPS
        self._min_trp = timings.tRP - _EPS
        self._min_trcd = timings.tRCD - _EPS
        self._min_tfaw = timings.tFAW - _EPS
        self._last_act: Dict[int, float] = {}
        self._last_pre: Dict[int, float] = {}
        self._ref_done: float = _NEVER
        #: Earliest legal command time: ``_ref_done - _EPS``.
        self._quiet_from: float = _NEVER
        #: Times of the four most recent ACTs, any bank (tFAW window).
        self._recent_acts: Deque[float] = deque(maxlen=4)
        #: Bank of the most recent ACT (its time is ``_last_act[bank]``).
        self._last_act_bank: int = -1

    @property
    def timings(self) -> DDR4Timings:
        return self._t

    def check_act(self, bank: int, now: float) -> None:
        if now < self._quiet_from:
            raise self._trfc_violation(now, "ACT")
        last_pre = self._last_pre.get(bank)
        if last_pre is not None and now - last_pre < self._min_trp:
            raise TimingViolationError(
                f"tRP violation on bank {bank}: ACT at {now:.1f} ns, "
                f"only {now - last_pre:.1f} ns after PRE (tRP={self._t.tRP})"
            )
        # ACT-to-ACT spacing across banks (tRRD_S / tRRD_L by bank group).
        last_bank = self._last_act_bank
        if last_bank != bank and last_bank >= 0:
            per_group = self._t.banks_per_group
            same_group = last_bank // per_group == bank // per_group
            spacing = self._t.tRRD_L if same_group else self._t.tRRD_S
            since = now - self._last_act[last_bank]
            if since < spacing - _EPS:
                name = "tRRD_L" if same_group else "tRRD_S"
                raise TimingViolationError(
                    f"{name} violation: ACT to bank {bank} at {now:.1f} ns, "
                    f"only {since:.1f} ns after the ACT "
                    f"to bank {last_bank} ({name}={spacing})"
                )
        # Rolling four-activate window (tFAW); appending drops the oldest.
        recent = self._recent_acts
        if len(recent) == 4 and now - recent[0] < self._min_tfaw:
            raise TimingViolationError(
                f"tFAW violation: 5th ACT at {now:.1f} ns, only "
                f"{now - recent[0]:.1f} ns after the 4th-last ACT "
                f"(tFAW={self._t.tFAW})"
            )
        recent.append(now)
        self._last_act_bank = bank
        self._last_act[bank] = now

    def check_pre(self, bank: int, now: float) -> None:
        if now < self._quiet_from:
            raise self._trfc_violation(now, "PRE")
        last_act = self._last_act.get(bank)
        if last_act is not None and now - last_act < self._min_tras:
            raise TimingViolationError(
                f"tRAS violation on bank {bank}: PRE at {now:.1f} ns, "
                f"row open only {now - last_act:.1f} ns (tRAS={self._t.tRAS})"
            )
        self._last_pre[bank] = now

    def check_column(self, bank: int, now: float, what: str) -> None:
        if now < self._quiet_from:
            raise self._trfc_violation(now, what)
        last_act = self._last_act.get(bank)
        if last_act is not None and now - last_act < self._min_trcd:
            raise TimingViolationError(
                f"tRCD violation on bank {bank}: {what} at {now:.1f} ns, "
                f"only {now - last_act:.1f} ns after ACT (tRCD={self._t.tRCD})"
            )

    def check_ref(self, now: float) -> float:
        """Validate a REF and return the time at which it completes.

        A REF needs every bank precharged -- a bank whose last ACT is
        later than its last PRE still has a row open -- and tRP elapsed
        since the most recent PRE to any bank.
        """
        if now < self._quiet_from:
            raise self._trfc_violation(now, "REF")
        last_pre = self._last_pre
        for bank, last_act in self._last_act.items():
            if last_act > last_pre.get(bank, _NEVER):
                raise TimingViolationError(
                    f"REF at {now:.1f} ns while bank {bank} has row open "
                    f"(ACT at {last_act:.1f} ns, no PRE since)"
                )
        if last_pre:
            bank = max(last_pre, key=last_pre.__getitem__)
            if now - last_pre[bank] < self._min_trp:
                raise TimingViolationError(
                    f"tRP violation: REF at {now:.1f} ns, only "
                    f"{now - last_pre[bank]:.1f} ns after the PRE to bank "
                    f"{bank} (tRP={self._t.tRP})"
                )
        self._ref_done = now + self._t.tRFC
        self._quiet_from = self._ref_done - _EPS
        return self._ref_done

    def _trfc_violation(self, now: float, what: str) -> TimingViolationError:
        return TimingViolationError(
            f"tRFC violation: {what} at {now:.1f} ns while refresh "
            f"completes at {self._ref_done:.1f} ns"
        )


def max_activation_rate(
    timings: DDR4Timings = DEFAULT_TIMINGS, n_banks: int = 1
) -> float:
    """Peak sustainable ACT rate (activations per ns).

    Single bank: one ACT per ``tRC = tRAS + tRP``.  Across banks the
    binding constraints are ``tRRD`` spacing and the four-ACT ``tFAW``
    window; the JEDEC rate ceiling is what bounds how many hammer
    activations fit in a refresh window no matter how the attack is
    spread.
    """
    if n_banks < 1:
        raise ValueError("n_banks must be positive")
    t_rc = timings.tRAS + timings.tRP
    if n_banks == 1:
        return 1.0 / t_rc
    per_faw = 4.0 / timings.tFAW
    per_rrd = 1.0 / timings.tRRD_L
    per_banks = n_banks / t_rc
    return min(per_faw, per_rrd, per_banks)


def max_activations_per_refresh_window(
    timings: DDR4Timings = DEFAULT_TIMINGS, n_banks: int = 1
) -> int:
    """Upper bound on ACTs any pattern can issue within ``tREFW``.

    The RowHammer security margin: a counting mitigation whose threshold
    exceeds this bound can never fire; the paper's ACmin values are
    meaningful precisely because they sit far below it.
    """
    return int(timings.tREFW * max_activation_rate(timings, n_banks))
