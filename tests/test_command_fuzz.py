"""Differential fuzz of the command path against a naive reference.

Hypothesis generates short random programs -- legal and illegal ACT,
PRE, RD, WR, REF and WAIT streams across banks and bank groups, rows in
and out of range, counted loops -- and runs a sequence of them on one
:class:`~repro.bender.interpreter.Interpreter` over a 64-row synthetic
chip and through :class:`Reference`, a checker written from the rule
lists in ``bender/timing.py``'s docstring (timing), ``dram/bank.py``'s
(device state) and ``bender/interpreter.py``'s (what lowering rejects
before any command).  The reference keeps the full history of accepted
commands and checks every rule against all of it; it shares no code or
state layout with the timing checker.

For every program the two must agree on whether it fails, at which
command, and whether on a timing rule; on the clock and on every bank's
open row afterwards.  After each program, an interpreter that never saw
a refused command -- a fresh one that replays only the accepted ones --
must then run the next program exactly as the fuzzed one does (outcome,
clock, checker state, open rows, reads).

Budget: 300 examples of up to 3 programs, each up to 6 blocks: a row
cycle, a multi-bank ACT burst (left open, closed, or closed and
refreshed), a single command of any kind, or a loop run 0-3 times (of
ACTs then closed after it, of a row cycle, or of up to 4 single
commands) -- about 3 s.  ``tRFC`` never binds: a REF advances the clock to
its completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bender.interpreter import Interpreter
from repro.bender.isa import Instruction, Loop, Opcode, Program
from repro.bender.timing import TimingChecker
from repro.constants import DEFAULT_TIMINGS
from repro.errors import ReproError, TimingViolationError
from repro.testing import make_synthetic_chip

ROWS = 64
COLS = 64
N_BANKS = 16
#: The timing checker's float tolerance (1 fs), as its docstring states.
EPS = 1e-6
T = DEFAULT_TIMINGS

PAYLOADS = [np.zeros(COLS, dtype=np.uint8), np.ones(COLS, dtype=np.uint8)]


def _rarely(common, rare, percent):
    """Draw from ``common``, or from ``rare`` ``percent`` % of the time."""
    return st.integers(0, 99).flatmap(
        lambda i: st.sampled_from(rare if i < percent else common)
    )


# Banks 0-3 share bank group 0, 4-7 group 1, ...; bank 16 is outside the
# chip (the whole program fails before any command), so it is rare.
BANKS = _rarely([0, 0, 1, 1, 2, 4, 5, 8, 13], [N_BANKS], 2)
ROWS_ST = _rarely([0, 1, 5, 7, 63], [-1, ROWS, 999], 15)
PAYLOAD_IDS = _rarely([0, 1], [len(PAYLOADS)], 3)
# Waits straddle every limit (tRRD_S 3.3, tRRD_L 4.9, tRCD 13.5, tRP 15,
# tFAW 30, tRAS 36, tRFC 350).
WAITS = st.sampled_from(
    [0.0, 1.0, 3.3, 4.9, 5.0, 7.5, 13.5, 15.0, 21.0, 30.0, 36.0, 51.0, 400.0]
)


def _command():
    """One command, anything goes."""
    return st.one_of(
        WAITS.map(lambda ns: ("WAIT", ns)),
        st.tuples(st.just("ACT"), BANKS, ROWS_ST),
        st.tuples(st.just("PRE"), BANKS),
        st.tuples(st.just("RD"), BANKS),
        st.tuples(st.just("WR"), BANKS, PAYLOAD_IDS),
        st.just(("REF",)),
    )


def _row_cycle(bank, row, column, waits):
    """Open a row, write or read it, close it: legal when every wait
    clears its limit (tRCD, tRAS, tRP)."""
    first, second, third = waits
    return [
        ("ACT", bank, row), ("WAIT", first), column(bank),
        ("WAIT", second), ("PRE", bank), ("WAIT", third),
    ]


def _burst(banks, gap, close, rest):
    """ACTs to distinct banks ``gap`` ns apart (tRRD_S/L, tFAW); then, if
    ``close``, a PRE to each once tRAS has passed, and unless ``rest`` is
    None a REF ``rest`` ns after the last PRE (REF legality, its tRP)."""
    commands = []
    for bank in banks:
        commands += [("ACT", bank, 5), ("WAIT", gap)]
    if close:
        commands += _close(banks)
        if rest is not None:
            commands += [("WAIT", rest), ("REF",)]
    return commands


def _close(banks):
    return [("WAIT", T.tRAS)] + [("PRE", bank) for bank in banks]


def _loop_then_close(count, banks, gap):
    """A loop of ACTs to ``banks``, then a PRE to each: the PREs are
    refused after 0 passes (nothing opened), the ACTs in a second pass
    (their rows are open)."""
    return [("LOOP", count, _burst(banks, gap, False, None))] + _close(banks)


COLUMN = st.sampled_from(
    [lambda bank: ("WR", bank, 0), lambda bank: ("WR", bank, 1),
     lambda bank: ("RD", bank)]
)
# Waits that mostly clear tRCD, then tRAS (13.5 + 22.5 = 36 ns), then
# anything.
ROW_CYCLES = st.builds(
    _row_cycle,
    BANKS,
    ROWS_ST,
    COLUMN,
    st.tuples(
        st.sampled_from([13.5, 21.0, 5.0]),
        st.sampled_from([22.5, 36.0, 15.0]),
        WAITS,
    ),
)
# Banks 0-7 span two bank groups, so a burst often has same-group
# neighbours; five ACTs 4.9-5 ns apart break tFAW and no tRRD limit.
BURST_BANKS = st.lists(st.integers(0, 7), min_size=1, max_size=6, unique=True)
GAPS = st.sampled_from([1.0, 3.3, 4.9, 5.0, 7.5])
BURSTS = st.builds(
    _burst,
    BURST_BANKS,
    GAPS,
    st.booleans(),
    st.sampled_from([None, 0.0, 5.0, 15.0, 400.0]),
)
LOOPS = st.one_of(
    st.builds(_loop_then_close, st.integers(0, 2), BURST_BANKS, GAPS),
    st.tuples(
        st.just("LOOP"),
        st.integers(0, 3),
        st.one_of(ROW_CYCLES, st.lists(_command(), min_size=1, max_size=4)),
    ).map(lambda loop: [loop]),
)
# Blocks of mostly legal commands, single commands of any kind, loops.
BLOCK = st.one_of(
    ROW_CYCLES, BURSTS, LOOPS, _command().map(lambda cmd: [cmd])
)
NODES = st.lists(BLOCK, max_size=6).map(
    lambda blocks: [node for block in blocks for node in block]
)


def _instruction(cmd) -> Instruction:
    kind, *operands = cmd
    return Instruction(Opcode[kind], tuple(operands))


def to_program(nodes) -> Program:
    tree = [
        Loop(node[1], tuple(_instruction(c) for c in node[2]))
        if node[0] == "LOOP"
        else _instruction(node)
        for node in nodes
    ]
    return Program(nodes=tree, payloads=list(PAYLOADS))


def _unrolled(nodes):
    for node in nodes:
        if node[0] == "LOOP":
            for _ in range(node[1]):
                yield from node[2]
        else:
            yield node


def _static(nodes):
    for node in nodes:
        if node[0] == "LOOP":
            yield from node[2]
        else:
            yield node


@dataclass
class Outcome:
    """How a program ended: ``failed_at`` counts the non-WAIT commands
    run before the failing one (-1: rejected before any command)."""

    failed_at: Optional[int] = None
    timing: bool = False


@dataclass
class Reference:
    """The naive model: the full accepted history, every rule re-checked
    against all of it."""

    now: float = 0.0
    acts: List[Tuple[int, float]] = field(default_factory=list)
    pres: List[Tuple[int, float]] = field(default_factory=list)
    refs_done: List[float] = field(default_factory=list)
    open_rows: Dict[int, int] = field(default_factory=dict)
    written: Set[Tuple[int, int]] = field(default_factory=set)
    #: Accepted commands and every WAIT, in order, for a replay.
    accepted: List[tuple] = field(default_factory=list)

    def run(self, nodes) -> Outcome:
        # Lowering: a bank outside the chip or an undefined payload
        # anywhere in the tree (even a loop run 0 times) fails first.
        for cmd in _static(nodes):
            if cmd[0] in ("ACT", "PRE", "RD", "WR") and not 0 <= cmd[1] < N_BANKS:
                return Outcome(-1)
            if cmd[0] == "WR" and cmd[2] >= len(PAYLOADS):
                return Outcome(-1)
        index = 0
        for cmd in _unrolled(nodes):
            if cmd[0] == "WAIT":
                self.now += cmd[1]
                self.accepted.append(cmd)
                continue
            if self._timing_violation(cmd):
                return Outcome(index, timing=True)
            if not self._device_accepts(cmd):
                return Outcome(index)
            self._apply(cmd)
            self.accepted.append(cmd)
            index += 1
        return Outcome()

    def _timing_violation(self, cmd) -> bool:
        now, kind = self.now, cmd[0]
        # tRFC: no command while any refresh is in flight.
        if any(now < done - EPS for done in self.refs_done):
            return True
        if kind == "ACT":
            bank = cmd[1]
            # tRP after the last PRE to this bank.
            pres = [t for b, t in self.pres if b == bank]
            if pres and now - pres[-1] < T.tRP - EPS:
                return True
            # tRRD_S / tRRD_L against every ACT to another bank.
            for other, t in self.acts:
                if other != bank:
                    same = other // T.banks_per_group == bank // T.banks_per_group
                    spacing = T.tRRD_L if same else T.tRRD_S
                    if now - t < spacing - EPS:
                        return True
            # tFAW: at most four ACTs in any rolling window.
            in_window = [t for _, t in self.acts if now - t < T.tFAW - EPS]
            return len(in_window) >= 4
        if kind == "PRE":
            # tRAS since the ACT that opened the row.
            opened = [t for b, t in self.acts if b == cmd[1]]
            return bool(opened) and now - opened[-1] < T.tRAS - EPS
        if kind in ("RD", "WR"):
            # tRCD since the ACT to this bank.
            opened = [t for b, t in self.acts if b == cmd[1]]
            return bool(opened) and now - opened[-1] < T.tRCD - EPS
        # REF: every bank precharged, tRP after the last PRE to any bank.
        if self.open_rows:
            return True
        return any(now - t < T.tRP - EPS for _, t in self.pres)

    def _device_accepts(self, cmd) -> bool:
        kind = cmd[0]
        if kind == "ACT":
            return cmd[1] not in self.open_rows and 0 <= cmd[2] < ROWS
        if kind == "PRE":
            return cmd[1] in self.open_rows
        if kind == "RD":
            row = self.open_rows.get(cmd[1])
            return row is not None and (cmd[1], row) in self.written
        if kind == "WR":
            return cmd[1] in self.open_rows
        return True

    def _apply(self, cmd) -> None:
        kind = cmd[0]
        if kind == "ACT":
            self.acts.append((cmd[1], self.now))
            self.open_rows[cmd[1]] = cmd[2]
        elif kind == "PRE":
            self.pres.append((cmd[1], self.now))
            del self.open_rows[cmd[1]]
        elif kind == "WR":
            self.written.add((cmd[1], self.open_rows[cmd[1]]))
        elif kind == "REF":
            self.now += T.tRFC
            self.refs_done.append(self.now)


class CountingChecker(TimingChecker):
    """Counts ``check_*`` calls: the interpreter makes one per command."""

    calls = 0

    def check_act(self, bank, now):
        self.calls += 1
        super().check_act(bank, now)

    def check_pre(self, bank, now):
        self.calls += 1
        super().check_pre(bank, now)

    def check_column(self, bank, now, what):
        self.calls += 1
        super().check_column(bank, now, what)

    def check_ref(self, now):
        self.calls += 1
        return super().check_ref(now)


class Rig:
    """One interpreter on a fresh chip, run program by program."""

    def __init__(self) -> None:
        self.chip = make_synthetic_chip(rows=ROWS, cols=COLS)
        self.checker = CountingChecker()
        self.interp = Interpreter(self.chip, checker=self.checker)

    def run(self, program: Program):
        before = self.checker.calls
        try:
            result = self.interp.run(program)
        except ReproError as exc:
            failed_at = self.checker.calls - before - 1
            outcome = Outcome(failed_at, isinstance(exc, TimingViolationError))
            return outcome, None
        return Outcome(), result

    def state(self):
        return (
            self.interp.now.hex(),
            self.checker.snapshot(),
            self.open_rows(),
        )

    def open_rows(self) -> Dict[int, int]:
        rows = {}
        for index in range(N_BANKS):
            row = self.chip.bank(index).open_row
            if row is not None:
                rows[index] = row
        return rows


def _reads(result):
    if result is None:
        return None
    return [(b, r, bits.tobytes()) for b, r, bits in result.reads]


@settings(max_examples=300, deadline=None)
@given(st.lists(NODES, min_size=1, max_size=3))
def test_interpreter_agrees_with_the_naive_reference(programs):
    rig = Rig()
    reference = Reference()
    for nodes in programs:
        # An interpreter that never saw a refused command: a fresh one
        # that replays only what the reference accepted so far.
        replay = Rig()
        assert replay.run(to_program(reference.accepted))[0] == Outcome()
        assert replay.state() == rig.state()

        expected = reference.run(nodes)
        outcome, result = rig.run(to_program(nodes))
        assert outcome == expected, nodes
        assert rig.interp.now == reference.now
        assert rig.open_rows() == reference.open_rows

        replayed, replay_result = replay.run(to_program(nodes))
        assert replayed == outcome
        assert replay.state() == rig.state()
        assert _reads(replay_result) == _reads(result)
