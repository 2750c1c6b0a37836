"""Program interpreter: executes DRAM Bender programs against a chip.

The interpreter owns simulated time.  Commands themselves are
zero-duration (the command bus is abstracted away); only ``WAIT``
instructions and refresh cycles (``tRFC``) advance the clock.

Each run first *lowers* the program's node tree against the chip into a
pre-decoded form, like a host encoding a payload before the device runs
it: one tuple per command with a small-int opcode and unpacked operands
-- the bank object resolved once, an ACT's physical row scrambled once,
a WR's payload looked up once, and the ``WAIT`` that directly follows
the command folded into the command's wait slot.  Loops stay loops:
nested lists run by ``for _ in range(count)``.  Lowering costs
O(static program size), never O(iterations), and checks the whole tree
first, so a malformed node, an undefined payload id or a bank outside
the chip raises before any command reaches the chip.

Lowering also tracks which banks each command leaves open (a bank's
open/closed state depends only on the ACT/PRE sequence, never on time)
and marks every ACT or PRE the device will refuse -- an ACT to an open
bank or to a row outside it, a PRE to a precharged bank -- as *guarded*.
Only a guarded command snapshots the timing checker first and restores
it when the device refuses, so a refused command leaves the checker as
if it had never been issued; no other command pays for that.

Execution is still strictly one command at a time, in program order
(the reference semantics every mitigation observer relies on):

* every command makes exactly one timing-checker call (``check_act``,
  ``check_pre``, ``check_column`` or ``check_ref``) and then its one
  device call (``Bank.activate``, ``Bank.precharge``, ``Bank.read``,
  ``Bank.write``), so a violation raises before the device changes,
  and a command the device refuses raises before the checker's record
  of it survives (guarded commands, above);
* ``now`` advances by the same float additions as the program's
  ``WAIT`` instructions, in the same order (a folded wait is added after
  its command, exactly where the ``WAIT`` ran), so the row-open times
  the disturbance tracker sees are bit-identical;
* every ``ACT``/``PRE``/``REF`` is reported to the registered observers
  (the hook used by mitigation mechanisms such as TRR); with none
  attached, no notification is made.  Observers, the refresh hook and a
  user-supplied temperature callable (called on every ACT) see the
  current ``now`` through :attr:`Interpreter.now`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bender.isa import Instruction, Loop, Opcode, Program
from repro.bender.timing import TimingChecker
from repro.constants import CHARACTERIZATION_TEMPERATURE_C
from repro.dram.bank import Bank
from repro.dram.chip import Chip
from repro.errors import ProgramError


@dataclass
class ExecutionResult:
    """Outcome of running one program.

    Attributes:
        reads: ``(bank, row, bits)`` per RD instruction, in program order.
        elapsed_ns: simulated time consumed by the program.
        activations: total number of ACT commands executed.
        refreshes: total number of REF commands executed.
    """

    reads: List[Tuple[int, int, np.ndarray]] = field(default_factory=list)
    elapsed_ns: float = 0.0
    activations: int = 0
    refreshes: int = 0


#: Observer signature: (event, bank, row, now_ns).  Events are "ACT"
#: (row = activated logical row), "PRE" (row = -1), and "REF"
#: (bank = row = -1).
Observer = Callable[[str, int, int, float], None]

# Pre-decoded opcodes.  A lowered command is the tuple
# ``(op, index, bank, row, operand, wait)``:
#
# ======  ===========  ============  =============  ===============
# op      index        bank          row            operand
# ======  ===========  ============  =============  ===============
# ACT     bank index   Bank          logical row    physical row
# PRE     bank index   Bank          --             --
# RD      bank index   Bank          --             --
# WR      bank index   Bank          --             payload bits
# REF     --           --            --             --
# WAIT    --           --            --             --
# LOOP    count        --            --             lowered body
# GUARD   --           --            --             [ACT or PRE]
# ======  ===========  ============  =============  ===============
#
# ``wait`` is the nanoseconds added to ``now`` after the command: the
# WAIT instruction folded into it, or 0.0 (adding 0.0 leaves any time
# unchanged).  A WAIT that follows no command (a program's or a loop
# body's first instruction, or a second WAIT in a row) is a WAIT command
# of its own.  A GUARD wraps one ACT or PRE that the device will refuse.
_ACT, _PRE, _RD, _WR, _REF, _WAIT, _LOOP, _GUARD = range(8)

Lowered = List[tuple]


def _lower(
    nodes,
    program: Program,
    chip: Chip,
    banks: Dict[int, Bank],
    opened: Dict[int, bool],
) -> Tuple[Lowered, int, int]:
    """Lower ``nodes`` to commands bound to ``chip``.

    Returns the lowered commands and the ACT and REF counts one pass
    over them executes.  ``banks`` memoizes the chip's bank objects;
    ``opened`` maps each bank index seen so far to whether it is open
    after the commands lowered so far, and is updated in place.
    """
    code: Lowered = []
    acts = refs = 0
    can_fold = False
    for node in nodes:
        if isinstance(node, Instruction):
            op = node.opcode
            operands = node.operands
            if op is Opcode.WAIT:
                if can_fold:
                    code[-1] = code[-1][:5] + (operands[0],)
                else:
                    code.append((_WAIT, -1, None, -1, None, operands[0]))
                can_fold = False
                continue
            if op is Opcode.REF:
                code.append((_REF, -1, None, -1, None, 0.0))
                refs += 1
            else:
                index = operands[0]
                bank = banks.get(index)
                if bank is None:
                    bank = banks[index] = chip.bank(index)
                    opened[index] = bank.open_row is not None
                if op is Opcode.ACT:
                    row = operands[1]
                    physical = chip.to_physical(row)
                    command = (_ACT, index, bank, row, physical, 0.0)
                    if opened[index] or not bank.geometry.contains_row(physical):
                        command = (_GUARD, -1, None, -1, [command], 0.0)
                    else:
                        opened[index] = True
                    code.append(command)
                    acts += 1
                elif op is Opcode.PRE:
                    command = (_PRE, index, bank, -1, None, 0.0)
                    if not opened[index]:
                        command = (_GUARD, -1, None, -1, [command], 0.0)
                    opened[index] = False
                    code.append(command)
                elif op is Opcode.RD:
                    code.append((_RD, index, bank, -1, None, 0.0))
                else:
                    payload = program.payload(operands[1])
                    code.append((_WR, index, bank, -1, payload, 0.0))
        elif isinstance(node, Loop):
            entry = dict(opened)
            body, body_acts, body_refs = _lower(
                node.body, program, chip, banks, opened
            )
            # Every bank's state before the loop (for a bank first seen
            # in the body, its state when the program started).
            before = {
                index: entry.get(index, banks[index].open_row is not None)
                for index in opened
            }
            # A bank's state after a pass depends only on the pass's last
            # in-range ACT (open, refused or not) or PRE (closed) to it,
            # so every pass after the first starts from the same state:
            # if the first pass changed it, the later passes are lowered
            # (and guarded) once more from there.  A loop run 0 times is
            # lowered only to be checked and leaves every bank as it was.
            if node.count == 0:
                opened.update(before)
            if node.count > 1 and opened != before:
                code.append((_LOOP, 1, None, -1, body, 0.0))
                body, _, _ = _lower(node.body, program, chip, banks, opened)
                code.append((_LOOP, node.count - 1, None, -1, body, 0.0))
            else:
                code.append((_LOOP, node.count, None, -1, body, 0.0))
            acts += node.count * body_acts
            refs += node.count * body_refs
        else:
            raise ProgramError(f"invalid program node {node!r}")
        can_fold = True
    return code, acts, refs


class Interpreter:
    """Executes programs against one simulated chip.

    Args:
        chip: the device under test.
        checker: JEDEC timing validator (a fresh one is created if omitted).
        temperature: callable returning the current device temperature in
            Celsius, called on every ACT (defaults to the paper's 50 C
            characterization point).
        refresh_hook: called on each REF with the completion time; the
            SoftMC session uses it to advance the refresh pointer and to
            drive TRR.
    """

    def __init__(
        self,
        chip: Chip,
        checker: Optional[TimingChecker] = None,
        temperature: Optional[Callable[[], float]] = None,
        refresh_hook: Optional[Callable[[float], None]] = None,
    ) -> None:
        self._chip = chip
        self._checker = checker if checker is not None else TimingChecker()
        self._temperature = temperature
        self._refresh_hook = refresh_hook
        self._observers: List[Observer] = []
        self._now: float = 0.0

    # ------------------------------------------------------------- observers

    def add_observer(self, observer: Observer) -> None:
        """Register an ACT/REF observer (e.g. a TRR sampler)."""
        self._observers.append(observer)

    # ------------------------------------------------------------- execution

    @property
    def now(self) -> float:
        """Current simulated time (ns since interpreter creation)."""
        return self._now

    def run(self, program: Program) -> ExecutionResult:
        """Execute ``program`` to completion and return its result."""
        code, acts, refs = _lower(program.nodes, program, self._chip, {}, {})
        result = ExecutionResult(activations=acts, refreshes=refs)
        reads = result.reads
        checker = self._checker
        check_act = checker.check_act
        check_pre = checker.check_pre
        check_column = checker.check_column
        check_ref = checker.check_ref
        temperature = self._temperature
        refresh_hook = self._refresh_hook
        observers = self._observers
        start = now = self._now

        def execute(code: Lowered) -> None:
            nonlocal now
            for op, index, bank, row, operand, wait in code:
                if op == _ACT:
                    check_act(index, now)
                    if temperature is None:
                        bank.activate(operand, now, CHARACTERIZATION_TEMPERATURE_C)
                    else:
                        self._now = now
                        bank.activate(operand, now, temperature())
                    if observers:
                        self._now = now
                        for observer in observers:
                            observer("ACT", index, row, now)
                elif op == _PRE:
                    check_pre(index, now)
                    bank.precharge(now)
                    if observers:
                        self._now = now
                        for observer in observers:
                            observer("PRE", index, -1, now)
                elif op == _LOOP:
                    for _ in range(index):
                        execute(operand)
                elif op == _RD:
                    check_column(index, now, "RD")
                    open_row = bank.open_row
                    reads.append((index, open_row, bank.read(open_row, now)))
                elif op == _WR:
                    check_column(index, now, "WR")
                    bank.write(bank.open_row, operand, now)
                elif op == _REF:
                    now = self._now = check_ref(now)
                    if refresh_hook is not None:
                        refresh_hook(now)
                    for observer in observers:
                        observer("REF", -1, -1, now)
                elif op == _GUARD:
                    saved = checker.snapshot()
                    try:
                        execute(operand)
                    except BaseException:
                        checker.restore(saved)
                        raise
                now += wait

        try:
            execute(code)
        finally:
            self._now = now
        result.elapsed_ns = now - start
        return result
