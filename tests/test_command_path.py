"""The per-command interpreter path: a pinned command stream, one check
per command, and the error paths.

``STREAM_DIGEST`` is a sha256 over every observer event and every
``ExecutionResult`` of a fixed set of probes on S0 die 0.  It pins the
exact command stream -- event order, rows, and the bit pattern of every
timestamp -- so a change to how programs are executed cannot move a
single command or a single float addition unnoticed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bender.interpreter import Interpreter
from repro.bender.isa import Instruction, Opcode, Program
from repro.bender.program import ProgramBuilder
from repro.bender.softmc import SoftMCSession
from repro.bender.timing import TimingChecker
from repro.constants import DEFAULT_TIMINGS
from repro.core.honest import HonestLocationProbe
from repro.disturb.tracker import DisturbanceTracker
from repro.dram.bank import Bank
from repro.dram.chip import Chip
from repro.dram.datapattern import CHECKERBOARD
from repro.errors import DeviceStateError, ProgramError, TimingViolationError
from repro.mitigations.para import Para
from repro.patterns.dsl import resolve_pattern
from repro.testing import make_synthetic_chip

#: sha256 of the command stream of ``_stream_probes`` (see module doc).
STREAM_DIGEST = "c7422a4802a5e268cf442ed04ac8e0921f7ebfdeb53ac18127c01487409d2b32"

#: (pattern, tAggON ns, hammer iterations) of the plain probes.
PROBES = (
    ("double-sided", 7_800.0, 2_600),
    ("single-sided", 7_800.0, 300),
    ("combined", 7_800.0, 4_200),
    ("half-double", 7_800.0, 1_600),
    ("decoy-flood", 7_800.0, 2_500),
)


def _fresh_chip(die) -> Chip:
    """A pristine copy of ``die`` (no state from an earlier probe)."""
    return Chip(
        module_key=die.module_key,
        die_index=die.die_index,
        geometry=die.geometry,
        model=die.model,
        population=die.population,
        n_banks=die.n_banks,
        on_die_ecc=die.on_die_ecc,
        mapping=die.mapping,
    )


class _Recorder:
    """Hashes observer events and the results of every ``session.run``."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.events = 0

    def observe(self, event, bank, row, now) -> None:
        self.events += 1
        self.sha.update(f"E {event} {bank} {row} {now.hex()}\n".encode())

    def wrap(self, session: SoftMCSession) -> None:
        run = session.run

        def recording_run(program):
            result = run(program)
            for bank, row, bits in result.reads:
                self.sha.update(f"R {bank} {row} ".encode())
                self.sha.update(np.asarray(bits, dtype=np.uint8).tobytes())
            self.sha.update(
                f"X {result.elapsed_ns.hex()} {result.activations} "
                f"{result.refreshes}\n".encode()
            )
            return result

        session.run = recording_run


def _probe(recorder, session, pattern, t_on, iterations, base_row) -> None:
    recorder.wrap(session)
    session.add_observer(recorder.observe)
    prober = HonestLocationProbe(
        session, resolve_pattern(pattern), base_row, t_on, CHECKERBOARD
    )
    census = prober.probe(iterations)
    recorder.sha.update(f"C {pattern} {census.n_flips}\n".encode())


def _stream_probes(module, config):
    die = module.chip(0)
    base_row = config.selection.base_rows(die.geometry)[0]
    recorder = _Recorder()
    for pattern, t_on, iterations in PROBES:
        session = SoftMCSession(_fresh_chip(die))
        _probe(recorder, session, pattern, t_on, iterations, base_row)
    # PARA attached: its observer refreshes neighbours mid-stream.
    session = SoftMCSession(_fresh_chip(die))
    Para(0.05, seed=3).attach(session)
    _probe(recorder, session, "double-sided", 7_800.0, 2_600, base_row)
    # A normal controller's catch-up REFs before every program.
    session = SoftMCSession(_fresh_chip(die), auto_refresh=True)
    _probe(recorder, session, "combined", 7_800.0, 4_200, base_row)
    return recorder


def test_command_stream_golden(s0_module, fast_config):
    recorder = _stream_probes(s0_module, fast_config)
    assert recorder.events > 3_000
    assert recorder.sha.hexdigest() == STREAM_DIGEST


# ------------------------------------------------------ per-command accounting


def test_one_check_and_one_device_call_per_command(monkeypatch, s0_module, fast_config):
    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in (
        (TimingChecker, "check_act"),
        (TimingChecker, "check_pre"),
        (Bank, "activate"),
        (Bank, "precharge"),
        (DisturbanceTracker, "on_activation"),
    ):
        counting(owner, name)
    die = s0_module.chip(0)
    base_row = fast_config.selection.base_rows(die.geometry)[0]
    session = SoftMCSession(_fresh_chip(die))
    issued = {"ACT": 0, "PRE": 0}
    session.add_observer(
        lambda event, bank, row, now: issued.__setitem__(event, issued[event] + 1)
    )
    prober = HonestLocationProbe(
        session, resolve_pattern("combined"), base_row, 7_800.0, CHECKERBOARD
    )
    prober.probe(120)
    assert issued["ACT"] > 240 and issued["ACT"] == issued["PRE"]
    assert calls == {
        "check_act": issued["ACT"],
        "activate": issued["ACT"],
        "check_pre": issued["PRE"],
        "precharge": issued["PRE"],
        "on_activation": issued["PRE"],
    }


def test_temperature_callable_called_on_every_act_at_its_time():
    seen = []
    interp = None

    def temperature():
        seen.append(interp.now)
        return 85.0

    chip = make_synthetic_chip()
    interp = Interpreter(chip, temperature=temperature)
    builder = ProgramBuilder()
    with builder.loop(3):
        builder.act(0, 9).wait(36.0).pre(0).wait(15.0)
    interp.run(builder.build())
    assert seen == [0.0, 51.0, 102.0]


# ----------------------------------------------------------------- error paths


def test_tfaw_violation_in_second_loop_iteration():
    # Four banks in four bank groups, 5 ns apart: legal in the first
    # iteration (the window fills), illegal at the second iteration's
    # first ACT, 20 ns after the 4th-last ACT.
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    builder = ProgramBuilder()
    builder.wait(1.25)
    with builder.loop(3):
        for bank in (0, 4, 8, 12):
            builder.act(bank, 7).wait(5.0)
    with pytest.raises(TimingViolationError) as err:
        interp.run(builder.build())
    assert str(err.value) == (
        "tFAW violation: 5th ACT at 21.2 ns, only 20.0 ns after the "
        "4th-last ACT (tFAW=30.0)"
    )
    assert interp.now.hex() == (1.25 + 5.0 + 5.0 + 5.0 + 5.0).hex()
    assert chip.bank(0).open_row == chip.to_physical(7)


def test_wait_after_a_zero_count_loop_still_runs():
    builder = ProgramBuilder()
    with builder.loop(0):
        builder.act(0, 5).wait(1.0)
    builder.wait(36.0)
    result = Interpreter(make_synthetic_chip()).run(builder.build())
    assert (result.elapsed_ns, result.activations) == (36.0, 0)


def test_malformed_node_rejected_before_any_command():
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    events = []
    interp.add_observer(lambda *event: events.append(event))
    program = Program(
        nodes=[Instruction(Opcode.ACT, (0, 5)), Instruction(Opcode.WAIT, (40.0,)),
               "not an instruction"]
    )
    with pytest.raises(ProgramError, match="invalid program node"):
        interp.run(program)
    assert events == []
    assert interp.now == 0.0
    assert chip.bank(0).open_row is None


def test_ref_rejected_while_a_row_is_open():
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    builder = ProgramBuilder()
    builder.act(5, 3).wait(40.0).ref().wait(400.0).pre(5)
    with pytest.raises(TimingViolationError, match="bank 5 has row open"):
        interp.run(builder.build())


def test_ref_rejected_within_trp_of_a_pre():
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    builder = ProgramBuilder()
    builder.act(0, 3).wait(36.0).pre(0).wait(10.0).ref()
    with pytest.raises(TimingViolationError, match="tRP violation: REF"):
        interp.run(builder.build())
    # tRP after the PRE, with every bank precharged: legal.
    interp = Interpreter(make_synthetic_chip())
    builder = ProgramBuilder()
    builder.act(0, 3).wait(36.0).pre(0).wait(DEFAULT_TIMINGS.tRP).ref()
    assert interp.run(builder.build()).refreshes == 1


# ------------------------------------------------------- refused commands


def _program(build):
    builder = ProgramBuilder()
    build(builder)
    return builder.build()


def _loop_act(builder):
    with builder.loop(3):
        builder.act(0, 5).wait(40.0)


def _loop_prefix(builder):
    builder.act(0, 5).wait(40.0)


def _zero_count_loop(builder):
    with builder.loop(0):
        builder.act(4, 0)
    builder.pre(4)


#: (refused program, its error, the accepted commands before the refused
#: one, a follow-up program).  The follow-ups failed at the parent with
#: the refused command's stale checker state: a REF "while bank 0 has row
#: open", a tRAS violation against the refused ACT, a tRP violation
#: against the refused PRE.
REFUSED = {
    "act-row-outside-bank": (
        lambda b: b.act(0, 999_999),
        "row 999999 outside bank (rows=64)",
        lambda b: None,
        lambda b: b.wait(100.0).ref(),
    ),
    "act-to-open-bank": (
        lambda b: b.act(0, 5).wait(30.0).act(0, 6),
        "cannot activate row 6: row 5 is open",
        lambda b: b.act(0, 5).wait(30.0),
        lambda b: b.wait(10.0).pre(0),
    ),
    "pre-to-closed-bank": (
        lambda b: b.act(0, 5).wait(36.0).pre(0).wait(20.0).pre(0),
        "cannot precharge: no row is open",
        lambda b: b.act(0, 5).wait(36.0).pre(0).wait(20.0),
        lambda b: b.wait(5.0).act(0, 5).wait(36.0).pre(0).wait(15.0).ref(),
    ),
    "act-refused-in-second-loop-pass": (
        _loop_act,
        "cannot activate row 5: row 5 is open",
        _loop_prefix,
        lambda b: b.pre(0).wait(15.0).act(4, 9),
    ),
    # A loop run 0 times opens nothing, so the PRE after it is refused;
    # its follow-up once failed with a tRP violation against that PRE.
    "pre-after-zero-count-loop": (
        _zero_count_loop,
        "cannot precharge: no row is open",
        lambda b: None,
        lambda b: b.wait(5.0).act(4, 0),
    ),
}


def _observed(checker):
    chip = make_synthetic_chip()
    interp = Interpreter(chip, checker=checker)
    events = []
    interp.add_observer(lambda *event: events.append(event))
    return chip, interp, events


def _state(chip, interp, checker, events):
    return (
        interp.now.hex(),
        checker.snapshot(),
        [chip.bank(index).open_row for index in range(chip.n_banks)],
        list(events),
    )


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_command_leaves_no_trace(case):
    refused, message, accepted, follow_up = REFUSED[case]
    checker = TimingChecker()
    chip, interp, events = _observed(checker)
    with pytest.raises(DeviceStateError) as err:
        interp.run(_program(refused))
    assert str(err.value) == message
    # The reference interpreter ran only the accepted commands.
    ref_checker = TimingChecker()
    ref_chip, ref_interp, ref_events = _observed(ref_checker)
    ref_interp.run(_program(accepted))
    assert _state(chip, interp, checker, events) == _state(
        ref_chip, ref_interp, ref_checker, ref_events
    )
    result = interp.run(_program(follow_up))
    ref_result = ref_interp.run(_program(follow_up))
    assert (result.elapsed_ns, result.activations, result.refreshes) == (
        ref_result.elapsed_ns, ref_result.activations, ref_result.refreshes
    )
    assert _state(chip, interp, checker, events) == _state(
        ref_chip, ref_interp, ref_checker, ref_events
    )


def test_refused_command_still_reports_a_timing_violation_first():
    # A fifth ACT inside tFAW, to a bank whose row is still open: the
    # checker raises before the device would refuse it, as before.
    chip = make_synthetic_chip()
    interp = Interpreter(chip)
    builder = ProgramBuilder()
    for bank in (0, 4, 8, 12, 0):
        builder.act(bank, 7).wait(5.0)
    with pytest.raises(TimingViolationError, match="tFAW violation"):
        interp.run(builder.build())
    assert chip.bank(0).open_row == chip.to_physical(7)
