"""Tests for the command-level disturbance tracker."""

import numpy as np
import pytest

from repro.disturb.population import PopulationParams, victim_row_cells
from repro.disturb.tracker import _MEMO_CAP, DisturbanceTracker
from repro.dram.bank import Bank
from repro.dram.topology import BankGeometry

from tests.conftest import make_synthetic_model

N_ROWS = 32
N_CELLS = 256


def make_tracker(model=None):
    model = model or make_synthetic_model()
    params = PopulationParams(theta_scale=50.0)

    def provider(row):
        return victim_row_cells("T", 0, row, N_CELLS, params)

    return DisturbanceTracker(model, provider, N_ROWS), provider


def test_no_flips_initially():
    tracker, provider = make_tracker()
    bits = np.ones(N_CELLS, dtype=np.uint8)
    assert not tracker.flip_mask(5, bits).any()
    assert list(tracker.disturbed_rows()) == []


def test_activation_disturbs_both_neighbors():
    tracker, _ = make_tracker()
    tracker.on_activation(10, t_on=7_800.0, solo=False)
    assert list(tracker.disturbed_rows()) == [9, 11]


def test_edge_rows_have_one_neighbor():
    tracker, _ = make_tracker()
    tracker.on_activation(0, t_on=36.0, solo=False)
    assert list(tracker.disturbed_rows()) == [1]
    tracker.reset()
    tracker.on_activation(N_ROWS - 1, t_on=36.0, solo=False)
    assert list(tracker.disturbed_rows()) == [N_ROWS - 2]


def test_press_flips_charged_cells_and_direction():
    # Hammer disabled: only the press mechanism can flip, and it flips
    # *charged* cells exclusively (1->0 in true cells).
    import dataclasses

    model = dataclasses.replace(make_synthetic_model(), hammer=0.0)
    tracker, provider = make_tracker(model)
    victim = 11
    cells = provider(victim)
    ones = np.ones(N_CELLS, dtype=np.uint8)
    for _ in range(400):
        tracker.on_activation(10, t_on=7_800.0, solo=False)
    flips = tracker.flip_mask(victim, ones)
    assert flips.any()
    charged = cells.charged_mask(ones)
    assert (charged[flips]).all()
    # Cells storing 0 in an anti-cell (charged, stores 0) can flip 0->1;
    # true cells storing 1 flip 1->0.  Either way: charged only.
    assert not tracker.flip_mask(victim, 1 - ones)[~cells.anti].any()


def test_hammer_flips_discharged_cells():
    # Press disabled at tRAS (press_loss(36 ns) == 0 by construction):
    # only the hammer mechanism acts, and it flips *discharged* cells.
    tracker, provider = make_tracker()
    victim = 11
    cells = provider(victim)
    zeros = np.zeros(N_CELLS, dtype=np.uint8)
    for _ in range(400):
        tracker.on_activation(10, t_on=36.0, solo=False)
    flips = tracker.flip_mask(victim, zeros)
    assert flips.any()
    charged = cells.charged_mask(zeros)
    assert (~charged[flips]).all()


def test_hypothesis1_asymmetry():
    """Press from the aggressor below (victim above) dominates (alpha<1)."""
    import dataclasses

    model = dataclasses.replace(make_synthetic_model(alpha=0.3), hammer=0.0)
    tracker, provider = make_tracker(model)
    ones = np.ones(N_CELLS, dtype=np.uint8)
    for _ in range(4):
        tracker.on_activation(10, t_on=70_200.0, solo=False)
    flips_above = tracker.flip_mask(11, ones).sum()  # dominant side
    flips_below = tracker.flip_mask(9, ones).sum()  # alpha-attenuated side
    assert flips_above > flips_below


def test_solo_hammer_weaker_than_interleaved():
    tracker_solo, _ = make_tracker()
    tracker_duo, _ = make_tracker()
    zeros = np.zeros(N_CELLS, dtype=np.uint8)
    for _ in range(300):
        tracker_solo.on_activation(10, t_on=36.0, solo=True)
        tracker_duo.on_activation(10, t_on=36.0, solo=False)
    assert (
        tracker_solo.flip_mask(11, zeros).sum()
        < tracker_duo.flip_mask(11, zeros).sum()
    )


def test_reset_single_row():
    tracker, _ = make_tracker()
    ones = np.ones(N_CELLS, dtype=np.uint8)
    for _ in range(400):
        tracker.on_activation(10, t_on=7_800.0, solo=False)
    assert tracker.flip_mask(11, ones).any()
    tracker.reset([11])
    assert not tracker.flip_mask(11, ones).any()
    # Row 9 still carries its disturbance.
    assert 9 in tracker.disturbed_rows()


def test_reset_all():
    tracker, _ = make_tracker()
    tracker.on_activation(10, t_on=36.0, solo=False)
    tracker.reset()
    assert list(tracker.disturbed_rows()) == []


def test_accumulation_is_linear():
    """Half the activations -> no cell that needed the full count flips."""
    tracker_full, _ = make_tracker()
    tracker_half, _ = make_tracker()
    ones = np.ones(N_CELLS, dtype=np.uint8)
    for i in range(400):
        tracker_full.on_activation(10, t_on=7_800.0, solo=False)
        if i < 200:
            tracker_half.on_activation(10, t_on=7_800.0, solo=False)
    full = tracker_full.flip_mask(11, ones)
    half = tracker_half.flip_mask(11, ones)
    assert half.sum() <= full.sum()
    assert (full | ~half).all()  # half's flips are a subset of full's


# ----------------------------------------------------------- memoization


class ReferenceTracker:
    """Recomputes every activation's increment from scratch."""

    def __init__(self, model, provider, n_rows):
        self.model = model
        self.provider = provider
        self.n_rows = n_rows
        self.gain = {}
        self.loss = {}

    def on_activation(self, aggressor_row, t_on, solo, temperature_c):
        m = self.model
        h = m.hammer_kick(temperature_c)
        p = m.press_loss(t_on, temperature_c)
        alpha = m.alpha(t_on)
        gamma = m.solo_press_gamma(t_on) if solo else 1.0
        delta = m.solo_hammer_factor if solo else 1.0
        for victim, agg_above in ((aggressor_row - 1, True), (aggressor_row + 1, False)):
            if not 0 <= victim < self.n_rows:
                continue
            cells = self.provider(victim)
            if agg_above:
                gain = cells.g_h_hi * h
                loss = cells.g_p_hi * alpha * p
            else:
                gain = cells.g_h_lo * h
                loss = cells.g_p_lo * p
            if solo:
                gain = gain * delta * cells.solo_hammer_mod
                loss = loss * gamma**cells.solo_press_exp
            self.gain.setdefault(victim, np.zeros(cells.n_cells))[:] += gain
            self.loss.setdefault(victim, np.zeros(cells.n_cells))[:] += loss

    def flip_mask(self, row, stored_bits):
        cells = self.provider(row)
        flips = np.zeros(cells.n_cells, dtype=bool)
        if row not in self.gain:
            return flips
        charged = cells.charged_mask(stored_bits)
        flips |= ~charged & (self.gain[row] >= cells.theta)
        flips |= charged & (self.loss[row] >= cells.theta)
        return flips


T_ONS = (
    36.0,
    636.0,
    7_800.0,
    float(np.nextafter(7_800.0, np.inf)),
    float(np.nextafter(7_800.0, 0.0)),
    70_200.0,
)
ROWS = (0, 1, 2, 10, N_ROWS - 3, N_ROWS - 2, N_ROWS - 1)
TEMPERATURES = (50.0, 45.0, 85.0)


@pytest.mark.parametrize("seed", range(4))
def test_memoized_tracker_is_bit_identical_to_recomputation(seed):
    tracker, provider = make_tracker()
    reference = ReferenceTracker(make_synthetic_model(), provider, N_ROWS)
    rng = np.random.default_rng(seed)
    for _ in range(600):
        row = int(rng.choice(ROWS))
        t_on = T_ONS[rng.integers(len(T_ONS))]
        solo = bool(rng.integers(2))
        temperature = TEMPERATURES[rng.integers(len(TEMPERATURES))]
        tracker.on_activation(row, t_on, solo=solo, temperature_c=temperature)
        reference.on_activation(row, t_on, solo, temperature)
    assert sorted(tracker.disturbed_rows()) == sorted(reference.gain)
    for row in range(N_ROWS):
        if row in reference.gain:
            assert np.array_equal(tracker._acc[row][0], reference.gain[row])
            assert np.array_equal(tracker._acc[row][1], reference.loss[row])
        for stored in (
            np.zeros(N_CELLS, dtype=np.uint8),
            np.ones(N_CELLS, dtype=np.uint8),
            rng.integers(0, 2, N_CELLS).astype(np.uint8),
        ):
            assert np.array_equal(
                tracker.flip_mask(row, stored), reference.flip_mask(row, stored)
            )


def test_memo_stays_within_cap():
    tracker, _ = make_tracker()
    for i in range(2 * _MEMO_CAP + 7):
        tracker.on_activation(1 + i % (N_ROWS - 2), 636.0 + i, solo=bool(i % 2))
        assert len(tracker._increments) <= _MEMO_CAP


def test_untouched_row_needs_no_cells():
    calls = []
    params = PopulationParams(theta_scale=50.0)

    def provider(row):
        calls.append(row)
        return victim_row_cells("T", 0, row, N_CELLS, params)

    tracker = DisturbanceTracker(make_synthetic_model(), provider, N_ROWS)
    bank = Bank(BankGeometry(rows=N_ROWS, cols_simulated=N_CELLS), tracker=tracker)
    bank.activate(20, now=0.0)
    bank.write(20, np.ones(N_CELLS, dtype=np.uint8), now=10.0)
    bank.precharge(now=36.0)
    calls.clear()
    bank.activate(20, now=100.0)
    assert (bank.read(20, now=110.0) == 1).all()
    assert not tracker.flip_mask(5, np.ones(N_CELLS, dtype=np.uint8)).any()
    assert calls == []
