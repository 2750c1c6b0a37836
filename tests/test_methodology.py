"""Integration tests for the paper's methodology constraints (Section 3.1).

The paper's methodology makes three deliberate choices; each is validated
here against the simulated substrate rather than assumed:

1. no periodic REF -> no TRR interference and precise timings;
2. every experiment iteration < 60 ms < tREFW -> no retention failures;
3. no (on-die) ECC -> bitflips observed at the circuit level.
"""

import numpy as np
import pytest

from repro.bender.softmc import SoftMCSession
from repro.constants import DEFAULT_TIMINGS, ITERATION_RUNTIME_BOUND
from repro.core.experiment import CharacterizationConfig
from repro.core.honest import HonestLocationProbe
from repro.dram.datapattern import CHECKERBOARD
from repro.dram.ecc import OnDieEcc
from repro.dram.retention import RetentionModel
from repro.errors import ExperimentError
from repro.mitigations import TrrSampler
from repro.patterns import COMBINED, DOUBLE_SIDED

from repro.testing import make_synthetic_chip


def test_no_ref_means_trr_cannot_interfere():
    chip = make_synthetic_chip(theta_scale=100.0)
    session = SoftMCSession(chip)  # auto_refresh=False: methodology mode
    trr = TrrSampler(trr_every=1)
    trr.attach(session)
    prober = HonestLocationProbe(session, COMBINED, 10, 7_800.0, CHECKERBOARD)
    census = prober.probe(2_000)
    assert census.n_flips > 0
    assert trr.targeted_refreshes == 0


def test_iteration_budget_below_refresh_window():
    cfg = CharacterizationConfig()
    assert cfg.runtime_bound_ns < DEFAULT_TIMINGS.tREFW
    with pytest.raises(ExperimentError):
        CharacterizationConfig(runtime_bound_ns=DEFAULT_TIMINGS.tREFW)


def test_hammer_runtime_within_bound_has_no_retention_failures():
    retention = RetentionModel("S0", 0, n_cells=4096, weak_cell_fraction=0.01)
    bits = np.ones(4096, dtype=np.uint8)
    assert not retention.failure_mask(0, ITERATION_RUNTIME_BOUND, bits).any()
    # Violating the bound by 4x (beyond tREFW) contaminates the data.
    assert retention.failure_mask(0, 4 * ITERATION_RUNTIME_BOUND, bits).any()


def test_on_die_ecc_would_mask_isolated_bitflips():
    """Why the paper excludes on-die-ECC chips: SEC hides the isolated
    bitflips that appear at ACmin."""
    chip = make_synthetic_chip(theta_scale=100.0)
    session = SoftMCSession(chip)
    prober = HonestLocationProbe(session, DOUBLE_SIDED, 10, 7_800.0, CHECKERBOARD)
    # Find the first flip.
    n = 1
    census = prober.probe(n)
    while census.n_flips == 0 and n < 4_096:
        n *= 2
        census = prober.probe(n)
    assert census.n_flips > 0
    # Collect the raw per-row flip masks and push them through SEC.
    ecc = OnDieEcc()
    masked_total = 0
    for row in {key[0] for key in census.all_flips}:
        mask = np.zeros(chip.geometry.cols_simulated, dtype=bool)
        for r, col in census.all_flips:
            if r == row:
                mask[col] = True
        masked_total += ecc.filter_flips(mask).sum()
    assert masked_total < census.n_flips


def test_budget_scales_with_pattern_latency():
    """The same 60 ms bound allows far fewer activations at large tAggON --
    the origin of Table 2's 'No Bitflip' cells."""
    from repro.core.acmin import analyze_die
    from repro.core.stacked import build_stacked_die
    from repro.dram.rowselect import RowSelection

    chip = make_synthetic_chip(rows=256)
    stacked = build_stacked_die(
        chip, 0, RowSelection(locations_per_region=1, n_regions=1, stride=8),
        CHECKERBOARD,
    )
    small = analyze_die(stacked, DOUBLE_SIDED, 36.0, chip.model)
    large = analyze_die(stacked, DOUBLE_SIDED, 70_200.0, chip.model)
    assert small.budget_iterations() > 100 * large.budget_iterations()
