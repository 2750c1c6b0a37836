"""Shared fixtures: small synthetic devices and a calibrated module.

Most tests use *synthetic* chips with low flip thresholds so command-level
ACmin searches finish in milliseconds; calibrated-module fixtures (which
run the Table 2 calibration solver) are session-scoped and reused.
"""

from __future__ import annotations

import pytest

from repro.core.experiment import CharacterizationConfig
from repro.core.runner import CharacterizationRunner
from repro.dram.rowselect import RowSelection
from repro.dram.topology import BankGeometry
from repro.system import build_module
from repro.testing import make_synthetic_chip, make_synthetic_model

__all__ = ["make_synthetic_chip", "make_synthetic_model"]


@pytest.fixture
def synthetic_model() -> CalibratedDisturbanceModel:
    return make_synthetic_model()


@pytest.fixture
def synthetic_chip(synthetic_model) -> Chip:
    return make_synthetic_chip(model=synthetic_model)


@pytest.fixture(scope="session")
def fast_config() -> CharacterizationConfig:
    """A small but calibration-complete configuration."""
    return CharacterizationConfig(
        geometry=BankGeometry(rows=2048, cols_simulated=128),
        selection=RowSelection(locations_per_region=12, n_regions=3, stride=8),
        trials=1,
    )


@pytest.fixture(scope="session")
def s0_module(fast_config):
    """Calibrated Samsung S0 module (session-scoped; calibration cached)."""
    return build_module("S0", fast_config)


@pytest.fixture(scope="session")
def m4_module(fast_config):
    """Calibrated Micron M4 module (anti-cell-majority layout)."""
    return build_module("M4", fast_config)


@pytest.fixture(scope="session")
def m1_module(fast_config):
    """Calibrated Micron M1 module (press-immune: RowPress never flips)."""
    return build_module("M1", fast_config)


@pytest.fixture(scope="session")
def fast_runner(fast_config) -> CharacterizationRunner:
    return CharacterizationRunner(fast_config)
