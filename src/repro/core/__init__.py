"""Characterization core: the paper's experimental methodology.

* :mod:`repro.core.stacked` -- per-die victim-cell populations stacked
  over all tested pattern locations (vectorized fast path).
* :mod:`repro.core.acmin` -- closed-form ACmin / time-to-first-bitflip /
  bitflip-census analysis.
* :mod:`repro.core.honest` -- the command-level measurement path that
  executes compiled DRAM Bender programs (cross-validated against the
  closed form in the test suite).
* :mod:`repro.core.experiment` -- configuration of one characterization
  campaign (data pattern, row selection, trials, temperature, the 60 ms
  iteration bound).
* :mod:`repro.core.engine` -- the sweep execution engine: work-list
  enumeration, (module, die) shards, serial/process/auto executors with
  deterministic canonical-order results.
* :mod:`repro.core.faults` -- fault tolerance: retry policies, transient
  vs. permanent classification, result-integrity validation, and the
  fault-injection harness the recovery tests drive.
* :mod:`repro.core.checkpoint` -- the fingerprinted checkpoint journal
  behind ``--checkpoint`` / ``--resume``.
* :mod:`repro.core.runner` -- sweeps modules x patterns x tAggON: the
  one characterization campaign entry point over the engine.
* :mod:`repro.core.overlap` / :mod:`repro.core.bitflips` -- the bitflip
  set metrics behind Figs. 5 and 6.
"""

from repro.core.bitflips import BitflipCensus, direction_fraction_1_to_0
from repro.core.stacked import RoleArrays, StackedDie, build_stacked_die, ROLE_OFFSETS
from repro.core.acmin import (
    DieAnalysis,
    DieSweepAnalyzer,
    analyze_die,
)
from repro.core.experiment import CharacterizationConfig
from repro.core.overlap import overlap_ratio
from repro.core.results import DieMeasurement, ResultSet
from repro.core.engine import (
    ProcessExecutor,
    SerialExecutor,
    SweepPlan,
    make_executor,
)
from repro.core.checkpoint import CheckpointJournal, plan_fingerprint
from repro.core.faults import FaultPlan, FaultSpec, RetryPolicy, RunReport
from repro.core.runner import CharacterizationRunner

__all__ = [
    "BitflipCensus",
    "direction_fraction_1_to_0",
    "RoleArrays",
    "StackedDie",
    "build_stacked_die",
    "ROLE_OFFSETS",
    "DieAnalysis",
    "DieSweepAnalyzer",
    "analyze_die",
    "CharacterizationConfig",
    "overlap_ratio",
    "DieMeasurement",
    "ResultSet",
    "SweepPlan",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "CheckpointJournal",
    "plan_fingerprint",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "RunReport",
    "CharacterizationRunner",
]
