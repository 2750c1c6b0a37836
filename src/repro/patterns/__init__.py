"""DRAM access patterns: the paper's three, and the pattern DSL.

The paper characterizes three fixed patterns (Fig. 3):

* :data:`single_sided` -- one aggressor row held open ``tAggON`` per
  activation (RowPress; pure single-sided RowHammer when
  ``tAggON == tRAS``).
* :data:`double_sided` -- two aggressor rows alternately held open
  ``tAggON`` each (double-sided RowPress / RowHammer).
* :data:`combined` -- the paper's contribution: two alternating aggressors
  where R0 is held open ``tAggON`` (RowPress half) and R2 only ``tRAS``
  (RowHammer half).

Everything beyond the fixed menu goes through the declarative pattern
DSL (:mod:`repro.patterns.dsl`) -- the canonical entry point for
arbitrary aggressor layouts, per-aggressor on-time schedules, decoy
rows, refresh gaps, and repeat counts.  A :class:`~.dsl.PatternSpec` is
duck-compatible with :class:`AccessPattern`: it *places* onto a base
physical row exactly the same way, *compiles* to DRAM Bender programs
through the same compiler, and exposes the same closed-form
contributions, so specs flow through the engine and the mitigation
evaluator unchanged.  The paper's three patterns (and the
many-sided generalization) re-expressed in the DSL compile to
byte-identical programs -- see ``tests/test_dsl_differential.py``.

Patterns *place* onto a base physical row (producing aggressor/victim row
sets), *compile* to DRAM Bender programs for the honest execution path,
and expose their per-iteration disturbance contributions for the
closed-form analysis.
"""

from repro.patterns.base import (
    AccessPattern,
    PatternKind,
    PatternPlacement,
    VictimContribution,
    placement_contributions,
    COMBINED,
    DOUBLE_SIDED,
    SINGLE_SIDED,
    ALL_PATTERNS,
)
from repro.patterns.compiler import compile_hammer_loop, compile_init, compile_readback
from repro.patterns.dsl import (
    AggressorSpec,
    PatternBuilder,
    PatternSpec,
    PATTERN_FAMILIES,
    combined_spec,
    decoy_flood_spec,
    describe_pattern,
    double_sided_spec,
    half_double_spec,
    hammer_press_hybrid_spec,
    n_sided_spec,
    registry_names,
    resolve_pattern,
    resolve_patterns,
    retention_assisted_spec,
    single_sided_spec,
)
from repro.patterns.nsided import ManySidedPattern

__all__ = [
    "ManySidedPattern",
    "AccessPattern",
    "PatternKind",
    "PatternPlacement",
    "VictimContribution",
    "placement_contributions",
    "SINGLE_SIDED",
    "DOUBLE_SIDED",
    "COMBINED",
    "ALL_PATTERNS",
    "compile_hammer_loop",
    "compile_init",
    "compile_readback",
    "AggressorSpec",
    "PatternBuilder",
    "PatternSpec",
    "PATTERN_FAMILIES",
    "combined_spec",
    "decoy_flood_spec",
    "describe_pattern",
    "double_sided_spec",
    "half_double_spec",
    "hammer_press_hybrid_spec",
    "n_sided_spec",
    "registry_names",
    "resolve_pattern",
    "resolve_patterns",
    "retention_assisted_spec",
    "single_sided_spec",
]
