"""The benchmark's three workloads.

Each workload turns a seed into its inputs, sets up (builds the
calibrated modules it needs, runs the preflight where it has one), runs
one timed repetition, and reduces the outputs to the digests that
``digests.json`` pins.  A seed permutes the order of the work inside each
shard (patterns and tAggON values; the honest searches), never the shard
order itself, so pool scheduling stays comparable across seeds.  Every
digest is order-independent, so each seed has the same pinned outputs.

* ``campaign``: the population campaign in two stages on the same
  modules.  The sweep stage is the ``BENCH_sweep.json`` campaign -- every
  module and die, the three paper patterns, the 7-point tAggON sweep and
  then the Table 2 anchors on the same runner; compute layers, the
  process pool and the measurement memo do the work, with no disk.  The
  durable stage runs the anchors again on a fresh runner, streamed into a
  file-backed flip store with a checkpoint journal, then sealed into
  shards: the same compute layers with writes beside them.
* ``honest``: command-level ACmin searches (ramp plus bisection, no
  budget cap) on one die.  Interpreter, timing checker and disturbance
  tracker dominate; it bypasses stack builds, the analyzer and the pool.
* ``mitigate``: the mitigation campaign.  The only workload with ACT
  observers attached, and the second campaign kind that uses the pool.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.system
from repro.analysis.aggregate import (
    aggregate_overlap,
    aggregate_time_ms,
    exclude_press_immune,
)
from repro.backend.base import build_session
from repro.bender.softmc import SoftMCSession
from repro.constants import T_AGG_ON_9TREFI, T_AGG_ON_TREFI
from repro.core import acmin as acmin_mod
from repro.core import honest
from repro.core.experiment import CharacterizationConfig
from repro.core.engine import make_executor
from repro.core.flipdb import FlipSink
from repro.core.results import ResultSet
from repro.core.runner import CharacterizationRunner
from repro.disturb import calibration
from repro.dram import chip as chip_mod
from repro.dram.chip import Chip
from repro.dram.profiles import MANUFACTURERS, MODULE_PROFILES
from repro.dram.rowselect import RowSelection
from repro.dram.topology import BankGeometry
from repro.errors import PreflightError
from repro.mitigations.campaign import MITIGATION_T_VALUES, MitigationCampaign
from repro.patterns import ALL_PATTERNS
from repro.patterns.dsl import resolve_patterns
from repro.validate.invariants import mitigation_results_digest, results_digest

#: Where workloads write (the durable store, traced spans, run records).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: The characterization configuration of ``BENCH_sweep.json``.
CONFIG = CharacterizationConfig(
    geometry=BankGeometry(rows=4096, cols_simulated=256),
    selection=RowSelection(locations_per_region=24, n_regions=3, stride=8),
    trials=1,
)


@dataclass(frozen=True)
class Scope:
    """The size of every workload's input."""

    modules: Tuple[str, ...]
    sweep_t: Tuple[float, ...]
    anchor_t: Tuple[float, ...]
    trials: int
    honest_module: str
    honest_patterns: Tuple[str, ...]
    honest_t: Tuple[float, ...]
    chips: Tuple[str, ...]
    mitigations: Tuple[str, ...]
    mitigation_patterns: Tuple[str, ...]
    mitigation_t: Tuple[float, ...]


_PAPER_PATTERNS = tuple(p.name for p in ALL_PATTERNS)

SCOPES: Dict[str, Scope] = {
    # The paper's protocol: 84 dies in 14 modules, the Table 2 anchors at
    # 36 ns / 7.8 us / 70.2 us, 3 trials per measurement.
    "full": Scope(
        modules=tuple(sorted(MODULE_PROFILES)),
        sweep_t=(36.0, 120.0, 636.0, 2_000.0, 7_800.0, 30_000.0, 70_200.0),
        anchor_t=(36.0, T_AGG_ON_TREFI, T_AGG_ON_9TREFI),
        trials=3,
        honest_module="S0",
        honest_patterns=_PAPER_PATTERNS + ("half-double", "decoy-flood"),
        honest_t=(T_AGG_ON_TREFI, T_AGG_ON_9TREFI),
        chips=("E0", "E1"),
        mitigations=("para", "graphene", "para-press", "graphene-press"),
        mitigation_patterns=_PAPER_PATTERNS,
        mitigation_t=MITIGATION_T_VALUES,
    ),
    # One module, one tAggON, one search: the self-test's input.  S3 keeps
    # the failing mapping preflight in view.
    "tiny": Scope(
        modules=("S3",),
        sweep_t=(T_AGG_ON_9TREFI,),
        anchor_t=(T_AGG_ON_9TREFI,),
        trials=1,
        honest_module="S0",
        honest_patterns=("double-sided",),
        honest_t=(T_AGG_ON_TREFI,),
        chips=("E0",),
        mitigations=("para",),
        mitigation_patterns=("double-sided",),
        mitigation_t=(T_AGG_ON_TREFI,),
    ),
}


@dataclass
class Prepared:
    """What set-up leaves for the timed repetitions."""

    modules: list = field(default_factory=list)
    preflights: int = 0
    preflight_failed: List[str] = field(default_factory=list)


@dataclass
class Outcome:
    """One timed repetition's outputs.

    ``ops`` counts the operations the repetition attempted (shards,
    searches or mitigation points); ``results`` holds characterization
    ResultSets by pass name; ``extra`` carries per-layer numbers that
    spans cannot see (bytes written, rows stored, search runs).  The
    wall seconds of each named part of the repetition (a campaign pass,
    the shard export, one honest search) land in the caller's ``Laps``.
    """

    ops: int
    results: Dict[str, ResultSet] = field(default_factory=dict)
    records: list = field(default_factory=list)
    executors: Dict[str, Optional[dict]] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)


def clear_caches() -> None:
    """Drop the process-wide caches so every repetition does full work."""
    calibration._calibrate_cached.cache_clear()
    chip_mod._cached_cells.cache_clear()
    acmin_mod._cached_role_weights.cache_clear()


def _shuffled(items: Sequence, rng: random.Random) -> tuple:
    items = list(items)
    rng.shuffle(items)
    return tuple(items)


def _sha256_json(records: Sequence) -> str:
    lines = sorted(json.dumps(r, sort_keys=True, allow_nan=False) for r in records)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _build(keys: Sequence[str]) -> list:
    return repro.system.build_modules(list(keys), CONFIG) if keys else []


class Laps:
    """Wall seconds of the named parts of one repetition, in order.

    With a ``gauge`` (a callable that reads the host's current speed), a
    reading is taken before the first part and after every part, outside
    the parts' times: ``readings[i]`` and ``readings[i + 1]`` bracket
    part ``i``.
    """

    def __init__(self, gauge: Optional[Callable[[], float]] = None) -> None:
        self.parts: Dict[str, float] = {}
        self.readings: List[float] = []
        self._gauge = gauge
        if gauge is not None:
            self.readings.append(gauge())
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        """Close the part running since the previous lap (or creation)."""
        self.parts[name] = time.perf_counter() - self._last
        if self._gauge is not None:
            self.readings.append(self._gauge())
        self._last = time.perf_counter()


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""

    def before_rep(self) -> None:
        """Reset on-disk state before a repetition (outside its timing)."""


class Campaign(Workload):
    name = "campaign"

    def __init__(self, scope: Scope, seed: int) -> None:
        rng = random.Random(seed)
        self.scope = scope
        self.patterns = _shuffled(ALL_PATTERNS, rng)
        self.sweep_t = _shuffled(scope.sweep_t, rng)
        self.anchor_t = _shuffled(scope.anchor_t, rng)

    @property
    def out_dir(self) -> Path:
        return OUT_DIR / "durable"

    def setup(self) -> Prepared:
        prepared = Prepared(modules=_build(self.scope.modules))
        for module in prepared.modules:
            # One session per module, so one module's failed preflight
            # cannot colour the device health another module sees.
            prepared.preflights += 1
            try:
                build_session("sim").ensure_preflight(module, CONFIG)
            except PreflightError:
                prepared.preflight_failed.append(module.key)
        prepared.preflight_failed.sort()
        return prepared

    def before_rep(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)

    def _characterize(self, runner, prepared: Prepared, t_values, workers, **kwargs):
        return runner.characterize(
            prepared.modules, t_values, self.patterns,
            trials=self.scope.trials, workers=workers, **kwargs,
        )

    def run(self, prepared: Prepared, workers, laps: Laps) -> Outcome:
        runner = CharacterizationRunner(CONFIG)
        sweep = self._characterize(runner, prepared, self.sweep_t, workers)
        laps.lap("sweep")
        first = runner.last_report
        anchors = self._characterize(runner, prepared, self.anchor_t, workers)
        laps.lap("anchors")
        second = runner.last_report

        journal = self.out_dir / "journal.jsonl"
        runner = CharacterizationRunner(CONFIG)
        sink = FlipSink(self.out_dir / "flips.sqlite")
        try:
            durable = self._characterize(
                runner, prepared, self.anchor_t, workers, checkpoint=journal, sink=sink
            )
            laps.lap("durable")
            export = sink.db.export_shards(self.out_dir / "shards")
        finally:
            sink.close()
        laps.lap("export")
        third = runner.last_report
        return Outcome(
            ops=first.n_shards + second.n_shards + third.n_shards,
            results={"sweep": sweep, "anchors": anchors, "durable": durable},
            executors={
                "sweep": first.auto_decision,
                "anchors": second.auto_decision,
                "durable": third.auto_decision,
            },
            extra={
                "flipdb.rows": sum(m.census.n_flips for m in durable),
                "flipdb.bytes": export.n_bytes,
                "checkpoint.bytes": journal.stat().st_size,
            },
            digests={"manifest": export.results_digest},
        )

    def digest(self, outcome: Outcome) -> Dict[str, str]:
        digests = {name: results_digest(rs) for name, rs in outcome.results.items()}
        return dict(digests, **outcome.digests)


class Honest(Workload):
    name = "honest"

    def __init__(self, scope: Scope, seed: int) -> None:
        rng = random.Random(seed)
        self.scope = scope
        self.searches = _shuffled(
            [
                (pattern, t_on)
                for pattern in resolve_patterns(scope.honest_patterns)
                for t_on in scope.honest_t
            ],
            rng,
        )

    def setup(self) -> Prepared:
        return Prepared(modules=_build([self.scope.honest_module]))

    def run(self, prepared: Prepared, workers, laps: Laps) -> Outcome:
        (module,) = prepared.modules
        die = module.chip(0)
        base_row = CONFIG.selection.base_rows(die.geometry)[0]
        records = []
        for pattern, t_on in self.searches:
            # A pristine die per search: no state from an earlier search
            # (whose order the seed picks) can leak into this one.
            chip = Chip(
                module_key=die.module_key,
                die_index=die.die_index,
                geometry=die.geometry,
                model=die.model,
                population=die.population,
                n_banks=die.n_banks,
                on_die_ecc=die.on_die_ecc,
                mapping=die.mapping,
            )
            found = honest.measure_location_honest(
                SoftMCSession(chip), pattern, base_row, t_on, CONFIG.data_pattern,
                timings=CONFIG.timings, runtime_bound_ns=CONFIG.runtime_bound_ns,
            )
            records.append(
                [
                    pattern.name,
                    t_on,
                    found.acmin,
                    found.iterations,
                    found.probes,
                    sorted(found.census.flips_1_to_0),
                    sorted(found.census.flips_0_to_1),
                ]
            )
            laps.lap(f"{pattern.name}@{t_on:g}")
        return Outcome(ops=len(records), records=records)

    def digest(self, outcome: Outcome) -> Dict[str, str]:
        return {"searches": _sha256_json(outcome.records)}


class Mitigate(Workload):
    name = "mitigate"

    def __init__(self, scope: Scope, seed: int) -> None:
        rng = random.Random(seed)
        self.scope = scope
        self.t_values = _shuffled(scope.mitigation_t, rng)

    def setup(self) -> Prepared:
        return Prepared()  # evaluation chips are synthetic: nothing to build

    def run(self, prepared: Prepared, workers, laps: Laps) -> Outcome:
        campaign = MitigationCampaign(executor=make_executor(workers))
        points = campaign.run(
            chips=self.scope.chips,
            mitigations=self.scope.mitigations,
            t_values=self.t_values,
            patterns=resolve_patterns(self.scope.mitigation_patterns),
        )
        laps.lap("campaign")
        return Outcome(
            ops=len(points),
            records=list(points),
            executors={"mitigate": campaign.last_report.auto_decision},
            extra={"mitigations.search_runs": sum(p.n_runs for p in points)},
        )

    def digest(self, outcome: Outcome) -> Dict[str, str]:
        return {"points": mitigation_results_digest(outcome.records)}


WORKLOADS = {w.name: w for w in (Campaign, Honest, Mitigate)}


# ----------------------------------------------------------------- fidelity


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def table2_max_rel_err(anchors: ResultSet) -> float:
    """Largest relative gap of a per-module mean ACmin to Table 2.

    Covers the cells the I6 drift invariant compares: full-population,
    uncensored anchor cells with a published average (double-sided at
    36 ns against the RowHammer column, double-sided and combined at
    7.8 / 70.2 us against the RowPress and combined columns).
    """
    worst = 0.0
    for key in anchors.module_keys():
        profile = MODULE_PROFILES[key]
        module = anchors.where(module_key=key)
        for pattern in ("double-sided", "combined"):
            for t_on in module.t_values():
                cell = module.where(pattern=pattern, t_on=t_on)
                values = [m.acmin for m in cell]
                if not values or None in values:
                    continue
                if len({m.die for m in cell}) < profile.n_dies:
                    continue
                if math.isclose(t_on, 36.0):
                    published = profile.acmin_rh36 if pattern == "double-sided" else None
                else:
                    table = (
                        profile.acmin_rp if pattern == "double-sided" else profile.acmin_combined
                    )
                    published = next(
                        (v for t, v in table.items() if math.isclose(t, t_on)), None
                    )
                if published is None:
                    continue
                mean = sum(values) / len(values)
                worst = max(worst, abs(mean - published[0]) / published[0])
    return worst


def fidelity(sweep: ResultSet, anchors: ResultSet) -> Dict[str, float]:
    """The paper-fidelity numbers, including both documented deviations.

    ``obs3_residual_70us.<mfr>`` is the signed relative gap of the
    combined pattern's mean time to first bitflip to single-sided
    RowPress at 70.2 us (press-responsive dies; the paper measures +3 to
    +4 %).  ``ss_overlap_70us.<mfr>`` is the Fig. 6 overlap of combined
    vs single-sided at 70.2 us (the paper reports > 0.75).
    """
    out = {"fidelity.table2_max_rel_err": table2_max_rel_err(anchors)}
    responsive = exclude_press_immune(sweep)
    for mfr in MANUFACTURERS:
        def mean_time(pattern: str) -> float:
            return aggregate_time_ms(
                responsive.where(manufacturer=mfr, pattern=pattern, t_on=T_AGG_ON_9TREFI)
            ).mean

        combined, single = mean_time("combined"), mean_time("single-sided")
        out[f"fidelity.obs3_residual_70us.{mfr}"] = _finite((combined - single) / single)
        overlap = aggregate_overlap(
            sweep.where(manufacturer=mfr, pattern="combined", t_on=T_AGG_ON_9TREFI),
            sweep.where(manufacturer=mfr, pattern="single-sided", t_on=T_AGG_ON_9TREFI),
        ).mean
        out[f"fidelity.ss_overlap_70us.{mfr}"] = _finite(overlap)
    return out
