"""Command-line interface: ``repro-characterize``.

Runs a characterization campaign over calibrated modules and prints the
requested artifact:

* ``table1`` -- the chip inventory (static);
* ``table2`` -- the per-module anchor table (measured vs paper);
* ``fig4``   -- time-to-first-bitflip and ACmin series vs tAggON;
* ``fig5``   -- bitflip-direction fractions vs tAggON;
* ``fig6``   -- bitflip-set overlap vs tAggON;
* ``mitigate`` -- the mitigation stress-evaluation campaign (required
  PARA probability / Graphene threshold vs tAggON, Section 5);
* ``export`` -- run the sweep through the streaming flip sink and seal
  the population into per-module shards + a digest manifest;
* ``query``  -- per-(module, pattern, tAggON) rollups (and
  repeatability) over a previously exported or sunk population;
* ``patterns`` -- the pattern-DSL toolbox: ``patterns list`` prints the
  registry, ``patterns compile NAME|FILE ...`` lowers specs to DRAM
  Bender hammer-loop programs (disassembly + sha256), and ``patterns
  lint NAME|FILE ...`` prints each spec's derived schedule facts.

Campaign modes accept ``--patterns`` to sweep DSL patterns (registry
names like ``half-double`` or ``4-sided-combined``) alongside or
instead of the paper's three.

Example::

    repro-characterize fig4 --modules S0 H0 M0 --points 7 --trials 1
    repro-characterize patterns compile combined half-double --t-on 636
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import signal
import sys
from typing import List, Optional

import numpy as np

from repro.analysis.ascii_plot import ascii_line_plot
from repro.analysis.figures import fig4_series, fig5_series, fig6_series, series_to_csv
from repro.analysis.tables import format_table, table1_inventory, table2_rows
from repro.constants import T_AGG_ON_MAX, T_AGG_ON_TRAS
from repro.core.experiment import CharacterizationConfig
from repro.core.faults import RetryPolicy
from repro.core.runner import CharacterizationRunner
from repro.dram.profiles import MODULE_PROFILES
from repro.errors import ReproError
from repro.obs import JsonlTrace, MetricsReport, Observability, StderrProgress
from repro.patterns import ALL_PATTERNS
from repro.system import build_modules


def sweep_points(n: int, t_max: float = T_AGG_ON_MAX) -> List[float]:
    """Log-spaced tAggON sweep from tRAS to ``t_max``, anchors included."""
    points = set(np.geomspace(T_AGG_ON_TRAS, t_max, n).tolist())
    points.update((36.0, 636.0, 7_800.0, 70_200.0))
    return sorted(t for t in points if t <= t_max + 1e-9)


def _at_least(convert, lowest: float, what: str):
    """An argparse converter: a finite ``convert(value)`` >= ``lowest``."""
    def parse(value: str):
        try:
            number = convert(value)
        except ValueError:
            number = math.nan
        if not (math.isfinite(number) and number >= lowest):
            raise argparse.ArgumentTypeError(
                f"{what} must be a number >= {lowest:g}, got {value!r}"
            )
        return number
    return parse


def _workers_arg(value: str):
    """``--workers`` converter: 'auto' or a non-negative worker count."""
    if value.strip().lower() == "auto":
        return "auto"
    return _at_least(int, 0, "worker count (or 'auto')")(value)


def _timeout_arg(value: str) -> float:
    """``--shard-timeout`` converter: a finite number of seconds > 0."""
    seconds = _at_least(float, 0, "per-shard timeout (s)")(value)
    if seconds == 0:
        raise argparse.ArgumentTypeError(
            f"per-shard timeout (s) must be > 0, got {value!r}"
        )
    return seconds


#: The characterization-sweep flags and their defaults.  The parser
#: leaves them ``None`` so the modes that sweep no modules can tell a
#: given flag from a default one.
_SWEEP_DEFAULTS = {
    "modules": tuple(sorted(MODULE_PROFILES)),
    "points": 9,
    "t_max": 70_200.0,
    "trials": 1,
}

#: Modes that refuse the sweep flags, and why.  ``query`` also refuses
#: ``--patterns``, which ``mitigate`` sweeps.
_NO_SWEEP = {
    "mitigate": "it sweeps its own tAggON points on the --chips profiles",
    "query": "it reads a stored population; filter it with --module, "
    "--die, --pattern or --t-on",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-characterize",
        description="Combined RowHammer + RowPress characterization (simulated)",
    )
    parser.add_argument(
        "artifact",
        choices=(
            "table1", "table2", "fig4", "fig5", "fig6", "report", "campaign",
            "mitigate", "validate", "export", "query", "patterns",
        ),
        help="which paper artifact to regenerate, 'mitigate' to run the "
        "mitigation stress-evaluation campaign, 'validate' to check "
        "previously written artifacts, 'export' to stream a campaign "
        "into a sharded out-of-core population, 'query' to compute "
        "rollups over a stored population, or 'patterns' to "
        "list/compile/lint pattern-DSL specs",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="validate mode: artifacts to check (result dumps, checkpoint "
        "journals, metrics reports, JSONL traces, benchmark records, "
        "pattern-spec bundles, or their .sha256 sidecars; exits 2 if "
        "any fails).  patterns mode: an action (list, compile, lint) "
        "followed by registry names and/or spec JSON files",
    )
    parser.add_argument(
        "--modules",
        nargs="+",
        default=None,
        help="module keys to characterize (default: all 14)",
    )
    parser.add_argument(
        "--points",
        type=_at_least(int, 0, "point count"),
        default=None,
        help="tAggON sweep points (figures; default: 9)",
    )
    parser.add_argument(
        "--t-max",
        type=_at_least(float, T_AGG_ON_TRAS, "largest tAggON (ns)"),
        default=None,
        help="largest tAggON (ns; default: 70200)",
    )
    parser.add_argument(
        "--trials",
        type=_at_least(int, 1, "trial count"),
        default=None,
        help="trials per measurement (default: 1)",
    )
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default="auto",
        help="parallel sweep workers: 'auto' (default) calibrates a probe "
        "and picks serial or a pool sized to the machine; 0/1: serial; "
        "N>1: process pool sharded by (module, die); results are "
        "identical to serial either way",
    )
    parser.add_argument(
        "--csv", action="store_true", help="print CSV instead of ASCII plots"
    )
    parser.add_argument(
        "--patterns",
        nargs="+",
        metavar="NAME",
        default=None,
        help="access patterns the campaign sweeps: paper names "
        "(single-sided, double-sided, combined) and/or DSL registry "
        "names (half-double, decoy-flood, hammer-press-hybrid, "
        "retention-assisted, N-sided-pressed, N-sided-combined); "
        "default: the paper's three",
    )
    parser.add_argument(
        "--base-row",
        type=int,
        metavar="ROW",
        default=None,
        help="patterns compile mode: physical base row the spec is "
        "placed on (default: the smallest row that keeps the whole "
        "footprint on the bank)",
    )
    parser.add_argument(
        "--chips",
        nargs="+",
        default=["E0"],
        help="evaluation chip profiles for the mitigate campaign "
        "(default: E0)",
    )
    parser.add_argument(
        "--mitigations",
        nargs="+",
        default=["para", "graphene"],
        help="mechanisms the mitigate campaign searches critical "
        "parameters for: para, graphene, and/or their press-weighted "
        "variants para-press / graphene-press (default: para graphene)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="journal completed shards to PATH (JSONL, updated atomically) "
        "so an interrupted campaign can be resumed",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from an existing --checkpoint journal: journaled "
        "shards are skipped and merged (results are bit-identical to an "
        "uninterrupted run); a journal from a different campaign is "
        "rejected by plan fingerprint",
    )
    parser.add_argument(
        "--max-retries",
        type=_at_least(int, 0, "retry count"),
        default=2,
        help="retries per shard after a transient failure (timeout, worker "
        "crash); exponential backoff between attempts (default: 2)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=_timeout_arg,
        default=None,
        metavar="SECONDS",
        help="per-shard wall-clock timeout; a timed-out shard is retried "
        "(default: no timeout)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the campaign metrics report (shard timings, retry and "
        "degradation counters, cache hit rates) to PATH as JSON "
        "(written atomically at exit)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream line-oriented progress (per-shard completion with "
        "campaign ETA, retries, degradations) to stderr",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="append every campaign event (shard start/finish/retry, "
        "resume, degradation) to PATH as JSONL, one strict-JSON event "
        "per line",
    )
    parser.add_argument(
        "--profile",
        metavar="DIR",
        default=None,
        help="profile in-process shard execution under cProfile and dump "
        "per-shard .pstats files into DIR: every shard under --workers "
        "0|1, only the auto probe shard when auto picks the pool",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="arm the trust layer: stamp sha256 digest sidecars on every "
        "written artifact (checkpoint, metrics, trace, --dump), embed "
        "provenance, and self-check the campaign's results against the "
        "paper's physical invariants before exiting (exit 2 on violation)",
    )
    parser.add_argument(
        "--dump",
        metavar="PATH",
        default=None,
        help="write the campaign's ResultSet to PATH as JSON "
        "(repro-results-v1, written atomically; with --validate a "
        ".sha256 sidecar is stamped)",
    )
    parser.add_argument(
        "--dump-census",
        action="store_true",
        help="include per-measurement bitflip censuses in --dump "
        "(larger, but needed to rebuild Figs. 5-6 from the dump)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="export mode: directory the population shards and their "
        "manifest.json are sealed into (required for export)",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="SQLite flip store: where export streams measurements "
        "during the sweep (default: <out>/flips.sqlite), and what query "
        "reads (required for query)",
    )
    parser.add_argument(
        "--module",
        metavar="KEY",
        default=None,
        help="query mode: restrict to one module key",
    )
    parser.add_argument(
        "--die",
        type=int,
        metavar="N",
        default=None,
        help="query mode: restrict to one die index",
    )
    parser.add_argument(
        "--pattern",
        metavar="NAME",
        default=None,
        help="query mode: restrict to one access pattern (paper or DSL "
        "name)",
    )
    parser.add_argument(
        "--t-on",
        type=float,
        metavar="NS",
        default=None,
        help="query mode: restrict to one tAggON (ns); matching is "
        "quantization-robust, so a round-tripped float still hits its "
        "sweep point",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="configure the root logging level (engine degradations and "
        "checkpoint repairs are logged through the logging module)",
    )
    return parser


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a nonzero exit code on library errors.

    SIGTERM takes the Ctrl-C path: every shard journaled so far stays
    durable, so ``--checkpoint ... --resume`` finishes the campaign
    bit-identically.  A closed stdout (``| head``) exits 141 without a
    traceback.
    """
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        return _run(argv)
    except ReproError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except KeyboardInterrupt:
        # The pool and the checkpoint journal's lock are released as
        # the interrupt unwinds; exit on the shell convention for SIGINT
        # (128 + 2).
        sys.stderr.write("interrupted\n")
        return 130
    except BrokenPipeError:
        # The reader went away.  Point stdout at the null device so the
        # shutdown flush cannot raise again, and exit on the shell
        # convention for SIGPIPE (128 + 13).
        sys.stdout = open(os.devnull, "w")
        return 141
    finally:
        signal.signal(signal.SIGTERM, previous)


def _resilience(args, runner: CharacterizationRunner) -> dict:
    """Shared fault-tolerance kwargs of every sweep invocation."""
    policy = RetryPolicy(
        max_retries=args.max_retries, shard_timeout=args.shard_timeout
    )
    return {
        "policy": policy,
        "checkpoint": args.checkpoint,
        "resume": args.resume,
        "validate": args.validate,
    }


def _observability(args) -> Optional[Observability]:
    """Build the campaign observability bundle from the CLI flags.

    Returns ``None`` when every observability flag is off, so the
    engine runs its zero-overhead uninstrumented path.
    """
    if not (args.metrics or args.progress or args.trace or args.profile):
        return None
    reporters = []
    if args.progress:
        reporters.append(StderrProgress())
    if args.trace:
        reporters.append(JsonlTrace(args.trace, digest=args.validate))
    return Observability(reporters=reporters, profile_dir=args.profile)


def _maybe_dump(args, results) -> None:
    """Honour ``--dump PATH`` (digest-stamped under ``--validate``)."""
    if args.dump:
        results.dump(
            args.dump, include_census=args.dump_census, digest=args.validate
        )


def _report_summary(runner) -> None:
    """Surface retries/resume/degradation on stderr when they happened.

    ``runner`` is anything with a ``last_report`` (the characterization
    runner or the mitigation campaign).
    """
    report = runner.last_report
    if report is None:
        return
    if report.n_resumed or report.n_retries or report.degradations:
        sys.stderr.write(report.summary() + "\n")


def _run_validate(args, obs) -> int:
    """The ``validate`` mode: check artifacts, exit 0 (clean) or 2."""
    from repro.validate import validate_paths

    if not args.paths:
        sys.stderr.write(
            "error: validate requires at least one artifact PATH\n"
        )
        return 2
    outcomes = validate_paths(args.paths)
    n_failed = 0
    for path, report, error in outcomes:
        if error is None:
            sys.stdout.write(f"PASS {path} ({report.describe()})\n")
            for warning in report.warnings:
                sys.stdout.write(f"  warning: {warning}\n")
            if obs is not None:
                obs.metrics.inc("validate.passed")
        else:
            n_failed += 1
            sys.stdout.write(f"FAIL {path}: {error}\n")
            if obs is not None:
                obs.metrics.inc("validate.failed")
    sys.stdout.write(
        f"{len(outcomes) - n_failed}/{len(outcomes)} artifact(s) valid\n"
    )
    return 2 if n_failed else 0


def _run(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.log_level is not None:
        logging.basicConfig(level=getattr(logging, args.log_level.upper()))
    if args.paths and args.artifact not in ("validate", "patterns"):
        sys.stderr.write(
            f"error: artifact paths only apply to the validate and "
            f"patterns modes, not {args.artifact!r}\n"
        )
        return 2
    given = [name for name in _SWEEP_DEFAULTS if getattr(args, name) is not None]
    if args.artifact == "query" and args.patterns is not None:
        given.append("patterns")
    if args.artifact in _NO_SWEEP and given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        sys.stderr.write(
            f"error: {args.artifact} does not take {flags}: "
            f"{_NO_SWEEP[args.artifact]}\n"
        )
        return 2
    for name, default in _SWEEP_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.artifact == "patterns":
        return _run_patterns(args)
    if args.resume and not args.checkpoint:
        # A usage error, reported on the argparse convention: message on
        # stderr, exit code 2 (pinned by tests/test_obs.py).
        sys.stderr.write("error: --resume requires --checkpoint PATH\n")
        return 2
    if args.artifact == "table1":
        sys.stdout.write(format_table(table1_inventory()))
        return 0

    obs = _observability(args)
    try:
        if args.artifact == "validate":
            return _run_validate(args, obs)
        if args.artifact == "mitigate":
            return _run_mitigate(args, obs)
        if args.artifact == "export":
            return _run_export(args, obs)
        if args.artifact == "query":
            return _run_query(args, obs)
        return _run_campaign(args, obs)
    finally:
        if obs is not None:
            if args.metrics:
                MetricsReport.build(obs, provenance=args.validate).write(
                    args.metrics, digest=args.validate
                )
            obs.close()


def _campaign_patterns(args):
    """The pattern set ``--patterns`` selects (paper's three by default).

    Names resolve through the DSL registry
    (:func:`repro.patterns.dsl.resolve_patterns`), so paper names map to
    the canonical singletons and family/N-sided names to their specs; a
    typo surfaces as a :class:`~repro.errors.PatternSpecError` listing
    the registry.
    """
    if not args.patterns:
        return ALL_PATTERNS
    from repro.patterns.dsl import resolve_patterns

    return resolve_patterns(args.patterns)


def _load_pattern_operand(operand: str):
    """One ``patterns`` mode operand: a spec JSON file or a registry name.

    A path that exists on disk is parsed as JSON -- either a single
    serialized spec or a ``repro-patternspec-v1`` bundle (contributing
    every spec it carries); anything else resolves through the DSL
    registry.  Returns a list of patterns.
    """
    import json

    from repro.errors import ArtifactInvalidError
    from repro.patterns.dsl import PatternSpec, resolve_pattern

    if os.path.exists(operand):
        with open(operand, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ArtifactInvalidError(
                    f"{operand}: spec file is not parseable JSON ({exc})"
                ) from exc
        if isinstance(payload, dict) and "specs" in payload:
            from repro.validate.schema import validate_patternspec_payload

            validate_patternspec_payload(payload, source=operand)
            return [PatternSpec.from_dict(spec) for spec in payload["specs"]]
        return [PatternSpec.from_dict(payload)]
    return [resolve_pattern(operand)]


def _run_patterns(args) -> int:
    """The ``patterns`` mode: list / compile / lint DSL specs.

    * ``list``: every registry name with its derived schedule facts;
    * ``compile``: lower each operand to its DRAM Bender hammer-loop
      program (one iteration), print the disassembly and its sha256 --
      the same digests the golden-program snapshot tests pin;
    * ``lint``: print each operand's derived facts (victim footprint,
      activations and latency per iteration, solo flag) as JSON.
    """
    import hashlib
    import json

    from repro.bender.assembler import disassemble
    from repro.constants import DEFAULT_TIMINGS
    from repro.patterns import compile_hammer_loop
    from repro.patterns.dsl import (
        describe_pattern,
        registry_names,
        resolve_pattern,
    )

    actions = ("list", "compile", "lint")
    if not args.paths or args.paths[0] not in actions:
        sys.stderr.write(
            "error: patterns requires an action: patterns "
            "list | compile NAME|FILE ... | lint NAME|FILE ...\n"
        )
        return 2
    action, operands = args.paths[0], args.paths[1:]
    t_on = args.t_on if args.t_on is not None else DEFAULT_TIMINGS.tRAS

    if action == "list":
        if operands:
            sys.stderr.write("error: patterns list takes no operands\n")
            return 2
        for name in registry_names():
            facts = describe_pattern(resolve_pattern(name), t_on=t_on)
            sys.stdout.write(
                f"{name}: {facts['acts_per_iteration']} act(s)/iteration, "
                f"victims at {list(facts['victim_offsets'])}, "
                f"{facts['iteration_latency_ns']:g} ns/iteration at "
                f"tAggON={t_on:g} ns\n"
            )
        return 0

    if not operands:
        sys.stderr.write(
            f"error: patterns {action} requires at least one registry "
            f"name or spec JSON file\n"
        )
        return 2
    patterns = [p for operand in operands for p in _load_pattern_operand(operand)]
    geometry_rows = CharacterizationConfig().geometry.rows
    for pattern in patterns:
        facts = describe_pattern(pattern, t_on=t_on)
        if action == "lint":
            sys.stdout.write(json.dumps(facts, sort_keys=True) + "\n")
            continue
        base = args.base_row if args.base_row is not None else facts["base_row"]
        placement = pattern.place(
            base, t_on, rows_in_bank=geometry_rows, timings=DEFAULT_TIMINGS
        )
        program = compile_hammer_loop(placement, iterations=1)
        text = disassemble(program)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        sys.stdout.write(
            f"# {pattern.name} @ base row {base}, tAggON={t_on:g} ns, "
            f"1 iteration\n"
            f"# aggressors: {list(placement.aggressors)}\n"
            f"# victims: {list(placement.victims)}\n"
            f"# sha256: {digest}\n"
            f"{text}\n"
        )
    return 0


def _run_mitigate(args, obs: Optional[Observability]) -> int:
    """The ``mitigate`` mode: required mitigation strength vs tAggON."""
    from repro.analysis.tables import (
        mitigation_strength_series,
        mitigation_table_rows,
        mitigation_to_csv,
    )
    from repro.core.engine import make_executor
    from repro.mitigations.campaign import MitigationCampaign

    campaign = MitigationCampaign(
        executor=make_executor(args.workers), obs=obs,
        backend="sim",
    )
    policy = RetryPolicy(
        max_retries=args.max_retries, shard_timeout=args.shard_timeout
    )
    results = campaign.run(
        chips=args.chips,
        mitigations=args.mitigations,
        patterns=_campaign_patterns(args),
        policy=policy,
        checkpoint=args.checkpoint,
        resume=args.resume,
        validate=args.validate,
    )
    _report_summary(campaign)
    if args.dump:
        results.dump(args.dump, digest=args.validate)
    if args.csv:
        sys.stdout.write(mitigation_to_csv(results))
        return 0
    sys.stdout.write(format_table(mitigation_table_rows(results)))
    for mechanism in args.mitigations:
        series = mitigation_strength_series(results, mechanism)
        if not any(y == y for s in series for y in s.means):
            continue  # every point defeated or flip-free: nothing to plot
        threshold = mechanism.startswith("graphene")
        sys.stdout.write(
            ascii_line_plot(
                series,
                logy=threshold,
                title=(
                    f"Required {mechanism} "
                    f"{'threshold' if threshold else 'probability'} "
                    f"vs tAggON"
                ),
            )
        )
    return 0


def _run_export(args, obs: Optional[Observability]) -> int:
    """The ``export`` mode: sweep -> streaming sink -> sealed shards.

    Runs the figure-style sweep with every completed shard streamed
    into an out-of-core SQLite store (``--store``, batched WAL
    transactions, safe under Ctrl-C), then seals the population into
    per-module ``repro-results-v1`` shards plus a
    ``repro-flipshards-v1`` manifest under ``--out``.  The manifest's
    ``results_digest`` comes from the records as the shards are written
    and is bit-identical to the in-memory digest of the same campaign,
    which the CI population job asserts.
    """
    import pathlib

    from repro.core.flipdb import FlipSink
    from repro.obs import MetricsRegistry

    if not args.out:
        sys.stderr.write("error: export requires --out DIR\n")
        return 2
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    store = args.store if args.store else str(out / "flips.sqlite")
    metrics = obs.metrics if obs is not None else MetricsRegistry()

    config = CharacterizationConfig()
    modules = _build_modules(args.modules, config, obs)
    runner = CharacterizationRunner(config, obs=obs, backend="sim")
    t_values = sweep_points(args.points, args.t_max)
    with FlipSink(store, metrics=metrics) as sink:
        results = runner.characterize(
            modules, t_values, _campaign_patterns(args), trials=args.trials,
            workers=args.workers, sink=sink, **_resilience(args, runner),
        )
        _report_summary(runner)
        _maybe_dump(args, results)
        info = sink.db.export_shards(out, metrics=metrics)
    counters = metrics.counters_with_prefix("sink.")
    sys.stdout.write(
        f"streamed {counters.get('sink.rows_written', 0)} measurement(s) "
        f"in {counters.get('sink.batches', 0)} batch(es) into {store}\n"
    )
    if counters.get("sink.rows_skipped"):
        sys.stdout.write(
            f"skipped {counters['sink.rows_skipped']} already-stored "
            f"measurement(s) (resumed or re-run campaign)\n"
        )
    sys.stdout.write(
        f"sealed {counters.get('sink.shards_sealed', 0)} shard(s), "
        f"{counters.get('sink.bytes_sealed', 0)} byte(s) under {out}\n"
    )
    for shard in info.shards:
        sys.stdout.write(
            f"  {shard.name}: {shard.n_measurements} measurement(s), "
            f"{shard.n_bytes} byte(s), sha256:{shard.sha256[:12]}...\n"
        )
    sys.stdout.write(f"manifest: {info.manifest_path}\n")
    sys.stdout.write(f"results_digest: {info.results_digest}\n")
    return 0


def _run_query(args, obs: Optional[Observability]) -> int:
    """The ``query`` mode: rollups over a stored population.

    Reads the store's measurements (optionally filtered by
    ``--module/--die/--pattern/--t-on``, censuses left out) into a
    :class:`~repro.core.results.ResultSet` and prints per-(module,
    pattern, tAggON) ACmin and time rollups with exact p50/p90 ACmin
    (:func:`~repro.analysis.tables.population_rows`), plus, when a
    (module, pattern, tAggON) point is pinned, the per-die cross-trial
    repeatability of every die at that point.
    """
    from repro.analysis.tables import population_rows
    from repro.core.flipdb import BitflipDatabase

    if not args.store:
        sys.stderr.write("error: query requires --store PATH\n")
        return 2
    if not os.path.exists(args.store):
        sys.stderr.write(f"error: flip store {args.store} does not exist\n")
        return 2
    with BitflipDatabase(args.store) as db:
        results = db.measurements(
            module=args.module, die=args.die, pattern=args.pattern,
            t_on=args.t_on, with_census=False,
        )
        if obs is not None:
            obs.metrics.inc("query.rows_scanned", len(results))
        if not len(results):
            sys.stdout.write("no measurements match the filters\n")
            return 0
        sys.stdout.write(
            f"{len(results)} measurement(s) across "
            f"{len(results.module_keys())} module(s) in {args.store}\n"
        )
        sys.stdout.write(format_table(population_rows(results)))
        if args.module and args.pattern and args.t_on is not None:
            dies = sorted(
                {
                    m.die
                    for m in db.iter_measurements(
                        module=args.module, pattern=args.pattern,
                        t_on=args.t_on, with_census=False,
                    )
                }
            )
            lines = []
            for die in dies:
                value = db.repeatability(
                    args.module, die, args.pattern, args.t_on
                )
                lines.append(
                    f"  die {die}: "
                    + ("n/a (fewer than 2 trials)" if value is None else f"{value:.3f}")
                )
            if lines:
                sys.stdout.write(
                    f"repeatability of {args.module}/{args.pattern} @ "
                    f"{args.t_on:g} ns (|intersection|/|union| across "
                    f"trials):\n" + "\n".join(lines) + "\n"
                )
    return 0


def _build_modules(
    keys: List[str], config: CharacterizationConfig,
    obs: Optional[Observability],
) -> list:
    """``build_modules``, timed as ``profile.setup.calibrate`` when
    observability is on (calibration is nearly all of it)."""
    if obs is None:
        return build_modules(keys, config)
    with obs.profile("setup.calibrate"):
        return build_modules(keys, config)


def _run_campaign(args, obs: Optional[Observability]) -> int:
    config = CharacterizationConfig()
    modules = _build_modules(args.modules, config, obs)
    runner = CharacterizationRunner(config, obs=obs, backend="sim")

    if args.artifact == "table2":
        results = runner.characterize(
            modules, [36.0, 7_800.0, 70_200.0], _campaign_patterns(args),
            trials=args.trials,
            workers=args.workers, **_resilience(args, runner),
        )
        _report_summary(runner)
        _maybe_dump(args, results)
        sys.stdout.write(format_table(table2_rows(results)))
        return 0

    if args.artifact in ("report", "campaign"):
        from repro.analysis.report import full_report

        # ``campaign`` is the paper's §3 workflow: the runner's
        # mandatory preflight (thermal settle, mapping check, ...) and
        # the Table 2 anchors.
        t_values = (
            [36.0, 7_800.0, 70_200.0]
            if args.artifact == "campaign"
            else [36.0, 636.0, 7_800.0, 70_200.0]
        )
        results = runner.characterize(
            modules, t_values, _campaign_patterns(args), trials=args.trials,
            workers=args.workers, **_resilience(args, runner),
        )
        _report_summary(runner)
        _maybe_dump(args, results)
        if args.artifact == "campaign":
            checks = runner.last_report.preflight["checks"]
            for module in modules:
                thermal = checks[module.key]["thermal"]
                n = sum(1 for m in results if m.module_key == module.key)
                sys.stdout.write(
                    f"{module.key}: settled in {thermal['settle_steps']} s "
                    f"at {thermal['temperature_c']:.2f} C; "
                    f"{n} measurements\n"
                )
        sys.stdout.write(full_report(results))
        return 0

    t_values = sweep_points(args.points, args.t_max)
    results = runner.characterize(
        modules, t_values, _campaign_patterns(args), trials=args.trials,
        workers=args.workers, **_resilience(args, runner),
    )
    _report_summary(runner)
    _maybe_dump(args, results)
    if args.artifact == "fig4":
        for metric, logy in (("time", False), ("acmin", True)):
            series = fig4_series(results, metric=metric)
            if args.csv:
                sys.stdout.write(series_to_csv(series))
            else:
                title = (
                    "Fig. 4: time to first bitflip (ms) vs tAggON"
                    if metric == "time"
                    else "Fig. 4: ACmin vs tAggON"
                )
                sys.stdout.write(ascii_line_plot(series, logy=logy, title=title))
    elif args.artifact == "fig5":
        series = fig5_series(results)
        if args.csv:
            sys.stdout.write(series_to_csv(series))
        else:
            sys.stdout.write(
                ascii_line_plot(
                    series, title="Fig. 5: fraction of 1->0 bitflips (combined)"
                )
            )
    else:  # fig6
        for conventional in ("single-sided", "double-sided"):
            series = fig6_series(results, conventional)
            if args.csv:
                sys.stdout.write(series_to_csv(series))
            else:
                sys.stdout.write(
                    ascii_line_plot(
                        series,
                        title=f"Fig. 6: overlap of combined vs {conventional}",
                    )
                )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
