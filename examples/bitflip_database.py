#!/usr/bin/env python3
"""Build and query a bitflip database (the artifact-release workflow).

Characterizes one calibrated module at the anchor points with the
paper's three trials, stores every bitflip into SQLite, and runs the
post-hoc analyses downstream studies need: unique-flip counts,
cross-trial repeatability, spatial victim-role breakdown, and the
crossover summary of the combined pattern's advantage.

Run:  python examples/bitflip_database.py [module] [db-path]
"""

import sys

from repro import CharacterizationConfig, CharacterizationRunner, build_module
from repro.analysis.crossover import convergence_point, peak_advantage
from repro.analysis.spatial import role_breakdown
from repro.core.flipdb import BitflipDatabase


def main() -> None:
    module_key = sys.argv[1] if len(sys.argv) > 1 else "S0"
    db_path = sys.argv[2] if len(sys.argv) > 2 else ":memory:"

    config = CharacterizationConfig()
    module = build_module(module_key, config)
    runner = CharacterizationRunner(config)
    t_values = [36.0, 636.0, 7_800.0, 70_200.0]
    print(f"Characterizing {module_key} ({module.n_dies} dies, 3 trials) ...")
    results = runner.characterize([module], t_values, trials=3)

    with BitflipDatabase(db_path) as db:
        stored = db.store_results(results)
        print(f"Stored {stored} measurements into {db_path!r}.")
        print()
        print("Unique bitflips across dies and trials (combined pattern):")
        for t_on in t_values:
            flips = db.unique_flips(module_key, "combined", t_on)
            print(f"  tAggON {t_on:8.0f} ns: {len(flips):5d} unique flips")
        print()
        print("Cross-trial repeatability (die 0, combined):")
        for t_on in t_values:
            value = db.repeatability(module_key, 0, "combined", t_on)
            shown = "n/a" if value is None else f"{value:.2f}"
            print(f"  tAggON {t_on:8.0f} ns: {shown}")

    stacked = runner.stacked_die(module, 0)
    census = next(
        m.census
        for m in results.where(die=0, pattern="combined", t_on=7_800.0)
    )
    breakdown = role_breakdown(census, stacked.base_rows)
    print()
    print(f"Victim-role breakdown @ 7.8 us (die 0): "
          f"{breakdown.inner} inner / {breakdown.outer} outer / "
          f"{breakdown.elsewhere} elsewhere "
          f"({breakdown.inner_fraction:.0%} inner)")

    peak = peak_advantage(results)
    conv = convergence_point(results, tolerance=0.35)
    print()
    if peak is not None:
        print(f"Combined-pattern peak advantage: {peak.advantage:.0%} at "
              f"tAggON = {peak.t_on:g} ns")
    if conv is not None:
        print(f"Combined converges to single-sided from tAggON = {conv:g} ns")


if __name__ == "__main__":
    main()
