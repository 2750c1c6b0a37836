"""Tests for the paper-vs-measured report generator."""

import pytest

from repro.analysis.report import (
    ComparisonRow,
    full_report,
    table2_comparison,
    text_anchor_comparison,
)
from repro.core.bitflips import BitflipCensus
from repro.core.results import DieMeasurement, ResultSet


def meas(module, mfr, pattern, t_on, acmin, die=0):
    time_ns = None if acmin is None else acmin * (t_on + 15.0)
    return DieMeasurement(
        module_key=module,
        manufacturer=mfr,
        die=die,
        pattern=pattern,
        t_on=t_on,
        trial=0,
        acmin=acmin,
        time_to_first_ns=time_ns,
        census=BitflipCensus(),
    )


def test_comparison_row_verdicts():
    assert ComparisonRow("t", "c", 100.0, 100.0).verdict == "match"
    assert ComparisonRow("t", "c", 109.0, 100.0).verdict == "match"
    assert ComparisonRow("t", "c", 120.0, 100.0).verdict == "close"
    assert ComparisonRow("t", "c", 200.0, 100.0).verdict == "DEVIATION"
    assert ComparisonRow("t", "c", None, None).verdict == "match (No Bitflip)"
    assert "MISMATCH" in ComparisonRow("t", "c", None, 100.0).verdict
    assert "MISMATCH" in ComparisonRow("t", "c", 100.0, None).verdict


def test_relative_error():
    assert ComparisonRow("t", "c", 110.0, 100.0).relative_error == pytest.approx(0.1)
    assert ComparisonRow("t", "c", None, 100.0).relative_error is None


def test_table2_comparison_covers_all_cells():
    rows = table2_comparison(ResultSet())
    # 14 modules x 5 anchor columns.
    assert len(rows) == 70
    assert all(r.artifact == "Table 2" for r in rows)


def test_table2_comparison_matches_measurement():
    rs = ResultSet([meas("S0", "S", "double-sided", 36.0, 45_000)])
    rows = {r.cell: r for r in table2_comparison(rs)}
    row = rows["S0 RH @ 36ns"]
    assert row.measured == 45_000
    assert row.paper == 45_000
    assert row.verdict == "match"


def test_press_immune_no_bitflip_matches():
    rs = ResultSet([meas("M1", "M", "combined", 7_800.0, None)])
    rows = {r.cell: r for r in table2_comparison(rs)}
    assert rows["M1 Comb @ 7.8us"].verdict == "match (No Bitflip)"


def test_text_anchor_comparison_excludes_press_immune():
    rs = ResultSet([
        meas("M4", "M", "combined", 636.0, 10_000),
        meas("M1", "M", "combined", 636.0, 100_000, die=1),
    ])
    rows = {r.cell: r for r in text_anchor_comparison(rs)}
    row = rows["Mfr M combined @ 636ns [ms]"]
    # Only M4's measurement contributes (M1 is press-immune).
    assert row.measured == pytest.approx(10_000 * 651.0 / 1e6)


def test_full_report_renders(s0_module, fast_runner):
    results = fast_runner.characterize(
        [s0_module], [36.0, 7_800.0], trials=1
    )
    text = full_report(results)
    assert "Table 2" in text
    assert "S0 RH @ 36ns" in text
    assert "cells match within" in text
    # The calibrated RowHammer anchor must verdict as a match.
    line = next(l for l in text.splitlines() if "S0 RH @ 36ns" in l)
    assert "match" in line
