"""Tests for figure-series and table generation."""

from dataclasses import replace

import pytest

from repro.analysis.ascii_plot import ascii_line_plot
from repro.analysis.figures import (
    Fig4Series,
    fig4_series,
    fig5_series,
    fig6_series,
    series_to_csv,
)
from repro.analysis.tables import (
    format_table,
    population_rows,
    table1_inventory,
    table2_rows,
)
from repro.core.bitflips import BitflipCensus
from repro.core.results import DieMeasurement, ResultSet


def meas(pattern, t_on, acmin=100, mfr="S", module="S0", die=0,
         ones=frozenset({(1, 1)})):
    return DieMeasurement(
        module_key=module,
        manufacturer=mfr,
        die=die,
        pattern=pattern,
        t_on=t_on,
        trial=0,
        acmin=acmin,
        time_to_first_ns=acmin * 1000.0,
        census=BitflipCensus(frozenset(ones), frozenset()),
    )


@pytest.fixture
def small_results():
    rs = ResultSet()
    for pattern in ("combined", "double-sided", "single-sided"):
        for t_on, acmin in ((36.0, 100), (7_800.0, 40)):
            rs.add(meas(pattern, t_on, acmin))
            rs.add(meas(pattern, t_on, acmin * 2, mfr="H", module="H0"))
    return rs


def test_fig4_series_grouping(small_results):
    series = fig4_series(small_results, metric="acmin")
    labels = {s.label for s in series}
    assert "S/combined" in labels
    assert "H/double-sided" in labels
    assert len(series) == 6  # 2 manufacturers x 3 patterns


def test_fig4_series_values(small_results):
    series = {s.label: s for s in fig4_series(small_results, metric="acmin")}
    s = series["S/combined"]
    assert s.t_values == [36.0, 7_800.0]
    assert s.means == [100, 40]


def test_fig4_time_metric(small_results):
    series = {s.label: s for s in fig4_series(small_results, metric="time")}
    assert series["S/combined"].means[0] == pytest.approx(0.1)  # ms


def test_fig4_rejects_unknown_metric(small_results):
    with pytest.raises(ValueError):
        fig4_series(small_results, metric="bogus")


def test_fig5_series_per_module(small_results):
    series = {s.label: s for s in fig5_series(small_results)}
    assert set(series) == {"S0", "H0"}
    # All flips in the fixture are 1->0.
    assert series["S0"].means == [1.0, 1.0]


def test_fig6_series(small_results):
    series = fig6_series(small_results, "double-sided")
    # Identical censuses in the fixture: overlap 1 everywhere.
    for s in series:
        assert all(m == 1.0 for m in s.means)


def test_series_to_csv(small_results):
    csv = series_to_csv(fig4_series(small_results, metric="acmin"))
    lines = csv.strip().splitlines()
    assert lines[0] == "label,t_agg_on_ns,mean,std,n,n_total"
    assert len(lines) == 1 + 12


def test_table1_has_all_modules():
    rows = table1_inventory()
    assert len(rows) == 14
    assert sum(int(r["chips"]) for r in rows) == 84


def test_table2_rows_include_paper_reference(small_results):
    rows = table2_rows(small_results)
    s0 = next(r for r in rows if r["module"] == "S0")
    assert s0["RH @ 36ns [acmin]"] == (100.0, 100)
    assert s0["RH @ 36ns [paper acmin]"] == (45_000, 22_600)


def test_population_rows_exact_order_statistics():
    rs = ResultSet()
    for die, acmin in enumerate([50, 10, 40, 20, 30, 100, 90, 80, 70, 60]):
        rs.add(meas("combined", 36.0, acmin, die=die))
    rs.add(replace(meas("combined", 7_800.0), acmin=None,
                   time_to_first_ns=None))
    first, second = population_rows(rs)
    assert (first["group"], first["tAggON"]) == ("S0", "36 ns")
    assert (first["n"], first["flipped"]) == (10, 10)
    # p = sorted[ceil(q n) - 1]: the 5th and 9th smallest of 10.
    assert (first["acmin p50"], first["acmin p90"]) == ("50", "90")
    assert first["acmin avg (min)"] == (55.0, 10)
    assert (second["n"], second["flipped"]) == (1, 0)
    assert (second["acmin p50"], second["acmin p90"]) == ("-", "-")
    assert second["acmin avg (min)"] is None
    assert "No Bitflip" in format_table([second])


def test_format_table_renders_no_bitflip():
    text = format_table([{"a": None, "b": (10_000, 500)}])
    assert "No Bitflip" in text
    assert "10.0K" in text


def test_ascii_plot_renders():
    series = Fig4Series(label="demo")
    series.t_values = [36.0, 636.0, 7_800.0]
    from repro.analysis.aggregate import AggregatePoint

    series.points = [AggregatePoint(1.0, 0.0, 1, 1),
                     AggregatePoint(5.0, 0.0, 1, 1),
                     AggregatePoint(2.0, 0.0, 1, 1)]
    text = ascii_line_plot([series], title="demo plot")
    assert "demo plot" in text
    assert "o = demo" in text
    assert "36" in text


def test_ascii_plot_empty():
    series = Fig4Series(label="empty")
    assert "(no data)" in ascii_line_plot([series])
