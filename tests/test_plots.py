"""Tidy plot data and SVG emission."""

import pytest

from techknee.plots import _case_svg, write_tidy_csv
from techknee.series import AnnualSeries


def series(mapping, unit):
    return AnnualSeries.from_mapping(mapping, unit)


def test_tidy_rows_sorted_by_series_then_year(tmp_path):
    curves = {
        "b": series({1991: 2.0, 1990: 1.0}, "count-per-year"),
        "a": series({1990: 3.0}, "minutes-per-year"),
    }
    path = tmp_path / "tidy.csv"
    write_tidy_csv(path, curves)
    assert path.read_bytes() == (b"year,series,value,unit\r\n1990,a,3.0,minutes-per-year\r\n"
                                 b"1990,b,1.0,count-per-year\r\n1991,b,2.0,count-per-year\r\n")


def test_write_tidy_csv_round_trips_values(tmp_path):
    curves = {"x": series({1990: 1.0 / 3.0}, "count-per-year")}
    path = tmp_path / "tidy.csv"
    write_tidy_csv(path, curves)
    lines = path.read_text().splitlines()
    assert lines[0] == "year,series,value,unit"
    assert float(lines[1].split(",")[2]) == 1.0 / 3.0


def test_case_svg_structure():
    perf = {
        "replacement": series({1990: 0.01, 2000: 100.0}, "media-units-per-real-dollar"),
        "target": series({1990: 2.0, 2000: 2.0}, "media-units-per-real-dollar"),
    }
    adoption = series({1990: 0.0, 2000: 0.5}, "dimensionless-share")
    svg = _case_svg(perf, adoption, "demo")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 3  # two performance curves + adoption
    assert "demo" in svg
    assert "log scale" in svg


def test_case_svg_is_deterministic():
    perf = {"r": series({1990: 1.0, 1991: 2.0}, "count-per-year")}
    adoption = series({1990: 0.1, 1991: 0.2}, "dimensionless-share")
    assert _case_svg(perf, adoption, "t") == _case_svg(perf, adoption, "t")


def test_empty_plot_rejected():
    share = series({1990: 0.5}, "dimensionless-share")
    with pytest.raises(ValueError, match="^nothing to plot$"):
        _case_svg({}, AnnualSeries((), "dimensionless-share"), "empty")
    for performance in ({}, {"r": series({1990: 0.0, 1991: 0.0}, "media-units-per-real-dollar")}):
        with pytest.raises(ValueError, match="^no positive performance value to plot on a log scale$"):
            _case_svg(performance, share, "empty")
