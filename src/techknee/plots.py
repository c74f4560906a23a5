"""Tidy plot-data emission and a minimal static SVG renderer.

Curves are written as tidy CSV (one row per year per curve) so any
plotting tool can consume them; the SVG is a dependency-free two-panel
chart (log-scale performance over a linear adoption share) for quick
inspection. Output is deterministic: no timestamps, fixed formatting.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from collections.abc import Mapping

from .series import AnnualSeries


def write_tidy_csv(path: str | Path, curves: Mapping[str, AnnualSeries]) -> None:
    """Tidy CSV: a `year,series,value,unit` row per year of each curve, in
    name order; `repr` values read back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("year", "series", "value", "unit"))
        for name in sorted(curves):
            series = curves[name]
            writer.writerows((year, name, repr(value), series.unit) for year, value in series)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")

_WIDTH = 720
_PANEL_HEIGHT = 220
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 30
_GAP = 50


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _polyline(points: list[tuple[float, float]], color: str) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'


def _text(x: float, y: float, s: str, anchor: str = "start", size: int = 11) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
        f'font-size="{size}" text-anchor="{anchor}">{s}</text>'
    )


def _case_svg(
    performance: Mapping[str, AnnualSeries],
    adoption: AnnualSeries,
    title: str,
) -> str:
    """Two stacked panels: log-scale performance curves, linear adoption share."""
    years = sorted({y for s in performance.values() for y, _ in s} | {y for y, _ in adoption})
    if not years:
        raise ValueError("nothing to plot")
    y_min, y_max = years[0], years[-1]
    span = max(1, y_max - y_min)
    plot_width = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT

    def x_of(year: float) -> float:
        return _MARGIN_LEFT + (year - y_min) / span * plot_width

    values = [v for s in performance.values() for _, v in s if v > 0]
    if not values:
        raise ValueError("no positive performance value to plot on a log scale")
    log_lo = math.floor(math.log10(min(values)))
    log_hi = math.ceil(math.log10(max(values)))
    log_span = max(1, log_hi - log_lo)

    def y_perf(value: float) -> float:
        frac = (math.log10(value) - log_lo) / log_span
        return _MARGIN_TOP + _PANEL_HEIGHT * (1 - frac)

    adoption_top = _MARGIN_TOP + _PANEL_HEIGHT + _GAP

    def y_share(value: float) -> float:
        return adoption_top + _PANEL_HEIGHT * (1 - value)

    height = adoption_top + _PANEL_HEIGHT + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        _text(_WIDTH / 2, 18, title, anchor="middle", size=14),
    ]

    # performance panel: decade gridlines and curves
    for decade in range(log_lo, log_hi + 1):
        gy = y_perf(10.0 ** decade)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{_fmt(gy)}" x2="{_WIDTH - _MARGIN_RIGHT}" '
            f'y2="{_fmt(gy)}" stroke="#dddddd"/>'
        )
        parts.append(_text(_MARGIN_LEFT - 6, gy + 4, f"1e{decade}", anchor="end", size=10))
    for i, name in enumerate(sorted(performance)):
        series = performance[name]
        color = _PALETTE[i % len(_PALETTE)]
        pts = [(x_of(y), y_perf(v)) for y, v in series if v > 0]
        parts.append(_polyline(pts, color))
        parts.append(_text(_MARGIN_LEFT + 8 + 150 * i, _MARGIN_TOP + 12, name, size=11))
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 8 + 150 * i + 8}" y1="{_MARGIN_TOP + 8}" '
            f'x2="{_MARGIN_LEFT + 4 + 150 * i}" y2="{_MARGIN_TOP + 8}" stroke="{color}" stroke-width="3"/>'
        )
    parts.append(_text(_MARGIN_LEFT, _MARGIN_TOP - 8, "performance (media units per real dollar, log scale)", size=11))

    # adoption panel
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        gy = y_share(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{_fmt(gy)}" x2="{_WIDTH - _MARGIN_RIGHT}" '
            f'y2="{_fmt(gy)}" stroke="#dddddd"/>'
        )
        parts.append(_text(_MARGIN_LEFT - 6, gy + 4, f"{int(tick * 100)}%", anchor="end", size=10))
    pts = [(x_of(y), y_share(v)) for y, v in adoption]
    parts.append(_polyline(pts, "#2ca02c"))
    parts.append(_text(_MARGIN_LEFT, adoption_top - 8, "adoption share of total usage", size=11))

    # shared year axis labels
    step = max(1, span // 8)
    for year in range(y_min, y_max + 1, step):
        parts.append(_text(x_of(year), height - 12, str(year), anchor="middle", size=10))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_case_svg(
    path: str | Path,
    performance: Mapping[str, AnnualSeries],
    adoption: AnnualSeries,
    title: str,
) -> None:
    Path(path).write_text(_case_svg(performance, adoption, title), encoding="utf-8")
