"""Exponential improvement-curve fitting and event detection.

Fits are ordinary least squares on (year - t0, ln value), the standard
convention for improvement curves drawn on semilog performance plots.
Crossovers and adoption knees are detected on the raw annual series; the
fitted variants intersect two fitted curves in closed form.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DegenerateFitError, FitError, UnitMismatchError
from .series import AnnualSeries, align

_LN_FLOAT_MAX = math.log(sys.float_info.max)  # e^x overflows a float above it

class ExpFit(namedtuple("ExpFit", "log_a k window n_points r_squared")):
    """Fitted curve ln value(t) = log_a + k * (t - window[0]).

    `log_a` is the natural log of the fitted level at the first window
    year, `k` the continuous per-year rate, `r_squared` the log-space
    coefficient of determination. The level itself, e^log_a, may lie
    beyond a float's range.
    """

    __slots__ = ()

    def __new__(cls, log_a: float, k: float, window: tuple[int, int], n_points: int,
                r_squared: float) -> ExpFit:
        if n_points < 2:
            raise ValueError("a fit needs at least two points")
        if window[0] > window[1]:
            raise ValueError("window start exceeds window end")
        return super().__new__(cls, log_a, k, window, n_points, r_squared)


CrossoverResult = namedtuple("CrossoverResult", "year fractional_year", defaults=(None,))
CrossoverResult.__doc__ = """First year the replacement's performance reaches the target's.

`fractional_year` is set by `crossover_fitted` only. Absent events carry
year=None.
"""


def fit_exponential(series: AnnualSeries, window: tuple[int | None, int | None] | None = None) -> ExpFit:
    """Log-space OLS fit of an annual series.

    Args:
        series: positive values; non-positive values inside the window are
            an error (their log is undefined).
        window: optional (from_year, to_year) bounds, inclusive; None on
            either side leaves that side open.

    A year beyond ±2^53, past the integers a float holds exactly, raises
    FitError.
    """
    from_year, to_year = window if window is not None else (None, None)
    if from_year is not None and to_year is not None and from_year > to_year:
        raise FitError(f"window start {from_year} exceeds window end {to_year}")
    pairs = [
        (y, v)
        for y, v in series
        if (from_year is None or y >= from_year) and (to_year is None or y <= to_year)
    ]
    if len(pairs) < 2:
        raise FitError(f"need at least 2 points in window, got {len(pairs)}")
    bad = [y for y, v in pairs if v <= 0]
    if bad:
        raise FitError(f"non-positive values at years {bad}; log-space fit undefined")

    t0 = pairs[0][0]
    if max(-t0, pairs[-1][0]) > 2 ** 53:  # not printed: it may run to thousands of digits
        raise FitError("the window holds a year beyond ±2^53, past the integers a float holds exactly")
    xs = [y - t0 for y, _ in pairs]
    zs = [math.log(v) for _, v in pairs]
    n = len(pairs)
    x_mean = sum(xs) / n
    z_mean = sum(zs) / n
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxz = sum((x - x_mean) * (z - z_mean) for x, z in zip(xs, zs))
    k = sxz / sxx
    intercept = z_mean - k * x_mean

    ss_res = sum((z - (intercept + k * x)) ** 2 for x, z in zip(xs, zs))
    ss_tot = sum((z - z_mean) ** 2 for z in zs)
    # A constant series is fitted exactly; its total log-variance is zero up
    # to float rounding, so anything at rounding scale counts as zero.
    variance_floor = n * (1e-14 * (1.0 + abs(z_mean))) ** 2
    if ss_tot <= variance_floor:
        r_squared = 1.0
    else:
        r_squared = max(0.0, 1.0 - ss_res / ss_tot)

    return ExpFit(
        log_a=intercept,
        k=k,
        window=(t0, pairs[-1][0]),
        n_points=n,
        r_squared=r_squared,
    )


def tir(fit: ExpFit) -> float:
    """Technological improvement rate: percent improvement per year. A rate
    whose percentage a float cannot hold raises FitError."""
    rate = math.expm1(min(fit.k, _LN_FLOAT_MAX)) * 100.0  # capped, it overflows to inf
    if rate == math.inf:
        raise FitError(f"rate {fit.k:.6g} per year: its TIR, (e^k - 1) x 100%, is beyond a float's range")
    return rate


def crossover_empirical(replacement: AnnualSeries, target: AnnualSeries) -> CrossoverResult:
    """Sustained crossover of two aligned annual series.

    Returns the smallest aligned year from which the replacement is >= the
    target at every later aligned year (ties count as crossover). A
    transient touch that later falls back below does not count; integer
    crossover years in the source material follow this rule.
    """
    if replacement.unit != target.unit:
        raise UnitMismatchError(
            f"replacement is {replacement.unit!r}, target is {target.unit!r}"
        )
    rows = align(replacement, target)
    if not rows:
        raise ValueError("series share no years")
    year: int | None = None
    for y, rep, tgt in rows:
        if rep >= tgt:
            if year is None:
                year = y
        else:
            year = None
    return CrossoverResult(year)


def crossover_fitted(fit_replacement: ExpFit, fit_target: ExpFit) -> CrossoverResult:
    """Closed-form intersection of two fitted exponentials.

    The fractional year solves log_aR + kR(t - t0R) = log_aT + kT(t - t0T),
    each t0 the first year of its fit's window. The integer year is the
    ceiling of the fractional solution when the replacement starts below
    the target (first whole year of superiority);
    when the replacement never transitions from below to above, no integer
    year is reported. Rates with |kR - kT| <= 1e-9 * max(1, |kR|, |kT|) are
    parallel, as fits of parallel data differ by rounding (t* would be ~1e16):
    no crossover, or DegenerateFitError if log-levels log_a - k*t0 are as close.
    """
    fr, ft = fit_replacement, fit_target
    log_level_r = fr.log_a - fr.k * fr.window[0]
    log_level_t = ft.log_a - ft.k * ft.window[0]
    if _close(fr.k, ft.k):
        if _close(log_level_r, log_level_t):
            raise DegenerateFitError("fitted curves are identical")
        return CrossoverResult(None)
    t_star = (log_level_t - log_level_r) / (fr.k - ft.k)
    rising = fr.k > ft.k  # replacement below target before t_star
    year = math.ceil(t_star) if rising else None
    return CrossoverResult(year, t_star)


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))


def knee(adoption: AnnualSeries, threshold: float) -> int | None:
    """First year the adoption share reaches `threshold`, or None.

    The series must be a dimensionless share with values in [0, 1] and the
    threshold strictly inside (0, 1).
    """
    if adoption.unit != "dimensionless-share":
        raise UnitMismatchError(f"adoption series is {adoption.unit!r}, expected dimensionless-share")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    out_of_range = [(y, v) for y, v in adoption if v > 1.0]
    if out_of_range:
        raise ValueError(f"adoption values above 1 at {out_of_range[:3]}")
    for y, v in adoption:
        if v >= threshold:
            return y
    return None
