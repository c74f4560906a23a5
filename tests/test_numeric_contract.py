"""The numeric contract of the maths: given finite inputs, each function
returns the exact answer up to rounding, or raises an error that names the
input. Each test draws finite values from the least subnormal, 5e-324, to
1.7e308, at years far from the bundled ones, and checks every result
against exact arithmetic (`fractions`; `decimal` for e^k). A refusal must
name a drawn input, and the exact answer, or a value the function forms on
the way, must then lie within a factor of two of a float's limits."""

import decimal
import re
import sys
import warnings
from datetime import date
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from techknee.adoption import UsageMetric, adoption_share, protocol_mix
from techknee.costs import _SECONDS_IN_MONTH, MediaSpec, internet_distribution_perf, mail_distribution_perf
from techknee.errors import FitError, MissingYearError
from techknee.fitting import ExpFit, tir
from techknee.series import AnnualSeries, RateSchedule, annualize

U = Fraction(1, 2 ** 53)  # the unit roundoff
TINY = Fraction(1, 2 ** 1074)  # the least subnormal: a rounding's absolute error below the normal range
MAX, MIN = Fraction(sys.float_info.max), Fraction(sys.float_info.min)

YEARS = st.integers(-10 ** 15, 10 ** 15)
VALUES = st.floats(5e-324, 1.7e308)
OR_ZERO = st.just(0.0) | VALUES
FRACTIONS = st.just(0.0) | st.floats(5e-324, 1.0)


def within(got, exact, roundings):
    """`got` is `exact` up to `roundings` roundings, each off by at most a
    unit roundoff, or by the least subnormal below the normal range."""
    return abs(Fraction(got) - exact) <= (roundings + 1) * (U * abs(exact) + TINY)


def at_the_edge(*values):
    """Whether any exact value lies within a factor of two of a float's
    limits, or beyond them; zero is not at the edge."""
    return any(v >= MAX / 2 or 0 < v <= 2 * MIN for v in map(abs, values))


def by_year(columns, unit):
    """One series per column of `columns`, a mapping year -> values."""
    return [AnnualSeries(tuple((year, values[i]) for year, values in sorted(columns.items())), unit)
            for i in range(len(next(iter(columns.values()))))]


def refused_year(exc, drawn):
    """The year a refusal names, which must be a drawn one."""
    year = int(re.search(r" (?:at|in) (-?\d+)", str(exc)).group(1))
    assert year in drawn, str(exc)
    return year


@given(st.just(0.0) | VALUES | VALUES.map(lambda v: -v))
@example(5e-324)
@example(1e-20)
@example(-1e-20)
@example(706.0)
@example(-746.0)
def test_tir_is_exact_up_to_rounding_or_refused(k):
    fit = ExpFit(0.0, k, (2000, 2001), 2, 1.0)
    if k > 710:  # e^k alone is beyond a float
        with pytest.raises(FitError, match=re.escape(f"rate {k:.6g} per year: its TIR")):
            tir(fit)
        return
    with decimal.localcontext() as ctx:
        ctx.prec = 400  # enough digits to hold e^k - 1 for k down to 5e-324
        exact = Fraction((decimal.Decimal(k).exp() - 1) * 100)
    try:
        rate = tir(fit)
    except FitError as exc:
        assert str(exc).startswith(f"rate {k:.6g} per year: ")
        assert at_the_edge(exact)
        return
    assert within(rate, exact, 2)


# A units metric refuses a length below 5.56268464626801e-309, whose reciprocal is beyond a float.
METRICS = (st.sampled_from([UsageMetric("minutes"), UsageMetric("raw_bits")])
           | st.builds(UsageMetric, st.just("units"), st.floats(5.56268464626801e-309, 1.7e308)))


@given(st.integers(2, 4).flatmap(lambda n: st.dictionaries(YEARS, st.tuples(*[OR_ZERO] * n), min_size=1,
                                                           max_size=6)), METRICS)
@example({2000: (1e308, 1e308)}, UsageMetric("minutes"))
@example({2000: (5e-324, 5e-324)}, UsageMetric("units", 3.0))
@example({2000: (1.0, 0.0)}, UsageMetric("units", 5.56268464626801e-309))
@example({2000: (0.0, 2.0)}, UsageMetric("units", 5.56268464626801e-309))
def test_adoption_share_is_exact_up_to_rounding_or_refused(usage, metric):
    internet, *physical = by_year(usage, "minutes-per-year")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a year of zero total usage is omitted with a warning
            share = adoption_share(internet, [(f"m{i}", s) for i, s in enumerate(physical)], metric)
    except ValueError as exc:
        values = list(map(Fraction, usage[refused_year(exc, usage)]))
        assert "beyond a float's range" in str(exc)
        length = Fraction(metric.unit_length_minutes or 1)
        assert at_the_edge(sum(values), sum(values) / length, *(v / length for v in values),
                           1 / length if metric.kind == "units" else 1)
        return
    totals = {year: sum(map(Fraction, values)) for year, values in usage.items()}
    assert share.years == tuple(sorted(year for year, total in totals.items() if total))
    for year, value in share:
        assert within(value, Fraction(usage[year][0]) / totals[year], len(usage[year]) + 3), year


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(FRACTIONS, min_size=n, max_size=n),
    st.dictionaries(YEARS, st.tuples(*[OR_ZERO] * n), min_size=1, max_size=6))))
@example(([1.0, 1.0], {2000: (1e308, 1e308)}))
def test_protocol_mix_is_exact_up_to_rounding_or_refused(drawn):
    fractions, shares = drawn
    columns = by_year(shares, "dimensionless-share")
    exact = {year: sum(Fraction(s) * Fraction(f) for s, f in zip(values, fractions))
             for year, values in shares.items()}
    try:
        mixed = protocol_mix(list(zip(columns, fractions)))
    except ValueError as exc:
        year = refused_year(exc, shares)
        assert "media share" in str(exc) and "beyond a float's range" in str(exc)
        assert at_the_edge(exact[year])
        return
    assert mixed.years == tuple(sorted(shares))
    for year, value in mixed:
        assert within(value, exact[year], 2 * len(fractions)), year


@given(st.dictionaries(YEARS, st.tuples(VALUES, VALUES), min_size=1, max_size=6), VALUES)
@example({2000: (5e-324, 1.0)}, 1e9)
@example({2000: (1.7e308, 1e-300)}, 1e9)
@example({2000: (1.0, 1.0)}, 5e-324)
@example({2000: (1.0, 1e-300)}, 1e-300)
def test_internet_distribution_perf_is_exact_up_to_rounding_or_refused(rows, size_bits):
    cost, ratio = by_year(rows, "real-dollars-per-megabit-month")
    ratio = AnnualSeries(ratio.entries, "dimensionless-share")
    size = Fraction(size_bits) / 10 ** 6
    try:
        perf = internet_distribution_perf(cost, ratio, MediaSpec("audio", size_bits))
    except ValueError as exc:
        if str(exc).startswith("media size"):
            assert str(exc) == f"media size {size_bits!r} bits is below a float's normal range in megabits"
            assert at_the_edge(size)
            return
        c, r = rows[refused_year(exc, rows)]
        assert f"speed cost {c!r}, compression ratio {r!r}" in str(exc)
        per_second = _SECONDS_IN_MONTH / Fraction(c)
        assert at_the_edge(per_second, per_second * Fraction(r), per_second * Fraction(r) / size)
        return
    for year, value in perf:
        c, r = map(Fraction, rows[year])
        assert within(value, _SECONDS_IN_MONTH / c * r / size, 5), year


@given(st.integers(1, 10 ** 6) | st.integers(1, 10 ** 400),
       st.dictionaries(YEARS, st.tuples(VALUES, VALUES), min_size=1, max_size=6))
@example(2, {2000: (1e308, 1e308)})
@example(1, {2000: (5e-324, 1.0)})
@example(1, {2000: (1.7e308, 1.0)})
def test_mail_distribution_perf_is_exact_up_to_rounding_or_refused(weight, rows):
    first, additional = by_year(rows, "real-dollars")
    try:
        perf = mail_distribution_perf(weight, first, additional)
    except ValueError as exc:
        if str(exc) == "weight in ounces is beyond a float's range":
            assert weight - 1 > MAX
            return
        f, a = rows[refused_year(exc, rows)]
        assert f"first-ounce postage {f!r}, additional-ounce postage {a!r}" in str(exc)
        total = Fraction(f) + (weight - 1) * Fraction(a)
        assert at_the_edge(total, 1 / total)
        return
    for year, value in perf:
        f, a = map(Fraction, rows[year])
        assert within(value, 1 / (f + (weight - 1) * a), 5), year


@given(st.lists(st.tuples(st.dates(), OR_ZERO), max_size=6, unique_by=lambda change: change[0]),
       st.sets(YEARS | st.integers(1, 9999), min_size=1, max_size=6))
@example([(date(1, 1, 1), 1.0)], {0})
@example([(date(1, 1, 1), 1.0)], {10 ** 15})
def test_annualize_is_the_rate_in_force_on_july_1_or_refused(changes, years):
    changes = sorted(changes)
    schedule = RateSchedule(tuple(changes), "real-dollars")
    if not 1 <= min(years) <= max(years) <= 9999:
        with pytest.raises(ValueError, match=f"^years {min(years)} to {max(years)} reach beyond the calendar of "
                                             f"dated rates, 1-9999$"):
            annualize(schedule, years)
        return
    expected = {}
    for year in sorted(years):
        in_force = [value for day, value in changes if day <= date(year, 7, 1)]
        if not in_force:
            with pytest.raises(MissingYearError, match=f"^no rate in effect on {date(year, 7, 1).isoformat()}$"):
                annualize(schedule, years)
            return
        expected[year] = in_force[-1]
    assert annualize(schedule, years).to_mapping() == expected
