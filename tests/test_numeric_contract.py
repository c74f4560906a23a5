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

from techknee.adoption import AnalogStorage, DigitalStorage, PhysicalMediaSpec, UsageMetric, adoption_share, \
    analog_media_minutes, digital_media_minutes, internet_media_minutes, internet_media_raw_bits, protocol_mix
from techknee.costs import _SECONDS_IN_MONTH, MediaSpec, internet_distribution_perf, mail_distribution_perf
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
        with pytest.raises(ValueError, match=re.escape(f"rate {k:.6g} per year: its TIR")):
            tir(fit)
        return
    with decimal.localcontext() as ctx:
        ctx.prec = 400  # enough digits to hold e^k - 1 for k down to 5e-324
        exact = Fraction((decimal.Decimal(k).exp() - 1) * 100)
    try:
        rate = tir(fit)
    except ValueError as exc:
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


GB = 8 * 10 ** 9  # bits in a decimal gigabyte


@given(st.dictionaries(YEARS, st.tuples(OR_ZERO, OR_ZERO), min_size=1, max_size=6))
@example({2000: (5e-324, 1.0)})
@example({2000: (1e300, 0.0)})
@example({2000: (1e-300, 1e-10)})
def test_internet_media_raw_bits_is_exact_up_to_rounding_or_refused(rows):
    traffic, share = by_year(rows, "count-per-year")
    try:
        bits = internet_media_raw_bits(traffic, share)
    except ValueError as exc:
        g, s = rows[refused_year(exc, rows)]
        assert f"traffic {g!r} GB, media share {s!r}" in str(exc)
        assert at_the_edge(Fraction(g) * GB, Fraction(g) * GB * Fraction(s))
        return
    assert bits.years == tuple(sorted(rows))
    for year, value in bits:
        g, s = map(Fraction, rows[year])
        assert within(value, g * GB * s, 2), year


@given(st.dictionaries(YEARS, st.tuples(OR_ZERO, OR_ZERO, OR_ZERO), min_size=1, max_size=6), VALUES)
@example({2000: (1.0, 1.0, 0.0)}, 1.0)
@example({2000: (1.0, 1.0, 5e-324)}, 1e9)
@example({2000: (1.0, 0.0, 1e300)}, 1e-20)
@example({2000: (1e290, 1.0, 1e20)}, 84672000.0)
def test_internet_media_minutes_is_exact_up_to_rounding_or_refused(rows, one_min):
    traffic, share, ratio = by_year(rows, "count-per-year")
    try:
        minutes = internet_media_minutes(traffic, share, ratio, one_min)
    except ValueError as exc:
        year = refused_year(exc, rows)
        g, s, r = map(Fraction, rows[year])
        if r == 0:
            assert str(exc) == f"compression ratio must be positive at {year}"
            return
        assert f"traffic {rows[year][0]!r} GB, media share {rows[year][1]!r}" in str(exc)
        bits = g * GB * s
        assert at_the_edge(g * GB, bits, Fraction(one_min) / r, bits * r / Fraction(one_min))
        return
    assert minutes.years == tuple(sorted(rows))
    for year, value in minutes:
        g, s, r = map(Fraction, rows[year])
        assert within(value, g * GB * s * r / Fraction(one_min), 4), year


@given(st.dictionaries(YEARS, st.tuples(OR_ZERO, OR_ZERO), min_size=1, max_size=6), VALUES, VALUES)
@example({2000: (1.0, 0.0)}, 1e303, 1.0)
@example({2000: (1e300, 1.0)}, 700.0, 84672000.0)
@example({2000: (1.0, 1.0)}, 1e-320, 1.0)
def test_digital_media_minutes_is_exact_up_to_rounding_or_refused(rows, megabytes, one_min):
    sales, ratio = by_year(rows, "count-per-year")
    try:
        minutes = digital_media_minutes(PhysicalMediaSpec("cd", DigitalStorage(megabytes), sales), ratio, one_min)
    except ValueError as exc:
        year = refused_year(exc, rows)
        n, r = rows[year]
        assert f"sales {n!r}, {megabytes!r} MB per unit, compression ratio {r!r}" in str(exc)
        storage = Fraction(megabytes) * 8 * 10 ** 6
        n, r = map(Fraction, rows[year])
        assert at_the_edge(storage, n * storage, n * storage * r, n * storage * r / Fraction(one_min))
        return
    assert minutes.years == tuple(sorted(rows))
    for year, value in minutes:
        n, r = map(Fraction, rows[year])
        assert within(value, n * Fraction(megabytes) * 8 * 10 ** 6 * r / Fraction(one_min), 4), year


@given(st.dictionaries(YEARS, OR_ZERO, min_size=1, max_size=6), OR_ZERO)
@example({2000: 5e-324}, 0.5)
@example({2000: 0.0}, 1.7e308)
def test_scale_is_exact_up_to_rounding_or_refused(values, factor):
    series = AnnualSeries(tuple(sorted(values.items())), "count-per-year")
    try:
        scaled = series.scale(factor)
    except ValueError as exc:
        year = refused_year(exc, values)
        assert str(exc) == f"{values[year]!r} x {factor!r} at {year} is beyond a float's range"
        assert at_the_edge(Fraction(values[year]) * Fraction(factor))
        return
    assert scaled.years == series.years
    for year, value in scaled:
        assert within(value, Fraction(values[year]) * Fraction(factor), 1), year


def one_year(value: float) -> AnnualSeries:
    return AnnualSeries(((1996, value),), "count-per-year")


# Each usage builder's refusal in full, as a4 traffic of 1e300 GB in 1996
# (or the like) meets it; before, each read `non-finite value inf at year 1996`.
@pytest.mark.parametrize("build, message", [
    (lambda: internet_media_raw_bits(one_year(1e300), one_year(0.073)),
     "internet media bits at 1996 are beyond a float's range: traffic 1e+300 GB, media share 0.073"),
    (lambda: internet_media_minutes(one_year(1e290), one_year(1.0), one_year(1e20), 84672000.0),
     "internet media minutes at 1996 are beyond a float's range: traffic 1e+290 GB, media share 1.0, "
     "compression ratio 1e+20"),
    (lambda: digital_media_minutes(PhysicalMediaSpec("cd", DigitalStorage(700.0), one_year(1e300)),
                                   one_year(11.0), 84672000.0),
     "cd minutes at 1996 are beyond a float's range: sales 1e+300, 700.0 MB per unit, compression ratio 11.0"),
    (lambda: one_year(1e300).scale(1e9), "1e+300 x 1000000000.0 at 1996 is beyond a float's range"),
    (lambda: analog_media_minutes(PhysicalMediaSpec("vinyl", AnalogStorage(90.0, 1.0), one_year(1e307))),
     "vinyl sales: 1e+307 x 90.0 at 1996 is beyond a float's range"),
], ids=["internet_media_raw_bits", "internet_media_minutes", "digital_media_minutes", "scale",
        "analog_media_minutes"])
def test_usage_beyond_a_float_is_refused_naming_year_and_inputs(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


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
            with pytest.raises(ValueError, match=f"^no rate in effect on {date(year, 7, 1).isoformat()}$"):
                annualize(schedule, years)
            return
        expected[year] = in_force[-1]
    assert annualize(schedule, years).to_mapping() == expected
