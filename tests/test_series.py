"""Series core: unit-tagged series and rate-schedule annualization."""

import math
from datetime import date

import pytest
from hypothesis import given, strategies as st

from techknee.adoption import DigitalStorage, PhysicalMediaSpec, adoption_share, \
    digital_media_minutes, internet_media_minutes, internet_media_raw_bits, protocol_mix
from techknee.costs import REFERENCE_MEDIA, internet_distribution_perf, mail_distribution_perf, \
    one_minute_size_bits
from techknee.fitting import crossover_empirical
from techknee.series import AnnualSeries, RateSchedule, align, annualize


def series(mapping, unit="count-per-year"):
    return AnnualSeries.from_mapping(mapping, unit)


class TestAnnualSeries:
    def test_years_sorted_and_values_kept(self):
        s = series({1991: 2.0, 1990: 1.0})
        assert s.years == (1990, 1991)
        assert s.to_mapping()[1991] == 2.0

    def test_duplicate_years_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            AnnualSeries(((1990, 1.0), (1990, 2.0)), "count-per-year")

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            series({1990: -1.0})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            series({1990: math.nan})

    @pytest.mark.parametrize("year", [True, 1990.0, "1990"])
    def test_year_that_is_not_an_int_rejected(self, year):
        with pytest.raises(ValueError, match="is not an integer"):
            AnnualSeries(((year, 0.5),), "dimensionless-share")

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError, match="unit tag"):
            series({1990: 1.0}, unit="furlongs")


class TestAlign:
    def test_partial_overlap(self):
        a = series({1990: 1.0, 1991: 2.0})
        b = series({1991: 5.0, 1992: 6.0})
        assert align(a, b) == [(1991, 2.0, 5.0)]

    def test_disjoint(self):
        assert align(series({1990: 1.0}), series({1991: 1.0})) == []

    def test_identical_year_sets(self):
        a = series({1990: 1.0, 1991: 2.0})
        b = series({1990: 3.0, 1991: 4.0})
        assert align(a, b) == [(1990, 1.0, 3.0), (1991, 2.0, 4.0)]

    def test_three_series(self):
        a = series({1990: 1.0, 1991: 2.0, 1992: 3.0})
        b = series({1991: 5.0, 1992: 6.0})
        c = series({1990: 7.0, 1992: 8.0})
        assert align(a, b, c) == [(1992, 3.0, 6.0, 8.0)]
        assert align(a) == [(1990, 1.0), (1991, 2.0), (1992, 3.0)]

    @given(st.lists(st.dictionaries(st.integers(1900, 2100), st.floats(0, 1e9), max_size=20),
                    min_size=1, max_size=3))
    def test_output_years_are_exact_intersection(self, maps):
        common = sorted(set(maps[0]).intersection(*maps[1:]))
        assert align(*map(series, maps)) == [(y, *(m[y] for m in maps)) for y in common]


def positive_series(unit):
    values = st.dictionaries(st.integers(1990, 2010), st.floats(0.01, 100.0), max_size=12)
    return values.map(lambda mapping: series(mapping, unit))


def shifted(s, d):
    return AnnualSeries(tuple((y + d, v) for y, v in s), s.unit)


def without(s, years):
    return AnnualSeries(tuple((y, v) for y, v in s if y not in years), s.unit)


def share_of(internet, *physical):
    """`adoption_share` over the given usages; a refusal for want of common
    years reads as an empty series."""
    try:
        return adoption_share(internet, [(f"m{i}", s) for i, s in enumerate(physical)])
    except ValueError as exc:
        assert str(exc) == "domains share no years"
        return AnnualSeries((), "dimensionless-share")


# Every function that combines series, with its inputs' unit tags.
COMBINATORS = {
    "internet_distribution_perf": (
        lambda cost, ratio: internet_distribution_perf(cost, ratio, REFERENCE_MEDIA["album"]),
        "real-dollars-per-megabit-month", "dimensionless-share"),
    "mail_distribution_perf": (
        lambda first, additional: mail_distribution_perf(2, first, additional),
        "real-dollars", "real-dollars"),
    "digital_media_minutes": (
        lambda sales, ratio: digital_media_minutes(
            PhysicalMediaSpec("cd", DigitalStorage(700.0), sales), ratio, one_minute_size_bits("audio")),
        "count-per-year", "dimensionless-share"),
    "internet_media_raw_bits": (internet_media_raw_bits, "count-per-year", "dimensionless-share"),
    "internet_media_minutes": (
        lambda traffic, share, ratio: internet_media_minutes(traffic, share, ratio, 8e6),
        "count-per-year", "dimensionless-share", "dimensionless-share"),
    "adoption_share": (share_of, "minutes-per-year", "minutes-per-year", "minutes-per-year"),
    "protocol_mix": (
        lambda *shares: protocol_mix(list(zip(shares, (0.5, 0.25, 1.0)))),
        "dimensionless-share", "dimensionless-share", "dimensionless-share"),
}


class TestAlignmentRule:
    """Every combinator covers exactly the years all of its inputs have
    (`align`), never interpolating."""

    # A static method: run as a method, each parametrisation would call the
    # one Hypothesis test from a new instance, which its `differing_executors`
    # health check refuses unless Hypothesis's pytest plugin is loaded.
    @staticmethod
    @pytest.mark.parametrize("name", list(COMBINATORS))
    @given(data=st.data(), d=st.integers(-100, 100))
    def test_combinators(name, data, d):
        combine, *units = COMBINATORS[name]
        inputs = [data.draw(positive_series(unit)) for unit in units]
        out = combine(*inputs)
        assert out.years == tuple(sorted(set(inputs[0].years).intersection(*(s.years for s in inputs))))
        # Shifting every input year by d shifts the output years only.
        assert combine(*(shifted(s, d) for s in inputs)) == shifted(out, d)
        # Dropping a year from any one input drops exactly that year.
        for i, s in enumerate(inputs):
            if s.years:
                year = data.draw(st.sampled_from(s.years))
                fewer = [without(t, {year}) if j == i else t for j, t in enumerate(inputs)]
                assert combine(*fewer) == without(out, {year})

    @given(data=st.data(), d=st.integers(-100, 100))
    def test_crossover_empirical(self, data, d):
        unit = "media-units-per-real-dollar"
        a = data.draw(positive_series(unit))
        b = data.draw(positive_series(unit))
        common = set(a.years) & set(b.years)
        if not common:
            with pytest.raises(ValueError, match="share no years"):
                crossover_empirical(a, b)
            return
        result = crossover_empirical(a, b)
        only_a, only_b = set(a.years) - common, set(b.years) - common
        assert crossover_empirical(without(a, only_a), without(b, only_b)) == result
        assert result.year is None or result.year in common
        expected = None if result.year is None else result.year + d
        assert crossover_empirical(shifted(a, d), shifted(b, d)).year == expected
        year = data.draw(st.sampled_from(sorted(common)))
        if len(common) > 1:
            assert crossover_empirical(without(a, {year}), b) == \
                crossover_empirical(without(a, {year}), without(b, {year}))


def postage_schedule():
    # Trimmed copy of the bundled first-ounce schedule, 2016$.
    rows = [
        ("1981-11-01", 0.51),
        ("1985-02-17", 0.52),
        ("1988-04-03", 0.62),
        ("1991-02-03", 0.54),
        ("1995-01-01", 0.52),
        ("1999-01-10", 0.48),
        ("2001-01-07", 0.47),
        ("2002-06-30", 0.50),
    ]
    return RateSchedule(tuple((date.fromisoformat(d), rate) for d, rate in rows), "real-dollars")


class TestAnnualize:
    def test_1998_uses_1995_rate(self):
        s = annualize(postage_schedule(), range(1998, 1999))
        assert s.to_mapping()[1998] == 0.52

    def test_mid_year_2002_uses_june_30_rate(self):
        s = annualize(postage_schedule(), [2002])
        assert s.to_mapping()[2002] == 0.50

    def test_single_entry_schedule_is_constant(self):
        sched = RateSchedule(((date(1900, 1, 1), 2.5),), "real-dollars")
        s = annualize(sched, range(1950, 1960))
        assert set(s.values) == {2.5}
        assert len(s) == 10

    def test_no_rate_in_effect_is_error(self):
        with pytest.raises(ValueError, match="^no rate in effect on 1980-07-01$"):
            annualize(postage_schedule(), [1980])

    # `date` holds years 1-9999; beyond a C integer it would raise OverflowError.
    @pytest.mark.parametrize("years, message", [
        ([0, 1998], "years 0 to 1998"), ([1998, 10000], "years 1998 to 10000"),
        ([10 ** 20], f"years {10 ** 20} to {10 ** 20}"),
    ], ids=["0", "10000", "10^20"])
    def test_year_outside_the_calendar_is_refused(self, years, message):
        with pytest.raises(ValueError, match=f"^{message} reach beyond the calendar of dated rates, 1-9999$"):
            annualize(postage_schedule(), years)

    def test_the_calendar_ends_are_annualized(self):
        sched = RateSchedule(((date(1, 1, 1), 2.5),), "real-dollars")
        assert annualize(sched, [1, 9999]).to_mapping() == {1: 2.5, 9999: 2.5}

    def test_probe_before_first_change_within_year(self):
        # Nov 1, 1981 change is after July 1, 1981
        with pytest.raises(ValueError, match="^no rate in effect on 1981-07-01$"):
            annualize(postage_schedule(), [1981])

    def test_idempotent_on_constant_schedule(self):
        sched = RateSchedule(((date(1990, 1, 1), 3.0),), "real-dollars")
        once = annualize(sched, range(1990, 1995))
        again = annualize(sched, once.years)
        assert once == again

    def test_change_on_july_1_counts_that_year_and_on_july_2_the_next(self):
        sched = RateSchedule(((date(1999, 1, 1), 1.0), (date(2000, 7, 1), 2.0), (date(2001, 7, 2), 3.0)),
                             "real-dollars")
        s = annualize(sched, range(1999, 2003))
        assert s.to_mapping() == {1999: 1.0, 2000: 2.0, 2001: 2.0, 2002: 3.0}

    def test_dates_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RateSchedule(((date(1990, 1, 1), 1.0), (date(1990, 1, 1), 2.0)), "real-dollars")
