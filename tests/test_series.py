"""Series core: unit-tagged series and rate-schedule annualization."""

import math
from datetime import date

import pytest
from hypothesis import given, strategies as st

from techknee.errors import MissingYearError
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

    @given(
        st.dictionaries(st.integers(1900, 2100), st.floats(0, 1e9), max_size=20),
        st.dictionaries(st.integers(1900, 2100), st.floats(0, 1e9), max_size=20),
    )
    def test_output_years_are_exact_intersection(self, ma, mb):
        rows = align(series(ma), series(mb))
        assert [y for y, _, _ in rows] == sorted(set(ma) & set(mb))


def postage_schedule():
    # Trimmed copy of the bundled schedule, 2016$ columns only.
    rows = [
        ("1981-11-01", 0.51, 0.44),
        ("1985-02-17", 0.52, 0.40),
        ("1988-04-03", 0.62, 0.43),
        ("1991-02-03", 0.54, 0.42),
        ("1995-01-01", 0.52, 0.37),
        ("1999-01-10", 0.48, 0.32),
        ("2001-01-07", 0.47, 0.29),
        ("2002-06-30", 0.50, 0.31),
    ]
    return RateSchedule(
        changes=tuple((date.fromisoformat(d), (f, a)) for d, f, a in rows),
        columns=("first_ounce", "additional_ounce"),
        units=("real-dollars", "real-dollars"),
    )


class TestAnnualize:
    def test_1998_uses_1995_rate(self):
        s = annualize(postage_schedule(), range(1998, 1999), "first_ounce")
        assert s.to_mapping()[1998] == 0.52

    def test_mid_year_2002_uses_june_30_rate(self):
        s = annualize(postage_schedule(), [2002], "first_ounce")
        assert s.to_mapping()[2002] == 0.50

    def test_single_entry_schedule_is_constant(self):
        sched = RateSchedule(
            changes=((date(1900, 1, 1), (2.5,)),),
            columns=("rate",),
            units=("real-dollars",),
        )
        s = annualize(sched, range(1950, 1960), "rate")
        assert set(s.values) == {2.5}
        assert len(s) == 10

    def test_no_rate_in_effect_is_error(self):
        with pytest.raises(MissingYearError):
            annualize(postage_schedule(), [1980], "first_ounce")

    def test_probe_before_first_change_within_year(self):
        # Nov 1, 1981 change is after July 1, 1981
        with pytest.raises(MissingYearError):
            annualize(postage_schedule(), [1981], "first_ounce")

    def test_idempotent_on_constant_schedule(self):
        sched = RateSchedule(
            changes=((date(1990, 1, 1), (3.0,)),),
            columns=("rate",),
            units=("real-dollars",),
        )
        once = annualize(sched, range(1990, 1995), "rate")
        again = annualize(sched, once.years, "rate")
        assert once == again

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            annualize(postage_schedule(), [1998], "nope")

    def test_dates_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RateSchedule(
                changes=((date(1990, 1, 1), (1.0,)), (date(1990, 1, 1), (2.0,))),
                columns=("rate",),
                units=("real-dollars",),
            )
