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
        with pytest.raises(MissingYearError):
            annualize(postage_schedule(), [1980])

    def test_probe_before_first_change_within_year(self):
        # Nov 1, 1981 change is after July 1, 1981
        with pytest.raises(MissingYearError):
            annualize(postage_schedule(), [1981])

    def test_idempotent_on_constant_schedule(self):
        sched = RateSchedule(((date(1990, 1, 1), 3.0),), "real-dollars")
        once = annualize(sched, range(1990, 1995))
        again = annualize(sched, once.years)
        assert once == again

    def test_dates_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RateSchedule(((date(1990, 1, 1), 1.0), (date(1990, 1, 1), 2.0)), "real-dollars")
