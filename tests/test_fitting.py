"""Curve fitting, TIR, crossover and knee detection."""

import math

import pytest
from hypothesis import example, given, assume, strategies as st

from techknee.datasets import load_bundled
from techknee.errors import DegenerateFitError, FitError, UnitMismatchError
from techknee.fitting import (
    ExpFit,
    crossover_empirical,
    crossover_fitted,
    fit_exponential,
    knee,
    tir,
)
from techknee.series import AnnualSeries


def series(mapping, unit="count-per-year"):
    return AnnualSeries.from_mapping(mapping, unit)


def exponential_series(a, k, t0, n, unit="count-per-year"):
    return series({t0 + i: a * math.exp(k * i) for i in range(n)}, unit)


class TestFitExponential:
    def test_flat_series_has_zero_rate(self):
        fit = fit_exponential(series({y: 7.5 for y in range(1990, 2000)}))
        assert fit.k == pytest.approx(0.0, abs=1e-12)
        assert tir(fit) == pytest.approx(0.0, abs=1e-7)
        assert fit.r_squared == 1.0

    def test_doubling_series_recovers_ln2(self):
        s = series({2000 + i: 2.0 ** i for i in range(10)})
        fit = fit_exponential(s)
        assert fit.k == pytest.approx(math.log(2), rel=1e-9)
        assert tir(fit) == pytest.approx(100.0, rel=1e-7)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_bundled_bandwidth_inverse_rate(self):
        # Inverse of the real-dollar bandwidth cost, 1998-2015 (18 points).
        # Independent log-space least-squares oracle gives k = 0.480817.
        real = load_bundled("a1_bandwidth_cost")
        inverse = series({y: 1.0 / v for y, v in real}, "count-per-year")
        fit = fit_exponential(inverse, (1998, 2015))
        assert fit.n_points == 18
        assert fit.k == pytest.approx(0.4808172957794561, rel=1e-12)
        assert 0.40 <= fit.k <= 0.55

    def test_window_bounds_are_inclusive(self):
        s = series({y: float(y) for y in range(1990, 2000)})
        fit = fit_exponential(s, (1992, 1995))
        assert fit.window == (1992, 1995)
        assert fit.n_points == 4
        assert fit.t0 == 1992

    def test_too_few_points(self):
        with pytest.raises(FitError, match="at least 2"):
            fit_exponential(series({1990: 1.0}))

    def test_non_positive_value_in_window(self):
        with pytest.raises(FitError, match="non-positive"):
            fit_exponential(series({1990: 1.0, 1991: 0.0, 1992: 2.0}))

    def test_non_positive_outside_window_is_fine(self):
        s = series({1990: 0.0, 1991: 1.0, 1992: 2.0})
        fit = fit_exponential(s, (1991, None))
        assert fit.n_points == 2

    # Rates below ~1e-5/yr put the log-space signal near float rounding
    # scale, where recovery to 1e-9 is information-theoretically out of
    # reach; zero (an exactly constant series) is covered separately.
    @given(
        a=st.floats(1e-3, 1e3),
        k=st.one_of(
            st.just(0.0),
            st.floats(1e-5, 1.0),
            st.floats(-1.0, -1e-5),
        ),
        t0=st.integers(1900, 2050),
        n=st.integers(3, 25),
    )
    def test_exact_recovery(self, a, k, t0, n):
        fit = fit_exponential(exponential_series(a, k, t0, n))
        assert fit.a == pytest.approx(a, rel=1e-9)
        assert fit.k == pytest.approx(k, rel=1e-9, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    @given(
        a=st.floats(1e-3, 1e3),
        k=st.floats(-1.0, 1.0),
        c=st.floats(1e-3, 1e3),
    )
    def test_scale_equivariance(self, a, k, c):
        base = exponential_series(a, k, 2000, 12)
        scaled = base.scale(c)
        fit_base = fit_exponential(base)
        fit_scaled = fit_exponential(scaled)
        assert fit_scaled.k == pytest.approx(fit_base.k, rel=1e-9, abs=1e-9)
        assert fit_scaled.a == pytest.approx(fit_base.a * c, rel=1e-9)


class TestTir:
    def test_zero(self):
        fit = ExpFit(a=1.0, k=0.0, t0=2000, window=(2000, 2001), n_points=2, r_squared=1.0)
        assert tir(fit) == 0.0

    def test_ln2_is_100_percent(self):
        fit = ExpFit(a=1.0, k=math.log(2), t0=2000, window=(2000, 2001), n_points=2, r_squared=1.0)
        assert tir(fit) == pytest.approx(100.0, rel=1e-12)

    def test_small_continuous_rate_to_percent(self):
        fit = ExpFit(a=1.0, k=0.0305, t0=2000, window=(2000, 2001), n_points=2, r_squared=1.0)
        assert tir(fit) == pytest.approx(3.097, abs=5e-4)


class TestCrossoverEmpirical:
    UNIT = "media-units-per-real-dollar"

    def test_simple_crossing(self):
        rep = series({1990: 1.0, 1991: 2.0, 1992: 4.0}, self.UNIT)
        tgt = series({1990: 3.0, 1991: 3.0, 1992: 3.0}, self.UNIT)
        assert crossover_empirical(rep, tgt).year == 1992

    def test_tie_counts(self):
        rep = series({1990: 1.0, 1991: 3.0}, self.UNIT)
        tgt = series({1990: 3.0, 1991: 3.0}, self.UNIT)
        assert crossover_empirical(rep, tgt).year == 1991

    def test_never_crossing_is_absent(self):
        rep = series({1990: 1.0, 1991: 1.5}, self.UNIT)
        tgt = series({1990: 3.0, 1991: 3.0}, self.UNIT)
        assert crossover_empirical(rep, tgt).year is None

    def test_transient_touch_does_not_count(self):
        # Touches in 1990, falls back below in 1991, crosses for good in 1992.
        rep = series({1989: 1.0, 1990: 3.5, 1991: 2.0, 1992: 4.0, 1993: 5.0}, self.UNIT)
        tgt = series({y: 3.0 for y in range(1989, 1994)}, self.UNIT)
        result = crossover_empirical(rep, tgt)
        assert result.year == 1992
        assert result.mode == "empirical"

    def test_unit_mismatch(self):
        rep = series({1990: 1.0}, self.UNIT)
        tgt = series({1990: 1.0}, "count-per-year")
        with pytest.raises(UnitMismatchError):
            crossover_empirical(rep, tgt)

    def test_empty_alignment(self):
        rep = series({1990: 1.0}, self.UNIT)
        tgt = series({1991: 1.0}, self.UNIT)
        with pytest.raises(ValueError, match="no years"):
            crossover_empirical(rep, tgt)

    @given(
        data=st.dictionaries(st.integers(1980, 2020), st.floats(0.01, 100.0), min_size=2),
        c=st.floats(1.0, 10.0),
    )
    def test_scaling_replacement_up_never_delays(self, data, c):
        rep = series(data, self.UNIT)
        tgt = series({y: 5.0 for y in data}, self.UNIT)
        before = crossover_empirical(rep, tgt).year
        after = crossover_empirical(rep.scale(c), tgt).year
        if before is not None:
            assert after is not None and after <= before

    @given(
        data=st.dictionaries(st.integers(1980, 2020), st.floats(0.01, 100.0), min_size=2),
        c=st.floats(0.01, 1.0),
    )
    def test_scaling_replacement_down_never_advances(self, data, c):
        rep = series(data, self.UNIT)
        tgt = series({y: 5.0 for y in data}, self.UNIT)
        before = crossover_empirical(rep, tgt).year
        after = crossover_empirical(rep.scale(c), tgt).year
        if after is not None:
            assert before is not None and before <= after


class TestCrossoverFitted:
    def fit(self, a, k, t0=0):
        return ExpFit(a=a, k=k, t0=t0, window=(t0, t0 + 10), n_points=11, r_squared=1.0)

    def test_closed_form_solution(self):
        result = crossover_fitted(self.fit(1.0, 0.5), self.fit(math.e, 0.0))
        assert result.fractional_year == pytest.approx(2.0, rel=1e-12)
        assert result.year == 2
        assert result.mode == "fitted"

    def test_identical_fits_are_degenerate(self):
        with pytest.raises(DegenerateFitError):
            crossover_fitted(self.fit(2.0, 0.3), self.fit(2.0, 0.3))

    def test_same_rate_different_level_never_crosses(self):
        result = crossover_fitted(self.fit(1.0, 0.3), self.fit(2.0, 0.3))
        assert result.year is None
        assert result.fractional_year is None

    @given(
        log_ar=st.floats(-3.0, 3.0),
        log_at=st.floats(-3.0, 3.0),
        k=st.floats(-0.5, 0.9),
        t0=st.integers(1900, 2050),
        n=st.integers(2, 30),
    )
    @example(log_ar=math.log(2.0), log_at=math.log(7.0), k=0.25, t0=1990, n=21)
    def test_fits_of_parallel_data_never_cross(self, log_ar, log_at, k, t0, n):
        # The two fitted rates differ by rounding only.
        assume(abs(log_at - log_ar) > 1e-6)
        rep = exponential_series(math.exp(log_ar), k, t0, n)
        tgt = exponential_series(math.exp(log_at), k, t0, n)
        result = crossover_fitted(fit_exponential(rep), fit_exponential(tgt))
        assert result.year is None
        assert result.fractional_year is None

    def test_near_identical_fits_are_degenerate(self):
        fit = self.fit(2.0, 0.3, t0=1990)
        with pytest.raises(DegenerateFitError):
            crossover_fitted(fit, fit._replace(a=2.0 * (1 + 1e-15), k=0.3 * (1 + 1e-15)))

    def test_declining_advantage_has_no_integer_year(self):
        # Replacement starts above and grows slower: no below-to-above transition.
        result = crossover_fitted(self.fit(10.0, 0.0), self.fit(1.0, 0.5))
        assert result.year is None
        assert result.fractional_year is not None

    @given(
        log_ar=st.floats(-3.0, 3.0),
        gap=st.floats(0.05, 3.0),
        kr=st.floats(0.02, 0.9),
        kt=st.floats(-0.5, 0.0),
    )
    def test_agrees_with_empirical_on_exact_exponentials(self, log_ar, gap, kr, kt):
        # Replacement starts below (aR < aT) and improves faster (kR > kT).
        a_r, a_t = math.exp(log_ar), math.exp(log_ar + gap)
        t_star = gap / (kr - kt)
        assume(t_star < 35)
        n = int(t_star) + 5
        rep = exponential_series(a_r, kr, 2000, n, "media-units-per-real-dollar")
        tgt = exponential_series(a_t, kt, 2000, n, "media-units-per-real-dollar")
        emp = crossover_empirical(rep, tgt).year
        fit = crossover_fitted(fit_exponential(rep), fit_exponential(tgt)).year
        assert emp is not None and fit is not None
        assert abs(fit - emp) <= 1


class TestKnee:
    def share(self, mapping):
        return series(mapping, "dimensionless-share")

    def test_threshold_crossing(self):
        s = self.share({1998: 0.007, 1999: 0.027, 2000: 0.08, 2001: 0.15})
        assert knee(s, 0.01).year == 1999
        assert knee(s, 0.10).year == 2001

    def test_all_zero_is_absent(self):
        assert knee(self.share({1990: 0.0, 1991: 0.0}), 0.01).year is None

    def test_exact_threshold_counts(self):
        assert knee(self.share({1990: 0.01}), 0.01).year == 1990

    def test_requires_share_unit(self):
        with pytest.raises(UnitMismatchError):
            knee(series({1990: 0.5}, "count-per-year"), 0.01)

    def test_values_above_one_rejected(self):
        with pytest.raises(ValueError, match="above 1"):
            knee(self.share({1990: 1.5}), 0.01)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.1, 1.1])
    def test_threshold_domain(self, threshold):
        with pytest.raises(ValueError):
            knee(self.share({1990: 0.5}), threshold)

    @given(
        data=st.dictionaries(st.integers(1980, 2020), st.floats(0.0, 1.0), min_size=1),
        thresholds=st.lists(st.floats(0.001, 0.999), min_size=2, max_size=8),
    )
    def test_threshold_monotonicity(self, data, thresholds):
        # Metamorphic: raising the threshold never makes the knee earlier;
        # a threshold never reached counts as later than any year.
        s = self.share(data)
        years = [knee(s, t).year for t in sorted(thresholds)]
        ranked = [math.inf if y is None else y for y in years]
        assert ranked == sorted(ranked)
