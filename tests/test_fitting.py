"""Curve fitting, TIR, crossover and knee detection."""

import math
import statistics

import pytest
from hypothesis import example, given, assume, strategies as st

from techknee.datasets import load_all
from techknee.fitting import (
    ExpFit,
    crossover_empirical,
    crossover_fitted,
    fit_exponential,
    knee,
    tir,
)
from techknee.series import AnnualSeries
from techknee.sweep import replacement_performance, target_performance


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
        real = load_all().bandwidth_real
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

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="^need at least 2 points in window, got 1$"):
            fit_exponential(series({1990: 1.0}))

    @pytest.mark.parametrize("window, message", [
        ((2000, 1990), "window start 2000 exceeds window end 1990"),
        ((1995, 1995), "need at least 2 points in window, got 1"),
    ])
    def test_window_error_names_the_window(self, window, message):
        s = series({y: float(y) for y in range(1990, 2010)})
        with pytest.raises(ValueError) as err:
            fit_exponential(s, window)
        assert str(err.value) == message

    def test_non_positive_value_in_window(self):
        with pytest.raises(ValueError, match=r"^non-positive values at years \[1991\]; log-space fit undefined$"):
            fit_exponential(series({1990: 1.0, 1991: 0.0, 1992: 2.0}))

    # Finite values whose window a float cannot hold are refused.
    @pytest.mark.parametrize("mapping", [{1: 1.0, 10 ** 400: 2.0}, {-2 ** 53 - 1: 1.0, 0: 2.0}],
                             ids=["year above", "year below"])
    def test_fit_a_float_cannot_hold_is_refused(self, mapping):
        with pytest.raises(ValueError) as err:
            fit_exponential(series(mapping))
        assert str(err.value) == "the window holds a year beyond ±2^53, past the integers a float holds exactly"

    # A level beyond a float's range, e^945.6 or e^-945.6, is held as its
    # log: ln values (u, u, v) at years 0-2 fit log_a = (7u - v) / 6 and
    # k = (v - u) / 2.
    @pytest.mark.parametrize("u, v", [(1e308, 1e-308), (1e-308, 1e308)], ids=["level above", "level below"])
    def test_level_a_float_cannot_hold_is_kept_as_its_log(self, u, v):
        fit = fit_exponential(series({2000: u, 2001: u, 2002: v}))
        assert round(fit.log_a, 1) == (945.6 if u > v else -945.6)
        assert fit.log_a == pytest.approx((7 * math.log(u) - math.log(v)) / 6, rel=1e-12)
        assert fit.k == pytest.approx((math.log(v) - math.log(u)) / 2, rel=1e-12)

    def test_years_a_float_holds_fit(self):
        fit = fit_exponential(series({-2 ** 53: 1.0, 2 ** 53: 2.0}))
        assert fit.k == pytest.approx(math.log(2.0) / 2 ** 54, rel=1e-12)

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
        assert fit.log_a == pytest.approx(math.log(a), abs=1e-9)
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
        assert fit_scaled.log_a == pytest.approx(fit_base.log_a + math.log(c), abs=1e-9)


class TestTir:
    def test_zero(self):
        fit = ExpFit(log_a=0.0, k=0.0, window=(2000, 2001), n_points=2, r_squared=1.0)
        assert tir(fit) == 0.0

    def test_ln2_is_100_percent(self):
        fit = ExpFit(log_a=0.0, k=math.log(2), window=(2000, 2001), n_points=2, r_squared=1.0)
        assert tir(fit) == pytest.approx(100.0, rel=1e-12)

    def test_small_continuous_rate_to_percent(self):
        fit = ExpFit(log_a=0.0, k=0.0305, window=(2000, 2001), n_points=2, r_squared=1.0)
        assert tir(fit) == pytest.approx(3.097, abs=5e-4)

    def test_rate_a_float_cannot_hold_is_refused(self):
        fit = fit_exponential(series({2000: 1e-300, 2001: 1e300}))
        with pytest.raises(ValueError, match=r"^rate 1381\.55 per year: its TIR, \(e\^k - 1\) x 100%, is beyond"):
            tir(fit)
        assert tir(fit._replace(k=705.0)) == pytest.approx((math.exp(705.0) - 1.0) * 100.0, rel=1e-12)
        with pytest.raises(ValueError, match=r"^rate 706 per year: its TIR, \(e\^k - 1\) x 100%, is beyond"):
            tir(fit._replace(k=706.0))


class TestRSquared:
    """r² is the squared correlation of year and log value, for an OLS
    line with an intercept; `statistics.correlation` is the oracle."""

    @staticmethod
    def oracle(s, window=(None, None)):
        lo, hi = window
        pairs = [(y, v) for y, v in s if (lo is None or y >= lo) and (hi is None or y <= hi)]
        return statistics.correlation([y for y, _ in pairs], [math.log(v) for _, v in pairs]) ** 2

    def test_noisy_series(self):
        noise = (0.9, -0.7, 0.4, 1.1, -1.2, 0.3, -0.8, 1.0, -0.2, -0.9, 0.6, -0.5)
        s = series({2000 + i: math.exp(0.2 * i + e) for i, e in enumerate(noise)})
        fit = fit_exponential(s)
        assert 0.3 < fit.r_squared < 0.35
        assert fit.r_squared == pytest.approx(self.oracle(s), rel=1e-12)

    def test_uncorrelated_series_is_zero(self):
        # Log values 0, ln 2, 0: the fitted rate is 0 and explains nothing.
        fit = fit_exponential(series({2000: 1.0, 2001: 2.0, 2002: 1.0}))
        assert (fit.k, fit.r_squared) == (0.0, 0.0)

    def test_a_variation_far_above_rounding_is_not_constant(self):
        # Log values 0, ~1e-8, 0: a log-variance of ~7e-17, far above the
        # floor at rounding scale (~3e-28), so the series is not flat.
        fit = fit_exponential(series({2000: 1.0, 2001: 1.0 + 1e-8, 2002: 1.0}))
        assert (fit.k, fit.r_squared) == (0.0, 0.0)

    def test_flat_series_whose_mean_log_rounds_is_flat(self):
        # ln 2.7 ~ 0.993: the mean of three equal logs rounds, leaving a
        # log-variance of ~4e-32, below the floor, which grows with 1 + |mean|.
        z = math.log(2.7)
        assert (z + z + z) / 3 != z
        assert fit_exponential(series({2000: 2.7, 2001: 2.7, 2002: 2.7})).r_squared == 1.0

    @pytest.mark.parametrize("case, media, target", [("audio", "album", "mail_cd"), ("video", "clip", "mail_dvd")])
    @pytest.mark.parametrize("window", [(None, None), (1995, None)], ids=["all", "from1995"])
    def test_bundled_series(self, case, media, target, window):
        datasets = load_all()
        for s in (replacement_performance(case, media, datasets), target_performance(target, datasets)):
            assert fit_exponential(s, window).r_squared == pytest.approx(self.oracle(s, window), rel=1e-12)


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
        assert result == (1992, None)

    def test_unit_mismatch(self):
        rep = series({1990: 1.0}, self.UNIT)
        tgt = series({1990: 1.0}, "count-per-year")
        with pytest.raises(ValueError, match="^replacement is 'media-units-per-real-dollar', target is 'count-per-year'$"):
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


    # Any finite value, zero or from the smallest subnormal to near a
    # float's maximum, at years far from the bundled ones. Ties are drawn
    # on purpose.
    FINITE = st.just(0.0) | st.floats(5e-324, 1.7e308)
    PAIR = st.tuples(FINITE, FINITE) | FINITE.map(lambda v: (v, v))

    @given(
        start=st.integers(-10**15, 10**15),
        aligned=st.dictionaries(st.integers(0, 60), PAIR, min_size=1, max_size=12),
        replacement_only=st.dictionaries(st.integers(0, 60), FINITE, max_size=4),
    )
    @example(start=-10**15, aligned={0: (1.7e308, 1.7e308), 1: (5e-324, 0.0)}, replacement_only={})
    def test_equals_the_sustained_crossover_oracle(self, start, aligned, replacement_only):
        rep = {start + y: v for y, v in replacement_only.items() if y not in aligned}
        rep.update((start + y, r) for y, (r, _) in aligned.items())
        tgt = {start + y: t for y, (_, t) in aligned.items()}
        rows = sorted((start + y, r, t) for y, (r, t) in aligned.items())
        # Brute force: the first aligned year from which no later aligned
        # year has the replacement below the target.
        expected = next((year for i, (year, _, _) in enumerate(rows)
                         if all(r >= t for _, r, t in rows[i:])), None)
        result = crossover_empirical(series(rep, self.UNIT), series(tgt, self.UNIT))
        assert result == (expected, None)
        assert expected is None or type(result.year) is int


class TestCrossoverFitted:
    def fit(self, a, k, t0=0):
        return ExpFit(log_a=math.log(a), k=k, window=(t0, t0 + 10), n_points=11, r_squared=1.0)

    def test_closed_form_solution(self):
        result = crossover_fitted(self.fit(1.0, 0.5), self.fit(math.e, 0.0))
        assert result.fractional_year == pytest.approx(2.0, rel=1e-12)
        assert result.year == 2

    def test_identical_fits_are_degenerate(self):
        with pytest.raises(ValueError, match="^fitted curves are identical$"):
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

    def test_rates_and_levels_exactly_at_the_tolerance_count_as_equal(self):
        # The tolerance is inclusive: rates exactly 1e-9 apart are parallel,
        # and parallel fits whose log-levels are exactly 1e-9 apart are identical.
        fit = ExpFit(log_a=0.0, k=1e-9, window=(0, 10), n_points=11, r_squared=1.0)
        assert crossover_fitted(fit, fit._replace(log_a=1.0, k=0.0)) == (None, None)
        with pytest.raises(ValueError, match="^fitted curves are identical$"):
            crossover_fitted(fit, fit._replace(log_a=1e-9))

    def test_tolerance_scales_with_the_larger_magnitude(self):
        # Rates of 1000 per year 5e-7 apart are parallel, and parallel fits
        # whose log-levels near 1e6 are 5e-4 apart are identical.
        fit = ExpFit(log_a=0.0, k=1000.0, window=(0, 10), n_points=11, r_squared=1.0)
        assert crossover_fitted(fit, fit._replace(log_a=1.0, k=1000.0 + 5e-7)) == (None, None)
        with pytest.raises(ValueError, match="^fitted curves are identical$"):
            crossover_fitted(fit._replace(log_a=1e6), fit._replace(log_a=1e6 + 5e-4))

    def test_near_identical_fits_are_degenerate(self):
        fit = self.fit(2.0, 0.3, t0=1990)
        with pytest.raises(ValueError, match="^fitted curves are identical$"):
            crossover_fitted(fit, fit._replace(log_a=math.log(2.0) + 1e-15, k=0.3 * (1 + 1e-15)))

    # Any fit of finite positive values, a level beyond a float's range
    # included, crosses another at a finite year, or never, or is degenerate.
    POSITIVE = st.dictionaries(st.integers(1900, 2100), st.floats(5e-324, 1.7e308), min_size=2, max_size=12)

    @given(POSITIVE, POSITIVE)
    @example({y: 2.0 ** (y - 1990) for y in range(1990, 2000)}, {2000: 1e308, 2001: 1e308, 2002: 1e-308})
    @example({2000: 1e-308, 2001: 1e-308, 2002: 1e308}, {2000: 1e308, 2001: 1e308, 2002: 1e-308})
    def test_fits_of_finite_values_cross_at_a_finite_year_or_never(self, rep, tgt):
        fits = fit_exponential(series(rep)), fit_exponential(series(tgt))
        try:
            result = crossover_fitted(*fits)
        except ValueError as exc:
            assert str(exc) == "fitted curves are identical"
            return
        t_star = result.fractional_year
        assert t_star is None or math.isfinite(t_star)
        assert result.year is None or result.year == math.ceil(t_star)

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
        assert knee(s, 0.01) == 1999
        assert knee(s, 0.10) == 2001

    def test_all_zero_is_absent(self):
        assert knee(self.share({1990: 0.0, 1991: 0.0}), 0.01) is None

    def test_exact_threshold_counts(self):
        assert knee(self.share({1990: 0.01}), 0.01) == 1990

    def test_requires_share_unit(self):
        with pytest.raises(ValueError, match="^adoption series is 'count-per-year', expected dimensionless-share$"):
            knee(series({1990: 0.5}, "count-per-year"), 0.01)

    def test_values_above_one_rejected(self):
        with pytest.raises(ValueError, match="above 1"):
            knee(self.share({1990: 1.5}), 0.01)

    def test_values_above_one_message_lists_the_first_three(self):
        s = self.share({1990: 1.5, 1991: 0.5, 1992: 2.0, 1993: 3.0, 1994: 4.0})
        with pytest.raises(ValueError) as err:
            knee(s, 0.01)
        assert str(err.value) == "adoption values above 1 at [(1990, 1.5), (1992, 2.0), (1993, 3.0)]"

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.1, 1.1])
    def test_threshold_domain(self, threshold):
        with pytest.raises(ValueError):
            knee(self.share({1990: 0.5}), threshold)

    # Any share from 0 through the smallest subnormal to 1, at years far
    # from the bundled ones.
    YEARS = st.integers(-10**15, 10**15)
    SHARES = st.dictionaries(YEARS, st.floats(0.0, 1.0), min_size=1, max_size=12)
    THRESHOLD = st.floats(5e-324, 1.0, exclude_max=True)

    @given(SHARES, THRESHOLD)
    @example({-10**15: 5e-324, 10**15: 1.0}, 5e-324)
    @example({2000: 0.5 - 2 ** -54}, 0.5)
    def test_first_year_reaching_the_threshold_or_none(self, shares, threshold):
        expected = min((y for y, v in shares.items() if v >= threshold), default=None)
        result = knee(self.share(shares), threshold)
        assert result == expected
        assert result is None or type(result) is int

    @given(SHARES, st.dictionaries(YEARS, st.floats(1.0, 1.7e308, exclude_min=True), min_size=1, max_size=3),
           THRESHOLD)
    @example({2000: 0.5}, {2001: 1.0000000000000002}, 0.5)
    def test_a_share_above_one_is_refused_naming_it(self, shares, above, threshold):
        year = min(above)  # the first share above 1, since `shares` holds none
        with pytest.raises(ValueError, match="above 1") as err:
            knee(self.share({**shares, **above}), threshold)
        assert f"({year}, {above[year]!r})" in str(err.value)

    @given(
        data=st.dictionaries(st.integers(1980, 2020), st.floats(0.0, 1.0), min_size=1),
        thresholds=st.lists(st.floats(0.001, 0.999), min_size=2, max_size=8),
    )
    def test_threshold_monotonicity(self, data, thresholds):
        # Metamorphic: raising the threshold never makes the knee earlier;
        # a threshold never reached counts as later than any year.
        s = self.share(data)
        years = [knee(s, t) for t in sorted(thresholds)]
        ranked = [math.inf if y is None else y for y in years]
        assert ranked == sorted(ranked)
