"""Cost models: reference media sizes and distribution performance."""

import sys

import pytest

from techknee.costs import (
    MediaSpec,
    REFERENCE_BIT_RATES,
    REFERENCE_MEDIA,
    _SECONDS_IN_MONTH,
    internet_distribution_perf,
    mail_distribution_perf,
    one_minute_size_bits,
)
from techknee.fitting import crossover_empirical
from techknee.series import AnnualSeries
from techknee.sweep import _parse_custom_media


def series(mapping, unit):
    return AnnualSeries.from_mapping(mapping, unit)


def postage(mapping):
    return series(mapping, "real-dollars")


class TestFileSizes:
    def test_album_size_published_value(self):
        # 633.6 kbit/s for 60 minutes: 2,280.96 megabits
        assert REFERENCE_MEDIA["album"].size_bits == pytest.approx(2280.96e6, rel=1e-12)

    def test_song_size_published_value(self):
        assert REFERENCE_MEDIA["song"].size_bits == pytest.approx(114.048e6, rel=1e-12)

    def test_clip_size_published_value(self):
        # (480*640*24*30 + 633600) * 300 s = 66.54528 gigabits
        assert REFERENCE_MEDIA["clip"].size_bits == pytest.approx(66.54528e9, rel=1e-12)
        assert REFERENCE_MEDIA["clip"].size_bits == pytest.approx(66.545e9, rel=5e-5)

    def test_sd_movie_size_four_significant_figures(self):
        assert REFERENCE_MEDIA["sd_movie"].size_bits == pytest.approx(1197.8e9, rel=5e-4)

    def test_hd_movie_uses_override(self):
        # Only the aggregate size is published, so it stands in for rate x length.
        assert REFERENCE_MEDIA["hd_movie"].size_bits == 3.027e12

    def test_zero_length_rejected_at_construction(self):
        with pytest.raises(ValueError, match="^length must be positive$"):
            _parse_custom_media({"kind": "audio", "length_seconds": 0})
        with pytest.raises(ValueError, match="^size must be positive$"):
            MediaSpec("audio", 0.0)

    def test_one_minute_sizes(self):
        assert one_minute_size_bits("audio") == pytest.approx(38.016e6, rel=1e-12)
        assert one_minute_size_bits("video") == pytest.approx(13309.056e6, rel=1e-12)

    @pytest.mark.parametrize("key", ["audio_bit_rate_kbps", "pixel_height", "pixel_width", "bits_per_pixel",
                                     "frames_per_second"])
    def test_strict_video_spec_needs_positive_fields(self, key):
        # Each field is accepted at 1 (the audio rate at 1 bit/s) and refused at 0.
        spec = {"kind": "video", "length_seconds": 10, "audio_bit_rate_kbps": 1e-3, "pixel_height": 1,
                "pixel_width": 1, "bits_per_pixel": 1, "frames_per_second": 1}
        assert _parse_custom_media(spec).size_bits == (1 + 1) * 10
        refusal = ("audio bit rate must be positive" if key.startswith("audio")
                   else "video needs positive pixel dimensions" if key.startswith("pixel")
                   else "video needs positive depth and frame rate")
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            _parse_custom_media(dict(spec, **{key: 0}))

    def test_reference_rates(self):
        assert REFERENCE_BIT_RATES == {"audio": 633_600.0, "video": 633_600.0 + 480 * 640 * 24 * 30.0}

    def test_unit_is_its_kind_and_size(self):
        assert MediaSpec._fields == ("kind", "size_bits")
        with pytest.raises(ValueError, match="^unknown media kind 'tape'$"):
            MediaSpec("tape", 1.0)
        with pytest.raises(ValueError, match="^size must be positive$"):
            MediaSpec("video", float("nan"))

    def test_declared_geometry_derives_the_bundled_sizes(self):
        clip = {"kind": "video", "length_seconds": 300, "pixel_height": 480, "pixel_width": 640,
                "bits_per_pixel": 24, "frames_per_second": 30}
        assert _parse_custom_media(clip) == REFERENCE_MEDIA["clip"]
        assert _parse_custom_media({"kind": "audio", "length_seconds": 3600}) == REFERENCE_MEDIA["album"]
        # (audio rate + pixel rate) x length, in that order, for a fractional frame rate too.
        ntsc = _parse_custom_media(dict(clip, frames_per_second=29.97, length_seconds=0.1))
        assert ntsc.size_bits == (633_600.0 + 480 * 640 * 24 * 29.97) * 0.1


def pricing(costs):
    return series(costs, "real-dollars-per-megabit-month")


class TestInternetPerformance:
    # Hand-arithmetic oracles over the bundled 2016$ rows and compression:
    # 1998: 2592000/1791.35 * 3.68 / 2280.96, 1997: 2592000/2239.83 * 3.68 / 2280.96
    AUDIO_1997 = 1.86702481073036
    AUDIO_1998 = 2.3344506555492686
    VIDEO_2002 = 3.8972573268076878

    def test_album_1998(self):
        perf = internet_distribution_perf(
            pricing({1998: 1791.35}), series({1998: 3.68}, "dimensionless-share"),
            REFERENCE_MEDIA["album"],
        )
        assert perf.to_mapping()[1998] == pytest.approx(self.AUDIO_1998, rel=1e-12)
        assert perf.to_mapping()[1998] == pytest.approx(2.334, abs=5e-4)

    def test_album_1997(self):
        perf = internet_distribution_perf(
            pricing({1997: 2239.83}), series({1997: 3.68}, "dimensionless-share"),
            REFERENCE_MEDIA["album"],
        )
        assert perf.to_mapping()[1997] == pytest.approx(self.AUDIO_1997, rel=1e-12)

    def test_clip_2002(self):
        perf = internet_distribution_perf(
            pricing({2002: 269.85}), series({2002: 27.0}, "dimensionless-share"),
            REFERENCE_MEDIA["clip"],
        )
        assert perf.to_mapping()[2002] == pytest.approx(self.VIDEO_2002, rel=1e-12)
        assert perf.to_mapping()[2002] == pytest.approx(3.897, abs=5e-4)

    def test_output_unit_tag(self):
        perf = internet_distribution_perf(
            pricing({1998: 100.0}), series({1998: 1.0}, "dimensionless-share"),
            REFERENCE_MEDIA["album"],
        )
        assert perf.unit == "media-units-per-real-dollar"

    def test_missing_compression_year_omitted(self):
        perf = internet_distribution_perf(
            pricing({1998: 100.0, 1999: 100.0}), series({1998: 1.0}, "dimensionless-share"),
            REFERENCE_MEDIA["album"],
        )
        assert perf.years == (1998,)

    def test_speed_cost_tag_and_sign_checked(self):
        comp = series({1998: 1.0}, "dimensionless-share")
        with pytest.raises(ValueError, match="tagged"):
            internet_distribution_perf(series({1998: 1.0}, "real-dollars"), comp, REFERENCE_MEDIA["album"])
        with pytest.raises(ValueError, match="positive"):
            internet_distribution_perf(pricing({1998: 0.0}), comp, REFERENCE_MEDIA["album"])

    def test_doubling_size_halves_performance(self):
        costs = pricing({y: 50.0 + y % 7 for y in range(1990, 2010)})
        comp = series({y: 3.0 for y in range(1990, 2010)}, "dimensionless-share")
        base = internet_distribution_perf(costs, comp, MediaSpec("audio", 1e8))
        doubled = internet_distribution_perf(costs, comp, MediaSpec("audio", 2e8))
        for (y1, v1), (y2, v2) in zip(base, doubled):
            assert y1 == y2
            assert v2 == pytest.approx(v1 / 2.0, rel=1e-12)

    def test_performance_beyond_a_float_names_year_and_input(self):
        comp = series({1999: 1.0, 2000: 1.0}, "dimensionless-share")
        with pytest.raises(ValueError, match=r"^internet distribution performance at 2000 is beyond a "
                                             r"float's range: speed cost 5e-324, compression ratio 1\.0$"):
            internet_distribution_perf(pricing({1999: 1.0, 2000: 5e-324}), comp, REFERENCE_MEDIA["album"])

    def test_size_below_a_float_in_megabits_is_refused(self):
        # 1e-303 bits is 1e-309 megabits, below a float's normal range.
        comp = series({2000: 1.0}, "dimensionless-share")
        with pytest.raises(ValueError, match=r"^media size 1e-303 bits is below a float's normal range in megabits$"):
            internet_distribution_perf(pricing({2000: 1.0}), comp, MediaSpec("audio", 1e-303))

    # Each refusal's edge is accepted: a size of exactly the least normal
    # float in megabits, a rate per dollar of exactly that float, and a
    # performance of exactly that float.
    @pytest.mark.parametrize("cost, ratio, size_bits, value", [
        (1e6, 1.0, sys.float_info.min * 1e6, 2.592 / sys.float_info.min),
        (2_592_000.0, sys.float_info.min, 1e6 * 2.0 ** -10, sys.float_info.min * 2.0 ** 10),
        (2_592_000.0 * 2.0 ** 20, 1.0, 2.0 ** 1002 * 1e6, sys.float_info.min),
    ], ids=["size", "per_dollar", "value"])
    def test_the_least_normal_float_is_in_range(self, cost, ratio, size_bits, value):
        comp = series({2000: ratio}, "dimensionless-share")
        perf = internet_distribution_perf(pricing({2000: cost}), comp, MediaSpec("audio", size_bits))
        assert perf.entries == ((2000, value),)

    def test_seconds_in_month_is_pinned(self):
        assert _SECONDS_IN_MONTH == 2_592_000


class TestMailPerformance:
    def test_cd_1998(self):
        perf = mail_distribution_perf(1, postage({1998: 0.52}), postage({1998: 0.37}))
        assert perf.to_mapping()[1998] == pytest.approx(1.923076923076923, rel=1e-12)

    def test_unit_cost_one_dollar(self):
        perf = mail_distribution_perf(1, postage({2000: 1.00}), postage({2000: 0.5}))
        assert perf.to_mapping()[2000] == pytest.approx(1.0, rel=1e-12)

    def test_two_ounces_2001(self):
        perf = mail_distribution_perf(2, postage({2001: 0.47}), postage({2001: 0.29}))
        assert perf.to_mapping()[2001] == pytest.approx(1.3157894736842106, rel=1e-12)
        assert perf.to_mapping()[2001] == pytest.approx(1.316, abs=5e-4)

    def test_weight_below_one_rejected(self):
        with pytest.raises(ValueError, match="ounce"):
            mail_distribution_perf(0, postage({2001: 0.47}), postage({2001: 0.29}))

    @pytest.mark.parametrize("tagged", ["first", "additional"])
    def test_postage_of_another_unit_is_refused(self, tagged):
        rates = {"first": postage({2000: 0.5}), "additional": postage({2000: 0.3})}
        rates[tagged] = series({2000: 0.5}, "count-per-year")
        with pytest.raises(ValueError, match="^postage series tagged 'count-per-year'$"):
            mail_distribution_perf(2, rates["first"], rates["additional"])

    def test_missing_additional_year_omitted(self):
        perf = mail_distribution_perf(1, postage({2000: 0.5, 2001: 0.5}), postage({2000: 0.3}))
        assert perf.years == (2000,)

    @pytest.mark.parametrize("weight, first, additional", [(1, 5e-324, 0.3), (2, 5e-324, 5e-324)])
    def test_performance_beyond_a_float_names_year_and_input(self, weight, first, additional):
        with pytest.raises(ValueError, match=rf"^mail distribution performance at 2000 is beyond a float's range: "
                                             rf"first-ounce postage {first!r}, additional-ounce postage {additional!r}$"):
            mail_distribution_perf(weight, postage({1999: 0.3, 2000: first}), postage({1999: 0.3, 2000: additional}))

    @pytest.mark.parametrize("weight, first, additional", [(2, 1e308, 1e308), (3, 1.0, 1e308)])
    def test_postage_total_beyond_a_float_names_year_and_input(self, weight, first, additional):
        # The true performance, ~5e-309, is finite; an overflowed total would read it as 0.0.
        with pytest.raises(ValueError) as exc:
            mail_distribution_perf(weight, postage({1999: 0.3, 2000: first}), postage({1999: 0.3, 2000: additional}))
        assert str(exc.value) == (f"postage of {weight} ounces at 2000 is beyond a float's range: "
                                  f"first-ounce postage {first!r}, additional-ounce postage {additional!r}")

    @pytest.mark.parametrize("weight", [10 ** 400, 10 ** 5000], ids=["10**400", "10**5000"])
    def test_weight_beyond_a_float_is_refused(self, weight):
        # 10**5000 has more digits than `str` of an int may format.
        with pytest.raises(ValueError, match="^weight in ounces is beyond a float's range$"):
            mail_distribution_perf(weight, postage({2000: 0.5}), postage({2000: 0.3}))

    def test_size_invariance_at_one_ounce(self):
        # Mail performance depends on weight, not on the media unit's bits.
        perf = mail_distribution_perf(1, postage({2000: 0.5}), postage({2000: 0.3}))
        assert perf.to_mapping()[2000] == 2.0


class TestDimensionalConsistency:
    def test_crossover_accepts_both_performance_series(self):
        perf_r = internet_distribution_perf(
            pricing({1998: 1791.35, 1999: 1175.63}),
            series({1998: 3.68, 1999: 3.68}, "dimensionless-share"),
            REFERENCE_MEDIA["album"],
        )
        perf_t = mail_distribution_perf(1, postage({1998: 0.52, 1999: 0.48}), postage({1998: 0.37, 1999: 0.32}))
        assert crossover_empirical(perf_r, perf_t).year == 1998


class TestUncompressedSizeDispatch:
    @pytest.mark.parametrize("name", sorted(REFERENCE_MEDIA))
    def test_positive_sizes(self, name):
        assert REFERENCE_MEDIA[name].size_bits > 0

    def test_audio_override_wins(self):
        spec = _parse_custom_media({"kind": "audio", "length_seconds": 60, "override_size_gigabits": 1.5})
        assert spec == MediaSpec("audio", 1.5e9)
