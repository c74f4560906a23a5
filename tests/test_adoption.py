"""Usage builders, adoption shares, and the protocol-mix combiner."""

import math

import pytest

from techknee.adoption import (
    AnalogStorage,
    DigitalStorage,
    DomainUsage,
    PhysicalMediaSpec,
    UsageMetric,
    adoption_share,
    analog_media_minutes,
    digital_media_minutes,
    extend_compression,
    internet_media_minutes,
    internet_media_raw_bits,
    physical_media_raw_bits,
    protocol_mix,
)
from techknee.costs import one_minute_size_bits
from techknee.errors import UnitMismatchError
from techknee.series import AnnualSeries

AUDIO_MIN_BITS = one_minute_size_bits("audio")   # 38.016 Mbit
VIDEO_MIN_BITS = one_minute_size_bits("video")   # 13,309.056 Mbit


def series(mapping, unit):
    return AnnualSeries.from_mapping(mapping, unit)


def counts(mapping):
    return series(mapping, "count-per-year")


class TestInternetMinutes:
    def test_audio_1998_oracle(self):
        # 134.4e6 GB * 8e9 * 9.5% / (38.016 Mbit / 3.68)
        minutes = internet_media_minutes(
            counts({1998: 134_400_000}),
            series({1998: 0.095}, "dimensionless-share"),
            series({1998: 3.68}, "dimensionless-share"),
            AUDIO_MIN_BITS,
        )
        assert minutes.to_mapping()[1998] == pytest.approx(9_887_676_767.676767, rel=1e-12)

    def test_audio_1999_oracle(self):
        minutes = internet_media_minutes(
            counts({1999: 306_000_000}),
            series({1999: 0.164}, "dimensionless-share"),
            series({1999: 3.68}, "dimensionless-share"),
            AUDIO_MIN_BITS,
        )
        assert minutes.to_mapping()[1999] == pytest.approx(38_863_030_303.0303, rel=1e-12)

    def test_zero_share_gives_zero_minutes(self):
        minutes = internet_media_minutes(
            counts({1990: 1000}),
            series({1990: 0.0}, "dimensionless-share"),
            series({1990: 2.0}, "dimensionless-share"),
            AUDIO_MIN_BITS,
        )
        assert minutes.to_mapping()[1990] == 0.0

    def test_missing_any_input_year_omitted(self):
        minutes = internet_media_minutes(
            counts({1990: 1.0, 1991: 1.0, 1992: 1.0}),
            series({1990: 0.1, 1992: 0.1}, "dimensionless-share"),
            series({1990: 1.0, 1991: 1.0}, "dimensionless-share"),
            AUDIO_MIN_BITS,
        )
        assert minutes.years == (1990,)

    def test_unit_tag(self):
        minutes = internet_media_minutes(
            counts({1990: 1.0}),
            series({1990: 0.1}, "dimensionless-share"),
            series({1990: 1.0}, "dimensionless-share"),
            AUDIO_MIN_BITS,
        )
        assert minutes.unit == "minutes-per-year"


def cassette_spec(sales):
    return PhysicalMediaSpec("cassette", AnalogStorage(60.0, AUDIO_MIN_BITS), counts(sales))


def vhs_spec(sales, raw_per_min=3_355_776_000.0):
    return PhysicalMediaSpec("vhs", AnalogStorage(180.0, raw_per_min), counts(sales))


def cd_spec(sales):
    return PhysicalMediaSpec("cd", DigitalStorage(700.0), counts(sales))


def dvd_spec(sales):
    return PhysicalMediaSpec("dvd", DigitalStorage(4700.0), counts(sales))


class TestPhysicalMinutes:
    def test_cassettes_1998(self):
        minutes = analog_media_minutes(cassette_spec({1998: 350e6}))
        assert minutes.to_mapping()[1998] == pytest.approx(2.10e10, rel=1e-12)

    def test_vhs_1997(self):
        minutes = analog_media_minutes(vhs_spec({1997: 1043.5e6}))
        assert minutes.to_mapping()[1997] == pytest.approx(1.8783e11, rel=1e-12)

    def test_zero_sales_year(self):
        assert analog_media_minutes(cassette_spec({1990: 0.0})).to_mapping()[1990] == 0.0

    def test_analog_op_rejects_digital_spec(self):
        with pytest.raises(ValueError, match="analog"):
            analog_media_minutes(cd_spec({1999: 1.0}))

    def test_cds_1999_oracle(self):
        minutes = digital_media_minutes(
            cd_spec({1999: 2499e6}),
            series({1999: 3.68}, "dimensionless-share"),
            AUDIO_MIN_BITS,
        )
        assert minutes.to_mapping()[1999] == pytest.approx(1_354_676_767_676.7676, rel=1e-12)

    def test_dvds_2002_oracle(self):
        minutes = digital_media_minutes(
            dvd_spec({2002: 26e6}),
            series({2002: 27.0}, "dimensionless-share"),
            VIDEO_MIN_BITS,
        )
        assert minutes.to_mapping()[2002] == pytest.approx(1_983_251_103.609452, rel=1e-12)

    def test_digital_op_rejects_analog_spec(self):
        with pytest.raises(ValueError, match="digital"):
            digital_media_minutes(
                cassette_spec({1999: 1.0}), series({1999: 1.0}, "dimensionless-share"), AUDIO_MIN_BITS
            )

    def test_missing_compression_year_omitted(self):
        minutes = digital_media_minutes(
            cd_spec({1999: 1.0, 2000: 1.0}),
            series({1999: 3.68}, "dimensionless-share"),
            AUDIO_MIN_BITS,
        )
        assert minutes.years == (1999,)


class TestRawBits:
    def test_internet_raw_has_no_compression_adjustment(self):
        raw = internet_media_raw_bits(counts({1998: 100.0}), series({1998: 0.5}, "dimensionless-share"))
        assert raw.to_mapping()[1998] == pytest.approx(100.0 * 8e9 * 0.5, rel=1e-12)

    def test_digital_raw_is_storage(self):
        raw = physical_media_raw_bits(cd_spec({1999: 10.0}))
        assert raw.to_mapping()[1999] == pytest.approx(10.0 * 700.0 * 8e6, rel=1e-12)

    def test_analog_raw_uses_native_equivalent(self):
        raw = physical_media_raw_bits(vhs_spec({2002: 2.0}))
        assert raw.to_mapping()[2002] == pytest.approx(2.0 * 180.0 * 3_355_776_000.0, rel=1e-12)


class TestAdoptionShare:
    def usage(self, name, mapping, unit="minutes-per-year"):
        return DomainUsage(name, series(mapping, unit))

    def test_single_domain_share_is_one(self):
        share = adoption_share(self.usage("net", {1990: 5.0, 1991: 7.0}), [])
        assert share.values == (1.0, 1.0)
        assert share.unit == "dimensionless-share"

    def test_share_of_market_semantics(self):
        share = adoption_share(
            self.usage("net", {1990: 1.0}), [self.usage("cd", {1990: 3.0})]
        )
        assert share.to_mapping()[1990] == pytest.approx(0.25, rel=1e-12)

    def test_units_metric_is_share_invariant(self):
        internet = self.usage("net", {1990: 30.0, 1991: 60.0})
        physical = [self.usage("cd", {1990: 90.0, 1991: 120.0})]
        by_minutes = adoption_share(internet, physical, UsageMetric.minutes())
        by_songs = adoption_share(internet, physical, UsageMetric.units(3.0))
        assert by_minutes.entries == by_songs.entries

    def test_unit_mismatch_rejected(self):
        with pytest.raises(UnitMismatchError):
            adoption_share(
                self.usage("net", {1990: 1.0}),
                [self.usage("cd", {1990: 1.0}, unit="count-per-year")],
            )

    def test_zero_total_year_omitted_with_warning(self):
        internet = self.usage("net", {1990: 0.0, 1991: 1.0})
        physical = [self.usage("cd", {1990: 0.0, 1991: 1.0})]
        with pytest.warns(UserWarning, match="1990"):
            share = adoption_share(internet, physical)
        assert share.years == (1991,)

    def test_no_common_years_is_error(self):
        with pytest.raises(ValueError, match="no years"):
            adoption_share(self.usage("net", {1990: 1.0}), [self.usage("cd", {1991: 1.0})])

    def test_shares_sum_to_one_across_domains(self):
        domains = {
            "net": {1990: 1.0, 1991: 2.0},
            "cd": {1990: 3.0, 1991: 5.0},
            "tape": {1990: 7.0, 1991: 11.0},
        }
        usages = {n: self.usage(n, m) for n, m in domains.items()}
        total_share = {}
        for name, u in usages.items():
            others = [v for k, v in usages.items() if k != name]
            s = adoption_share(u, others)
            for y, v in s:
                total_share[y] = total_share.get(y, 0.0) + v
        for y, v in total_share.items():
            assert v == pytest.approx(1.0, abs=1e-12)


class TestProtocolMix:
    def share(self, mapping):
        return series(mapping, "dimensionless-share")

    def test_single_protocol_constant(self):
        mixed = protocol_mix([(self.share({1990: 1.0, 1991: 1.0}), 0.4)])
        assert mixed.values == (0.4, 0.4)

    def test_all_zero_fractions(self):
        mixed = protocol_mix([(self.share({1990: 0.7}), 0.0), (self.share({1990: 0.3}), 0.0)])
        assert mixed.to_mapping()[1990] == 0.0

    def test_two_protocol_oracle(self):
        mixed = protocol_mix([(self.share({1990: 0.30}), 0.5), (self.share({1990: 0.20}), 0.1)])
        assert mixed.to_mapping()[1990] == pytest.approx(0.17, rel=1e-12)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            protocol_mix([(self.share({1990: 0.5}), 1.5)])


class TestExtendCompression:
    def test_one_before_carry_after(self):
        comp = series({1993: 3.68, 1994: 3.68}, "dimensionless-share")
        extended = extend_compression(comp, 1991, 1996)
        assert extended.to_mapping() == {
            1991: 1.0, 1992: 1.0, 1993: 3.68, 1994: 3.68, 1995: 3.68, 1996: 3.68
        }

    def test_interior_gaps_propagate(self):
        comp = series({1993: 2.0, 1995: 4.0}, "dimensionless-share")
        extended = extend_compression(comp, 1993, 1995)
        assert extended.years == (1993, 1995)


class TestUsageMetric:
    def test_labels(self):
        assert UsageMetric.minutes().label() == "minutes"
        assert UsageMetric.raw_bits().label() == "raw_bits"
        assert UsageMetric.units(3.0).label() == "units:3"

    def test_units_needs_length(self):
        with pytest.raises(ValueError, match="unit length"):
            UsageMetric("units")

    @pytest.mark.parametrize("length", [0.0, -3.0, math.inf, -math.inf, math.nan])
    def test_units_length_is_finite_and_positive(self, length):
        with pytest.raises(ValueError, match="finite positive unit length"):
            UsageMetric.units(length)

    def test_minutes_takes_no_length(self):
        with pytest.raises(ValueError, match="no unit length"):
            UsageMetric("minutes", 3.0)
