"""Usage and adoption-share computation across distribution domains.

Internet usage derives from total traffic and the media share of that
traffic; physical-media usage derives from unit sales. All domains are
expressed in a common usage metric (compression-adjusted minutes, raw
bits, or unit counts) and the adoption share is the internet's fraction
of the total.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from typing import NamedTuple

from .errors import UnitMismatchError
from .series import AnnualSeries, align

BITS_PER_GIGABYTE = 8e9  # decimal gigabytes
BITS_PER_MEGABYTE = 8e6  # decimal megabytes


class DomainUsage(NamedTuple):
    """A distribution domain's yearly usage in a common metric (minutes,
    or raw bits)."""

    domain_name: str
    series: AnnualSeries


class AnalogStorage(namedtuple("AnalogStorage", "minutes_per_unit raw_bits_per_minute")):
    """Analog medium: content measured in minutes per unit.

    `raw_bits_per_minute` is the digital-equivalent size of one minute of
    the medium's native-quality content, used only by the raw-bits metric.
    """

    __slots__ = ()

    def __new__(cls, minutes_per_unit: float, raw_bits_per_minute: float) -> AnalogStorage:
        if minutes_per_unit <= 0:
            raise ValueError("minutes per unit must be positive")
        if raw_bits_per_minute <= 0:
            raise ValueError("raw bits per minute must be positive")
        return super().__new__(cls, minutes_per_unit, raw_bits_per_minute)


class DigitalStorage(namedtuple("DigitalStorage", "unit_storage_megabytes")):
    """Digital medium: content measured by on-disc capacity."""

    __slots__ = ()

    def __new__(cls, unit_storage_megabytes: float) -> DigitalStorage:
        if unit_storage_megabytes <= 0:
            raise ValueError("unit storage must be positive")
        return super().__new__(cls, unit_storage_megabytes)


class PhysicalMediaSpec(namedtuple("PhysicalMediaSpec", "name storage yearly_sales")):
    """A physical competitor medium and its yearly unit sales (absolute
    unit counts per year)."""

    __slots__ = ()

    def __new__(cls, name: str, storage: AnalogStorage | DigitalStorage,
                yearly_sales: AnnualSeries) -> PhysicalMediaSpec:
        if yearly_sales.unit != "count-per-year":
            raise ValueError(f"sales series tagged {yearly_sales.unit!r}")
        return super().__new__(cls, name, storage, yearly_sales)


class UsageMetric(namedtuple("UsageMetric", "kind unit_length_minutes")):
    """How usage is counted: minutes, raw bits, or fixed-length units."""

    __slots__ = ()

    def __new__(cls, kind: str, unit_length_minutes: float | None = None) -> UsageMetric:
        if kind not in ("minutes", "raw_bits", "units"):
            raise ValueError(f"unknown usage metric {kind!r}")
        if kind == "units":
            # Also refuses NaN; an infinite length would count no units at all.
            if unit_length_minutes is None or not 0 < unit_length_minutes < math.inf:
                raise ValueError("units metric needs a finite positive unit length")
        elif unit_length_minutes is not None:
            raise ValueError(f"{kind} metric takes no unit length")
        return super().__new__(cls, kind, unit_length_minutes)

    @classmethod
    def minutes(cls) -> "UsageMetric":
        return cls("minutes")

    @classmethod
    def raw_bits(cls) -> "UsageMetric":
        return cls("raw_bits")

    @classmethod
    def units(cls, unit_length_minutes: float) -> "UsageMetric":
        return cls("units", unit_length_minutes)

    def label(self) -> str:
        if self.kind == "units":
            length = self.unit_length_minutes
            return f"units:{int(length) if float(length).is_integer() else length}"
        return self.kind


def extend_compression(compression: AnnualSeries, from_year: int, to_year: int) -> AnnualSeries:
    """Extend a compression schedule: ratio 1 before coverage, carry the
    last value forward after it."""
    if len(compression) == 0:
        raise ValueError("empty compression series")
    known = compression.to_mapping()
    first, last = compression.years[0], compression.years[-1]
    pairs = []
    for year in range(from_year, to_year + 1):
        if year < first:
            pairs.append((year, 1.0))
        elif year > last:
            pairs.append((year, known[last]))
        elif year in known:
            pairs.append((year, known[year]))
    return AnnualSeries(tuple(pairs), compression.unit)


def internet_media_minutes(
    traffic: AnnualSeries,
    media_share: AnnualSeries,
    compression: AnnualSeries,
    one_min_uncompressed_bits: float,
) -> AnnualSeries:
    """Minutes of media moved over the internet per year.

    traffic_bits(t) * share(t) / (one_minute_uncompressed / compression(t));
    traffic is in decimal gigabytes per year. Covers the years all three
    inputs have (`series.align`).
    """
    if one_min_uncompressed_bits <= 0:
        raise ValueError("one-minute size must be positive")
    pairs = [(year, gigabytes * BITS_PER_GIGABYTE * share / (one_min_uncompressed_bits / ratio))
             for year, gigabytes, share, ratio in align(traffic, media_share, compression)]
    return AnnualSeries(tuple(pairs), "minutes-per-year")


def analog_media_minutes(spec: PhysicalMediaSpec) -> AnnualSeries:
    """Minutes sold on an analog medium: sales * minutes per unit."""
    if not isinstance(spec.storage, AnalogStorage):
        raise ValueError(f"{spec.name} is not an analog medium")
    scaled = spec.yearly_sales.scale(spec.storage.minutes_per_unit)
    return AnnualSeries(scaled.entries, "minutes-per-year")


def digital_media_minutes(
    spec: PhysicalMediaSpec,
    compression: AnnualSeries,
    one_min_uncompressed_bits: float,
) -> AnnualSeries:
    """Minutes storable on a digital medium's yearly sales.

    sales * storage_bits * compression(t) / one_minute_uncompressed, over
    the years both series have (`series.align`).
    """
    if not isinstance(spec.storage, DigitalStorage):
        raise ValueError(f"{spec.name} is not a digital medium")
    storage_bits = spec.storage.unit_storage_megabytes * BITS_PER_MEGABYTE
    pairs = [(year, sales * storage_bits * ratio / one_min_uncompressed_bits)
             for year, sales, ratio in align(spec.yearly_sales, compression)]
    return AnnualSeries(tuple(pairs), "minutes-per-year")


def internet_media_raw_bits(traffic: AnnualSeries, media_share: AnnualSeries) -> AnnualSeries:
    """Raw bits carried for a media type: traffic * share, no compression
    adjustment, over the years both series have (`series.align`)."""
    pairs = [(year, gigabytes * BITS_PER_GIGABYTE * share)
             for year, gigabytes, share in align(traffic, media_share)]
    return AnnualSeries(tuple(pairs), "count-per-year")


def physical_media_raw_bits(spec: PhysicalMediaSpec) -> AnnualSeries:
    """Raw bits represented by a physical medium's yearly sales.

    Digital media count their on-disc capacity; analog media count the
    digital equivalent of their native-quality content.
    """
    if isinstance(spec.storage, DigitalStorage):
        per_unit = spec.storage.unit_storage_megabytes * BITS_PER_MEGABYTE
    else:
        per_unit = spec.storage.minutes_per_unit * spec.storage.raw_bits_per_minute
    scaled = spec.yearly_sales.scale(per_unit)
    return AnnualSeries(scaled.entries, "count-per-year")


def adoption_share(
    internet: DomainUsage,
    physical: list[DomainUsage],
    metric: UsageMetric | None = None,
) -> AnnualSeries:
    """Internet share of total usage (internet included), per year, over the
    years every domain has (`series.align`); shares lie in [0, 1].

    All usages must carry the same unit tag. The units metric divides every
    domain by the same unit length, so its shares equal the minutes
    metric's up to rounding (on the bundled data, 2,600 of 5,400 shares
    for lengths 1-180 differ, by up to 4 ULPs); it exists so unit counts
    can be reported alongside. The shares are computed from the scaled
    usage rather than copied from `minutes`, since a knee exactly at a
    threshold could flip otherwise.
    """
    metric = metric or UsageMetric.minutes()
    usages = [internet] + list(physical)
    unit = internet.series.unit
    for usage in usages:
        if usage.series.unit != unit:
            raise UnitMismatchError(
                f"{usage.domain_name} is {usage.series.unit!r}, expected {unit!r}"
            )
    series = [u.series for u in usages]
    if metric.kind == "units":
        series = [s.scale(1.0 / metric.unit_length_minutes) for s in series]
    rows = align(*series)
    if not rows:
        raise ValueError("domains share no years")
    pairs = []
    for year, net, *others in rows:
        total = net + sum(others)
        if total == 0:
            warnings.warn(f"zero total usage in {year}; year omitted", stacklevel=2)
            continue
        pairs.append((year, net / total))
    return AnnualSeries(tuple(pairs), "dimensionless-share")


def protocol_mix(protocol_shares: list[tuple[AnnualSeries, float]]) -> AnnualSeries:
    """Media share of total internet use from per-protocol shares.

    Sum over protocols of internet_share_i(t) * media_fraction_i, over the
    years common to all protocol series (`series.align`).
    """
    for _, fraction in protocol_shares:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"media fraction {fraction} outside [0, 1]")
    if not protocol_shares:
        return AnnualSeries((), "dimensionless-share")
    shares, fractions = zip(*protocol_shares)
    pairs = [(row[0], sum(share * f for share, f in zip(row[1:], fractions))) for row in align(*shares)]
    return AnnualSeries(tuple(pairs), "dimensionless-share")
