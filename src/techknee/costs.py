"""Performance models: media units distributed per real dollar.

The replacement side prices transmission over the internet (monthly
bandwidth cost, compression-adjusted file sizes); the target side prices
first-class mailing of the physical medium. A reference media unit is its
kind and its uncompressed size: the kind's reference bit rate times the
unit's length, or a published size. File sizes use decimal
megabits/gigabits throughout, matching the source arithmetic
(2,280.96 megabits for an uncompressed one-hour album).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .series import AnnualSeries, align

_SECONDS_IN_MONTH = 2_592_000  # 30-day month

# Uncompressed reference bit rates per media kind (bits per second): CD-quality
# audio, and SD video (640x480 pixels, 24-bit colour, 30 fps) with its audio track.
REFERENCE_BIT_RATES: dict[str, float] = {"audio": 633_600.0}
REFERENCE_BIT_RATES["video"] = REFERENCE_BIT_RATES["audio"] + 480 * 640 * 24 * 30.0


class MediaSpec(namedtuple("MediaSpec", "kind size_bits")):
    """An uncompressed reference media unit: its kind, "audio" or "video",
    and its size in bits, which alone sets how many units a dollar of
    bandwidth moves."""

    __slots__ = ()

    def __new__(cls, kind: str, size_bits: float) -> MediaSpec:
        if kind not in ("audio", "video"):
            raise ValueError(f"unknown media kind {kind!r}")
        if not size_bits > 0:
            raise ValueError("size must be positive")
        if size_bits == math.inf:
            raise ValueError("size must be finite")
        return super().__new__(cls, kind, size_bits)


# Reference media units available by name in scenarios: rate x length, except
# for the 90-minute high-definition movie, whose aggregate size alone is published.
REFERENCE_MEDIA: dict[str, MediaSpec] = {
    "album": MediaSpec("audio", REFERENCE_BIT_RATES["audio"] * 3600.0),
    "song": MediaSpec("audio", REFERENCE_BIT_RATES["audio"] * 180.0),
    "clip": MediaSpec("video", REFERENCE_BIT_RATES["video"] * 300.0),
    "sd_movie": MediaSpec("video", REFERENCE_BIT_RATES["video"] * 5400.0),
    "hd_movie": MediaSpec("video", 3.027e12),
}

# Mail targets available by name in scenarios: medium name -> ceiled
# weight in ounces. CD and DVD ship under an ounce in a sleeve; a shelled
# cassette exceeds one ounce.
MAIL_TARGETS: dict[str, int] = {"mail_cd": 1, "mail_cassette": 2, "mail_dvd": 1}


def one_minute_size_bits(kind: str) -> float:
    """Uncompressed size of one minute of media of `kind` at the reference quality."""
    return REFERENCE_BIT_RATES[kind] * 60.0


def internet_distribution_perf(
    speed_cost: AnnualSeries, compression: AnnualSeries, spec: MediaSpec
) -> AnnualSeries:
    """Media units transmittable per real dollar, per year.

    value(t) = (_SECONDS_IN_MONTH / speed_cost(t)) * compression(t) / size_megabits

    `speed_cost` is monthly bandwidth pricing: real dollars per Mbps of
    speed per month. Covers the years both inputs have (`series.align`).
    """
    if speed_cost.unit != "real-dollars-per-megabit-month":
        raise ValueError(f"speed cost series tagged {speed_cost.unit!r}")
    if any(v <= 0 for _, v in speed_cost):
        raise ValueError("speed cost must be positive")
    # Below a float's normal range a number loses precision; above it, it is inf.
    size_megabits = spec.size_bits / 1e6
    if size_megabits < sys.float_info.min:
        raise ValueError(f"media size {spec.size_bits!r} bits is below a float's normal range in megabits")
    pairs = []
    for year, cost, ratio in align(speed_cost, compression):
        if ratio <= 0:
            raise ValueError(f"compression ratio must be positive at {year}")
        per_dollar = _SECONDS_IN_MONTH / cost * ratio
        value = per_dollar / size_megabits
        if per_dollar < sys.float_info.min or not sys.float_info.min <= value < math.inf:
            raise ValueError(f"internet distribution performance at {year} is beyond a float's range: "
                             f"speed cost {cost!r}, compression ratio {ratio!r}")
        pairs.append((year, value))
    return AnnualSeries(tuple(pairs), "media-units-per-real-dollar")


def mail_distribution_perf(weight_ounces: int, first_ounce: AnnualSeries,
                           additional_ounce: AnnualSeries) -> AnnualSeries:
    """Media units mailable per real dollar, per year, by first-class mail
    of a unit weighing `weight_ounces`, an already-ceiled whole number of
    at least one, under two positive postage series in real dollars.

    value(t) = 1 / (first_ounce(t) + (weight - 1) * additional_ounce(t)),
    over the years both postage series have (`series.align`).
    """
    if weight_ounces < 1:
        raise ValueError("weight must be at least one ounce")
    for s in (first_ounce, additional_ounce):
        if s.unit != "real-dollars":
            raise ValueError(f"postage series tagged {s.unit!r}")
        if any(v <= 0 for _, v in s):
            raise ValueError("postage must be positive")
    try:
        extra = float(weight_ounces - 1)
    except OverflowError:
        # No text of the weight: `str` of an int above 4,300 digits raises too.
        raise ValueError("weight in ounces is beyond a float's range") from None
    pairs = []
    for year, first, additional in align(first_ounce, additional_ounce):
        total = first + extra * additional
        if total == math.inf:
            raise ValueError(f"postage of {weight_ounces} ounces at {year} is beyond a float's range: "
                             f"first-ounce postage {first!r}, additional-ounce postage {additional!r}")
        value = 1.0 / total
        if value == math.inf:
            raise ValueError(f"mail distribution performance at {year} is beyond a float's range: "
                             f"first-ounce postage {first!r}, additional-ounce postage {additional!r}")
        pairs.append((year, value))
    return AnnualSeries(tuple(pairs), "media-units-per-real-dollar")
