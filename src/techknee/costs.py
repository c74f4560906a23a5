"""Performance models: media units distributed per real dollar.

The replacement side prices transmission over the internet (monthly
bandwidth cost, compression-adjusted file sizes); the target side prices
first-class mailing of the physical medium. File sizes use decimal
megabits/gigabits throughout, matching the source arithmetic
(2,280.96 megabits for an uncompressed one-hour album).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .series import AnnualSeries

SECONDS_IN_MONTH = 2_592_000  # 30-day month

# Uncompressed reference rates (bits per second).
AUDIO_BIT_RATE = 633_600.0
SD_PIXEL_HEIGHT = 480
SD_PIXEL_WIDTH = 640
SD_BITS_PER_PIXEL = 24
SD_FRAMES_PER_SECOND = 30.0


@dataclass(frozen=True)
class MediaSpec:
    """Parameters of an uncompressed reference media unit.

    Video specs derive their size from pixel geometry plus an audio
    track; when `override_size_bits` is set it wins (used for reference
    units whose generation parameters are not published).
    """

    kind: str  # "audio" | "video"
    length_seconds: float
    audio_bit_rate: float = AUDIO_BIT_RATE
    pixel_height: int = 0
    pixel_width: int = 0
    bits_per_pixel: int = 0
    frames_per_second: float = 0.0
    override_size_bits: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("audio", "video"):
            raise ValueError(f"unknown media kind {self.kind!r}")
        if self.length_seconds <= 0:
            raise ValueError("length must be positive")
        if self.override_size_bits is not None:
            if self.override_size_bits <= 0:
                raise ValueError("override size must be positive")
            return
        if self.audio_bit_rate <= 0:
            raise ValueError("audio bit rate must be positive")
        if self.kind == "video":
            if self.pixel_height <= 0 or self.pixel_width <= 0:
                raise ValueError("video needs positive pixel dimensions")
            if self.bits_per_pixel <= 0 or self.frames_per_second <= 0:
                raise ValueError("video needs positive depth and frame rate")


def audio_spec(length_seconds: float, audio_bit_rate: float = AUDIO_BIT_RATE) -> MediaSpec:
    return MediaSpec(kind="audio", length_seconds=length_seconds, audio_bit_rate=audio_bit_rate)


def sd_video_spec(length_seconds: float) -> MediaSpec:
    return MediaSpec(
        kind="video",
        length_seconds=length_seconds,
        audio_bit_rate=AUDIO_BIT_RATE,
        pixel_height=SD_PIXEL_HEIGHT,
        pixel_width=SD_PIXEL_WIDTH,
        bits_per_pixel=SD_BITS_PER_PIXEL,
        frames_per_second=SD_FRAMES_PER_SECOND,
    )


# Reference media units available by name in scenarios.
REFERENCE_MEDIA: dict[str, MediaSpec] = {
    "album": audio_spec(3600.0),
    "song": audio_spec(180.0),
    "clip": sd_video_spec(300.0),
    "sd_movie": sd_video_spec(5400.0),
    # 90-minute high-definition movie: only the aggregate size is published.
    "hd_movie": MediaSpec(kind="video", length_seconds=5400.0, override_size_bits=3.027e12),
}

def _audio_size_bits(bit_rate: float, length_seconds: float) -> float:
    return bit_rate * length_seconds


def _video_size_bits(
    pixel_height: int,
    pixel_width: int,
    bits_per_pixel: int,
    frames_per_second: float,
    audio_bit_rate: float,
    length_seconds: float,
) -> float:
    # With all pixel terms zeroed this reduces to the audio formula.
    video_rate = pixel_height * pixel_width * bits_per_pixel * frames_per_second
    return (video_rate + audio_bit_rate) * length_seconds


def audio_file_size(spec: MediaSpec) -> float:
    """Uncompressed audio reference size in bits."""
    if spec.kind != "audio":
        raise ValueError(f"expected an audio spec, got {spec.kind!r}")
    if spec.override_size_bits is not None:
        return spec.override_size_bits
    return _audio_size_bits(spec.audio_bit_rate, spec.length_seconds)


def video_file_size(spec: MediaSpec) -> float:
    """Uncompressed video reference size in bits (override wins if set)."""
    if spec.kind != "video":
        raise ValueError(f"expected a video spec, got {spec.kind!r}")
    if spec.override_size_bits is not None:
        return spec.override_size_bits
    return _video_size_bits(
        spec.pixel_height,
        spec.pixel_width,
        spec.bits_per_pixel,
        spec.frames_per_second,
        spec.audio_bit_rate,
        spec.length_seconds,
    )


def uncompressed_size_bits(spec: MediaSpec) -> float:
    return audio_file_size(spec) if spec.kind == "audio" else video_file_size(spec)


def one_minute_size_bits(kind: str) -> float:
    """Uncompressed size of one minute of media at the reference quality."""
    if kind == "audio":
        return _audio_size_bits(AUDIO_BIT_RATE, 60.0)
    if kind == "video":
        return _video_size_bits(
            SD_PIXEL_HEIGHT, SD_PIXEL_WIDTH, SD_BITS_PER_PIXEL, SD_FRAMES_PER_SECOND, AUDIO_BIT_RATE, 60.0
        )
    raise ValueError(f"unknown media kind {kind!r}")


@dataclass(frozen=True)
class InternetPricing:
    """Monthly bandwidth pricing: real dollars per Mbps of speed per month."""

    speed_cost: AnnualSeries
    seconds_in_month: int = SECONDS_IN_MONTH

    def __post_init__(self) -> None:
        if self.seconds_in_month != SECONDS_IN_MONTH:
            raise ValueError(f"seconds_in_month must be exactly {SECONDS_IN_MONTH}")
        if self.speed_cost.unit != "real-dollars-per-megabit-month":
            raise ValueError(f"speed cost series tagged {self.speed_cost.unit!r}")
        if any(v <= 0 for _, v in self.speed_cost):
            raise ValueError("speed cost must be positive")


@dataclass(frozen=True)
class MailSpec:
    """First-class mailing of one physical media unit.

    `weight_ounces` is the already-ceiled integer weight; use
    `MailSpec.with_weight` to ceil a raw weight at construction.
    """

    weight_ounces: int
    postage_first: AnnualSeries
    postage_additional: AnnualSeries

    def __post_init__(self) -> None:
        if self.weight_ounces < 1:
            raise ValueError("weight must be at least one ounce")
        for s in (self.postage_first, self.postage_additional):
            if s.unit != "real-dollars":
                raise ValueError(f"postage series tagged {s.unit!r}")
            if any(v <= 0 for _, v in s):
                raise ValueError("postage must be positive")

    @classmethod
    def with_weight(
        cls, raw_ounces: float, postage_first: AnnualSeries, postage_additional: AnnualSeries
    ) -> "MailSpec":
        return cls(max(1, math.ceil(raw_ounces)), postage_first, postage_additional)


def internet_distribution_perf(
    pricing: InternetPricing,
    compression: AnnualSeries,
    spec: MediaSpec,
    years: Iterable[int] | None = None,
) -> AnnualSeries:
    """Media units transmittable per real dollar, per year.

    value(t) = (seconds_in_month / speed_cost(t)) * compression(t) / size_megabits

    Years missing from either input are omitted, never interpolated.
    """
    size_megabits = uncompressed_size_bits(spec) / 1e6
    wanted = set(years) if years is not None else None
    pairs = []
    comp = compression.to_mapping()
    for year, cost in pricing.speed_cost:
        if wanted is not None and year not in wanted:
            continue
        if year not in comp:
            continue
        if comp[year] <= 0:
            raise ValueError(f"compression ratio must be positive at {year}")
        value = pricing.seconds_in_month / cost * comp[year] / size_megabits
        pairs.append((year, value))
    return AnnualSeries(tuple(pairs), "media-units-per-real-dollar")


def mail_distribution_perf(mail: MailSpec, years: Iterable[int] | None = None) -> AnnualSeries:
    """Media units mailable per real dollar, per year.

    value(t) = 1 / (first_ounce(t) + (weight - 1) * additional_ounce(t))
    """
    wanted = set(years) if years is not None else None
    additional = mail.postage_additional.to_mapping()
    pairs = []
    for year, first in mail.postage_first:
        if wanted is not None and year not in wanted:
            continue
        if year not in additional:
            continue
        cost = first + (mail.weight_ounces - 1) * additional[year]
        pairs.append((year, 1.0 / cost))
    return AnnualSeries(tuple(pairs), "media-units-per-real-dollar")
