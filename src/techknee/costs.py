"""Performance models: media units distributed per real dollar.

The replacement side prices transmission over the internet (monthly
bandwidth cost, compression-adjusted file sizes); the target side prices
first-class mailing of the physical medium. File sizes use decimal
megabits/gigabits throughout, matching the source arithmetic
(2,280.96 megabits for an uncompressed one-hour album).
"""

from __future__ import annotations

from collections import namedtuple

from .series import AnnualSeries, align

SECONDS_IN_MONTH = 2_592_000  # 30-day month

# Uncompressed reference rates (bits per second).
AUDIO_BIT_RATE = 633_600.0
SD_PIXEL_HEIGHT = 480
SD_PIXEL_WIDTH = 640
SD_BITS_PER_PIXEL = 24
SD_FRAMES_PER_SECOND = 30.0


class MediaSpec(namedtuple("MediaSpec", "kind length_seconds audio_bit_rate pixel_height pixel_width "
                                        "bits_per_pixel frames_per_second override_size_bits")):
    """Parameters of an uncompressed reference media unit, of kind "audio"
    or "video".

    Video specs derive their size from pixel geometry plus an audio
    track; when `override_size_bits` is set it wins (used for reference
    units whose generation parameters are not published).
    """

    __slots__ = ()

    def __new__(cls, kind: str, length_seconds: float, audio_bit_rate: float = AUDIO_BIT_RATE,
                pixel_height: int = 0, pixel_width: int = 0, bits_per_pixel: int = 0,
                frames_per_second: float = 0.0, override_size_bits: float | None = None) -> MediaSpec:
        if kind not in ("audio", "video"):
            raise ValueError(f"unknown media kind {kind!r}")
        if length_seconds <= 0:
            raise ValueError("length must be positive")
        if override_size_bits is not None:
            if override_size_bits <= 0:
                raise ValueError("override size must be positive")
        elif audio_bit_rate <= 0:
            raise ValueError("audio bit rate must be positive")
        elif kind == "video":
            if pixel_height <= 0 or pixel_width <= 0:
                raise ValueError("video needs positive pixel dimensions")
            if bits_per_pixel <= 0 or frames_per_second <= 0:
                raise ValueError("video needs positive depth and frame rate")
        return super().__new__(cls, kind, length_seconds, audio_bit_rate, pixel_height, pixel_width,
                               bits_per_pixel, frames_per_second, override_size_bits)


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

# Mail targets available by name in scenarios: medium name -> ceiled
# weight in ounces. CD and DVD ship under an ounce in a sleeve; a shelled
# cassette exceeds one ounce.
MAIL_TARGETS: dict[str, int] = {"mail_cd": 1, "mail_cassette": 2, "mail_dvd": 1}


def uncompressed_size_bits(spec: MediaSpec) -> float:
    """Uncompressed size of a media unit in bits; the override wins if set.

    Video adds its pixel rate to the audio track's bit rate.
    """
    if spec.override_size_bits is not None:
        return spec.override_size_bits
    rate = spec.audio_bit_rate
    if spec.kind == "video":
        rate += spec.pixel_height * spec.pixel_width * spec.bits_per_pixel * spec.frames_per_second
    return rate * spec.length_seconds


def one_minute_size_bits(kind: str) -> float:
    """Uncompressed size of one minute of media at the reference quality."""
    if kind == "audio":
        return uncompressed_size_bits(audio_spec(60.0))
    if kind == "video":
        return uncompressed_size_bits(sd_video_spec(60.0))
    raise ValueError(f"unknown media kind {kind!r}")


class MailSpec(namedtuple("MailSpec", "weight_ounces postage_first postage_additional")):
    """First-class mailing of one physical media unit.

    `weight_ounces` is the already-ceiled integer weight.
    """

    __slots__ = ()

    def __new__(cls, weight_ounces: int, postage_first: AnnualSeries,
                postage_additional: AnnualSeries) -> MailSpec:
        if weight_ounces < 1:
            raise ValueError("weight must be at least one ounce")
        for s in (postage_first, postage_additional):
            if s.unit != "real-dollars":
                raise ValueError(f"postage series tagged {s.unit!r}")
            if any(v <= 0 for _, v in s):
                raise ValueError("postage must be positive")
        return super().__new__(cls, weight_ounces, postage_first, postage_additional)


def internet_distribution_perf(
    speed_cost: AnnualSeries, compression: AnnualSeries, spec: MediaSpec
) -> AnnualSeries:
    """Media units transmittable per real dollar, per year.

    value(t) = (SECONDS_IN_MONTH / speed_cost(t)) * compression(t) / size_megabits

    `speed_cost` is monthly bandwidth pricing: real dollars per Mbps of
    speed per month. Covers the years both inputs have (`series.align`).
    """
    if speed_cost.unit != "real-dollars-per-megabit-month":
        raise ValueError(f"speed cost series tagged {speed_cost.unit!r}")
    if any(v <= 0 for _, v in speed_cost):
        raise ValueError("speed cost must be positive")
    size_megabits = uncompressed_size_bits(spec) / 1e6
    pairs = []
    for year, cost, ratio in align(speed_cost, compression):
        if ratio <= 0:
            raise ValueError(f"compression ratio must be positive at {year}")
        pairs.append((year, SECONDS_IN_MONTH / cost * ratio / size_megabits))
    return AnnualSeries(tuple(pairs), "media-units-per-real-dollar")


def mail_distribution_perf(mail: MailSpec) -> AnnualSeries:
    """Media units mailable per real dollar, per year.

    value(t) = 1 / (first_ounce(t) + (weight - 1) * additional_ounce(t)),
    over the years both postage series have (`series.align`).
    """
    extra = mail.weight_ounces - 1
    pairs = [(year, 1.0 / (first + extra * additional))
             for year, first, additional in align(mail.postage_first, mail.postage_additional)]
    return AnnualSeries(tuple(pairs), "media-units-per-real-dollar")
