"""The zero and one boundaries of the validators, each checked on both
sides: the last value accepted and the first refused. A validator moved
by one step, `<=` for `<` or 0 for 1, fails here (`tools/mutants.py`)."""

import pytest

from techknee.adoption import AnalogStorage, DigitalStorage, extend_compression, internet_media_minutes, \
    protocol_mix
from techknee.costs import MediaSpec, internet_distribution_perf, mail_distribution_perf
from techknee.fitting import ExpFit, knee
from techknee.series import AnnualSeries


def one_year(value: float, unit: str) -> AnnualSeries:
    return AnnualSeries(((2000, value),), unit)


def share(value: float) -> AnnualSeries:
    return one_year(value, "dimensionless-share")


def internet(ratio: float) -> AnnualSeries:
    return internet_distribution_perf(one_year(1.0, "real-dollars-per-megabit-month"), share(ratio),
                                      MediaSpec("audio", 1e6))


def mail(postage: float) -> AnnualSeries:
    return mail_distribution_perf(1, one_year(postage, "real-dollars"), one_year(postage, "real-dollars"))


def minutes(one_minute_bits: float) -> AnnualSeries:
    return internet_media_minutes(one_year(1.0, "count-per-year"), share(0.5), share(2.0), one_minute_bits)


# name: (the call at the last accepted value, the call at the first refused
# one, the refusal's message)
BOUNDARIES = {
    "compression ratio": (lambda: internet(0.5), lambda: internet(0.0), "compression ratio must be positive"),
    "postage": (lambda: mail(0.5), lambda: mail(0.0), "postage must be positive"),
    "media size": (lambda: MediaSpec("audio", 0.5), lambda: MediaSpec("audio", 0.0), "size must be positive"),
    "analog minutes": (lambda: AnalogStorage(0.5, 0.5), lambda: AnalogStorage(0.0, 0.5),
                       "minutes per unit must be positive"),
    "analog raw bits": (lambda: AnalogStorage(0.5, 0.5), lambda: AnalogStorage(0.5, 0.0),
                        "raw bits per minute must be positive"),
    "digital storage": (lambda: DigitalStorage(0.5), lambda: DigitalStorage(0.0), "unit storage must be positive"),
    "one-minute size": (lambda: minutes(0.5), lambda: minutes(0.0), "one-minute size must be positive"),
    "media fraction one": (lambda: protocol_mix([(share(0.5), 1.0)]), lambda: protocol_mix([(share(0.5), 1.005)]),
                           r"media fraction 1.005 outside \[0, 1\]"),
    "media fraction zero": (lambda: protocol_mix([(share(0.5), 0.0)]), lambda: protocol_mix([(share(0.5), -0.005)]),
                            r"media fraction -0.005 outside \[0, 1\]"),
    "fit window": (lambda: ExpFit(0.0, 0.5, (2000, 2001), 2, 1.0),
                   lambda: ExpFit(0.0, 0.5, (2001, 2000), 2, 1.0), "window start exceeds window end"),
    "knee share": (lambda: knee(share(1.0), 0.5), lambda: knee(share(1.005), 0.5), "adoption values above 1"),
    "scale factor": (lambda: share(0.5).scale(0), lambda: share(0.5).scale(-0.5),
                     "scale factor must be non-negative"),
    "compression entries": (lambda: extend_compression(share(2.0), 1999, 2001),
                            lambda: extend_compression(AnnualSeries((), "dimensionless-share"), 1999, 2001),
                            "empty compression series"),
}


@pytest.mark.parametrize("accepted, refused, message", BOUNDARIES.values(), ids=BOUNDARIES)
def test_boundary_accepts_one_side_and_refuses_the_other(accepted, refused, message):
    accepted()
    with pytest.raises(ValueError, match=f"^{message}"):
        refused()

