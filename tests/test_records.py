"""Record semantics: every record is immutable, compared and hashed by
value, and each validated record checks its fields at construction."""

import copy
import inspect
import pickle
from datetime import date

import pytest

from techknee.adoption import AnalogStorage, DigitalStorage, PhysicalMediaSpec, UsageMetric
from techknee.costs import MediaSpec
from techknee.datasets import load_all
from techknee.fitting import CrossoverResult, ExpFit
from techknee.series import AnnualSeries, RateSchedule
from techknee.sweep import (
    Cell,
    Detection,
    RangeCheck,
    ReproductionReport,
    Scenario,
    SweepConfig,
    SweepResult,
)

SALES = AnnualSeries(((2000, 1e6), (2001, 2e6)), "count-per-year")
POSTAGE = AnnualSeries(((2000, 0.5), (2001, 0.6)), "real-dollars")
CD = DigitalStorage(700.0)
MINUTES = UsageMetric("minutes")
EMPIRICAL = Detection("empirical")
SCENARIO = Scenario("audio", "mail_cd", "album", MINUTES, EMPIRICAL, 0.01)
CROSSOVER = CrossoverResult(1998)
CELL = Cell("t2_audio_mail_cd", "table2", "audio", "mail CD", 1998, 0, 1998, "exact")
RANGE = RangeCheck("fig4_audio_crossover_range", "audio", (1992, 2001), (1992, 1998), "deviation")

SCHEDULE = RateSchedule(((date(1999, 1, 10), 0.4), (date(2001, 1, 7), 0.5)), "real-dollars")
FIT = ExpFit(0.0, 0.5, (2000, 2001), 2, 1.0)
ANALOG = AnalogStorage(60.0, 1e6)
CONFIG = SweepConfig("audio", ("mail_cd",), ("album",), (MINUTES,), (EMPIRICAL,), (0.01,))

RECORDS = [
    SALES,
    SCHEDULE,
    FIT,
    CROSSOVER,
    ANALOG,
    CD,
    PhysicalMediaSpec("cd", CD, SALES),
    MINUTES,
    MediaSpec("audio", 60.0),
    load_all(),
    EMPIRICAL,
    SCENARIO,
    SweepResult(SCENARIO, CROSSOVER, 1999),
    CONFIG,
    CELL,
    RANGE,
    ReproductionReport((CELL,), (RANGE,), {"audio": {"target": POSTAGE}}),
]


def _fields(record) -> list[str]:
    """The record's fields: its constructor's parameters."""
    return list(inspect.signature(type(record)).parameters)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
class TestEveryRecord:
    def test_fields_cannot_be_assigned_or_added(self, record):
        for name in (_fields(record)[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, _fields(record)[0])

    def test_copy_is_equal(self, record):
        assert copy.copy(record) == record

    def test_repr_names_each_field(self, record):
        text = repr(record)
        assert text.startswith(f"{type(record).__name__}(")
        assert all(f"{name}=" in text for name in _fields(record))


def test_fit_is_its_log_space_line_and_a_crossover_its_years():
    assert ExpFit._fields == ("log_a", "k", "window", "n_points", "r_squared")
    assert CrossoverResult._fields == ("year", "fractional_year")


@pytest.mark.parametrize("build", [
    lambda: AnnualSeries(((2000, -1.0),), "count-per-year"),
    lambda: RateSchedule(((date(2001, 1, 1), 0.5), (date(2000, 1, 1), 0.4)), "real-dollars"),
    lambda: ExpFit(log_a=0.0, k=0.5, window=(2000, 2001), n_points=1, r_squared=1.0),
    lambda: AnalogStorage(minutes_per_unit=0.0, raw_bits_per_minute=1e6),
    lambda: DigitalStorage(-1.0),
    lambda: PhysicalMediaSpec("cd", CD, POSTAGE),
    lambda: UsageMetric("units"),
    lambda: MediaSpec("video", 0.0),
    lambda: Detection("empirical", window_from=1995),
    lambda: Scenario("audio", "mail_cd", "album", MINUTES, EMPIRICAL, knee_threshold=1.5),
    lambda: SweepConfig("audio", ("mail_cd", "mail_cd"), ("album",), (MINUTES,), (EMPIRICAL,), (0.01,)),
    lambda: SweepConfig("audio", "mail_cd", ("album",), (MINUTES,), (EMPIRICAL,), (0.01,)),
    # `_replace` builds through the constructor too.
    lambda: SCHEDULE._replace(changes=SCHEDULE.changes[::-1]),
    lambda: FIT._replace(n_points=1),
    lambda: ANALOG._replace(minutes_per_unit=0.0),
    lambda: CD._replace(unit_storage_megabytes=-1.0),
    lambda: PhysicalMediaSpec("cd", CD, SALES)._replace(yearly_sales=POSTAGE),
    lambda: MINUTES._replace(kind="units"),
    lambda: MediaSpec("audio", 60.0)._replace(size_bits=0.0),
    lambda: EMPIRICAL._replace(window_from=-5),
    lambda: SCENARIO._replace(knee_threshold=1.5),
    lambda: CONFIG._replace(targets=("mail_cd", "mail_cd")),
], ids=["AnnualSeries", "RateSchedule", "ExpFit", "AnalogStorage", "DigitalStorage",
        "PhysicalMediaSpec", "UsageMetric", "MediaSpec", "Detection", "Scenario", "SweepConfig",
        "SweepConfig string axis", *(f"{name}._replace" for name in ("RateSchedule", "ExpFit", "AnalogStorage", "DigitalStorage",
                                          "PhysicalMediaSpec", "UsageMetric", "MediaSpec", "Detection",
                                          "Scenario", "SweepConfig"))])
def test_validated_record_refuses_a_bad_value(build):
    with pytest.raises(ValueError):
        build()



@pytest.mark.parametrize("build", [
    lambda: UsageMetric("units", 3),
    lambda: Detection("fitted", 1995),
    lambda: AnnualSeries.from_mapping({2001: 2.0, 2000: 1.0}, "count-per-year"),
], ids=["UsageMetric", "Detection", "AnnualSeries"])
def test_equal_values_compare_and_hash_equal(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_annual_series_differs_by_unit_and_survives_pickling():
    share = AnnualSeries(SALES.entries, "dimensionless-share")
    assert share != SALES
    assert SALES != SALES.entries
    assert pickle.loads(pickle.dumps(SALES)) == SALES


def test_patched_post_init_runs_once_per_construction(monkeypatch):
    # bench/tracer.py counts series construction by patching this method
    # on the class.
    calls = []
    original = AnnualSeries.__post_init__

    def counting(self):
        calls.append(self.unit)
        original(self)

    monkeypatch.setattr(AnnualSeries, "__post_init__", counting)
    series = AnnualSeries(((2000, 1.0),), "count-per-year")
    assert calls == ["count-per-year"]
    series.scale(2.0)
    AnnualSeries.from_mapping({2000: 1.0}, "real-dollars")
    assert calls == ["count-per-year", "count-per-year", "real-dollars"]
    with pytest.raises(ValueError):
        AnnualSeries(((2000, 1.0),), "furlongs")
    assert len(calls) == 4
