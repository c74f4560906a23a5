"""Scenario sweep engine: enumeration, determinism, aggregation, reproduction."""

import contextlib
import copy
import csv
import io
import itertools
import json
import math
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from techknee.adoption import DigitalStorage, PhysicalMediaSpec, UsageMetric
from techknee.cli import main
from techknee.datasets import Datasets, load_all
from techknee.fitting import crossover_empirical, crossover_fitted, fit_exponential, knee
from techknee.series import AnnualSeries, RateSchedule
from techknee.sweep import (
    _BASELINE,
    _CELL_SPECS,
    _Stages,
    _product,
    _score,
    Detection,
    Scenario,
    SweepConfig,
    SweepResult,
    adoption_series,
    extend_datasets,
    _parse_detection,
    _parse_usage_metric,
    feasibility_range,
    parse_scenario_id,
    replacement_performance,
    reproduce_case_studies,
    run_sweep,
    sweep_tables,
    target_performance,
)


@pytest.fixture(scope="module")
def datasets():
    return load_all()


def config(**overrides):
    doc = {
        "case": "audio",
        "targets": ["mail_cd"],
        "reference_media": ["album"],
        "usage_metrics": ["minutes"],
        "detection": ["empirical"],
        "knee_thresholds": [0.01],
    }
    doc.update(overrides)
    return SweepConfig.from_json(doc)


def scenarios(cfg, datasets):
    """(scenario, crossover, knee year) of each scenario of a sweep, in
    enumeration order: the product of its axes, each scenario's years
    looked up in `sweep_tables`' two tables."""
    crossovers, knees = sweep_tables(cfg, datasets)
    return [(Scenario(cfg.case, target, media, metric, detection, threshold),
             crossovers[target, media, detection][0], k)
            for target, media, metric, detection in itertools.product(*cfg[1:5])
            for threshold, k in zip(cfg.knee_thresholds, knees[metric])]


def single(cfg, datasets):
    """The crossover, its diagnostics and the knee years of a sweep of one
    crossover and one usage metric."""
    crossovers, knees = sweep_tables(cfg, datasets)
    ((crossover, diagnostics),), (row,) = crossovers.values(), knees.values()
    return crossover, diagnostics, row


def write_series(series, path):
    """`series` as a `year,value` CSV whose values parse back exactly."""
    path.write_text("year,value\n" + "".join(f"{year},{value!r}\n" for year, value in series))


class TestEnumeration:
    @staticmethod
    def ids(cfg, datasets):
        return [s.scenario_id for s, _, _ in scenarios(cfg, datasets)]

    def test_counts_are_products(self, datasets):
        cfg = config(targets=["mail_cd", "mail_cassette"], reference_media=["album", "song"],
                     usage_metrics=["minutes", "raw_bits", "units:3"], knee_thresholds=[0.01, 0.1])
        crossovers, knees = sweep_tables(cfg, datasets)
        assert (len(crossovers), len(knees)) == (2 * 2, 3)
        assert len(self.ids(cfg, datasets)) == 2 * 2 * 3 * 2

    def test_single_value_per_axis_is_baseline(self, datasets):
        assert self.ids(config(), datasets) == ["audio|mail_cd|album|minutes|empirical|0.01"]

    def test_table4_audio_config_size(self, datasets):
        assert len(self.ids(config(reference_media=["album", "song"]), datasets)) == 2

    def test_ordering_is_axis_major(self, datasets):
        ids = self.ids(config(targets=["mail_cd", "mail_cassette"], knee_thresholds=[0.01, 0.10]), datasets)
        # targets are the outer axis, thresholds the innermost
        assert ids == [
            "audio|mail_cd|album|minutes|empirical|0.01",
            "audio|mail_cd|album|minutes|empirical|0.1",
            "audio|mail_cassette|album|minutes|empirical|0.01",
            "audio|mail_cassette|album|minutes|empirical|0.1",
        ]

    # A name is resolved by its stage, so the refusal names the first
    # scenario that holds it.
    def test_unresolvable_target(self, datasets):
        with pytest.raises(ValueError) as exc:
            sweep_tables(config(targets=["mail_pigeon"]), datasets)
        assert str(exc.value) == ("scenario audio|mail_pigeon|album|minutes|empirical|0.01: "
                                  "unresolvable target 'mail_pigeon'")

    def test_unresolvable_media(self, datasets):
        with pytest.raises(ValueError) as exc:
            sweep_tables(config(reference_media=["betamax"]), datasets)
        assert str(exc.value) == ("scenario audio|mail_cd|betamax|minutes|empirical|0.01: "
                                  "unresolvable reference media 'betamax'")

    def test_unresolvable_media_is_named_before_target(self, datasets):
        # The replacement stage runs before the target's.
        with pytest.raises(ValueError) as exc:
            sweep_tables(config(targets=["mail_pigeon"], reference_media=["betamax"]), datasets)
        assert str(exc.value) == ("scenario audio|mail_pigeon|betamax|minutes|empirical|0.01: "
                                  "unresolvable reference media 'betamax'")

    def test_config_requires_every_axis(self):
        with pytest.raises(ValueError, match="knee_thresholds"):
            SweepConfig.from_json(
                {
                    "case": "audio",
                    "targets": ["mail_cd"],
                    "reference_media": ["album"],
                    "usage_metrics": ["minutes"],
                    "detection": ["empirical"],
                    "knee_thresholds": [],
                }
            )


class TestParsers:
    def test_metric_strings(self):
        assert _parse_usage_metric("minutes") == UsageMetric("minutes")
        assert _parse_usage_metric("raw_bits") == UsageMetric("raw_bits")
        assert _parse_usage_metric("units:90") == UsageMetric("units", 90.0)

    def test_detection_strings(self):
        assert _parse_detection("empirical") == Detection("empirical")
        assert _parse_detection("fitted") == Detection("fitted")
        assert _parse_detection("fitted:1995-") == Detection("fitted", 1995, None)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="^expected a string, got 42$"):
            _parse_usage_metric(42)
        with pytest.raises(ValueError, match="^cannot parse detection from 'sometimes'$"):
            _parse_detection("sometimes")

    def test_window_is_tested_for_presence_not_truth(self):
        assert Detection("fitted", 0).label() == "fitted:0-"
        assert Detection("fitted", None, 0).label() == "fitted:-0"
        assert _parse_detection("fitted:0-") == Detection("fitted", 0)
        # A library caller can build what no label writes; it is refused.
        with pytest.raises(ValueError, match="^empirical detection takes no window$"):
            Detection("empirical", 0)
        with pytest.raises(ValueError, match="^window year True is not an integer$"):
            Detection("fitted", True)

    def test_negative_window_year_is_refused(self):
        # The label's "-" separator cannot tell a negative year from an
        # open side, so 'fitted:-5-' could not be parsed back.
        with pytest.raises(ValueError, match="^window year -5 is negative$"):
            Detection("fitted", -5)
        with pytest.raises(ValueError, match="window year -1 is negative"):
            Detection("fitted", 1990, -1)

    # Every accepted detection, whatever it was built from, parses back
    # from its label. Most drawn inputs are refused, too many to filter
    # them out with `assume`.
    @given(st.sampled_from(["empirical", "fitted"]), st.none() | st.integers(), st.none() | st.integers())
    def test_detection_label_round_trips(self, mode, window_from, window_to):
        try:
            detection = Detection(mode, window_from, window_to)
        except ValueError:
            return
        assert _parse_detection(detection.label()) == detection

    # A units metric refuses a length below 5.56268464626801e-309, whose
    # reciprocal is beyond a float.
    @given(st.one_of(
        st.sampled_from([UsageMetric("minutes"), UsageMetric("raw_bits")]),
        st.builds(UsageMetric, st.just("units"), st.floats(5.56268464626801e-309, allow_infinity=False)
                  | st.integers(1, 10**6)),
    ))
    @example(UsageMetric("units", 1e300))
    def test_usage_metric_label_round_trips(self, metric):
        assert _parse_usage_metric(metric.label()) == metric

    # Any name without the '|' separator, as `extend_datasets` accepts.
    NAMES = st.text(st.characters(exclude_characters="|"))

    @given(
        st.sampled_from(["audio", "video"]),
        NAMES,
        NAMES,
        st.one_of(
            st.sampled_from([UsageMetric("minutes"), UsageMetric("raw_bits")]),
            st.builds(UsageMetric, st.just("units"), st.floats(5.56268464626801e-309, allow_infinity=False)),
        ),
        st.just(Detection("empirical"))
        | st.builds(Detection, st.just("fitted"), st.none() | st.integers(0, 10**6),
                    st.none() | st.integers(0, 10**6)),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_scenario_id_round_trips(self, case, target, media, metric, detection, threshold):
        scenario = Scenario(case, target, media, metric, detection, threshold)
        assert parse_scenario_id(case, scenario.scenario_id) == scenario

    def test_scenario_id_may_leave_out_case_and_threshold(self):
        scenario = parse_scenario_id("video", "mail_dvd|clip|units:90|fitted:1995-", 0.25)
        assert scenario == Scenario("video", "mail_dvd", "clip", UsageMetric("units", 90),
                                    Detection("fitted", 1995), 0.25)
        assert parse_scenario_id("video", "video|mail_dvd|clip|units:90|fitted:1995-|0.25") == scenario
        assert parse_scenario_id("video", "mail_dvd|clip|units:90|fitted:1995-").knee_threshold == 0.01
        with pytest.raises(ValueError, match=r"is for case 'audio', not 'video'"):
            parse_scenario_id("video", "audio|mail_dvd|clip|units:90|fitted:1995-|0.25")
        with pytest.raises(ValueError, match=r"carries threshold 0\.25, so threshold 0\.5 cannot"):
            parse_scenario_id("video", "mail_dvd|clip|units:90|fitted:1995-|0.25", 0.5)


class TestRunScenario:
    def test_audio_baseline(self, datasets):
        crossover, _, knees = single(config(), datasets)
        assert crossover.year == 1998
        assert knees == (1999,)

    def test_video_baseline(self, datasets):
        crossover, _, knees = single(config(case="video", targets=["mail_dvd"], reference_media=["clip"]), datasets)
        assert crossover.year == 2002
        assert knees == (2001,)

    def test_audio_song_reference(self, datasets):
        crossover, _, _ = single(config(reference_media=["song"]), datasets)
        assert crossover.year == 1992

    def test_fitted_detection_reports_diagnostics(self, datasets):
        crossover, diagnostics, _ = single(config(detection=["fitted"]), datasets)
        assert crossover.fractional_year is not None
        assert crossover.year == 1996
        assert 0.9 < diagnostics.replacement.r_squared <= 1.0
        assert diagnostics.replacement.k > 0.4
        assert diagnostics.crossover_extrapolated is False

    @pytest.mark.parametrize("target_years, crossing, extrapolated", [
        ((2020, 2030), 2000, False),  # inside the replacement's window, 1983-2015, only
        ((2020, 2030), 2017, False),  # between the two windows
        ((1960, 1970), 1965, False),  # inside the target's window only
        ((1960, 1970), 2000, False),  # inside the replacement's, after the target's
        ((1960, 1970), 1950, True),  # before the union of the windows
        ((2020, 2030), 2040, True),  # after it
        ((2020, 2030), 1983, False),  # on its first year, exactly
        ((2020, 2030), 2030, False),  # on its last year, exactly
    ])
    def test_crossover_extrapolated_outside_the_union_of_fit_windows(self, datasets, target_years, crossing,
                                                                      extrapolated):
        # A target constant over two years is fitted exactly (k = 0), here at
        # the level the replacement's fit reaches in the crossing year.
        fit = fit_exponential(replacement_performance("audio", "album", datasets))
        level = math.exp(fit.log_a + fit.k * (crossing - fit.window[0]))
        flat = AnnualSeries.from_mapping(dict.fromkeys(target_years, level), "media-units-per-real-dollar")
        with_flat = datasets._replace(targets={**datasets.targets, "flat": flat})
        crossover, diagnostics, _ = single(config(targets=["flat"], detection=["fitted"]), with_flat)
        assert (diagnostics.replacement.window, diagnostics.target.window) == ((1983, 2015), target_years)
        assert crossover.fractional_year == pytest.approx(crossing, rel=0, abs=1e-9)
        if crossing in (1983, 2030):  # a float series puts the crossing on the edge itself
            assert crossover.fractional_year == crossing
        assert diagnostics.crossover_extrapolated is extrapolated

    def test_baseline_consistency_with_standalone_ops(self, datasets):
        # The sweep path must agree with calling the pipeline pieces directly.
        crossover, _, knees = single(config(), datasets)
        replacement = replacement_performance("audio", "album", datasets)
        target = target_performance("mail_cd", datasets)
        adoption = adoption_series("audio", UsageMetric("minutes"), datasets)
        assert crossover == crossover_empirical(replacement, target)
        assert knees == (knee(adoption, 0.01),)

    def test_case_media_kind_mismatch_is_annotated(self, datasets):
        with pytest.raises(ValueError) as exc:
            sweep_tables(config(reference_media=["clip"]), datasets)
        assert str(exc.value) == ("scenario audio|mail_cd|clip|minutes|empirical|0.01: "
                                  "reference media 'clip' is video, case is audio")

    def test_custom_target_series(self, datasets):
        from techknee.series import AnnualSeries

        drive = AnnualSeries.from_mapping(
            {y: 0.5 for y in range(1983, 2016)}, "media-units-per-real-dollar"
        )
        with_custom = datasets._replace(targets={**datasets.targets, "drive": drive})
        crossover, _, _ = single(config(targets=["drive"]), with_custom)
        assert crossover.year is not None

    def test_custom_media_from_config(self, datasets, tmp_path):
        from techknee.sweep import extend_datasets

        # A 3-minute audio unit declared in config equals the bundled song.
        doc = {
            "custom_media": {
                "single": {"kind": "audio", "length_seconds": 180, "audio_bit_rate_kbps": 633.6}
            }
        }
        extended = extend_datasets(datasets, doc)
        crossover, _, _ = single(config(reference_media=["single"]), extended)
        assert crossover.year == 1992

    def test_custom_media_with_override_size(self, datasets):
        from techknee.sweep import extend_datasets

        doc = {
            "custom_media": {
                "hd": {"kind": "video", "length_seconds": 5400, "override_size_gigabits": 3027}
            }
        }
        extended = extend_datasets(datasets, doc)
        crossover, _, _ = single(config(case="video", targets=["mail_dvd"], reference_media=["hd"]), extended)
        assert crossover.year == 2008

    def test_custom_mail_target_weight(self, datasets):
        from techknee.sweep import extend_datasets

        # A two-ounce mail target declared in config equals mail_cassette.
        doc = {"custom_targets": {"mail_heavy": {"weight_ounces": 2}}}
        extended = extend_datasets(datasets, doc)
        crossover, _, _ = single(config(targets=["mail_heavy"]), extended)
        assert crossover.year == 1997

    def test_fractional_mail_weight_rounds_up(self, datasets):
        from techknee.sweep import extend_datasets

        # Postage charges by the started ounce: 1.5 ounces mail at the
        # 2-ounce rate, as mail_cassette does.
        doc = {"custom_targets": {"mail_1_5": {"weight_ounces": 1.5}}}
        extended = extend_datasets(datasets, doc)
        assert extended.targets["mail_1_5"] == 2
        crossover, _, _ = single(config(targets=["mail_1_5"]), extended)
        assert crossover.year == 1997

    def test_whole_float_pixel_fields_accepted(self, datasets):
        from techknee.sweep import extend_datasets

        # An SD clip declared with whole numbers written as floats equals
        # the bundled clip.
        doc = {"custom_media": {"sd_clip": {
            "kind": "video", "length_seconds": 300, "pixel_height": 480.0, "pixel_width": "640.0",
            "bits_per_pixel": 24.0, "frames_per_second": 30,
        }}}
        extended = extend_datasets(datasets, doc)
        assert extended.reference_media["sd_clip"] == extended.reference_media["clip"]
        crossover, _, _ = single(config(case="video", targets=["mail_dvd"], reference_media=["sd_clip"]), extended)
        assert crossover.year == 2002

    def test_extension_leaves_bundle_unchanged(self, datasets):
        from techknee.sweep import extend_datasets

        before = repr(datasets)
        extend_datasets(datasets, {"custom_targets": {"mail_heavy": {"weight_ounces": 2}},
                                   "custom_media": {"single": {"kind": "audio", "length_seconds": 180}}})
        assert repr(datasets) == before
        assert repr(load_all()) == before

    def test_protocol_mix_override(self, datasets, tmp_path):
        from techknee.sweep import extend_datasets

        # One protocol carrying the bundled audio share at fraction 1.0
        # must reproduce the bundled knee exactly.
        path = tmp_path / "protocol.csv"
        write_series(datasets.media_share["audio"], path)
        doc = {"protocol_mix": {"audio": [{"path": str(path), "media_fraction": 1.0}]}}
        extended = extend_datasets(datasets, doc)
        _, _, knees = single(config(), extended)
        assert knees == (1999,)

    def test_custom_physical_media_override(self, datasets, tmp_path):
        from techknee.sweep import extend_datasets

        # Redeclaring the bundled audio competitors in config reproduces
        # the bundled knee.
        for medium in datasets.physical_media["audio"]:
            write_series(medium.yearly_sales, tmp_path / f"{medium.name}.csv")
        doc = {
            "custom_physical_media": {
                "audio": [
                    {"name": "cd", "kind": "digital", "unit_storage_megabytes": 700,
                     "sales_path": "cd.csv"},
                    {"name": "cassette", "kind": "analog", "minutes_per_unit": 60,
                     "sales_path": "cassette.csv"},
                    {"name": "vinyl", "kind": "analog", "minutes_per_unit": 90,
                     "sales_path": "vinyl.csv"},
                ]
            }
        }
        extended = extend_datasets(datasets, doc, base_dir=tmp_path)
        _, _, knees = single(config(), extended)
        assert knees == (1999,)

    def test_bad_custom_media_is_named(self, datasets):
        from techknee.sweep import extend_datasets

        with pytest.raises(ValueError, match="broken"):
            extend_datasets(datasets, {"custom_media": {"broken": {"kind": "audio",
                                                                   "length_seconds": -5}}})

    @pytest.mark.parametrize("doc, message", [
        ({"protocol_mix": {"audio": [{"path": "cd.csv", "media_fraction": True}]}},
         "protocol_mix['audio'][0]: media_fraction: expected a number, got true"),
        ({"custom_physical_media": {"audio": [
            {"name": "lp", "kind": "analog", "sales_path": "cd.csv", "minutes_per_unit": True}]}},
         "custom_physical_media['audio'][0]: minutes_per_unit: expected a number, got true"),
        ({"custom_physical_media": {"audio": [
            {"name": "cd", "kind": "digital", "sales_path": "cd.csv", "sales_scale": False,
             "unit_storage_megabytes": 700}]}},
         "custom_physical_media['audio'][0]: sales_scale: expected a number, got false"),
    ])
    def test_true_is_not_a_number(self, datasets, tmp_path, doc, message):
        from techknee.sweep import extend_datasets

        write_series(datasets.physical_media["audio"][0].yearly_sales, tmp_path / "cd.csv")
        with pytest.raises(ValueError) as exc:
            extend_datasets(datasets, doc, base_dir=tmp_path)
        assert str(exc.value) == message

    def test_bundled_adoption_share_spot_values(self, datasets):
        # Ratio of the usage oracles over the bundled tables: 0.746% in
        # 1998 (below the 1% knee) and 2.752% in 1999.
        adoption = adoption_series("audio", UsageMetric("minutes"), datasets)
        assert adoption.to_mapping()[1998] == pytest.approx(0.0074610946726007075, rel=1e-12)
        assert adoption.to_mapping()[1999] == pytest.approx(0.02752441015074011, rel=1e-12)
        assert adoption.years == tuple(range(1993, 2008))

    def test_minutes_cover_every_traffic_year_of_declared_tables(self, datasets):
        # The bundled shares and sales end in 2007. A declared protocol mix
        # and competitor set may cover every traffic year, 1984-2014, each
        # of which then needs its compression ratio.
        years = datasets.traffic.years
        share = AnnualSeries(tuple((year, 0.5) for year in years), "dimensionless-share")
        sales = AnnualSeries(tuple((year, 1e6) for year in years), "count-per-year")
        declared = datasets._replace(media_share={**datasets.media_share, "audio": share},
                                     physical_media={**datasets.physical_media,
                                                     "audio": (PhysicalMediaSpec("cd", DigitalStorage(700.0), sales),)})
        assert adoption_series("audio", UsageMetric("minutes"), declared).years == years == tuple(range(1984, 2015))


class TestMetamorphic:
    """Relations the maths keeps on the bundled baselines: a crossover
    compares two performance series, and a share divides by total usage."""

    @staticmethod
    def baseline(case, datasets):
        s = parse_scenario_id(case, _BASELINE[case])
        return replacement_performance(case, s.reference_media, datasets), target_performance(s.target, datasets)

    @given(st.sampled_from(["audio", "video"]), st.integers(-30, 30))
    def test_power_of_two_scale_leaves_empirical_crossover_exact(self, datasets, case, exponent):
        replacement, target = self.baseline(case, datasets)
        factor = 2.0 ** exponent
        assert (crossover_empirical(replacement.scale(factor), target.scale(factor))
                == crossover_empirical(replacement, target))

    @given(st.sampled_from(["audio", "video"]), st.sampled_from([None, (1995, None), (None, 2005)]),
           st.floats(1e-3, 1e3))
    def test_scale_leaves_fitted_crossover(self, datasets, case, window, factor):
        replacement, target = self.baseline(case, datasets)
        base = crossover_fitted(fit_exponential(replacement, window), fit_exponential(target, window))
        scaled = crossover_fitted(fit_exponential(replacement.scale(factor), window),
                                  fit_exponential(target.scale(factor), window))
        assert scaled.year == base.year is not None
        assert scaled.fractional_year == pytest.approx(base.fractional_year, rel=0, abs=1e-9)

    @pytest.mark.parametrize("metric", ["minutes", "raw_bits", "units:3"])
    @pytest.mark.parametrize("case", ["audio", "video"])
    def test_zero_sales_competitor_leaves_shares_exact(self, datasets, case, metric):
        metric = _parse_usage_metric(metric)
        media = datasets.physical_media[case]
        for template in media:
            zero = PhysicalMediaSpec("unsold", template.storage, AnnualSeries(
                tuple((year, 0.0) for year in template.yearly_sales.years), "count-per-year"))
            for competitors in ((zero, *media), (*media, zero)):
                extended = datasets._replace(physical_media={**datasets.physical_media, case: competitors})
                assert adoption_series(case, metric, extended) == adoption_series(case, metric, datasets)

    @pytest.mark.parametrize("delta", [-7, 3, 100])
    def test_year_shift_shifts_every_cell_result(self, datasets, delta):
        # Every series year and postage date moves by `delta` years (no
        # bundled date is 29 February), and so does each fit window.
        def move(year):
            return None if year is None else year + delta

        def moved(series):
            return AnnualSeries(tuple((year + delta, value) for year, value in series), series.unit)

        shifted = datasets._replace(
            bandwidth_real=moved(datasets.bandwidth_real),
            compression={case: moved(series) for case, series in datasets.compression.items()},
            postage={rate: RateSchedule(tuple((day.replace(year=day.year + delta), value)
                                              for day, value in schedule.changes), schedule.unit)
                     for rate, schedule in datasets.postage.items()},
            traffic=moved(datasets.traffic),
            media_share={case: moved(series) for case, series in datasets.media_share.items()},
            physical_media={case: tuple(PhysicalMediaSpec(m.name, m.storage, moved(m.yearly_sales)) for m in media)
                            for case, media in datasets.physical_media.items()},
            targets={name: moved(target) if isinstance(target, AnnualSeries) else target
                     for name, target in datasets.targets.items()},
        )
        base, shifted = _Stages(datasets), _Stages(shifted)
        for cell_id, _, case, _, scenario_id, *_ in _CELL_SPECS:
            if scenario_id is None:
                continue
            scenario = parse_scenario_id(case, scenario_id)
            d = scenario.detection
            expected = base.result(scenario)
            got = shifted.result(Scenario(*scenario[:4], Detection(d.mode, move(d.window_from), move(d.window_to)),
                                          scenario.knee_threshold))
            assert expected.crossover.year is not None and expected.knee is not None, cell_id
            assert (got.crossover.year, got.knee) == (move(expected.crossover.year), move(expected.knee)), cell_id
            if d.mode == "fitted":
                assert got.crossover.fractional_year == pytest.approx(
                    expected.crossover.fractional_year + delta, rel=0, abs=1e-9), cell_id


class TestJoin:
    """`sweep_tables` computes each distinct crossover and knee once, into
    the two tables whose product over the axes is the sweep."""

    JOIN_CONFIG = dict(
        targets=["mail_cd", "mail_cassette"],
        reference_media=["album", "song"],
        usage_metrics=["minutes", "raw_bits", "units:3"],
        detection=["empirical", "fitted", "fitted:1995-2010"],
        knee_thresholds=[0.01, 0.10],
    )

    @staticmethod
    def count_stage_calls(monkeypatch, names):
        """Record the non-Datasets arguments of every call to the named
        `techknee.sweep` stages."""
        import techknee.sweep

        calls = {name: [] for name in names}

        def counting(name, stage):
            def wrapper(*args):
                calls[name].append(tuple(a for a in args if not isinstance(a, Datasets)))
                return stage(*args)
            return wrapper

        for name in names:
            monkeypatch.setattr(techknee.sweep, name, counting(name, getattr(techknee.sweep, name)))
        return calls

    def test_each_stage_runs_once_per_distinct_key(self, datasets, monkeypatch):
        calls = self.count_stage_calls(monkeypatch, (
            "replacement_performance", "target_performance", "adoption_series",
            "fit_exponential", "crossover_empirical", "crossover_fitted", "knee",
        ))
        sweep_tables(config(**self.JOIN_CONFIG), datasets)

        counts = {name: len(args) for name, args in calls.items()}
        assert counts == {
            "replacement_performance": 2,  # album, song
            "target_performance": 2,  # mail_cd, mail_cassette
            "adoption_series": 3,  # one per metric
            "fit_exponential": 8,  # 4 series x 2 fitted windows
            "crossover_empirical": 4,  # 2 targets x 2 references
            "crossover_fitted": 8,  # ... x 2 fitted windows
            "knee": 6,  # 3 metrics x 2 thresholds
        }
        # No stage sees the same inputs twice. (Knees are left out: the
        # minutes and units metrics give identical shares by construction.)
        for name in ("replacement_performance", "target_performance", "adoption_series",
                     "fit_exponential", "crossover_empirical", "crossover_fitted"):
            assert len(set(calls[name])) == counts[name], name

    def test_reproduction_shares_stages_across_cells(self, datasets, monkeypatch):
        calls = self.count_stage_calls(
            monkeypatch, ("replacement_performance", "target_performance", "adoption_series")
        )
        reproduce_case_studies(datasets)
        # audio: album, song; video: clip, sd_movie, hd_movie
        assert len(calls["replacement_performance"]) == 5
        assert len(calls["target_performance"]) == 3  # mail_cd, mail_cassette, mail_dvd
        assert len(calls["adoption_series"]) == 6  # minutes, raw bits, units per case

    def test_failure_names_first_failing_scenario(self, datasets):
        # No data after 2030: every scenario with that window fails its fit.
        cfg = config(
            targets=["mail_cd", "mail_cassette"],
            detection=["empirical", "fitted:2030-2040"],
            knee_thresholds=[0.01, 0.10],
        )
        with pytest.raises(ValueError) as excinfo:
            sweep_tables(cfg, datasets)
        first = "audio|mail_cd|album|minutes|fitted:2030-2040|0.01"
        assert str(excinfo.value) == f"scenario {first}: need at least 2 points in window, got 0"
        assert str(excinfo.value.__cause__) == "need at least 2 points in window, got 0"
        # Swept alone, in enumeration order, the same scenario fails first.
        failing = []
        for target, detection, threshold in itertools.product(cfg.targets, cfg.detection, cfg.knee_thresholds):
            try:
                sweep_tables(cfg._replace(targets=(target,), detection=(detection,), knee_thresholds=(threshold,)),
                             datasets)
            except ValueError as exc:
                failing.append(str(exc).split(": ", 1)[0])
        assert failing[0] == f"scenario {first}"

    def test_failing_knee_names_its_threshold(self):
        # Built directly, as from JSON, the config refuses a threshold no
        # knee could take, naming it; so no knee fails after the first.
        with pytest.raises(ValueError, match=r"^knee_thresholds\[1\]: knee threshold must be in \(0, 1\)$"):
            SweepConfig("audio", ("mail_cd",), ("album",), (UsageMetric("minutes"),), (Detection("empirical"),),
                        (0.01, 1.5))

    def test_block_ranges_equal_per_result_ranges(self, datasets):
        cfg = config(**dict(self.JOIN_CONFIG, knee_thresholds=[0.01, 0.10, 0.999]))
        tables = sweep_tables(cfg, datasets)
        assert tuple(map(len, tables)) == (2 * 2 * 3, 3)
        for group_by in (None, "target", "reference_media", "usage_metric", "detection"):
            assert feasibility_range(tables, group_by) == ranges_per_result(cfg, datasets, group_by)

    def test_shared_diagnostics_are_read_only(self, datasets):
        # Two scenarios that differ only in their metric share one crossover.
        first, second = run_sweep(config(usage_metrics=["minutes", "raw_bits"], detection=["fitted"]), datasets)
        assert first.diagnostics is second.diagnostics
        with pytest.raises(AttributeError):
            first.diagnostics.replacement = None
        assert second.diagnostics.replacement.k > 0.4
        (empirical,) = run_sweep(config(), datasets)
        assert empirical.diagnostics is None

    def test_results_pickle_and_deepcopy(self, datasets):
        tables = sweep_tables(config(**self.JOIN_CONFIG), datasets)
        for copied in (pickle.loads(pickle.dumps(tables)), copy.deepcopy(tables)):
            assert copied == tables
            # The fitted crossovers of both targets over one reference unit
            # still share its one fit.
            cd, cassette = (copied[0][target, "album", Detection("fitted")][1]
                            for target in ("mail_cd", "mail_cassette"))
            assert cd.replacement is cassette.replacement is not None


class TestWrappers:
    """`run_scenario`, `run_sweep` and `enumerate_scenarios` are
    `sweep_tables` and its axis product reshaped, kept for the benchmark
    harness, which calls and traces them by name."""

    def test_run_scenario_is_a_block_of_one_threshold(self, datasets):
        from techknee.sweep import run_scenario

        crossover, diagnostics, knees = single(config(detection=["fitted"], knee_thresholds=[0.1]), datasets)
        scenario = Scenario("audio", "mail_cd", "album", UsageMetric("minutes"), Detection("fitted"), 0.1)
        assert run_scenario(scenario, datasets) == SweepResult(scenario, crossover, knees[0],
                                                               diagnostics)

    def test_run_sweep_is_the_blocks_over_the_thresholds(self, datasets):
        cfg = config(**TestJoin.JOIN_CONFIG)
        crossovers, _ = sweep_tables(cfg, datasets)
        assert run_sweep(cfg, datasets) == [
            SweepResult(scenario, crossover, k, crossovers[scenario.target, scenario.reference_media,
                                                           scenario.detection][1])
            for scenario, crossover, k in scenarios(cfg, datasets)]

    def test_enumerate_scenarios_is_the_block_order_over_the_thresholds(self, datasets):
        from techknee.sweep import enumerate_scenarios

        cfg = config(**TestJoin.JOIN_CONFIG)
        assert enumerate_scenarios(cfg, datasets) == [
            Scenario(cfg.case, *axes, threshold) for axes in _product(cfg) for threshold in cfg.knee_thresholds]


def ranges_per_result(cfg, datasets, group_by=None):
    """Min/max crossover and knee years per label, one scenario at a time."""
    groups = {}
    for scenario, crossover, knee_year in scenarios(cfg, datasets):
        value = "all" if group_by is None else getattr(scenario, group_by)
        groups.setdefault(value if isinstance(value, str) else value.label(), []).append((crossover, knee_year))
    ranges = []
    for label, group in sorted(groups.items()):
        crossovers = [crossover.year for crossover, _ in group if crossover.year is not None]
        knees = [knee_year for _, knee_year in group if knee_year is not None]
        ranges.append({
            "label": label, "n_scenarios": len(group),
            "crossover": [min(crossovers, default=None), max(crossovers, default=None)],
            "crossover_absent": len(group) - len(crossovers),
            "knee": [min(knees, default=None), max(knees, default=None)], "knee_absent": len(group) - len(knees),
        })
    return ranges


AXES = ("targets", "reference_media", "usage_metrics", "detection", "knee_thresholds")
BENCH_SWEEP = json.loads((Path(__file__).parents[1] / "bench" / "sweep_13k.json").read_text())


class TestDifferentialOracle:
    """`techknee sweep` over sub-configs of the 13k bench sweep, some with
    declared targets, media or series, row by row against an oracle that
    computes each scenario on its own, with no memo."""

    @staticmethod
    def oracle(doc, datasets):
        """results.csv's rows as text, each scenario computed from the stages
        over the bundle with `doc`'s declarations."""
        case, rows, datasets = doc["case"], [], extend_datasets(datasets, doc)
        for target, media, metric, detection, threshold in itertools.product(*(doc[axis] for axis in AXES)):
            replacement = replacement_performance(case, media, datasets)
            mail = target_performance(target, datasets)
            mode = _parse_detection(detection)
            if mode.mode == "empirical":
                crossover = crossover_empirical(replacement, mail)
            else:
                window = (mode.window_from, mode.window_to)
                crossover = crossover_fitted(fit_exponential(replacement, window), fit_exponential(mail, window))
            knee_year = knee(adoption_series(case, _parse_usage_metric(metric), datasets), threshold)
            fractional = crossover.fractional_year
            rows.append([f"{case}|{target}|{media}|{metric}|{detection}|{threshold!r}", case, target, media,
                         metric, detection, repr(threshold), "" if crossover.year is None else str(crossover.year),
                         "" if fractional is None else f"{fractional:.4f}",
                         "" if knee_year is None else str(knee_year)])
        return rows

    @staticmethod
    def ranges(label, rows):
        """The feasibility.json entry of `rows`, from their year columns."""
        crossings, knees = [int(r[7]) for r in rows if r[7]], [int(r[9]) for r in rows if r[9]]
        return {"label": label, "n_scenarios": len(rows),
                "crossover": [min(crossings, default=None), max(crossings, default=None)],
                "crossover_absent": len(rows) - len(crossings),
                "knee": [min(knees, default=None), max(knees, default=None)], "knee_absent": len(rows) - len(knees)}

    @staticmethod
    def sweep(axes):
        """`techknee sweep` over the bench sweep's case and `axes`, with any
        declarations: results.csv's rows and feasibility.json's text."""
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "sweep.json").write_text(json.dumps({"case": BENCH_SWEEP["case"], **axes}))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["sweep", "--config", f"{tmp}/sweep.json", "--out", tmp]) == 0
            with open(Path(tmp) / "results.csv", newline="", encoding="utf-8") as f:
                _, *rows = csv.reader(f)
            return rows, (Path(tmp) / "feasibility.json").read_text()

    @staticmethod
    def joined(first, second):
        """The feasibility.json document of two sweeps' scenarios together,
        from each sweep's own document."""
        def span(a, b):
            lows, highs = [x[0] for x in (a, b) if x[0] is not None], [x[1] for x in (a, b) if x[1] is not None]
            return [min(lows, default=None), max(highs, default=None)]

        entries = {}
        for entry in first["ranges"] + second["ranges"]:
            seen = entries.setdefault(entry["label"], entry)
            if seen is not entry:
                entries[entry["label"]] = {
                    "label": entry["label"], "n_scenarios": seen["n_scenarios"] + entry["n_scenarios"],
                    "crossover": span(seen["crossover"], entry["crossover"]),
                    "crossover_absent": seen["crossover_absent"] + entry["crossover_absent"],
                    "knee": span(seen["knee"], entry["knee"]), "knee_absent": seen["knee_absent"] + entry["knee_absent"]}
        pooled = entries.pop("all")
        return {"n_scenarios": first["n_scenarios"] + second["n_scenarios"],
                "ranges": [pooled, *(entries[label] for label in sorted(entries))]}

    SUB_CONFIGS = st.fixed_dictionaries({axis: st.lists(st.sampled_from(BENCH_SWEEP[axis]), min_size=1, max_size=3,
                                                        unique=True) for axis in AXES})

    # Declarations a sub-config may add, each name joining its axis: a
    # target by weight, an audio media unit, and a target series over
    # 1980-2020 whose CSV the test writes.
    DECLARED = st.fixed_dictionaries({}, optional={
        "custom_targets": st.fixed_dictionaries({"parcel": st.fixed_dictionaries(
            {"weight_ounces": st.floats(0.01, 70.0)})}),
        "custom_media": st.fixed_dictionaries({"long": st.fixed_dictionaries(
            {"kind": st.just("audio"), "length_seconds": st.floats(1.0, 36000.0)},
            optional={"audio_bit_rate_kbps": st.floats(8.0, 1411.2)})}),
        "custom_series": st.lists(st.floats(1e-2, 1e6), min_size=41, max_size=41),
    })

    @settings(max_examples=40, deadline=None)
    @given(SUB_CONFIGS, DECLARED, st.data())
    def test_sweep_equals_the_per_scenario_oracle(self, datasets, axes, declared, data):
        with tempfile.TemporaryDirectory() as tmp:
            if "custom_series" in declared:
                path = Path(tmp) / "drive.csv"
                path.write_text("year,value\n" + "".join(
                    f"{year},{value!r}\n" for year, value in enumerate(declared["custom_series"], 1980)))
                declared["custom_series"] = {"drive": {"path": str(path), "unit": "media-units-per-real-dollar"}}
            for key, axis in (("custom_targets", "targets"), ("custom_series", "targets"),
                              ("custom_media", "reference_media")):
                for name in declared.get(key, ()):
                    axes[axis].insert(data.draw(st.integers(0, len(axes[axis]))), name)
            axes.update(declared)
            rows, summary = self.sweep(axes)
            expected = self.oracle({"case": BENCH_SWEEP["case"], **axes}, datasets)
        assert rows == expected
        by_target = [self.ranges(t, [r for r in expected if r[2] == t]) for t in sorted(axes["targets"])]
        assert json.loads(summary) == {"n_scenarios": len(expected),
                                       "ranges": [self.ranges("all", expected), *by_target]}

    @settings(max_examples=15, deadline=None)
    @given(SUB_CONFIGS, st.data())
    def test_permuting_an_axis_permutes_the_rows(self, axes, data):
        axis = data.draw(st.sampled_from(AXES))
        permuted = dict(axes, **{axis: data.draw(st.permutations(axes[axis]))})
        rows, summary = self.sweep(axes)
        permuted_rows, permuted_summary = self.sweep(permuted)
        assert sorted(permuted_rows) == sorted(rows)
        ids = ["|".join(map(str, (BENCH_SWEEP["case"], *values))) for values in itertools.product(
            *(permuted[a] for a in AXES))]
        assert [row[0] for row in permuted_rows] == ids
        assert permuted_summary == summary

    @settings(max_examples=15, deadline=None)
    @given(SUB_CONFIGS.filter(lambda axes: any(len(values) > 1 for values in axes.values())), st.data())
    def test_splitting_an_axis_splits_the_rows_and_ranges(self, axes, data):
        axis = data.draw(st.sampled_from([a for a in AXES if len(axes[a]) > 1]))
        cut = data.draw(st.integers(1, len(axes[axis]) - 1))
        rows, summary = self.sweep(axes)
        (head_rows, head), (tail_rows, tail) = (self.sweep(dict(axes, **{axis: part}))
                                                for part in (axes[axis][:cut], axes[axis][cut:]))
        assert sorted(head_rows + tail_rows) == sorted(rows)
        assert self.joined(json.loads(head), json.loads(tail)) == json.loads(summary)


class TestFeasibilityRange:
    @staticmethod
    def ranges(cfg, datasets, group_by=None):
        """`feasibility_range` of a sweep, checked against the ranges of its
        results one by one."""
        ranges = feasibility_range(sweep_tables(cfg, datasets), group_by)
        assert ranges == ranges_per_result(cfg, datasets, group_by)
        return ranges

    def test_audio_reference_axis_range(self, datasets):
        # Album and song references: crossover range spans 1992-1998.
        (fr,) = self.ranges(config(reference_media=["album", "song"]), datasets)
        assert fr["label"] == "all"
        assert fr["crossover"] == [1992, 1998]
        assert fr["crossover_absent"] == 0

    def test_single_scenario_degenerate_range(self, datasets):
        (fr,) = self.ranges(config(), datasets)
        assert fr == {"label": "all", "n_scenarios": 1, "crossover": [1998, 1998], "crossover_absent": 0,
                      "knee": [1999, 1999], "knee_absent": 0}

    def test_group_by_target(self, datasets):
        ranges = self.ranges(config(targets=["mail_cd", "mail_cassette"]), datasets, group_by="target")
        ranges = {fr["label"]: fr for fr in ranges}
        assert ranges["mail_cd"]["crossover"][0] == 1998
        assert ranges["mail_cassette"]["crossover"][0] == 1997

    @pytest.mark.parametrize("group_by", [None, "detection"])
    def test_every_usage_metric_row_is_ranged(self, datasets, group_by):
        # Video's 1% knee is 2001 by minutes and 2002 by raw bits: each
        # metric's row of knees is ranged, in every group.
        cfg = config(case="video", targets=["mail_dvd"], reference_media=["clip"],
                     usage_metrics=["minutes", "raw_bits"], detection=["empirical", "fitted"])
        for fr in self.ranges(cfg, datasets, group_by):
            assert (fr["knee"], fr["knee_absent"]) == ([2001, 2002], 0)

    def test_all_absent_group(self, datasets):
        from techknee.series import AnnualSeries

        unbeatable = AnnualSeries.from_mapping(
            {y: 1e9 for y in range(1983, 2016)}, "media-units-per-real-dollar"
        )
        with_custom = datasets._replace(targets={**datasets.targets, "unbeatable": unbeatable})
        (fr,) = self.ranges(config(targets=["unbeatable"], knee_thresholds=[0.01, 0.999]), with_custom)
        assert fr["crossover"] == [None, None]
        assert fr["crossover_absent"] == 2
        assert (fr["knee"], fr["knee_absent"]) == ([1999, 1999], 1)

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            feasibility_range(({}, {}))

    POOLS = (("mail_cd", "mail_cassette"), ("album", "song"), (UsageMetric("minutes"), UsageMetric("raw_bits")),
             (Detection("empirical"), Detection("fitted")), (0.01, 0.1, 1.5))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_every_buildable_config_counts_each_scenario_once(self, datasets, data):
        # Built directly or by `_replace`, a config with an empty axis, a
        # repeated value or a threshold outside (0, 1) is refused; any other
        # is counted as run_sweep enumerates it.
        axes = [tuple(data.draw(st.lists(st.sampled_from(pool), max_size=3), label=key))
                for key, pool in zip(SweepConfig._fields[1:], self.POOLS)]
        valid = all(values and len(set(values)) == len(values) for values in axes) and 1.5 not in axes[-1]
        for build in (lambda: SweepConfig("audio", *axes),
                      lambda: config()._replace(**dict(zip(SweepConfig._fields[1:], axes)))):
            if not valid:
                with pytest.raises(ValueError):
                    build()
                continue
            cfg = build()
            (pooled,) = feasibility_range(sweep_tables(cfg, datasets))
            assert pooled["n_scenarios"] == len(run_sweep(cfg, datasets)) == math.prod(map(len, axes))


@pytest.fixture(scope="module")
def report(datasets):
    return reproduce_case_studies(datasets)


class TestReproduction:
    def test_table2_mail_cells_exact(self, report):
        cells = {c.cell_id: c for c in report.cells}
        assert cells["t2_audio_mail_cd"].computed == 1998
        assert cells["t2_audio_mail_cassette"].computed == 1997
        assert cells["t2_video_mail_dvd"].computed == 2002
        for cell_id in ("t2_audio_mail_cd", "t2_audio_mail_cassette", "t2_video_mail_dvd"):
            assert cells[cell_id].status == "exact"

    def test_drive_cells_reported_unsupported(self, report):
        cells = {c.cell_id: c for c in report.cells}
        for cell_id in ("t2_audio_drive", "t2_video_drive"):
            assert cells[cell_id].status == "unsupported"
            assert "no published cost model" in cells[cell_id].note

    def test_table5_video_cells(self, report):
        cells = {c.cell_id: c for c in report.cells}
        assert cells["t5_video_empirical"].computed == 2002
        assert cells["t5_video_fit_all"].computed == 2001
        assert cells["t5_video_fit_from1995"].computed == 2001  # within +/-1 of 2002

    def test_a_published_year_not_computed_is_a_deviation(self):
        assert _score(2001, 1, None) == "deviation"

    def test_known_deviations_are_exactly_the_documented_ones(self, report):
        # One irreproducible published cell (audio from-1995 regression) and
        # the feasibility-range bound it feeds; see test_acceptance.py's
        # test_criterion_6_audio_from1995_cell_known_defect.
        assert report.deviations == ["t5_audio_fit_from1995", "fig4_audio_crossover_range"]

    def test_json_report_is_machine_readable(self, report):
        doc = json.loads(report.to_json())
        assert len(doc["cells"]) == 28
        by_id = {c["id"]: c for c in doc["cells"]}
        assert by_id["t4_audio_song"]["computed"] == 1992
        assert doc["deviations"] == ["t5_audio_fit_from1995", "fig4_audio_crossover_range"]

    def test_curves_cover_both_cases(self, report):
        assert set(report.curves) == {"audio", "video"}
        for case_curves in report.curves.values():
            assert set(case_curves) == {"replacement", "target", "adoption"}
            assert len(case_curves["adoption"]) > 10
