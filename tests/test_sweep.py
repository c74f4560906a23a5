"""Scenario sweep engine: enumeration, determinism, aggregation, reproduction."""

import copy
import json
import pickle

import pytest
from hypothesis import given, strategies as st

from techknee.adoption import UsageMetric
from techknee.datasets import Datasets, load_all
from techknee.fitting import crossover_empirical, knee
from techknee.sweep import (
    Detection,
    FeasibilityRange,
    Scenario,
    ScenarioError,
    SweepConfig,
    adoption_series,
    enumerate_scenarios,
    feasibility_range,
    parse_detection,
    parse_scenario_id,
    parse_usage_metric,
    replacement_performance,
    reproduce_case_studies,
    run_scenario,
    run_sweep,
    sweep_blocks,
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


class TestEnumeration:
    def test_counts_are_products(self, datasets):
        scenarios = enumerate_scenarios(
            config(targets=["mail_cd", "mail_cassette"], reference_media=["album", "song"],
                   usage_metrics=["minutes", "raw_bits", "units:3"]),
            datasets,
        )
        assert len(scenarios) == 2 * 3 * 2

    def test_single_value_per_axis_is_baseline(self, datasets):
        scenarios = enumerate_scenarios(config(), datasets)
        assert len(scenarios) == 1
        assert scenarios[0].scenario_id == "audio|mail_cd|album|minutes|empirical|0.01"

    def test_table4_audio_config_size(self, datasets):
        scenarios = enumerate_scenarios(config(reference_media=["album", "song"]), datasets)
        assert len(scenarios) == 2

    def test_ordering_is_axis_major(self, datasets):
        scenarios = enumerate_scenarios(
            config(targets=["mail_cd", "mail_cassette"], knee_thresholds=[0.01, 0.10]), datasets
        )
        ids = [s.scenario_id for s in scenarios]
        # targets are the outer axis, thresholds the innermost
        assert ids == [
            "audio|mail_cd|album|minutes|empirical|0.01",
            "audio|mail_cd|album|minutes|empirical|0.1",
            "audio|mail_cassette|album|minutes|empirical|0.01",
            "audio|mail_cassette|album|minutes|empirical|0.1",
        ]

    def test_unresolvable_target(self, datasets):
        with pytest.raises(ValueError, match="unresolvable target"):
            enumerate_scenarios(config(targets=["mail_pigeon"]), datasets)

    def test_unresolvable_media(self, datasets):
        with pytest.raises(ValueError, match="unresolvable reference"):
            enumerate_scenarios(config(reference_media=["betamax"]), datasets)

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
        assert parse_usage_metric("minutes") == UsageMetric.minutes()
        assert parse_usage_metric("raw_bits") == UsageMetric.raw_bits()
        assert parse_usage_metric("units:90") == UsageMetric.units(90.0)

    def test_metric_object(self):
        assert parse_usage_metric({"kind": "units", "unit_length_minutes": 3}) == UsageMetric.units(3.0)

    def test_detection_strings(self):
        assert parse_detection("empirical") == Detection("empirical")
        assert parse_detection("fitted") == Detection("fitted")
        assert parse_detection("fitted:1995-") == Detection("fitted", 1995, None)

    def test_detection_object(self):
        assert parse_detection({"mode": "fitted", "from": 1995}) == Detection("fitted", 1995)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            parse_usage_metric(42)
        with pytest.raises(ValueError):
            parse_detection("sometimes")

    def test_window_is_tested_for_presence_not_truth(self):
        assert Detection("fitted", 0).label() == "fitted:0-"
        assert Detection("fitted", None, 0).label() == "fitted:-0"
        with pytest.raises(ValueError, match="takes no window"):
            parse_detection({"mode": "empirical", "from": 0})
        with pytest.raises(ValueError, match="window year True is not an integer"):
            parse_detection({"mode": "fitted", "from": True})

    def test_negative_window_year_is_refused(self):
        # The label's "-" separator cannot tell a negative year from an
        # open side, so 'fitted:-5-' could not be parsed back.
        with pytest.raises(ValueError, match="window year -5 is negative"):
            parse_detection({"mode": "fitted", "from": -5})
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
        assert parse_detection(detection.label()) == detection

    @given(st.one_of(
        st.sampled_from([UsageMetric.minutes(), UsageMetric.raw_bits()]),
        st.builds(UsageMetric.units, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
                  | st.integers(1, 10**6)),
    ))
    def test_usage_metric_label_round_trips(self, metric):
        assert parse_usage_metric(metric.label()) == metric

    # Any name without the '|' separator, as `extend_datasets` accepts.
    NAMES = st.text(st.characters(exclude_characters="|"))

    @given(
        st.sampled_from(["audio", "video"]),
        NAMES,
        NAMES,
        st.one_of(
            st.sampled_from([UsageMetric.minutes(), UsageMetric.raw_bits()]),
            st.builds(UsageMetric.units, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        ),
        st.just(Detection("empirical"))
        | st.builds(Detection, st.just("fitted"), st.none() | st.integers(0, 10**6),
                    st.none() | st.integers(0, 10**6)),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_scenario_id_round_trips(self, case, target, media, metric, detection, threshold):
        scenario = Scenario(case, target, media, metric, detection, threshold)
        assert parse_scenario_id(case, scenario.scenario_id, 0.5) == scenario

    def test_scenario_id_may_leave_out_case_and_threshold(self):
        scenario = parse_scenario_id("video", "mail_dvd|clip|units:90|fitted:1995-", 0.25)
        assert scenario == Scenario("video", "mail_dvd", "clip", UsageMetric.units(90),
                                    Detection("fitted", 1995), 0.25)
        assert parse_scenario_id("video", "video|mail_dvd|clip|units:90|fitted:1995-|0.25", 0.5) == scenario
        with pytest.raises(ValueError, match=r"needs target\|reference\|metric\|detection"):
            parse_scenario_id("video", "audio|mail_dvd|clip|units:90|fitted:1995-|0.25", 0.5)


class TestRunScenario:
    def test_audio_baseline(self, datasets):
        result = run_scenario(enumerate_scenarios(config(), datasets)[0], datasets)
        assert result.crossover.year == 1998
        assert result.knee.year == 1999

    def test_video_baseline(self, datasets):
        cfg = config(case="video", targets=["mail_dvd"], reference_media=["clip"])
        result = run_scenario(enumerate_scenarios(cfg, datasets)[0], datasets)
        assert result.crossover.year == 2002
        assert result.knee.year == 2001

    def test_audio_song_reference(self, datasets):
        cfg = config(reference_media=["song"])
        result = run_scenario(enumerate_scenarios(cfg, datasets)[0], datasets)
        assert result.crossover.year == 1992

    def test_fitted_detection_reports_diagnostics(self, datasets):
        cfg = config(detection=["fitted"])
        result = run_scenario(enumerate_scenarios(cfg, datasets)[0], datasets)
        assert result.crossover.mode == "fitted"
        assert result.crossover.year == 1996
        assert 0.9 < result.diagnostics.replacement_r_squared <= 1.0
        assert result.diagnostics.replacement_k > 0.4
        assert result.diagnostics.crossover_extrapolated is False

    def test_baseline_consistency_with_standalone_ops(self, datasets):
        # The sweep path must agree with calling the pipeline pieces directly.
        result = run_scenario(enumerate_scenarios(config(), datasets)[0], datasets)
        replacement = replacement_performance("audio", "album", datasets)
        target = target_performance("mail_cd", datasets)
        adoption = adoption_series("audio", UsageMetric.minutes(), datasets)
        assert result.crossover == crossover_empirical(replacement, target)
        assert result.knee == knee(adoption, 0.01)

    def test_case_media_kind_mismatch_is_annotated(self, datasets):
        scenario = Scenario("audio", "mail_cd", "clip", UsageMetric.minutes(),
                            Detection("empirical"), 0.01)
        with pytest.raises(ScenarioError, match="audio\\|mail_cd\\|clip"):
            run_scenario(scenario, datasets)

    def test_custom_target_series(self, datasets):
        from techknee.series import AnnualSeries

        drive = AnnualSeries.from_mapping(
            {y: 0.5 for y in range(1983, 2016)}, "media-units-per-real-dollar"
        )
        with_custom = datasets._replace(targets={**datasets.targets, "drive": drive})
        cfg = config(targets=["drive"])
        result = run_scenario(enumerate_scenarios(cfg, with_custom)[0], with_custom)
        assert result.crossover.year is not None

    def test_custom_media_from_config(self, datasets, tmp_path):
        from techknee.sweep import extend_datasets

        # A 3-minute audio unit declared in config equals the bundled song.
        doc = {
            "custom_media": {
                "single": {"kind": "audio", "length_seconds": 180, "audio_bit_rate_kbps": 633.6}
            }
        }
        extended = extend_datasets(datasets, doc)
        cfg = config(reference_media=["single"])
        result = run_scenario(enumerate_scenarios(cfg, extended)[0], extended)
        assert result.crossover.year == 1992

    def test_custom_media_with_override_size(self, datasets):
        from techknee.sweep import extend_datasets

        doc = {
            "custom_media": {
                "hd": {"kind": "video", "length_seconds": 5400, "override_size_gigabits": 3027}
            }
        }
        extended = extend_datasets(datasets, doc)
        cfg = config(case="video", targets=["mail_dvd"], reference_media=["hd"])
        result = run_scenario(enumerate_scenarios(cfg, extended)[0], extended)
        assert result.crossover.year == 2008

    def test_custom_mail_target_weight(self, datasets):
        from techknee.sweep import extend_datasets

        # A two-ounce mail target declared in config equals mail_cassette.
        doc = {"custom_targets": {"mail_heavy": {"weight_ounces": 2}}}
        extended = extend_datasets(datasets, doc)
        cfg = config(targets=["mail_heavy"])
        result = run_scenario(enumerate_scenarios(cfg, extended)[0], extended)
        assert result.crossover.year == 1997

    def test_fractional_mail_weight_rounds_up(self, datasets):
        from techknee.sweep import extend_datasets

        # Postage charges by the started ounce: 1.5 ounces mail at the
        # 2-ounce rate, as mail_cassette does.
        doc = {"custom_targets": {"mail_1_5": {"weight_ounces": 1.5}}}
        extended = extend_datasets(datasets, doc)
        assert extended.targets["mail_1_5"] == 2
        cfg = config(targets=["mail_1_5"])
        result = run_scenario(enumerate_scenarios(cfg, extended)[0], extended)
        assert result.crossover.year == 1997

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
        cfg = config(case="video", targets=["mail_dvd"], reference_media=["sd_clip"])
        result = run_scenario(enumerate_scenarios(cfg, extended)[0], extended)
        assert result.crossover.year == 2002

    def test_extension_leaves_bundle_unchanged(self, datasets):
        from techknee.sweep import extend_datasets

        before = repr(datasets)
        extend_datasets(datasets, {"custom_targets": {"mail_heavy": {"weight_ounces": 2}},
                                   "custom_media": {"single": {"kind": "audio", "length_seconds": 180}}})
        assert repr(datasets) == before
        assert repr(load_all()) == before

    def test_protocol_mix_override(self, datasets, tmp_path):
        from techknee.series import write_series_csv
        from techknee.sweep import extend_datasets

        # One protocol carrying the bundled audio share at fraction 1.0
        # must reproduce the bundled knee exactly.
        path = tmp_path / "protocol.csv"
        write_series_csv(datasets.media_share["audio"], path)
        doc = {"protocol_mix": {"audio": [{"path": str(path), "media_fraction": 1.0}]}}
        extended = extend_datasets(datasets, doc)
        result = run_scenario(enumerate_scenarios(config(), extended)[0], extended)
        assert result.knee.year == 1999

    def test_custom_physical_media_override(self, datasets, tmp_path):
        from techknee.datasets import load_bundled
        from techknee.series import write_series_csv
        from techknee.sweep import extend_datasets

        # Redeclaring the bundled audio competitors in config reproduces
        # the bundled knee.
        for name in ("cd", "cassette", "vinyl"):
            write_series_csv(load_bundled("a6_sales")[name], tmp_path / f"{name}.csv")
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
        result = run_scenario(enumerate_scenarios(config(), extended)[0], extended)
        assert result.knee.year == 1999

    def test_bad_custom_media_is_named(self, datasets):
        from techknee.sweep import extend_datasets

        with pytest.raises(ValueError, match="broken"):
            extend_datasets(datasets, {"custom_media": {"broken": {"kind": "audio",
                                                                   "length_seconds": -5}}})

    def test_bundled_adoption_share_spot_values(self, datasets):
        # Ratio of the usage oracles over the bundled tables: 0.746% in
        # 1998 (below the 1% knee) and 2.752% in 1999.
        adoption = adoption_series("audio", UsageMetric.minutes(), datasets)
        assert adoption.to_mapping()[1998] == pytest.approx(0.0074610946726007075, rel=1e-12)
        assert adoption.to_mapping()[1999] == pytest.approx(0.02752441015074011, rel=1e-12)
        assert adoption.years == tuple(range(1993, 2008))


class TestDeterminism:
    def test_out_of_order_evaluation_changes_nothing(self, datasets):
        cfg = config(
            targets=["mail_cd", "mail_cassette"],
            reference_media=["album", "song"],
            knee_thresholds=[0.01, 0.10],
        )
        ordered = run_sweep(cfg, datasets)
        # Simulate a parallel executor finishing in reverse order.
        scenarios = enumerate_scenarios(cfg, datasets)
        by_id = {}
        for scenario in reversed(scenarios):
            by_id[scenario.scenario_id] = run_scenario(scenario, datasets)
        shuffled = [by_id[s.scenario_id] for s in scenarios]
        assert shuffled == ordered

    def test_repeated_runs_are_identical(self, datasets):
        cfg = config(reference_media=["album", "song"])
        assert run_sweep(cfg, datasets) == run_sweep(cfg, datasets)

    def test_scenario_independence(self, datasets):
        cfg = config(reference_media=["album", "song"])
        full = {r.scenario.scenario_id: r for r in run_sweep(cfg, datasets)}
        reduced = run_sweep(config(reference_media=["song"]), datasets)
        for r in reduced:
            assert full[r.scenario.scenario_id] == r


class TestJoin:
    """run_sweep computes each distinct crossover and knee once and joins
    them onto the scenarios that share their keys."""

    JOIN_CONFIG = dict(
        targets=["mail_cd", "mail_cassette"],
        reference_media=["album", "song"],
        usage_metrics=["minutes", "raw_bits", "units:3"],
        detection=["empirical", "fitted", "fitted:1995-2010"],
        knee_thresholds=[0.01, 0.10],
    )

    def test_equals_per_scenario_pipeline(self, datasets):
        cfg = config(**self.JOIN_CONFIG)
        joined = run_sweep(cfg, datasets)
        alone = [run_scenario(s, datasets) for s in enumerate_scenarios(cfg, datasets)]
        assert len(joined) == 2 * 2 * 3 * 3 * 2
        assert joined == alone
        assert [r.diagnostics for r in joined] == [r.diagnostics for r in alone]

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
        run_sweep(config(**self.JOIN_CONFIG), datasets)

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
        from techknee.errors import FitError

        # No data after 2030: every scenario with that window fails its fit.
        cfg = config(
            targets=["mail_cd", "mail_cassette"],
            detection=["empirical", "fitted:2030-2040"],
            knee_thresholds=[0.01, 0.10],
        )
        with pytest.raises(ScenarioError) as excinfo:
            run_sweep(cfg, datasets)
        first = "audio|mail_cd|album|minutes|fitted:2030-2040|0.01"
        assert str(excinfo.value).startswith(f"scenario {first}: ")
        assert isinstance(excinfo.value.__cause__, FitError)
        failing = []
        for scenario in enumerate_scenarios(cfg, datasets):
            try:
                run_scenario(scenario, datasets)
            except ScenarioError:
                failing.append(scenario.scenario_id)
        assert failing[0] == first

    def test_block_ranges_equal_per_result_ranges(self, datasets):
        cfg = config(**dict(self.JOIN_CONFIG, knee_thresholds=[0.01, 0.10, 0.999]))
        blocks = sweep_blocks(cfg, datasets)
        results = run_sweep(cfg, datasets)
        assert len(blocks) * 3 == len(results)
        for group_by in (None, "target", "reference_media", "usage_metric", "detection"):
            assert feasibility_range(blocks, group_by) == ranges_per_result(results, group_by)

    def test_shared_diagnostics_are_read_only(self, datasets):
        results = run_sweep(config(detection=["fitted"], knee_thresholds=[0.01, 0.10]), datasets)
        first, second = results
        assert first.diagnostics is second.diagnostics
        with pytest.raises(AttributeError):
            first.diagnostics.replacement_k = 0.0
        assert second.diagnostics.replacement_k > 0.4
        (empirical,) = run_sweep(config(), datasets)
        assert empirical.diagnostics is None

    def test_results_pickle_and_deepcopy(self, datasets):
        results = run_sweep(config(**self.JOIN_CONFIG), datasets)
        for copied in (pickle.loads(pickle.dumps(results)), copy.deepcopy(results)):
            assert copied == results
            # The two thresholds of one fitted block still share one record.
            assert copied[2].scenario.detection == Detection("fitted")
            assert copied[2].diagnostics is copied[3].diagnostics is not None


def ranges_per_result(results, group_by=None):
    """Min/max crossover and knee years per label, one result at a time."""
    groups = {}
    for r in results:
        value = "all" if group_by is None else getattr(r.scenario, group_by)
        groups.setdefault(value if isinstance(value, str) else value.label(), []).append(r)
    ranges = []
    for label, group in sorted(groups.items()):
        crossovers = [r.crossover.year for r in group if r.crossover.year is not None]
        knees = [r.knee.year for r in group if r.knee.year is not None]
        ranges.append(FeasibilityRange(
            label, len(group),
            min(crossovers, default=None), max(crossovers, default=None), len(group) - len(crossovers),
            min(knees, default=None), max(knees, default=None), len(group) - len(knees),
        ))
    return ranges


class TestFeasibilityRange:
    @staticmethod
    def ranges(cfg, datasets, group_by=None):
        """`feasibility_range` of a sweep, checked against the ranges of its
        results one by one."""
        ranges = feasibility_range(sweep_blocks(cfg, datasets), group_by)
        assert ranges == ranges_per_result(run_sweep(cfg, datasets), group_by)
        return ranges

    def test_audio_reference_axis_range(self, datasets):
        # Album and song references: crossover range spans 1992-1998.
        (fr,) = self.ranges(config(reference_media=["album", "song"]), datasets)
        assert fr.label == "all"
        assert (fr.crossover_min, fr.crossover_max) == (1992, 1998)
        assert fr.crossover_absent == 0

    def test_single_scenario_degenerate_range(self, datasets):
        (fr,) = self.ranges(config(), datasets)
        assert fr.crossover_min == fr.crossover_max == 1998
        assert fr.knee_min == fr.knee_max == 1999

    def test_group_by_target(self, datasets):
        ranges = self.ranges(config(targets=["mail_cd", "mail_cassette"]), datasets, group_by="target")
        ranges = {fr.label: fr for fr in ranges}
        assert ranges["mail_cd"].crossover_min == 1998
        assert ranges["mail_cassette"].crossover_min == 1997

    def test_all_absent_group(self, datasets):
        from techknee.series import AnnualSeries

        unbeatable = AnnualSeries.from_mapping(
            {y: 1e9 for y in range(1983, 2016)}, "media-units-per-real-dollar"
        )
        with_custom = datasets._replace(targets={**datasets.targets, "unbeatable": unbeatable})
        (fr,) = self.ranges(config(targets=["unbeatable"], knee_thresholds=[0.01, 0.999]), with_custom)
        assert fr.crossover_min is None and fr.crossover_max is None
        assert fr.crossover_absent == 2
        assert (fr.knee_min, fr.knee_max, fr.knee_absent) == (1999, 1999, 1)

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            feasibility_range([])


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
