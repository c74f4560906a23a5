"""Command-line interface: output contracts, exit codes, determinism."""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from techknee.cli import main
from techknee.sweep import _CELL_SPECS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def flat_csv(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("year,value\n" + "".join(f"{y},42.0\n" for y in range(1990, 2000)))
    return str(path)


@pytest.fixture
def rising_csv(tmp_path):
    path = tmp_path / "rising.csv"
    rows = "".join(f"{y},{2.0 ** (y - 1990)}\n" for y in range(1990, 2000))
    path.write_text("year,value\n" + rows)
    return str(path)


@pytest.fixture
def share_csv(tmp_path):
    path = tmp_path / "share.csv"
    path.write_text("year,value\n1998,0.007\n1999,0.027\n2000,0.08\n2001,0.15\n")
    return str(path)


class TestFit:
    def test_flat_series_reports_zero_tir(self, capsys, flat_csv):
        code, out, _ = run(capsys, "fit", "--input", flat_csv)
        assert code == 0
        assert "TIR: 0.0% per year" in out
        assert flat_csv in out  # provenance

    def test_json_mode(self, capsys, rising_csv):
        code, out, _ = run(capsys, "fit", "--input", rising_csv, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["tir_percent"] == pytest.approx(100.0, rel=1e-7)
        assert doc["window"] == [1990, 1999]

    def test_window_flags(self, capsys, rising_csv):
        code, out, _ = run(capsys, "fit", "--input", rising_csv, "--from", "1995", "--to", "1998", "--json")
        assert code == 0
        assert json.loads(out)["n_points"] == 4

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fit", "--input", "/nonexistent.csv")
        assert code == 2
        assert "no such file" in err


class TestCrossover:
    def test_empirical(self, capsys, tmp_path, flat_csv, rising_csv):
        code, out, _ = run(
            capsys, "crossover", "--replacement", rising_csv, "--target", flat_csv,
            "--unit", "count-per-year",
        )
        assert code == 0
        assert "crossover 1996" in out  # 2^6 = 64 >= 42

    def test_fitted_mode_reports_fraction(self, capsys, flat_csv, rising_csv):
        code, out, _ = run(
            capsys, "crossover", "--replacement", rising_csv, "--target", flat_csv,
            "--unit", "count-per-year", "--fitted",
        )
        assert code == 0
        assert "fractional" in out

    def test_require_crossover_exit_code(self, capsys, tmp_path, flat_csv):
        low = tmp_path / "low.csv"
        low.write_text("year,value\n" + "".join(f"{y},0.001\n" for y in range(1990, 2000)))
        code, out, err = run(
            capsys, "crossover", "--replacement", str(low), "--target", flat_csv,
            "--unit", "count-per-year", "--require-crossover",
        )
        assert code == 1
        assert "no crossover" in out
        assert "no crossover" in err


class TestKnee:
    def test_knee_year(self, capsys, share_csv):
        code, out, _ = run(capsys, "knee", "--input", share_csv, "--threshold", "0.10")
        assert code == 0
        assert "knee(10%) = 2001" in out

    def test_never_reached(self, capsys, share_csv):
        code, out, _ = run(capsys, "knee", "--input", share_csv, "--threshold", "0.9")
        assert code == 0
        assert "never reaches" in out


class TestCase:
    def test_audio_case_published_years(self, capsys):
        code, out, _ = run(capsys, "case", "audio")
        assert code == 0
        assert "crossover: 1998, knee(1%): 1999" in out
        assert "a1_bandwidth_cost" in out  # provenance

    def test_video_case_published_years(self, capsys):
        code, out, _ = run(capsys, "case", "video")
        assert code == 0
        assert "crossover: 2002, knee(1%): 2001" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "case", "audio", "--json")
        doc = json.loads(out)
        assert (doc["crossover"], doc["knee"]) == (1998, 1999)

    def test_json_lists_the_tables_read_not_the_directory(self, capsys, tmp_path, monkeypatch):
        from techknee.datasets import DATASET_IDS, data_dir

        copy = tmp_path / "data"
        shutil.copytree(data_dir(), copy)
        (copy / "notes.csv").write_text("year,value\n")
        monkeypatch.setenv("TECHKNEE_DATA", str(copy))
        code, out, _ = run(capsys, "case", "audio", "--json")
        assert code == 0
        assert json.loads(out)["data"] == [f"{dataset_id}.csv" for dataset_id in DATASET_IDS]

    def test_scenario_override(self, capsys):
        # Song reference vs two-ounce cassette target: the cheap-postage-era
        # crossing holds from 1988 on (1.0999 vs 0.952 songs per dollar).
        code, out, _ = run(
            capsys, "case", "audio", "--scenario", "mail_cassette|song|minutes|empirical|0.1"
        )
        assert code == 0
        assert "crossover: 1988, knee(10%): 2001" in out

    def test_scenario_override_json(self, capsys):
        code, out, _ = run(
            capsys, "case", "audio", "--json",
            "--scenario", "mail_cd|album|minutes|fitted:1995-|0.01",
        )
        doc = json.loads(out)
        assert doc["crossover"] == 1998  # from-1995 regression intersection
        assert doc["scenario"] == "audio|mail_cd|album|minutes|fitted:1995-|0.01"

    def test_bad_scenario_id(self, capsys):
        code, _, err = run(capsys, "case", "audio", "--scenario", "just|two")
        assert code == 2
        assert err == ("error: bad scenario id: scenario id 'just|two' needs "
                       "target|reference|metric|detection[|threshold]\n")

    @pytest.fixture(scope="class")
    def computed(self):
        from techknee.datasets import load_all
        from techknee.sweep import reproduce_case_studies

        return {c.cell_id: c.computed for c in reproduce_case_studies(load_all()).cells}

    @pytest.mark.parametrize("spec", _CELL_SPECS, ids=lambda spec: spec[0])
    def test_each_published_cell_reruns_from_its_scenario_id(self, capsys, computed, spec):
        cell_id, _, case, _, scenario_id, event, _, _ = spec
        code, out, err = run(capsys, "case", case, "--scenario", scenario_id, "--json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["scenario"] == f"{case}|{scenario_id}"
        assert doc[event] == computed[cell_id]

    def test_plot_emission_and_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "case", "audio", "--out", str(out1))[0] == 0
        assert run(capsys, "case", "audio", "--out", str(out2))[0] == 0
        for name in ("audio_curves.csv", "audio.svg"):
            first, second = (out1 / name).read_bytes(), (out2 / name).read_bytes()
            assert first == second
        header = (out1 / "audio_curves.csv").read_text().splitlines()[0]
        assert header == "year,series,value,unit"

    def test_tidy_rows_carry_units(self, capsys, tmp_path):
        run(capsys, "case", "video", "--out", str(tmp_path))
        body = (tmp_path / "video_curves.csv").read_text()
        assert "media-units-per-real-dollar" in body
        assert "dimensionless-share" in body


class TestSweep:
    def test_year_zero_window_has_its_own_label(self, capsys, tmp_path):
        config = {"case": "audio", "targets": ["mail_cd"], "reference_media": ["album"],
                  "usage_metrics": ["minutes"], "detection": ["fitted", {"mode": "fitted", "from": 0}],
                  "knee_thresholds": [0.01]}
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        code, _, _ = run(capsys, "sweep", "--config", str(config_path), "--out", str(tmp_path / "out"))
        assert code == 0
        with open(tmp_path / "out" / "results.csv", newline="") as f:
            ids = [row["scenario_id"] for row in csv.DictReader(f)]
        assert ids == ["audio|mail_cd|album|minutes|fitted|0.01",
                       "audio|mail_cd|album|minutes|fitted:0-|0.01"]

    def test_end_to_end(self, capsys, tmp_path):
        config = {
            "case": "audio",
            "targets": ["mail_cd"],
            "reference_media": ["album", "song"],
            "usage_metrics": ["minutes"],
            "detection": ["empirical"],
            "knee_thresholds": [0.01],
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "sweep", "--config", str(config_path), "--out", str(out_dir))
        assert code == 0
        rows = (out_dir / "results.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 scenarios
        assert rows[1].split(",")[7] == "1998"  # album crossover
        assert rows[2].split(",")[7] == "1992"  # song crossover
        summary = json.loads((out_dir / "feasibility.json").read_text())
        all_range = [r for r in summary["ranges"] if r["label"] == "all"][0]
        assert all_range["crossover"] == [1992, 1998]

    def test_custom_series_target(self, capsys, tmp_path):
        drive = tmp_path / "drive.csv"
        drive.write_text("year,value\n" + "".join(f"{y},0.9\n" for y in range(1983, 2016)))
        config = {
            "case": "audio",
            "targets": ["drive"],
            "reference_media": ["album"],
            "usage_metrics": ["minutes"],
            "detection": ["empirical"],
            "knee_thresholds": [0.01],
            "custom_series": {"drive": {"path": str(drive), "unit": "media-units-per-real-dollar"}},
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        code, _, _ = run(capsys, "sweep", "--config", str(config_path), "--out", str(tmp_path / "out"))
        assert code == 0

    def test_missing_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path))
        assert code == 2
        assert "config" in err

    @staticmethod
    def sweep(capsys, tmp_path, config):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        code, _, err = run(capsys, "sweep", "--config", str(config_path), "--out", str(tmp_path / "out"))
        assert code == 0, err
        return tmp_path / "out" / "results.csv"

    def test_names_needing_quotes(self, capsys, tmp_path):
        from techknee.datasets import load_all
        from techknee.sweep import SweepConfig, extend_datasets, run_sweep

        drive = tmp_path / "drive.csv"
        drive.write_text("year,value\n" + "".join(f"{y},{0.5 + 0.01 * (y - 1983)}\n" for y in range(1983, 2016)))
        config = {
            "case": "audio",
            "targets": ['drive, "fast"', "mail_cd"],
            "reference_media": ['album,"long"', "song", "two\nlines"],
            "usage_metrics": ["minutes"],
            "detection": ["empirical", "fitted"],
            "knee_thresholds": [0.01, 0.1],
            "custom_series": {'drive, "fast"': {"path": str(drive), "unit": "media-units-per-real-dollar"}},
            "custom_media": {'album,"long"': {"kind": "audio", "length_seconds": 4000},
                             "two\nlines": {"kind": "audio", "length_seconds": 100}},
        }
        path = self.sweep(capsys, tmp_path, config)

        datasets = extend_datasets(load_all(), config)
        expected = [[
            "scenario_id", "case", "target", "reference_media", "usage_metric", "detection",
            "knee_threshold", "crossover_year", "crossover_fractional", "knee_year",
        ]]
        for r in run_sweep(SweepConfig.from_json(config), datasets):
            s, x = r.scenario, r.crossover
            expected.append([
                s.scenario_id, s.case, s.target, s.reference_media, s.usage_metric.label(),
                s.detection.label(), repr(s.knee_threshold),
                "" if x.year is None else str(x.year),
                "" if x.fractional_year is None else f"{x.fractional_year:.4f}",
                "" if r.knee.year is None else str(r.knee.year),
            ])
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows == expected
        assert len(rows) == 1 + 2 * 3 * 2 * 2
        assert rows[1][:4] == ['audio|drive, "fast"|album,"long"|minutes|empirical|0.01', "audio",
                               'drive, "fast"', 'album,"long"']
        buf = io.StringIO()
        csv.writer(buf).writerows(expected)
        assert path.read_bytes() == buf.getvalue().encode()

    def test_ids_and_thresholds_parse_back(self, capsys, tmp_path):
        from techknee.sweep import parse_scenario_id

        # Written with six significant digits, both thresholds would read
        # 0.123457 and share one id.
        config = dict(TestErrorContract.SWEEP, knee_thresholds=[0.1234567, 0.1234568, 1e-05])
        with open(self.sweep(capsys, tmp_path, config), newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert [r["knee_threshold"] for r in rows] == ["0.1234567", "0.1234568", "1e-05"]
        for r, threshold in zip(rows, config["knee_thresholds"]):
            assert parse_scenario_id("audio", r["scenario_id"], 0.5).knee_threshold == threshold
            assert float(r["knee_threshold"]) == threshold

    def test_knees_rise_with_threshold_within_each_block(self, capsys, tmp_path):
        config = {
            "case": "audio",
            "targets": ["mail_cd", "mail_cassette"],
            "reference_media": ["album"],
            "usage_metrics": ["minutes", "raw_bits", "units:3"],
            "detection": ["empirical", "fitted"],
            "knee_thresholds": [0.3, 0.01, 0.5, 0.05, 0.99, 0.1, 0.02],
        }
        with open(self.sweep(capsys, tmp_path, config), newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        blocks = {}
        for r in rows:
            block = r["scenario_id"].rsplit("|", 1)[0]
            year = int(r["knee_year"]) if r["knee_year"] else math.inf
            blocks.setdefault(block, []).append((float(r["knee_threshold"]), year))
        assert len(blocks) == 2 * 3 * 2
        for block, knees in blocks.items():
            years = [year for _, year in sorted(knees)]
            assert years == sorted(years), block
            assert len(set(years)) > 2, block


class TestReproduce:
    def test_report_lists_every_cell(self, capsys):
        code, out, _ = run(capsys, "reproduce")
        assert code == 0  # non-strict never fails on deviations
        assert "t2_audio_mail_cd" in out
        assert "UNSUPPORTED" in out and "no published cost model" in out
        assert "deviations: 2" in out

    def test_strict_flags_known_deviation(self, capsys):
        # The audio from-1995 regression cell is irreproducible from the
        # bundled data (see test_acceptance.py's
        # test_criterion_6_audio_from1995_cell_known_defect); strict mode
        # must say so.
        code, out, err = run(capsys, "reproduce", "--strict")
        assert code == 1
        assert "t5_audio_fit_from1995" in out
        assert "deviate" in err

    def test_json_and_files(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reproduce", "--json", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["deviations"] == ["t5_audio_fit_from1995", "fig4_audio_crossover_range"]
        for name in ("cells.csv", "report.json", "fig3_audio.csv", "fig3_audio.svg",
                     "fig3_video.csv", "fig3_video.svg"):
            assert (tmp_path / name).exists(), name
        assert (tmp_path / "fig3_audio.svg").read_text().startswith("<svg")

    def test_output_files_are_byte_deterministic(self, capsys, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        run(capsys, "reproduce", "--out", str(first))
        run(capsys, "reproduce", "--out", str(second))
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes(), path.name


class TestExportData:
    def test_exports_all_tables(self, capsys, tmp_path):
        code, out, _ = run(capsys, "export-data", "--out", str(tmp_path / "dump"))
        assert code == 0
        assert "exported 16 files" in out


class TestErrorContract:
    """Bad input reaching the library exits 2 with one `error:` line."""

    @staticmethod
    def assert_usage_error(result):
        code, out, err = result
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in out + err

    def test_crossover_without_shared_years(self, capsys, tmp_path, rising_csv):
        later = tmp_path / "later.csv"
        later.write_text("year,value\n2005,1.0\n2006,2.0\n")
        self.assert_usage_error(run(
            capsys, "crossover", "--replacement", rising_csv, "--target", str(later),
            "--unit", "count-per-year",
        ))

    def test_knee_on_share_above_one(self, capsys, tmp_path):
        path = tmp_path / "over.csv"
        path.write_text("year,value\n2000,0.5\n2001,1.5\n")
        self.assert_usage_error(run(capsys, "knee", "--input", str(path), "--threshold", "0.1"))

    def test_knee_threshold_outside_unit_interval(self, capsys, share_csv):
        self.assert_usage_error(run(capsys, "knee", "--input", share_csv, "--threshold", "1.5"))

    @pytest.mark.parametrize("metric", ["units:inf", "units:nan", "units:0"])
    def test_scenario_unit_length_must_be_finite_and_positive(self, capsys, metric):
        result = run(capsys, "case", "audio", "--scenario", f"mail_cd|album|{metric}|empirical|0.01")
        self.assert_usage_error(result)
        assert result[2] == "error: bad scenario id: units metric needs a finite positive unit length\n"

    @pytest.mark.parametrize("argv", [["case", "audio", "--json"], ["reproduce"], ["export-data", "--out", "out"]])
    def test_manifest_must_name_its_own_csv(self, capsys, tmp_path, monkeypatch, argv):
        # A table read under another name would be neither exported nor
        # listed by `case --json`, which name each CSV by its table id.
        from techknee.datasets import data_dir

        copy = tmp_path / "data"
        shutil.copytree(data_dir(), copy)
        (copy / "a4_traffic.csv").rename(copy / "traffic.csv")
        manifest = json.loads((copy / "a4_traffic.manifest.json").read_text())
        (copy / "a4_traffic.manifest.json").write_text(json.dumps(dict(manifest, file="traffic.csv")))
        monkeypatch.setenv("TECHKNEE_DATA", str(copy))
        monkeypatch.chdir(tmp_path)
        result = run(capsys, *argv)
        self.assert_usage_error(result)
        assert result[2] == "error: a4_traffic: manifest names file 'traffic.csv', not 'a4_traffic.csv'\n"
        assert result[1] == ""

    @staticmethod
    def sweep(capsys, tmp_path, config):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        return run(capsys, "sweep", "--config", str(path), "--out", str(tmp_path / "out"))

    def test_sweep_config_missing_an_axis(self, capsys, tmp_path):
        config = {"case": "audio", "targets": ["mail_cd"], "reference_media": ["album"],
                  "usage_metrics": ["minutes"], "detection": ["empirical"]}
        self.assert_usage_error(self.sweep(capsys, tmp_path, config))

    def test_sweep_unknown_usage_metric(self, capsys, tmp_path):
        config = {"case": "audio", "targets": ["mail_cd"], "reference_media": ["album"],
                  "usage_metrics": ["furlongs"], "detection": ["empirical"],
                  "knee_thresholds": [0.01]}
        self.assert_usage_error(self.sweep(capsys, tmp_path, config))

    def test_sweep_config_not_an_object(self, capsys, tmp_path):
        self.assert_usage_error(self.sweep(capsys, tmp_path, ["audio"]))

    SWEEP = {"case": "audio", "targets": ["mail_cd"], "reference_media": ["album"],
             "usage_metrics": ["minutes"], "detection": ["empirical"], "knee_thresholds": [0.01]}
    HD_CLIP = {"kind": "video", "length_seconds": 300, "pixel_height": 1080, "pixel_width": 1920,
               "bits_per_pixel": 24, "frames_per_second": 30}

    def test_sweep_metric_object_without_kind(self, capsys, tmp_path):
        config = dict(self.SWEEP, usage_metrics=["minutes", {"unit_length_minutes": 3}])
        result = self.sweep(capsys, tmp_path, config)
        self.assert_usage_error(result)
        assert result[2] == "error: usage_metrics[1]: missing field 'kind'\n"

    def test_sweep_custom_series_without_unit(self, capsys, tmp_path):
        config = dict(self.SWEEP, custom_series={"drive": {"path": "drive.csv"}})
        result = self.sweep(capsys, tmp_path, config)
        self.assert_usage_error(result)
        assert result[2] == "error: custom_series['drive']: missing field 'unit'\n"

    def test_sweep_custom_series_file_missing(self, capsys, tmp_path):
        config = dict(self.SWEEP, custom_series={
            "drive": {"path": "nope.csv", "unit": "media-units-per-real-dollar"}})
        result = self.sweep(capsys, tmp_path, config)
        self.assert_usage_error(result)
        assert result[2].startswith("error: custom_series['drive']: no such file: ")

    @pytest.mark.parametrize("override, message", [
        ({"knee_thresholds": [None]}, "knee_thresholds[0]: expected a number, got null"),
        ({"targets": [["mail_cd"]]}, 'targets[0]: expected a string, got ["mail_cd"]'),
        ({"targets": "mail_cd"}, 'targets: expected an array, got "mail_cd"'),
        ({"custom_series": {"x": "a.csv"}}, 'custom_series[\'x\']: expected an object, got "a.csv"'),
        ({"custom_series": {"x": {"path": 5, "unit": "bits"}}},
         "custom_series['x']: path: expected a string, got 5"),
        ({"detection": [{"mode": "fitted", "from": "1995"}]},
         "detection[0]: window year '1995' is not an integer"),
        ({"usage_metrics": [{"kind": "units", "unit_length_minutes": None}]},
         "usage_metrics[0]: unit_length_minutes: expected a number, got null"),
        ({"protocol_mix": {"audio": 5}}, "protocol_mix['audio']: expected an array, got 5"),
        ({"custom_targets": {"m": {"weight_ounces": float("inf")}}},
         "custom_targets['m']: weight_ounces: expected a finite number, got Infinity"),
        ({"custom_media": {"v": dict(HD_CLIP, pixel_height=1080.5)}},
         "custom_media['v']: pixel_height: expected an integer, got 1080.5"),
        ({"custom_media": {"v": dict(HD_CLIP, pixel_width="1920.25")}},
         "custom_media['v']: pixel_width: expected an integer, got 1920.25"),
        ({"custom_media": {"v": dict(HD_CLIP, bits_per_pixel=float("inf"))}},
         "custom_media['v']: bits_per_pixel: expected an integer, got Infinity"),
        ({"detection": [{"mode": "fitted", "from": True}]},
         "detection[0]: window year True is not an integer"),
        ({"detection": [{"mode": "empirical", "from": 0}]},
         "detection[0]: empirical detection takes no window"),
        ({"detection": [{"mode": "fitted", "from": -5}]}, "detection[0]: window year -5 is negative"),
        ({"usage_metrics": ["units:inf"]},
         "usage_metrics[0]: units metric needs a finite positive unit length"),
        ({"usage_metrics": [{"kind": "units", "unit_length_minutes": float("nan")}]},
         "usage_metrics[0]: units metric needs a finite positive unit length"),
    ])
    def test_sweep_config_value_of_wrong_type(self, capsys, tmp_path, override, message):
        result = self.sweep(capsys, tmp_path, dict(self.SWEEP, **override))
        self.assert_usage_error(result)
        assert result[2] == f"error: {message}\n"
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("override, message", [
        ({"custom_targets": {"mail_cd": {"weight_ounces": 5}}},
         "custom_targets['mail_cd']: shadows a bundled target"),
        ({"custom_series": {"mail_cd": {"path": "nope.csv", "unit": "media-units-per-real-dollar"}}},
         "custom_series['mail_cd']: shadows a bundled target"),
        ({"custom_media": {"album": {"kind": "audio", "length_seconds": 60}}},
         "custom_media['album']: shadows a bundled reference media unit"),
        ({"custom_series": {"drive": {"path": "drive.csv", "unit": "media-units-per-real-dollar"}},
          "custom_targets": {"drive": {"weight_ounces": 5}}},
         "custom_targets['drive']: shadows an already declared target"),
    ])
    def test_sweep_declared_name_collides(self, capsys, tmp_path, override, message):
        (tmp_path / "drive.csv").write_text("year,value\n1990,1.0\n1991,2.0\n")
        result = self.sweep(capsys, tmp_path, dict(self.SWEEP, **override))
        self.assert_usage_error(result)
        assert result[2] == f"error: {message}\n"
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("override, message", [
        ({"custom_target": {"mail_x": {"weight_ounces": 2}}}, "custom_target: unknown config key"),
        ({"protocol_mix": {"audoi": []}},
         "protocol_mix['audoi']: unknown case (expected 'audio' or 'video')"),
        ({"custom_physical_media": {"custom": []}},
         "custom_physical_media['custom']: unknown case (expected 'audio' or 'video')"),
        ({"case": "custom"}, "unknown case 'custom'"),
        ({"detection": [{"mode": "fitted", "form": 1995}]}, "detection[0]: form: unknown config key"),
        ({"custom_targets": {"x": {"weight_ounces": 2, "wieght": 5}}},
         "custom_targets['x']: wieght: unknown config key"),
        ({"usage_metrics": [{"kind": "minutes", "unit_length_minutes": 3}]},
         "usage_metrics[0]: minutes metric takes no unit length"),
        ({"usage_metrics": [{"kind": "units", "length": 3}]}, "usage_metrics[0]: length: unknown config key"),
        ({"custom_series": {"x": {"path": "a.csv", "unit": "bits", "scale": 2}}},
         "custom_series['x']: scale: unknown config key"),
        ({"custom_media": {"v": {"kind": "audio", "length_seconds": 60, "pixel_height": 1080}}},
         "custom_media['v']: pixel_height: unknown config key"),
        ({"protocol_mix": {"audio": [{"path": "a.csv", "media_fraction": 0.5, "fraction": 1}]}},
         "protocol_mix['audio'][0]: fraction: unknown config key"),
        ({"custom_physical_media": {"audio": [
            {"name": "lp", "kind": "analog", "sales_path": "a.csv", "unit_storage_megabytes": 700}]}},
         "custom_physical_media['audio'][0]: unit_storage_megabytes: unknown config key"),
        ({"custom_media": {"v": {"kind": "audio", "length_seconds": 60, "override_size_gigabits": 0.1,
                                 "audio_bit_rate_kbps": 1.0}}},
         "custom_media['v']: audio_bit_rate_kbps: unknown config key"),
    ])
    def test_sweep_unknown_key_or_case(self, capsys, tmp_path, override, message):
        result = self.sweep(capsys, tmp_path, dict(self.SWEEP, **override))
        self.assert_usage_error(result)
        assert result[2] == f"error: {message}\n"
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("override, message", [
        ({"usage_metrics": ["units:3", {"kind": "units", "unit_length_minutes": 3.0}]},
         "usage_metrics[1]: duplicate of usage_metrics[0]"),
        ({"knee_thresholds": [0.1, 0.1]}, "knee_thresholds[1]: duplicate of knee_thresholds[0]"),
        ({"targets": ["mail_cd", "mail_cassette", "mail_cd"]}, "targets[2]: duplicate of targets[0]"),
        ({"detection": ["fitted:1995-", {"mode": "fitted", "from": 1995}]},
         "detection[1]: duplicate of detection[0]"),
        ({"custom_targets": {"a|b": {"weight_ounces": 2}}},
         "custom_targets['a|b']: '|' separates scenario id fields, so no name may hold it"),
        ({"custom_media": {"album|long": {"kind": "audio", "length_seconds": 4000}}},
         "custom_media['album|long']: '|' separates scenario id fields, so no name may hold it"),
    ])
    def test_sweep_scenario_ids_stay_unique(self, capsys, tmp_path, override, message):
        result = self.sweep(capsys, tmp_path, dict(self.SWEEP, **override))
        self.assert_usage_error(result)
        assert result[2] == f"error: {message}\n"
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("argv, bad", [
        (["export-data", "--out", "{file}"], "file"),
        (["reproduce", "--out", "{file}"], "file"),
        (["case", "audio", "--out", "{file}"], "file"),
        (["sweep", "--config", "{config}", "--out", "{file}"], "file"),
        (["fit", "--input", "{dir}"], "dir"),
        (["sweep", "--config", "{dir}", "--out", "{out}"], "dir"),
    ])
    def test_unusable_path(self, capsys, tmp_path, argv, bad):
        paths = {"file": tmp_path / "a_file", "dir": tmp_path, "config": tmp_path / "sweep.json",
                 "out": tmp_path / "out"}
        paths["file"].write_text("")
        paths["config"].write_text(json.dumps(self.SWEEP))
        result = run(capsys, *[a.format(**paths) for a in argv])
        self.assert_usage_error(result)
        assert result[2].startswith(f"error: {paths[bad]}: ")
        assert result[1] == ""  # nothing that looks like a success is printed first

    def test_failing_sweep_writes_no_results(self, capsys, tmp_path):
        config = dict(self.SWEEP, detection=["empirical", "fitted:2030-2040"])
        result = self.sweep(capsys, tmp_path, config)
        self.assert_usage_error(result)
        assert "scenario audio|mail_cd|album|minutes|fitted:2030-2040|0.01: " in result[2]
        assert not (tmp_path / "out" / "results.csv").exists()


class TestColdStart:
    """Each command runs in a fresh interpreter, so whatever it imports is
    paid by every run of it."""

    @staticmethod
    def loaded(statement: str, *flags: str) -> set:
        """Modules a child interpreter started with `flags` holds after
        `statement` beyond a bare one's; the list goes to stderr, clear of
        command output."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

        def modules(statement: str) -> set:
            code = f"import sys; {statement}; sys.stderr.write(' '.join(sys.modules))"
            child = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                                   text=True, check=True)
            return set(child.stderr.split())

        return modules(statement) - modules("pass")

    def command(self, *argv: str, flags: tuple = ()) -> set:
        return self.loaded(f"from techknee.cli import main; assert main({list(argv)!r}) == 0", *flags)

    def test_import_loads_no_module_only_some_commands_need(self):
        new = self.loaded("import techknee.cli")
        assert not new & {"dataclasses", "inspect", "hashlib", "datetime", "json", "techknee.sweep",
                          "techknee.adoption", "techknee.costs", "techknee.datasets", "techknee.plots"}

    def test_fit_loads_only_series_and_fitting(self, rising_csv):
        new = self.command("fit", "--input", rising_csv)
        assert {"techknee.series", "techknee.fitting"} <= new
        assert not new & {"techknee.sweep", "techknee.adoption", "techknee.costs",
                          "techknee.datasets", "techknee.plots", "json"}

    @pytest.mark.parametrize("argv", [("case", "audio"), ("reproduce",)])
    def test_data_commands_skip_openssl_and_pure_python_datetime(self, argv):
        new = self.command(*argv)
        assert "techknee.datasets" in new
        assert not new & {"hashlib", "datetime"}

    def test_case_without_site_skips_importlib_resources(self):
        # Without `site`, whose `.pth` files may load it first, the bundled
        # data directory is found with no `importlib.resources`.
        new = self.command("case", "audio", flags=("-S",))
        assert "techknee.datasets" in new
        assert "importlib.resources" not in new


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
