"""Command-line interface: output contracts, exit codes, determinism."""

import csv
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from techknee.cli import _COMMANDS, _build_parser, _parse_plain, main
from techknee.sweep import _CELL_SPECS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Finite CSV values whose fitted level at 2000, e^945.6, a float cannot hold.
LEVEL_ROWS = "year,value\n2000,1e308\n2001,1e308\n2002,1e-308\n"


def exact_fitted_crossover(*paths) -> Fraction:
    """The fractional year at which the lines fitted to two `year,value`
    CSVs cross, by an exact OLS of the same float logs."""
    lines = []
    for path in paths:
        with open(path, newline="") as f:
            rows = [(Fraction(int(y)), Fraction(math.log(float(v)))) for y, v in list(csv.reader(f))[1:]]
        x_mean, z_mean = (sum(column) / len(rows) for column in zip(*rows))
        k = sum((x - x_mean) * (z - z_mean) for x, z in rows) / sum((x - x_mean) ** 2 for x, _ in rows)
        lines.append((z_mean - k * x_mean, k))  # log-level at year 0, rate
    (level_r, k_r), (level_t, k_t) = lines
    return (level_t - level_r) / (k_r - k_t)


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
        assert "\nwindow: 1990-1999 (10 points)\nlevel at 1990: 42 count-per-year\n" in out

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
        # A one-year window is not reversed; the fit refuses its one point.
        assert run(capsys, "fit", "--input", rising_csv, "--from", "1995", "--to", "1995") == (
            2, "", f"error: {rising_csv}: need at least 2 points in window, got 1\n")

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fit", "--input", "/nonexistent.csv")
        assert code == 2
        assert "no such file" in err

    @pytest.mark.parametrize("rows, refused", [
        ("2_000,1_0\n2_001,2_0\n", "bad year '2_000'"),
        ("2000,1_0\n2001,2_0\n", "bad value '1_0'"),
        ("\u0662\u0660\u0660\u0660,1.0\n2001,2.0\n", "bad year '\u0662\u0660\u0660\u0660'"),
    ], ids=["underscore-year", "underscore-value", "arabic-indic-year"])
    def test_python_number_literals_are_usage_errors(self, capsys, tmp_path, rows, refused):
        path = tmp_path / "s.csv"
        path.write_text("year,value\n" + rows, encoding="utf-8")
        code, out, err = run(capsys, "fit", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:2: {refused}\n"


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

    @pytest.mark.parametrize("threshold, label, year, case_year", [
        ("1e-9", "0.0000001%", 1998, 1993),
        ("1.5e-7", "0.000015%", 1998, 1993),
        ("0.004", "0.4%", 1998, 1998),
        ("0.025", "2.5%", 1999, 1999),
        ("0.01", "1%", 1999, 1999),
        ("0.1", "10%", 2001, 2001),
    ])
    def test_threshold_label_keeps_the_threshold(self, capsys, tmp_path, share_csv, threshold, label,
                                                 year, case_year):
        # Shares that never reach the threshold: 0.001 and 0.002, or zeros
        # for the tiny thresholds those would reach.
        low_shares = (0.001, 0.002) if float(threshold) > 0.002 else (0.0, 0.0)
        low = tmp_path / "low.csv"
        low.write_text("year,value\n1998,{}\n1999,{}\n".format(*low_shares))
        assert run(capsys, "knee", "--input", share_csv, "--threshold", threshold) == \
            (0, f"{share_csv}: knee({label}) = {year}\n", "")
        assert run(capsys, "knee", "--input", str(low), "--threshold", threshold) == \
            (0, f"{low}: share never reaches {label}\n", "")
        code, out, _ = run(capsys, "case", "audio", "--threshold", threshold)
        assert code == 0
        assert out.splitlines()[-1] == f"crossover: 1998, knee({label}): {case_year}"


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

    @pytest.mark.parametrize("argv", [[], ["--scenario", "mail_cd|album|minutes|empirical"]])
    def test_threshold_flag_sets_a_threshold_the_id_leaves_out(self, capsys, argv):
        code, out, _ = run(capsys, "case", "audio", *argv, "--threshold", "0.1")
        assert code == 0
        assert "crossover: 1998, knee(10%): 2001" in out

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

    @pytest.mark.parametrize("spec", [spec for spec in _CELL_SPECS if spec[4] is not None], ids=lambda spec: spec[0])
    def test_each_published_cell_reruns_from_its_scenario_id(self, capsys, computed, spec):
        cell_id, _, case, _, scenario_id, event, *_ = spec
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
                  "usage_metrics": ["minutes"], "detection": ["fitted", "fitted:0-"],
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

    def test_custom_series_refuses_python_number_literals(self, capsys, tmp_path):
        drive = tmp_path / "drive.csv"
        drive.write_text("year,value\n" + "".join(f"{y},0.9\n" for y in range(1983, 2015)) + "2_015,0.9\n")
        config = dict(TestErrorContract.SWEEP, targets=["drive"], custom_series={
            "drive": {"path": str(drive), "unit": "media-units-per-real-dollar"}})
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        code, _, err = run(capsys, "sweep", "--config", str(config_path), "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error: ") and f"{drive}:34: bad year '2_015'" in err
        assert not (tmp_path / "out" / "results.csv").exists()

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

    @staticmethod
    def rows_over_blocks(config, datasets):
        """results.csv's rows, header first, from `sweep_tables`: the product
        of the axes, each value looked up in the two tables, its cells as
        csv.writer would write them."""
        from techknee.sweep import Scenario, SweepConfig, sweep_tables

        cfg = SweepConfig.from_json(config)
        crossovers, knees = sweep_tables(cfg, datasets)
        rows = [["scenario_id", "case", "target", "reference_media", "usage_metric", "detection",
                 "knee_threshold", "crossover_year", "crossover_fractional", "knee_year"]]
        for target, media, metric, detection in itertools.product(*cfg[1:5]):
            x, _ = crossovers[target, media, detection]
            for threshold, k in zip(cfg.knee_thresholds, knees[metric]):
                rows.append([
                    Scenario(cfg.case, target, media, metric, detection, threshold).scenario_id, cfg.case,
                    target, media, metric.label(), detection.label(), repr(threshold),
                    "" if x.year is None else str(x.year),
                    "" if x.fractional_year is None else f"{x.fractional_year:.4f}",
                    "" if k is None else str(k),
                ])
        return rows

    def test_names_needing_quotes(self, capsys, tmp_path):
        from techknee.datasets import load_all
        from techknee.sweep import extend_datasets

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

        expected = self.rows_over_blocks(config, extend_datasets(load_all(), config))
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows == expected
        assert len(rows) == 1 + 2 * 3 * 2 * 2
        assert rows[1][:4] == ['audio|drive, "fast"|album,"long"|minutes|empirical|0.01', "audio",
                               'drive, "fast"', 'album,"long"']
        buf = io.StringIO()
        csv.writer(buf).writerows(expected)
        assert path.read_bytes() == buf.getvalue().encode()

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.text(',"\r\n éab', min_size=1, max_size=5), min_size=2, max_size=4, unique=True),
           st.lists(st.floats(1e-6, 0.99), min_size=1, max_size=3, unique=True))
    def test_results_csv_is_csv_writer_over_the_blocks(self, names, thresholds):
        """Any target and media names, as csv.writer quotes them."""
        from techknee.datasets import load_all
        from techknee.sweep import extend_datasets

        targets, media = names[::2], names[1::2]
        config = {
            "case": "audio", "targets": targets, "reference_media": media,
            "usage_metrics": ["minutes", "raw_bits"], "detection": ["empirical", "fitted"],
            "knee_thresholds": thresholds,
            "custom_targets": {name: {"weight_ounces": 1 + i} for i, name in enumerate(targets)},
            "custom_media": {name: {"kind": "audio", "length_seconds": 60 * (1 + i)}
                             for i, name in enumerate(media)},
        }
        with tempfile.TemporaryDirectory() as work, redirect_stdout(io.StringIO()):
            (Path(work) / "c.json").write_text(json.dumps(config))
            assert main(["sweep", "--config", str(Path(work) / "c.json"), "--out", work]) == 0
            written = (Path(work) / "results.csv").read_bytes()

        expected = io.StringIO()
        csv.writer(expected).writerows(self.rows_over_blocks(config, extend_datasets(load_all(), config)))
        assert written == expected.getvalue().encode()

    def test_ids_and_thresholds_parse_back(self, capsys, tmp_path):
        from techknee.sweep import parse_scenario_id

        # Written with six significant digits, both thresholds would read
        # 0.123457 and share one id.
        config = dict(TestErrorContract.SWEEP, knee_thresholds=[0.1234567, 0.1234568, 1e-05])
        with open(self.sweep(capsys, tmp_path, config), newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert [r["knee_threshold"] for r in rows] == ["0.1234567", "0.1234568", "1e-05"]
        for r, threshold in zip(rows, config["knee_thresholds"]):
            assert parse_scenario_id("audio", r["scenario_id"]).knee_threshold == threshold
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

    def test_a_key_error_is_a_bug_not_a_usage_error(self, monkeypatch):
        # Input is refused where it is read, as a ValueError naming it, so a
        # KeyError from inside a stage is a fault of the program: it must
        # surface as a traceback, not as `error: 'x'`.
        def lookup_fails(*args):
            raise KeyError("x")

        monkeypatch.setattr("techknee.sweep.adoption_series", lookup_fails)
        with pytest.raises(KeyError, match="^'x'$"):
            main(["case", "audio"])

    def test_crossover_without_shared_years(self, capsys, tmp_path, rising_csv):
        later = tmp_path / "later.csv"
        later.write_text("year,value\n2005,1.0\n2006,2.0\n")
        self.assert_usage_error(run(
            capsys, "crossover", "--replacement", rising_csv, "--target", str(later),
            "--unit", "count-per-year",
        ))

    @pytest.mark.parametrize("flag", ["--from", "--to"])
    def test_crossover_window_needs_fitted(self, capsys, flat_csv, rising_csv, flag):
        result = run(capsys, "crossover", "--replacement", rising_csv, "--target", flat_csv, flag, "1990")
        self.assert_usage_error(result)
        assert result[1:] == ("", f"error: {flag} applies only with --fitted\n")

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--input", "{rising}", "--from", "2000", "--to", "1990"],
         "window start 2000 exceeds window end 1990"),
        (["case", "audio", "--scenario", "mail_cd|album|minutes|fitted:2005-1990|0.1"],
         "scenario audio|mail_cd|album|minutes|fitted:2005-1990|0.1: window start 2005 exceeds window end 1990"),
    ], ids=["fit", "case"])
    def test_reversed_fit_window_is_named(self, capsys, rising_csv, argv, message):
        result = run(capsys, *[a.format(rising=rising_csv) for a in argv])
        self.assert_usage_error(result)
        assert result[1:] == ("", f"error: {message}\n")

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
        assert result[2] == "error: bad scenario id: metric: units metric needs a finite positive unit length\n"

    def test_scenario_unit_length_whose_reciprocal_overflows_is_named(self, capsys):
        result = run(capsys, "case", "audio", "--scenario", "mail_cd|album|units:1e-320|empirical")
        self.assert_usage_error(result)
        assert result[2] == ("error: bad scenario id: metric: units metric length 1e-320 is too small: "
                             "1/length is beyond a float's range\n")

    @pytest.mark.parametrize("argv, message", [
        (["case", "audio", "--scenario", "mail_cd|album|minutes|empirical|0.1", "--threshold", "0.05"],
         "scenario id 'mail_cd|album|minutes|empirical|0.1' carries threshold 0.1, so threshold 0.05 "
         "cannot be given too"),
        (["case", "video", "--scenario", "audio|mail_cd|album|minutes|empirical|0.1"],
         "scenario id 'audio|mail_cd|album|minutes|empirical|0.1' is for case 'audio', not 'video'"),
        (["case", "audio", "--scenario", "mail_cd|album|units:\u0663|empirical"],
         "metric: could not convert string to float: '\u0663'"),
        (["case", "audio", "--scenario", "mail_cd|album|minutes|fitted:\u0661\u0669\u0669\u0665-"],
         "detection: invalid literal for int() with base 10: '\u0661\u0669\u0669\u0665'"),
        (["case", "audio", "--scenario", "mail_cd|album|minutes|empirical|0.0_1"],
         "threshold: could not convert string to float: '0.0_1'"),
        (["case", "audio", "--scenario", "mail_cd|album|minutes|empirical|1.5"],
         "threshold: knee threshold must be in (0, 1)"),
        # The unit length is all of the text after the first colon, and the
        # window's end all of the text after the first dash.
        (["case", "audio", "--scenario", "mail_cd|album|units:3:4|empirical"],
         "metric: could not convert string to float: '3:4'"),
        (["case", "audio", "--scenario", "mail_cd|album|minutes|fitted:1995-:x"],
         "detection: invalid literal for int() with base 10: ':x'"),
        (["case", "audio", "--scenario", "mail_cd|album|minutes|empirical|1"],
         "threshold: knee threshold must be in (0, 1)"),
        # A '-' before the from-year is its sign, so the year is refused, not the text.
        (["case", "audio", "--scenario", "mail_cd|album|minutes|fitted:-5-"],
         "detection: window year -5 is negative"),
        (["case", "audio", "--scenario", "mail_cd|album|minutes|fitted:-5-2000"],
         "detection: window year -5 is negative"),
    ])
    def test_case_scenario_id_refused(self, capsys, argv, message):
        result = run(capsys, *argv)
        self.assert_usage_error(result)
        assert result[2] == f"error: bad scenario id: {message}\n"
        assert result[1] == ""

    # The fields are read left to right, so the first bad one is named,
    # whatever follows it.
    @pytest.mark.parametrize("scenario_id, message", [
        ("mail_cd|album|units:\u0663|fitted:\u0661\u0669\u0669\u0665-|0.0_1",
         "metric: could not convert string to float: '\u0663'"),
        ("mail_cd|album|units:x|fitted:1995-|0.1", "metric: could not convert string to float: 'x'"),
        ("mail_cd|album|minutes|fitted:abc-|0.1", "detection: invalid literal for int() with base 10: 'abc'"),
    ], ids=["every field bad", "metric", "detection"])
    def test_scenario_id_refusal_names_the_first_bad_field(self, capsys, scenario_id, message):
        result = run(capsys, "case", "audio", "--scenario", scenario_id)
        self.assert_usage_error(result)
        assert result[1:] == ("", f"error: bad scenario id: {message}\n")

    @pytest.mark.parametrize("scenario_id, message", [
        ("mail_cd|betamax|minutes|empirical", "unresolvable reference media 'betamax'"),
        ("mail_pigeon|album|minutes|empirical", "unresolvable target 'mail_pigeon'"),
    ], ids=["reference", "target"])
    def test_case_scenario_naming_no_such_axis_value(self, capsys, scenario_id, message):
        result = run(capsys, "case", "audio", "--scenario", scenario_id)
        self.assert_usage_error(result)
        assert result[1:] == ("", f"error: scenario audio|{scenario_id}|0.01: {message}\n")

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

    @pytest.mark.parametrize("data", [b"{not json", b"\xff\xfe{}"], ids=["syntax", "bytes"])
    def test_sweep_config_that_is_not_json_is_named(self, capsys, tmp_path, data):
        path = tmp_path / "sweep.json"
        path.write_bytes(data)
        result = run(capsys, "sweep", "--config", str(path), "--out", str(tmp_path / "out"))
        self.assert_usage_error(result)
        assert result[2].startswith(f"error: {path}: not UTF-8 JSON (")

    SWEEP = {"case": "audio", "targets": ["mail_cd"], "reference_media": ["album"],
             "usage_metrics": ["minutes"], "detection": ["empirical"], "knee_thresholds": [0.01]}
    HD_CLIP = {"kind": "video", "length_seconds": 300, "pixel_height": 1080, "pixel_width": 1920,
               "bits_per_pixel": 24, "frames_per_second": 30}

    def test_sweep_custom_series_without_unit(self, capsys, tmp_path):
        config = dict(self.SWEEP, custom_series={"drive": {"path": "drive.csv"}})
        result = self.sweep(capsys, tmp_path, config)
        self.assert_usage_error(result)
        assert result[2] == "error: custom_series['drive']: missing field 'unit'\n"

    def test_input_that_is_not_utf8_is_named(self, capsys, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"\xff\xfe")
        result = run(capsys, "fit", "--input", str(path))
        self.assert_usage_error(result)
        assert result[2].startswith(f"error: {path}: not UTF-8 text (")
        config = dict(self.SWEEP, custom_series={
            "drive": {"path": "bin.csv", "unit": "media-units-per-real-dollar"}})
        result = self.sweep(capsys, tmp_path, config)
        self.assert_usage_error(result)
        assert result[2].startswith(f"error: custom_series['drive']: {path}: not UTF-8 text (")

    def test_sweep_custom_target_of_another_unit(self, capsys, tmp_path):
        (tmp_path / "d.csv").write_text("year,value\n1990,1\n1991,2\n")
        config = dict(self.SWEEP, targets=["d"], custom_series={"d": {"path": "d.csv", "unit": "count-per-year"}})
        result = self.sweep(capsys, tmp_path, config)
        self.assert_usage_error(result)
        assert result[2] == ("error: scenario audio|d|album|minutes|empirical|0.01: custom target 'd' tagged "
                             "'count-per-year'\n")
        assert not (tmp_path / "out" / "results.csv").exists()

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
        # An axis value is written only as in a scenario id, so an object is
        # refused, as is any value that is not a string.
        ({"detection": ["empirical", {"mode": "fitted", "from": 1995}]},
         'detection[1]: expected a string, got {"mode": "fitted", "from": 1995}'),
        ({"usage_metrics": ["minutes", {"kind": "units", "unit_length_minutes": 3}]},
         'usage_metrics[1]: expected a string, got {"kind": "units", "unit_length_minutes": 3}'),
        ({"protocol_mix": {"audio": 5}}, "protocol_mix['audio']: expected an array, got 5"),
        ({"custom_targets": {"m": {"weight_ounces": float("inf")}}},
         "custom_targets['m']: weight_ounces: expected a finite number, got Infinity"),
        ({"custom_media": {"v": dict(HD_CLIP, pixel_height=1080.5)}},
         "custom_media['v']: pixel_height: expected an integer, got 1080.5"),
        ({"custom_media": {"v": dict(HD_CLIP, pixel_width="1920.25")}},
         "custom_media['v']: pixel_width: expected an integer, got 1920.25"),
        ({"custom_media": {"v": dict(HD_CLIP, bits_per_pixel=float("inf"))}},
         "custom_media['v']: bits_per_pixel: expected an integer, got Infinity"),
        ({"detection": [True]}, "detection[0]: expected a string, got true"),
        ({"detection": ["empirical:0-"]}, "detection[0]: cannot parse detection from 'empirical:0-'"),
        ({"detection": [1995]}, "detection[0]: expected a string, got 1995"),
        ({"usage_metrics": ["units:inf"]},
         "usage_metrics[0]: units metric needs a finite positive unit length"),
        ({"usage_metrics": ["units:nan"]},
         "usage_metrics[0]: units metric needs a finite positive unit length"),
        ({"knee_thresholds": [1.5]}, "knee_thresholds[0]: knee threshold must be in (0, 1)"),
        ({"knee_thresholds": [0.01, 0]}, "knee_thresholds[1]: knee threshold must be in (0, 1)"),
        ({"knee_thresholds": ["nan"]}, "knee_thresholds[0]: knee threshold must be in (0, 1)"),
        ({"custom_targets": {"m2": {"weight_ounces": True}}},
         "custom_targets['m2']: weight_ounces: expected a number, got true"),
        ({"usage_metrics": [3]}, "usage_metrics[0]: expected a string, got 3"),
        ({"knee_thresholds": [True]}, "knee_thresholds[0]: expected a number, got true"),
        ({"custom_media": {"v": dict(HD_CLIP, pixel_height=True)}},
         "custom_media['v']: pixel_height: expected a number, got true"),
        ({"custom_media": {"v": dict(HD_CLIP, length_seconds=False)}},
         "custom_media['v']: length_seconds: expected a number, got false"),
        # Every declared number is finite, refused where it is read.
        ({"custom_media": {"v": {"kind": "audio", "length_seconds": "inf"}}},
         "custom_media['v']: length_seconds: expected a finite number, got Infinity"),
        ({"custom_media": {"v": {"kind": "audio", "length_seconds": 60, "override_size_gigabits": "inf"}}},
         "custom_media['v']: override_size_gigabits: expected a finite number, got Infinity"),
        ({"custom_media": {"v": {"kind": "audio", "length_seconds": 60, "audio_bit_rate_kbps": "nan"}}},
         "custom_media['v']: audio_bit_rate_kbps: expected a finite number, got NaN"),
        ({"custom_media": {"v": dict(HD_CLIP, frames_per_second="inf")}},
         "custom_media['v']: frames_per_second: expected a finite number, got Infinity"),
        ({"custom_physical_media": {"audio": [
            {"name": "lp", "kind": "analog", "sales_path": "s.csv", "sales_scale": "inf", "minutes_per_unit": 40}]}},
         "custom_physical_media['audio'][0]: sales_scale: expected a finite number, got Infinity"),
        ({"custom_physical_media": {"audio": [
            {"name": "lp", "kind": "analog", "sales_path": "s.csv", "minutes_per_unit": "inf"}]}},
         "custom_physical_media['audio'][0]: minutes_per_unit: expected a finite number, got Infinity"),
        ({"custom_physical_media": {"audio": [
            {"name": "lp", "kind": "analog", "sales_path": "s.csv", "minutes_per_unit": 40,
             "raw_bits_per_minute": "nan"}]}},
         "custom_physical_media['audio'][0]: raw_bits_per_minute: expected a finite number, got NaN"),
        ({"custom_physical_media": {"audio": [
            {"name": "cd", "kind": "digital", "sales_path": "s.csv", "unit_storage_megabytes": "inf"}]}},
         "custom_physical_media['audio'][0]: unit_storage_megabytes: expected a finite number, got Infinity"),
        ({"protocol_mix": {"audio": [{"path": "s.csv", "media_fraction": "nan"}]}},
         "protocol_mix['audio'][0]: media_fraction: expected a finite number, got NaN"),
        # A JSON integer beyond a float's range, and a size that overflows.
        ({"custom_media": {"v": {"kind": "audio", "length_seconds": 10 ** 400}}},
         "custom_media['v']: length_seconds: expected a finite number, got Infinity"),
        ({"custom_media": {"v": dict(HD_CLIP, pixel_height=1e300, pixel_width=1e300)}},
         "custom_media['v']: size must be finite"),
        # A number or year in a string is read as a CSV cell is: no `_`, ASCII digits only.
        ({"knee_thresholds": ["0.0_1"]}, "knee_thresholds[0]: could not convert string to float: '0.0_1'"),
        ({"usage_metrics": ["units:1_0"]}, "usage_metrics[0]: could not convert string to float: '1_0'"),
        ({"detection": ["fitted:1_995-"]}, "detection[0]: invalid literal for int() with base 10: '1_995'"),
        ({"custom_targets": {"m": {"weight_ounces": "1_5"}}},
         "custom_targets['m']: weight_ounces: could not convert string to float: '1_5'"),
        # A '-' before the from-year is its sign.
        ({"detection": ["fitted:-5-"]}, "detection[0]: window year -5 is negative"),
    ])
    def test_sweep_config_value_of_wrong_type(self, capsys, tmp_path, override, message):
        (tmp_path / "s.csv").write_text("year,value\n1990,0.5\n1991,0.5\n")
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
        ({"detection": ["fited:1995-"]}, "detection[0]: cannot parse detection from 'fited:1995-'"),
        ({"custom_targets": {"x": {"weight_ounces": 2, "wieght": 5}}},
         "custom_targets['x']: wieght: unknown config key"),
        ({"usage_metrics": ["minutes:3"]}, "usage_metrics[0]: unknown usage metric 'minutes:3'"),
        ({"usage_metrics": ["unit:3"]}, "usage_metrics[0]: unknown usage metric 'unit:3'"),
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
        # The error stays one line.
        ({"custom_targets": {"x": {"weight_ounces": 2, "a\nb": 1}}},
         "custom_targets['x']: a\\nb: unknown config key"),
        # A bad case comes before an unresolvable target, and an unknown
        # custom-media key before a bad value of that unit's size.
        ({"case": "custom", "targets": ["nope"]}, "unknown case 'custom'"),
        ({"custom_media": {"v": {"kind": "audio", "length_seconds": 60, "audio_bit_rate_kbps": "nan", "fps": 30}}},
         "custom_media['v']: fps: unknown config key"),
    ])
    def test_sweep_unknown_key_or_case(self, capsys, tmp_path, override, message):
        result = self.sweep(capsys, tmp_path, dict(self.SWEEP, **override))
        self.assert_usage_error(result)
        assert result[2] == f"error: {message}\n"
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("override, message", [
        ({"usage_metrics": ["units:3", "units:3.0"]},
         "usage_metrics[1]: duplicate of usage_metrics[0]"),
        ({"knee_thresholds": [0.1, 0.1]}, "knee_thresholds[1]: duplicate of knee_thresholds[0]"),
        ({"targets": ["mail_cd", "mail_cassette", "mail_cd"]}, "targets[2]: duplicate of targets[0]"),
        ({"detection": ["fitted:1995-", "fitted:01995-"]},
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

    # Finite CSV values whose fit `fit` cannot print: a fitted level, a TIR
    # and a year span beyond a float.
    @pytest.mark.parametrize("rows, message", [
        (LEVEL_ROWS, "fitted level at 2000 is e^945.6, beyond a float's range"),
        ("year,value\n2000,1e-300\n2001,1e300\n",
         "rate 1381.55 per year: its TIR, (e^k - 1) x 100%, is beyond a float's range"),
        ("year,value\n1,1.0\n1" + "0" * 400 + ",2.0\n",
         "the window holds a year beyond ±2^53, past the integers a float holds exactly"),
    ], ids=["level", "tir", "year"])
    def test_fit_beyond_a_float_names_the_file(self, capsys, tmp_path, rows, message):
        path = tmp_path / "extreme.csv"
        path.write_text(rows)
        assert run(capsys, "fit", "--input", str(path)) == (2, "", f"error: {path}: {message}\n")

    def test_fit_prints_the_largest_float_level(self, capsys, tmp_path):
        # Its log, the bound itself, is the fitted log-level: e^bound is finite.
        path = tmp_path / "largest.csv"
        path.write_text("year,value\n2000,1.7976931348623157e308\n2001,1.7976931348623157e308\n")
        code, out, _ = run(capsys, "fit", "--input", str(path))
        assert (code, out.splitlines()[2]) == (0, "level at 2000: 1.79769e+308 count-per-year")

    # `crossover --fitted` and a fitted sweep print no level, so they
    # answer for the same rows: the lines cross at the exact OLS's year.
    def test_fitted_crossover_beyond_a_float_level_is_the_exact_ols(self, capsys, tmp_path, rising_csv):
        path = tmp_path / "extreme.csv"
        path.write_text(LEVEL_ROWS)
        argv = ["crossover", "--fitted", "--replacement", rising_csv, "--target", str(path), "--unit", "count-per-year"]
        code, out, err = run(capsys, *argv, "--json")
        t_star = exact_fitted_crossover(rising_csv, path)
        assert (code, err) == (0, "")
        assert abs(json.loads(out)["fractional_year"] - t_star) <= 1e-9
        assert json.loads(out)["year"] == math.ceil(t_star) == 2002
        assert run(capsys, *argv)[1].endswith(": crossover 2002 (fractional 2001.32)\n")

    def test_fitted_sweep_beyond_a_float_level_is_the_exact_ols(self, capsys, tmp_path):
        from techknee.datasets import load_all
        from techknee.sweep import SweepConfig, extend_datasets, replacement_performance, sweep_tables

        (tmp_path / "extreme.csv").write_text(LEVEL_ROWS)
        album = tmp_path / "album.csv"
        album.write_text("year,value\n" + "".join(f"{y},{v!r}\n" for y, v in
                                                  replacement_performance("audio", "album", load_all())))
        config = dict(self.SWEEP, targets=["extreme"], detection=["fitted"], custom_series={
            "extreme": {"path": "extreme.csv", "unit": "media-units-per-real-dollar"}})
        t_star = exact_fitted_crossover(album, tmp_path / "extreme.csv")
        crossovers, _ = sweep_tables(SweepConfig.from_json(config), extend_datasets(load_all(), config,
                                                                                    base_dir=tmp_path))
        ((crossover, _),) = crossovers.values()
        assert abs(crossover.fractional_year - t_star) <= 1e-9
        assert crossover.year == math.ceil(t_star)
        assert self.sweep(capsys, tmp_path, config)[0] == 0
        with open(tmp_path / "out" / "results.csv", newline="") as f:
            row, = csv.DictReader(f)
        assert (row["crossover_year"], row["crossover_fractional"]) == (str(math.ceil(t_star)), f"{float(t_star):.4f}")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() reads an integer of any length")
    def test_sweep_config_integer_too_long_to_read_names_the_file(self, capsys, tmp_path):
        digits = sys.get_int_max_str_digits() + 700
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.SWEEP).replace("0.01", "-1" + "0" * (digits - 1)))
        result = run(capsys, "sweep", "--config", str(path), "--out", str(tmp_path / "out"))
        assert result == (2, "", f"error: {path}: an integer of {digits} digits is too long to read\n")
        assert not (tmp_path / "out").exists()


# A valid one-scenario sweep config that uses all five declarations, and
# the CSVs it names. Every declared number field is present and read.
_FUZZ_CSVS = {"drive.csv": 1.0, "share.csv": 0.01, "sales.csv": 1e6}  # value per year since 1980
_FUZZ_CONFIG = {
    "case": "audio", "targets": ["heavy"], "reference_media": ["long"], "usage_metrics": ["minutes"],
    "detection": ["empirical"], "knee_thresholds": [0.01],
    "custom_series": {"drive": {"path": "drive.csv", "unit": "media-units-per-real-dollar"}},
    "custom_targets": {"heavy": {"weight_ounces": 2.5}},
    "custom_media": {
        "long": {"kind": "audio", "length_seconds": 7200, "audio_bit_rate_kbps": 633.6},
        "hd": dict(TestErrorContract.HD_CLIP),
        "big": {"kind": "video", "length_seconds": 60, "override_size_gigabits": 100},
    },
    "protocol_mix": {"audio": [{"path": "share.csv", "media_fraction": 0.5}]},
    "custom_physical_media": {"audio": [
        {"name": "lp", "kind": "analog", "sales_path": "sales.csv", "sales_scale": 2,
         "minutes_per_unit": 45, "raw_bits_per_minute": 3.8e7},
        {"name": "cd", "kind": "digital", "sales_path": "sales.csv", "unit_storage_megabytes": 700},
    ]},
}
_DECLARED_NUMBERS = {"length_seconds", "override_size_gigabits", "audio_bit_rate_kbps", "pixel_height",
                     "pixel_width", "bits_per_pixel", "frames_per_second", "weight_ounces", "sales_scale",
                     "minutes_per_unit", "raw_bits_per_minute", "unit_storage_megabytes", "media_fraction"}
_NON_FINITE = ("inf", "nan", "-inf")


def _slots(doc, path=()):
    """(path of its container, key, value) of every value in a JSON document."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield path, key, value
        if isinstance(value, (dict, list)):
            yield from _slots(value, (*path, key))


def _container(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_SLOTS = list(_slots(_FUZZ_CONFIG))
_JSON_VALUES = (st.none() | st.booleans() | st.text(max_size=4) | st.integers() | st.floats()
                | st.sampled_from(_NON_FINITE) | st.lists(st.integers(), max_size=2)
                | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
_MUTATIONS = (
    st.tuples(st.just("replace"),
              st.sampled_from([(p, k) for p, k, v in _SLOTS if not isinstance(v, (dict, list))]), _JSON_VALUES)
    | st.tuples(st.just("replace"), st.sampled_from([(p, k) for p, k, _ in _SLOTS if k in _DECLARED_NUMBERS]),
                st.sampled_from([*_NON_FINITE, math.inf, -math.inf, math.nan]))
    | st.tuples(st.just("delete"),
                st.sampled_from([(p, k) for p, k, _ in _SLOTS if isinstance(_container(_FUZZ_CONFIG, p), dict)]),
                st.none())
    | st.tuples(st.just("add"),
                st.tuples(st.sampled_from([(*p, k) for p, k, v in _SLOTS if isinstance(v, dict)] + [()]),
                          st.text(max_size=8)),
                _JSON_VALUES)
)


class TestSweepConfigFuzz:
    """A sweep config with one leaf replaced by any JSON value, one key
    deleted or one key added exits 0, or 2 with one error line and no
    results; a non-finite declared number is always refused."""

    @staticmethod
    def sweep(doc) -> tuple[int, str, bool]:
        """Exit code, stderr and whether results.csv was written."""
        with tempfile.TemporaryDirectory() as work, redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()) as err:
            for name, value in _FUZZ_CSVS.items():
                rows = "".join(f"{year},{value * (year - 1980)}\n" for year in range(1981, 2016))
                (Path(work) / name).write_text(f"year,value\n{rows}")
            (Path(work) / "c.json").write_text(json.dumps(doc))
            code = main(["sweep", "--config", str(Path(work) / "c.json"), "--out", str(Path(work) / "out")])
            return code, err.getvalue(), (Path(work) / "out" / "results.csv").exists()

    def test_unchanged_config_runs(self):
        assert self.sweep(_FUZZ_CONFIG) == (0, "", True)

    @settings(max_examples=150, deadline=None)
    @given(_MUTATIONS)
    def test_mutated_config_exits_0_or_2_with_one_error_line(self, mutation):
        action, (path, key), value = mutation
        doc = json.loads(json.dumps(_FUZZ_CONFIG))
        container = _container(doc, path)
        if action == "delete":
            del container[key]
        else:
            container[key] = value
        code, err, written = self.sweep(doc)
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
            assert not written
        non_finite = value in _NON_FINITE or isinstance(value, float) and not math.isfinite(value)
        if action == "replace" and key in _DECLARED_NUMBERS and non_finite:
            assert code == 2 and f": {key}: expected " in err, err


# CSV cells: runs of digits (ASCII and not), `_`, spaces, signs, exponents,
# infinities and NaN, and the repr of floats from the least subnormal up.
_CELL_PIECES = ["0", "1", "9", "\u0661", "\u0969", "\uff19", "_", " ", "+", "-", ".", "e", "E", "inf", "nan"]
_CELLS = (st.lists(st.sampled_from(_CELL_PIECES), max_size=5).map("".join)
          | st.floats(5e-324, 1.7e308).map(repr) | st.floats(0, 1).map(repr) | st.integers(1980, 2010).map(str))
_CSV_ARGVS = [["fit", "--input", "a.csv"], ["crossover", "--replacement", "a.csv", "--target", "b.csv"],
              ["crossover", "--replacement", "a.csv", "--target", "b.csv", "--fitted", "--require-crossover"],
              ["knee", "--input", "a.csv", "--threshold", "0.1"]]


class TestSeriesCsvFuzz:
    """`fit`, `crossover` and `knee` on CSVs whose cells hold any such text,
    and a fitted sweep whose custom target series does, exit 0, or 2 with
    one error line (1 when --require-crossover finds no crossover), never
    with a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_CSV_ARGVS), st.lists(st.tuples(_CELLS, _CELLS), max_size=5),
           st.lists(st.tuples(_CELLS, _CELLS), max_size=5))
    def test_any_cells_exit_0_1_or_2_with_at_most_one_error_line(self, argv, a_rows, b_rows):
        with tempfile.TemporaryDirectory() as work, redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()) as err:
            for name, rows in (("a.csv", a_rows), ("b.csv", b_rows)):
                (Path(work) / name).write_text("year,value\n" + "".join(f"{y},{v}\n" for y, v in rows),
                                               encoding="utf-8")
            code = main([arg if not arg.endswith(".csv") else str(Path(work) / arg) for arg in argv])
        assert code in ((0, 1, 2) if "--require-crossover" in argv else (0, 2)), err.getvalue()
        assert err.getvalue().count("error:") == (code != 0)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_CELLS, _CELLS), max_size=5))
    @example([tuple(line.split(",")) for line in LEVEL_ROWS.splitlines()[1:]])
    def test_fitted_sweep_over_any_cells_exits_0_or_2_with_at_most_one_error_line(self, rows):
        config = dict(TestErrorContract.SWEEP, targets=["drawn"], detection=["fitted"], custom_series={
            "drawn": {"path": "drawn.csv", "unit": "media-units-per-real-dollar"}})
        with tempfile.TemporaryDirectory() as work, redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()) as err:
            (Path(work) / "drawn.csv").write_text("year,value\n" + "".join(f"{y},{v}\n" for y, v in rows),
                                                  encoding="utf-8")
            (Path(work) / "c.json").write_text(json.dumps(config))
            code = main(["sweep", "--config", str(Path(work) / "c.json"), "--out", str(Path(work) / "out")])
        assert code in (0, 2), err.getvalue()
        assert err.getvalue().count("error:") == (code != 0)
        assert "Traceback" not in err.getvalue()


# Values for argv by the name of their argument's type, and stray tokens
# that argparse reads in its own way (help, abbreviations, `=`, negative
# numbers, `--`) or that its number types refuse (`_`, non-ASCII digits).
_VALUES = {"int": ["1990", "2005", "0"], "float": ["0.1", "1e-9", "nan", "1"], "str": ["s.csv", "c.json", "x y", ""]}
_STRAYS = ["abc", "-5", "-", "--", "-h", "--help", "--version", "--thr", "--threshold=0.1", "--from=1990",
           "--json", "1_990", "0.0_1", "\u0661\u0669\u0669\u0660"]


@st.composite
def argvs(draw) -> list:
    """A command (or a stray) and, in any order, most of its arguments, each
    with a value or a stray in its place, and a few stray tokens."""
    command = draw(st.sampled_from([*_COMMANDS, "bogus", "--help"]))
    token = st.sampled_from([*_STRAYS, *itertools.chain(*_VALUES.values())]) | st.text(max_size=3)
    items = [[stray] for stray in draw(st.lists(token, max_size=2))]
    for name, keywords in _COMMANDS[command][2] if command in _COMMANDS else ():
        if draw(st.integers(0, 3)):  # each argument is given three times in four
            item = [name] if name.startswith("-") else []
            if not keywords.get("action"):
                good = st.sampled_from(keywords.get("choices") or _VALUES[keywords.get("type", str).__name__])
                item.append(draw(good if draw(st.integers(0, 3)) else token))
            items.append(item)
    return [command, *itertools.chain.from_iterable(draw(st.permutations(items)))]


def argparse_vars(argv: list) -> dict | None:
    """vars() of argparse's namespace for `argv`, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


def nan_as_text(args: dict) -> dict:
    return {k: "nan" if v != v else v for k, v in args.items()}


class TestArgv:
    """Plain argv is read from the command table without argparse, and
    gives what argparse would; everything else is argparse's."""

    @settings(max_examples=400, deadline=None)
    @given(argvs())
    def test_reader_agrees_with_argparse(self, argv):
        plain = _parse_plain(argv)
        if plain is not None:
            expected = argparse_vars(argv)
            assert expected is not None and nan_as_text(vars(plain)) == nan_as_text(expected)

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "s.csv", "--from", "1990", "--to", "2005", "--json"],
        ["crossover", "--target", "t.csv", "--replacement", "r.csv", "--fitted", "--unit", "count-per-year"],
        ["knee", "--threshold", "nan", "--input", "s.csv", "--input", "t.csv"],
        ["case", "--json", "video", "--scenario", "mail_dvd|clip|minutes|empirical", "--threshold", "1e-9"],
        ["sweep", "--config", "c.json", "--out", ""],
        ["reproduce", "--strict", "--strict"],
        ["export-data", "--out", "x y"],
    ], ids=lambda argv: argv[0])
    def test_plain_argv_is_read_without_argparse(self, argv):
        plain = _parse_plain(argv)
        assert plain is not None
        assert nan_as_text(vars(plain)) == nan_as_text(argparse_vars(argv))

    @pytest.mark.parametrize("argv", [
        ["--help"], *([command, "-h"] for command in _COMMANDS), ["--version"], [], ["frobnicate"],
        ["knee", "--input", "s.csv"], ["knee", "--input", "s.csv", "--threshold", "abc"],
        ["knee", "--thr", "0.1"], ["knee", "--threshold=0.1"], ["fit", "--from", "-5"],
    ], ids=lambda argv: " ".join(argv) or "no argv")
    def test_help_and_usage_errors_come_from_argparse(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert (code, out, err) == (exc.value.code or 0, *capsys.readouterr())

    # A number flag reads its value as a CSV cell is read, and argparse
    # names the flag and the type its reader is named after.
    @pytest.mark.parametrize("argv, line", [
        (["knee", "--input", "s.csv", "--threshold", "0.0_1"],
         "techknee knee: error: argument --threshold: invalid float value: '0.0_1'"),
        (["case", "audio", "--threshold", "0.0_1"],
         "techknee case: error: argument --threshold: invalid float value: '0.0_1'"),
        (["fit", "--input", "s.csv", "--from", "1_990"],
         "techknee fit: error: argument --from: invalid int value: '1_990'"),
        (["crossover", "--replacement", "s.csv", "--target", "s.csv", "--fitted", "--to", "\u0662\u0660\u0660\u0665"],
         "techknee crossover: error: argument --to: invalid int value: '\u0662\u0660\u0660\u0665'"),
    ], ids=["knee --threshold", "case --threshold", "fit --from", "crossover --to"])
    def test_number_flags_refuse_python_literals(self, capsys, argv, line):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert [text for text in err.splitlines() if "error:" in text] == [line]

    @settings(max_examples=150, deadline=None)
    @given(argvs())
    def test_any_argv_exits_0_1_or_2_without_a_traceback(self, argv):
        here = os.getcwd()
        with tempfile.TemporaryDirectory() as work, redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()) as err:
            os.chdir(work)
            try:
                Path("s.csv").write_text("year,value\n1998,0.007\n1999,0.027\n2000,0.08\n")
                Path("c.json").write_text(json.dumps(TestErrorContract.SWEEP))
                code = main(argv)
            finally:
                os.chdir(here)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


class TestColdStart:
    """Each command runs in a fresh interpreter, so whatever it imports is
    paid by every run of it."""

    @staticmethod
    def loaded(statement: str, *flags: str) -> set:
        """Modules a child interpreter started with `flags` holds after
        `statement` beyond a bare one's; the list goes to the last line of
        stderr, clear of command output."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

        def modules(statement: str) -> set:
            code = f"import sys; {statement}; sys.stderr.write('\\n' + ' '.join(sys.modules))"
            child = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                                   text=True, check=True)
            return set(child.stderr.rsplit("\n", 1)[-1].split())

        return modules(statement) - modules("pass")

    def command(self, *argv: str, flags: tuple = (), code: int = 0) -> set:
        return self.loaded(f"from techknee.cli import main; assert main({list(argv)!r}) == {code}", *flags)

    def test_import_loads_no_module_only_some_commands_need(self):
        new = self.loaded("import techknee.cli")
        assert not new & {"dataclasses", "inspect", "hashlib", "datetime", "json", "argparse", "techknee.sweep",
                          "techknee.adoption", "techknee.costs", "techknee.datasets", "techknee.plots"}

    def test_lazy_name_resolves_before_any_command(self):
        # As bench/tracer.py reads it, from outside, before any command has run.
        self.loaded("from techknee import cli, sweep; assert cli.run_sweep is sweep.run_sweep")

    @pytest.mark.parametrize("argv", [
        ("fit", "--input", "{rising}"), ("case", "audio"), ("reproduce",),
        ("sweep", "--config", "{config}", "--out", "{out}"),
    ], ids=lambda argv: argv[0])
    def test_plain_argv_loads_no_argparse_or_locale(self, tmp_path, rising_csv, argv):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(TestErrorContract.SWEEP))
        new = self.command(*[a.format(rising=rising_csv, config=config, out=tmp_path / "out") for a in argv])
        assert not new & {"argparse", "gettext", "locale"}

    @pytest.mark.parametrize("argv, code", [(("--help",), 0), (("case", "bogus"), 2)], ids=["help", "usage error"])
    def test_help_and_usage_errors_load_argparse(self, argv, code):
        assert "argparse" in self.command(*argv, code=code)

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

    @pytest.mark.parametrize("argv", [
        ("fit", "--input", "{rising}"), ("case", "audio", "--out", "{out}"), ("reproduce", "--out", "{out}"),
        ("sweep", "--config", "{config}", "--out", "{out}"),
    ], ids=lambda argv: argv[0])
    def test_commands_without_site_skip_typing(self, tmp_path, rising_csv, argv):
        # Annotations name `collections.abc` types, and type-only imports
        # sit behind a TYPE_CHECKING that is no `typing` import.
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(TestErrorContract.SWEEP))
        argv = [a.format(rising=rising_csv, config=config, out=tmp_path / "out") for a in argv]
        assert "typing" not in self.command(*argv, flags=("-S",))


class TestApp:
    """`techknee` as a command: `app()` in a fresh interpreter, which ends
    the process without interpreter teardown. Each run is compared with
    `sys.exit(main())`, which ends it through teardown."""

    APP = "from techknee.cli import app; app()"
    MAIN = "from techknee.cli import main; sys.exit(main())"

    @staticmethod
    def spawn(statement: str, argv, cwd, redirect: str = "", prelude: str = ""):
        """Run `techknee argv` through `statement` in `cwd`, with stdout
        piped or, through sh, redirected by `redirect`; stdout is block
        buffered, as when a script reads it."""
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "TECHKNEE_DATA")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        code = f"import sys\nsys.argv[0] = 'techknee'\n{prelude}\n{statement}"
        command = [sys.executable, "-c", code, *argv]
        if redirect:
            command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
        return subprocess.run(command, cwd=cwd, env=env, capture_output=True)

    @pytest.mark.parametrize("name", ["reproduce --out", "case audio --out", "sweep 13k"])
    def test_stdout_and_files_match_main(self, tmp_path, name):
        from test_golden import GOLDEN, INVOCATIONS

        child = self.spawn(self.APP, INVOCATIONS[name], tmp_path)
        assert (child.returncode, child.stderr) == (0, b"")
        found = {"stdout": hashlib.sha256(child.stdout).hexdigest()}
        found.update((path.name, hashlib.sha256(path.read_bytes()).hexdigest())
                     for path in sorted((tmp_path / "out").iterdir()))
        assert found == GOLDEN[name]

    @pytest.mark.parametrize("argv, code", [
        (["case", "audio"], 0),
        (["reproduce", "--strict"], 1),
        (["frobnicate"], 2),
    ], ids=["case", "reproduce --strict", "unknown command"])
    def test_exit_code_and_output_match_main(self, tmp_path, argv, code):
        child = self.spawn(self.APP, argv, tmp_path)
        assert child.returncode == code
        reference = self.spawn(self.MAIN, argv, tmp_path)
        assert (child.returncode, child.stdout, child.stderr) == \
            (reference.returncode, reference.stdout, reference.stderr)

    def test_malformed_manifest_is_named_without_a_traceback(self, tmp_path):
        from techknee.datasets import data_dir

        copy = tmp_path / "data"
        shutil.copytree(data_dir(), copy)
        (copy / "a4_traffic.manifest.json").write_text("[]")
        prelude = f"import os\nos.environ['TECHKNEE_DATA'] = {str(copy)!r}"
        child = self.spawn(self.APP, ["case", "audio"], tmp_path, prelude=prelude)
        assert child.returncode == 2
        assert b"Traceback" not in child.stderr
        assert child.stderr == b"error: a4_traffic: manifest is not a JSON object\n"

    def test_atexit_handlers_run_once_after_the_output(self, tmp_path):
        prelude = "import atexit\natexit.register(print, 'atexit handler ran')"
        child = self.spawn(self.APP, ["case", "audio"], tmp_path, prelude=prelude)
        assert child.returncode == 0
        lines = child.stdout.decode().splitlines()
        assert lines[-1] == "atexit handler ran"
        assert lines.count("atexit handler ran") == 1

    @pytest.mark.parametrize("redirect", [">&-", ">/dev/full"])
    def test_unusable_stdout_fails_as_main_does(self, tmp_path, redirect):
        # A closed stdout is None, which main() refuses before any command
        # runs; a full one fails at the last flush, which app() leaves to
        # teardown to report.
        child = self.spawn(self.APP, ["case", "audio"], tmp_path, redirect)
        reference = self.spawn(self.MAIN, ["case", "audio"], tmp_path, redirect)
        assert (child.returncode, child.stderr) == (reference.returncode, reference.stderr)
        if redirect == ">&-":
            assert child.returncode == 2
            assert child.stderr == b"error: stdout is closed, so no output can be written\n"
            written = self.spawn(self.APP, ["reproduce", "--out", "out"], tmp_path, redirect)
            assert written.returncode == 2
            assert not (tmp_path / "out").exists()
        if redirect == ">/dev/full":
            assert child.returncode == 120
            assert b"No space left on device" in child.stderr

    @pytest.mark.parametrize("hook, teardown", [
        ("", False),
        ("sys.setprofile(lambda *a: None)", True),
        ("sys.settrace(lambda *a: None)", True),
    ], ids=["plain", "setprofile", "settrace"])
    def test_tracer_or_profiler_exits_through_teardown(self, tmp_path, rising_csv, hook, teardown):
        # Only `sys.exit` raises SystemExit; `os._exit` ends the process at once.
        statement = (f"{hook}\ntry:\n    {self.APP}\n"
                     "except SystemExit:\n    sys.stderr.write('teardown')\n    raise")
        child = self.spawn(statement, ["fit", "--input", rising_csv], tmp_path)
        assert child.returncode == 0
        assert child.stderr == (b"teardown" if teardown else b"")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
