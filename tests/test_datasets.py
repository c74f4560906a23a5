"""Bundled dataset registry: golden values, checksums, CSV ingestion."""

import builtins
import csv
import datetime
import hashlib
import io
import json
import re
import shutil
from collections import Counter
from pathlib import Path

import pytest

from techknee.cli import main
from techknee.datasets import (
    DATASET_IDS,
    _sha256,
    data_dir,
    export_bundled,
    load_all,
)
from techknee.errors import DataIntegrityError
from techknee.series import parse_series_csv


def a1_columns():
    """Year -> (nominal, 2016-dollar) bandwidth cost, read from the bundled CSV."""
    with open(data_dir() / "a1_bandwidth_cost.csv", newline="", encoding="utf-8") as f:
        return {
            int(r["year"]): (float(r["nominal_usd_per_mbps_month"]), float(r["usd2016_per_mbps_month"]))
            for r in csv.DictReader(f)
        }


@pytest.fixture(scope="module")
def bundle():
    return load_all()


class TestBundledGoldenValues:
    def test_a1_2010_real_dollars(self, bundle):
        assert bundle.bandwidth_real.to_mapping()[2010] == 5.54

    def test_a1_coverage(self, bundle):
        real = bundle.bandwidth_real
        assert real.years[0] == 1983 and real.years[-1] == 2015 and len(real) == 33
        assert min(real.values) > 0

    def test_a1_implied_deflator_1998(self, bundle):
        # The loaded series is the 2016-dollar column; its ratio to the
        # nominal column is the implied deflator.
        nominal, real = a1_columns()[1998]
        assert bundle.bandwidth_real.to_mapping()[1998] == real
        assert nominal == 1200.00
        assert real / nominal == pytest.approx(1.49279, abs=5e-6)
        assert nominal * (real / nominal) == pytest.approx(1791.35, rel=1e-12)

    def test_a1_base_year_factor(self):
        nominal, real = a1_columns()[2015]
        assert real / nominal == pytest.approx(1.0, abs=1e-9)  # 0.63 / 0.63

    def test_a2_2007_video(self, bundle):
        assert bundle.compression["video"].to_mapping()[2007] == 60.0

    def test_a2_spot_values(self, bundle):
        comp = bundle.compression
        assert comp["audio"].to_mapping()[1993] == 3.68
        assert comp["audio"].to_mapping()[2000] == 12.0
        assert comp["audio"].to_mapping()[2007] == 16.8
        assert comp["video"].to_mapping()[1992] == 1.0
        assert comp["video"].to_mapping()[2000] == 27.0
        assert len(comp["audio"]) == 33

    def test_a2_only_the_cases_compression_is_loaded(self, bundle):
        # The text and image columns stay in the CSV for auditing.
        assert set(bundle.compression) == {"audio", "video"}

    def test_a3_rows_and_spot_rates(self, bundle):
        from datetime import date

        postage = bundle.postage
        assert set(postage) == {"first_ounce", "additional_ounce"}
        assert len(postage["first_ounce"].changes) == len(postage["additional_ounce"].changes) == 15
        assert postage["first_ounce"].rate_on(date(1998, 7, 1)) == 0.52
        assert postage["first_ounce"].rate_on(date(2002, 7, 1)) == 0.50
        assert postage["additional_ounce"].rate_on(date(2001, 7, 1)) == 0.29

    def test_postage_dates_are_datetime_dates(self, bundle):
        for schedule in bundle.postage.values():
            assert all(type(effective) is datetime.date for effective, _ in schedule.changes)

    def test_a4_coverage_and_values(self, bundle):
        traffic = bundle.traffic
        assert len(traffic) == 31
        assert traffic.years[0] == 1984 and traffic.years[-1] == 2014
        assert traffic.to_mapping()[1998] == 134_400_000
        assert traffic.to_mapping()[2009] == 111_624_000_000

    def test_a5_shares_are_fractions(self, bundle):
        share = bundle.media_share
        assert len(share["audio"]) == 22
        assert share["audio"].to_mapping()[1998] == pytest.approx(0.095, rel=1e-12)
        assert share["video"].to_mapping()[2007] == pytest.approx(0.366, rel=1e-12)

    def test_a6_sales_scaled_to_units(self, bundle):
        sales = {m.name: m.yearly_sales for media in bundle.physical_media.values() for m in media}
        assert len(sales["cd"]) == 15
        assert sales["cd"].to_mapping()[1999] == pytest.approx(2499e6, rel=1e-12)
        assert sales["dvd"].to_mapping()[1997] == pytest.approx(0.6e6, rel=1e-12)
        assert sales["vhs"].to_mapping()[2007] == pytest.approx(150.3e6, rel=1e-12)

    def test_a7_a8_keyed_tables(self, bundle):
        (cd, cassette, vinyl), (dvd, vhs) = bundle.physical_media["audio"], bundle.physical_media["video"]
        assert [m.storage.minutes_per_unit for m in (vhs, cassette, vinyl)] == [180.0, 60.0, 90.0]
        assert [m.storage.unit_storage_megabytes for m in (cd, dvd)] == [700.0, 4700.0]

    def test_vhs_raw_bits_set_the_2004_video_raw_share(self, bundle):
        # VHS counts 320x240 pixels, 24-bit, 30 fps plus the reference audio
        # track per minute; the video raw-bits 10% knee rests on this share.
        from techknee.adoption import UsageMetric
        from techknee.sweep import adoption_series

        share = adoption_series("video", UsageMetric("raw_bits"), bundle).to_mapping()[2004]
        assert share == pytest.approx(0.10103248480270435, rel=1e-12)

    def test_load_all_assembles_everything(self, bundle):
        assert bundle.bandwidth_real.to_mapping()[2002] == 269.85
        (dvd, vhs) = bundle.physical_media["video"]
        assert dvd.storage.unit_storage_megabytes == 4700.0
        assert dvd.yearly_sales.to_mapping()[1997] == pytest.approx(0.6e6, rel=1e-12)
        assert vhs.storage.minutes_per_unit == 180.0
        assert [m.name for m in bundle.physical_media["audio"]] == ["cd", "cassette", "vinyl"]
        assert [m.name for m in bundle.physical_media["video"]] == ["dvd", "vhs"]
        assert set(bundle.reference_media) == {"album", "song", "clip", "sd_movie", "hd_movie"}
        assert bundle.targets == {"mail_cd": 1, "mail_cassette": 2, "mail_dvd": 1}


class TestChecksums:
    @staticmethod
    def copy(tmp_path: Path, dataset_id: str) -> Path:
        target = tmp_path / dataset_id
        shutil.copytree(data_dir(), target)
        return target

    def corrupted_copy(self, tmp_path: Path, dataset_id: str = "a4_traffic") -> Path:
        """A copy of the bundled tables with one byte of one CSV changed."""
        target = self.copy(tmp_path, dataset_id)
        csv_path = target / f"{dataset_id}.csv"
        data = bytearray(csv_path.read_bytes())
        data[-2] ^= 1  # the last digit of the last row
        csv_path.write_bytes(data)
        return target

    # Each table of DATASET_IDS in turn, in a copy of its own, so each
    # failure names the one table that was changed.
    def test_corrupted_csv_is_hard_error(self, tmp_path):
        for dataset_id in DATASET_IDS:
            with pytest.raises(DataIntegrityError, match=f"^{dataset_id}: checksum mismatch"):
                load_all(self.corrupted_copy(tmp_path, dataset_id))

    def test_missing_manifest(self, tmp_path):
        for dataset_id in DATASET_IDS:
            target = self.copy(tmp_path, dataset_id)
            (target / f"{dataset_id}.manifest.json").unlink()
            with pytest.raises(DataIntegrityError, match=f"^missing manifest .*{dataset_id}.manifest.json$"):
                load_all(target)

    def test_missing_csv(self, tmp_path):
        for dataset_id in DATASET_IDS:
            target = self.copy(tmp_path, dataset_id)
            (target / f"{dataset_id}.csv").unlink()
            with pytest.raises(DataIntegrityError, match=f"^missing data file .*{dataset_id}\\.csv$"):
                load_all(target)

    @pytest.mark.parametrize("manifest, message", [
        (b"[]", "manifest is not a JSON object"),
        (b'{"coverage": 5}', "manifest coverage is not a JSON object"),
        (b"{not json", "manifest .* is not UTF-8 JSON"),
        (b"\xff\xfe{}", "manifest .* is not UTF-8 JSON"),
        (b'{"coverage": {"rows": "3"}}', "manifest coverage rows '3' is not an integer"),
        (b'{"coverage": {"rows": true}}', "manifest coverage rows True is not an integer"),
    ], ids=["array", "coverage", "not JSON", "not UTF-8", "rows string", "rows bool"])
    def test_malformed_manifest_is_named(self, tmp_path, manifest, message):
        for dataset_id in DATASET_IDS:
            target = self.copy(tmp_path, dataset_id)
            (target / f"{dataset_id}.manifest.json").write_bytes(manifest)
            with pytest.raises(DataIntegrityError, match=f"^{dataset_id}: {message}"):
                load_all(target)

    def test_manifest_without_checksum_is_named(self, tmp_path):
        for dataset_id in DATASET_IDS:
            target = self.copy(tmp_path, dataset_id)
            path = target / f"{dataset_id}.manifest.json"
            manifest = json.loads(path.read_text())
            del manifest["sha256"]
            path.write_text(json.dumps(manifest))
            with pytest.raises(DataIntegrityError, match=f"^{dataset_id}: checksum mismatch .* != manifest None"):
                load_all(target)

    def resealed_copy(self, tmp_path: Path, dataset_id: str, edit) -> Path:
        """A copy of the bundled tables with the rows of one CSV changed by
        `edit` and its manifest's checksum updated to match."""
        target = self.copy(tmp_path, dataset_id)
        csv_path = target / f"{dataset_id}.csv"
        rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        data = "".join(",".join(row) + "\n" for row in edit(rows)).encode()
        csv_path.write_bytes(data)
        manifest_path = target / f"{dataset_id}.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps(dict(manifest, sha256=hashlib.sha256(data).hexdigest())))
        return target

    def test_row_count_other_than_the_manifest_declares(self, tmp_path):
        # Resealed without its last row, each table still matches its checksum.
        for dataset_id in DATASET_IDS:
            declared = len((data_dir() / f"{dataset_id}.csv").read_text().splitlines()) - 1
            with pytest.raises(DataIntegrityError, match=f"^{dataset_id}: {declared - 1} rows, manifest declares "
                                                         f"{declared}$"):
                load_all(self.resealed_copy(tmp_path, dataset_id, lambda rows: rows[:-1]))

    # The last column of every table is one load_all reads, and a number.
    # A cell that cannot be read is named by its line, here the last one.
    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [row[:-1] for row in rows], "missing '"),
        (lambda rows: rows[:-1] + [rows[-1][:-1] + ["abc"]], "line {last}: could not convert string to float: 'abc'"),
        (lambda rows: rows[:-1] + [rows[-1][:-1]], "line {last}: could not convert string to float: ''"),
    ], ids=["missing column", "non-numeric cell", "short row"])
    def test_malformed_resealed_csv_is_named(self, tmp_path, edit, message):
        for dataset_id in DATASET_IDS:
            last = len((data_dir() / f"{dataset_id}.csv").read_text().splitlines())
            with pytest.raises(DataIntegrityError,
                               match=f"^{dataset_id}: malformed table: {message.format(last=last)}"):
                load_all(self.resealed_copy(tmp_path, dataset_id, edit))

    # A table cell is read as a CSV cell of `fit` is, and a date only as
    # YYYY-MM-DD, which Python 3.10's `date.fromisoformat` alone enforces.
    @pytest.mark.parametrize("dataset_id, cell, edited, message", [
        ("a4_traffic", "1985", "1_985", "line 3: invalid literal for int() with base 10: '1_985'"),
        ("a3_postage", "1985-02-17", "19850217", "line 3: Invalid isoformat string: '19850217'"),
        ("a3_postage", "1985-02-17", "1985-W07-7", "line 3: Invalid isoformat string: '1985-W07-7'"),
    ], ids=["a4 year", "a3 basic date", "a3 week date"])
    def test_python_literal_in_resealed_csv_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                              dataset_id, cell, edited, message):
        def edit(rows):
            return [[edited if text == cell else text for text in row] for row in rows]

        monkeypatch.setenv("TECHKNEE_DATA", str(self.resealed_copy(tmp_path, dataset_id, edit)))
        assert main(["case", "audio"]) == 2
        assert capsys.readouterr() == ("", f"error: {dataset_id}: malformed table: {message}\n")

    # A number that is not finite is refused where its table is read, also
    # in the tables that build no series; so is one that its scale makes so.
    @pytest.mark.parametrize("dataset_id, line, column, edited, message", [
        ("a3_postage", 7, 3, "nan", "line 7: first_ounce_usd2016 'nan' is not finite"),
        ("a7_minutes_per_unit", 4, 1, "nan", "line 4: minutes_per_unit 'nan' is not finite"),
        ("a8_unit_storage", 3, 1, "inf", "line 3: megabytes_per_unit 'inf' is not finite"),
        ("a6_sales", 2, 1, "1e303", "line 2: cd_millions '1e303' x 1e+06 is not finite"),
    ], ids=["a3", "a7", "a8", "a6 scaled"])
    def test_non_finite_cell_in_resealed_csv_names_its_table(self, tmp_path, monkeypatch, capsys,
                                                              dataset_id, line, column, edited, message):
        def edit(rows):
            rows[line - 1][column] = edited
            return rows

        monkeypatch.setenv("TECHKNEE_DATA", str(self.resealed_copy(tmp_path, dataset_id, edit)))
        assert main(["case", "video"]) == 2
        assert capsys.readouterr() == ("", f"error: {dataset_id}: malformed table: {message}\n")

    def test_env_override_is_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TECHKNEE_DATA", str(self.corrupted_copy(tmp_path)))
        with pytest.raises(DataIntegrityError, match="^a4_traffic: checksum mismatch"):
            load_all()

    def test_each_table_is_read_once(self, monkeypatch):
        # The rows parsed are then the bytes whose checksum was verified.
        opened = Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened[str(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)  # pathlib's read_bytes opens through io.open
        monkeypatch.setattr(builtins, "open", counting_open)
        load_all()
        tables = [str(data_dir() / f"{dataset_id}.csv") for dataset_id in DATASET_IDS]
        assert {table: opened[table] for table in tables} == dict.fromkeys(tables, 1)

    def test_lean_digest_is_hashlibs(self):
        for path in sorted(data_dir().iterdir()):
            data = path.read_bytes()
            assert _sha256(data) == hashlib.sha256(data).hexdigest(), path.name


class TestParseSeriesCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_text(text)
        return path

    def test_valid_two_rows(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1990,1.5\n1991,2.5\n")
        s = parse_series_csv(path, "count-per-year")
        assert s.entries == ((1990, 1.5), (1991, 2.5))
        assert s.unit == "count-per-year"

    def test_blank_and_space_only_lines_are_skipped(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1990,1.5\n\n  \n1991,2.5\n")
        assert parse_series_csv(path, "count-per-year").entries == ((1990, 1.5), (1991, 2.5))

    def test_duplicate_year_names_line(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1990,1.5\n1990,2.5\n")
        with pytest.raises(ValueError, match=":3"):
            parse_series_csv(path, "count-per-year")

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "anno,valore\n1990,1.5\n")
        with pytest.raises(ValueError, match="header"):
            parse_series_csv(path, "count-per-year")

    def test_negative_value_names_line(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1990,-1.0\n")
        with pytest.raises(ValueError, match=":2"):
            parse_series_csv(path, "count-per-year")

    def test_non_finite_value(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1990,nan\n")
        with pytest.raises(ValueError, match="non-finite"):
            parse_series_csv(path, "count-per-year")

    def test_malformed_row_names_line(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1990,1.0\noops\n")
        with pytest.raises(ValueError, match=":3"):
            parse_series_csv(path, "count-per-year")

    @pytest.mark.parametrize("rows, message", [
        ("1990,1.0\nabc,2.0\n", ":3: bad year 'abc'"),
        ("1990,1.0\n1991,x\n", ":3: bad value 'x'"),
        # int() and float() read Python literals, which a CSV number is not.
        ("1_990,1.0\n", ":2: bad year '1_990'"),
        ("1990,1_0\n", ":2: bad value '1_0'"),
        ("\u0661\u0669\u0669\u0660,1.0\n", ":2: bad year '\u0661\u0669\u0669\u0660'"),
        ("1990,\u0661.5\n", ":2: bad value '\u0661.5'"),
        ("\u00a01990,1.0\n", ":2: bad year '\\xa01990'"),
    ], ids=["year", "value", "year-underscore", "value-underscore", "year-arabic-indic",
            "value-arabic-indic", "year-no-break-space"])
    def test_bad_number_names_line_and_text(self, tmp_path, rows, message):
        path = self.write(tmp_path, "year,value\n" + rows)
        with pytest.raises(ValueError) as err:
            parse_series_csv(path, "count-per-year")
        assert str(err.value) == f"{path}{message}"

    def test_spaces_signs_and_exponents_are_numbers(self, tmp_path):
        path = self.write(tmp_path, "year,value\n 1990 , 1.5e3 \n+1991,+2E-1\n1992,.5\n")
        assert parse_series_csv(path, "count-per-year").entries == ((1990, 1500.0), (1991, 0.2), (1992, 0.5))

    def test_columns_after_the_second_are_ignored(self, tmp_path):
        path = self.write(tmp_path, 'year,value,note\n1990,1.5,estimate\n1991,2.5,"a, b",x\n1992,3.5\n')
        assert parse_series_csv(path, "count-per-year").entries == ((1990, 1.5), (1991, 2.5), (1992, 3.5))

    def test_unknown_unit_rejected(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1990,1.0\n")
        with pytest.raises(ValueError, match="unit"):
            parse_series_csv(path, "parsecs")

    def test_unsorted_input_is_sorted(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1991,2.0\n1990,1.0\n")
        assert parse_series_csv(path, "count-per-year").years == (1990, 1991)

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"\xff\xfeyear,value\n1990,1.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text \\("):
            parse_series_csv(path, "count-per-year")


class TestExport:
    def test_export_copies_everything_bit_identically(self, tmp_path):
        written = export_bundled(tmp_path)
        assert len(written) == 2 * len(DATASET_IDS)
        for path in written:
            assert path.read_bytes() == (data_dir() / path.name).read_bytes()

    def test_exported_tables_reload_identically(self, tmp_path):
        export_bundled(tmp_path)
        assert load_all(tmp_path) == load_all()
