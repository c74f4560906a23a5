"""Bundled dataset registry: golden values, checksums, CSV ingestion."""

import csv
import datetime
import hashlib
import shutil
from pathlib import Path

import pytest

from techknee.datasets import (
    DATASET_IDS,
    _sha256,
    data_dir,
    export_bundled,
    load_all,
    load_bundled,
)
from techknee.errors import DataIntegrityError
from techknee.series import parse_series_csv, write_series_csv


def a1_columns():
    """Year -> (nominal, 2016-dollar) bandwidth cost, read from the bundled CSV."""
    with open(data_dir() / "a1_bandwidth_cost.csv", newline="", encoding="utf-8") as f:
        return {
            int(r["year"]): (float(r["nominal_usd_per_mbps_month"]), float(r["usd2016_per_mbps_month"]))
            for r in csv.DictReader(f)
        }


class TestBundledGoldenValues:
    def test_a1_2010_real_dollars(self):
        assert load_bundled("a1_bandwidth_cost").to_mapping()[2010] == 5.54

    def test_a1_coverage(self):
        real = load_bundled("a1_bandwidth_cost")
        assert real.years[0] == 1983 and real.years[-1] == 2015 and len(real) == 33
        assert min(real.values) > 0

    def test_a1_implied_deflator_1998(self):
        # The loaded series is the 2016-dollar column; its ratio to the
        # nominal column is the implied deflator.
        nominal, real = a1_columns()[1998]
        assert load_bundled("a1_bandwidth_cost").to_mapping()[1998] == real
        assert nominal == 1200.00
        assert real / nominal == pytest.approx(1.49279, abs=5e-6)
        assert nominal * (real / nominal) == pytest.approx(1791.35, rel=1e-12)

    def test_a1_base_year_factor(self):
        nominal, real = a1_columns()[2015]
        assert real / nominal == pytest.approx(1.0, abs=1e-9)  # 0.63 / 0.63

    def test_a2_2007_video(self):
        assert load_bundled("a2_compression")["video"].to_mapping()[2007] == 60.0

    def test_a2_spot_values(self):
        comp = load_bundled("a2_compression")
        assert comp["audio"].to_mapping()[1993] == 3.68
        assert comp["audio"].to_mapping()[2000] == 12.0
        assert comp["audio"].to_mapping()[2007] == 16.8
        assert comp["video"].to_mapping()[1992] == 1.0
        assert comp["video"].to_mapping()[2000] == 27.0
        assert len(comp["audio"]) == 33

    def test_a3_rows_and_spot_rates(self):
        from datetime import date

        postage = load_bundled("a3_postage")
        assert set(postage) == {"first_ounce", "additional_ounce"}
        assert len(postage["first_ounce"].changes) == len(postage["additional_ounce"].changes) == 15
        assert postage["first_ounce"].rate_on(date(1998, 7, 1)) == 0.52
        assert postage["first_ounce"].rate_on(date(2002, 7, 1)) == 0.50
        assert postage["additional_ounce"].rate_on(date(2001, 7, 1)) == 0.29

    def test_postage_dates_are_datetime_dates(self):
        for schedule in load_bundled("a3_postage").values():
            assert all(type(effective) is datetime.date for effective, _ in schedule.changes)

    def test_a4_coverage_and_values(self):
        traffic = load_bundled("a4_traffic")
        assert len(traffic) == 31
        assert traffic.years[0] == 1984 and traffic.years[-1] == 2014
        assert traffic.to_mapping()[1998] == 134_400_000
        assert traffic.to_mapping()[2009] == 111_624_000_000

    def test_a5_shares_are_fractions(self):
        share = load_bundled("a5_media_share")
        assert len(share["audio"]) == 22
        assert share["audio"].to_mapping()[1998] == pytest.approx(0.095, rel=1e-12)
        assert share["video"].to_mapping()[2007] == pytest.approx(0.366, rel=1e-12)

    def test_a6_sales_scaled_to_units(self):
        sales = load_bundled("a6_sales")
        assert len(sales["cd"]) == 15
        assert sales["cd"].to_mapping()[1999] == pytest.approx(2499e6, rel=1e-12)
        assert sales["dvd"].to_mapping()[1997] == pytest.approx(0.6e6, rel=1e-12)
        assert sales["vhs"].to_mapping()[2007] == pytest.approx(150.3e6, rel=1e-12)

    def test_a7_a8_keyed_tables(self):
        assert load_bundled("a7_minutes_per_unit") == {"VHS": 180.0, "Cassette": 60.0, "Vinyl": 90.0}
        assert load_bundled("a8_unit_storage") == {"CD": 700.0, "DVD": 4700.0}

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            load_bundled("a9_nope")

    def test_load_all_assembles_everything(self):
        d = load_all()
        assert d.bandwidth_real.to_mapping()[2002] == 269.85
        (dvd, vhs) = d.physical_media["video"]
        assert dvd.storage.unit_storage_megabytes == 4700.0
        assert dvd.yearly_sales == load_bundled("a6_sales")["dvd"]
        assert vhs.storage.minutes_per_unit == 180.0
        assert [m.name for m in d.physical_media["audio"]] == ["cd", "cassette", "vinyl"]
        assert [m.name for m in d.physical_media["video"]] == ["dvd", "vhs"]
        assert set(d.reference_media) == {"album", "song", "clip", "sd_movie", "hd_movie"}
        assert d.targets == {"mail_cd": 1, "mail_cassette": 2, "mail_dvd": 1}


class TestChecksums:
    def corrupted_copy(self, tmp_path: Path) -> Path:
        target = tmp_path / "data"
        shutil.copytree(data_dir(), target)
        csv_path = target / "a4_traffic.csv"
        csv_path.write_text(csv_path.read_text().replace("134400000", "134400001"))
        return target

    def test_corrupted_csv_is_hard_error(self, tmp_path):
        with pytest.raises(DataIntegrityError, match="checksum"):
            load_bundled("a4_traffic", self.corrupted_copy(tmp_path))

    def test_env_override_is_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TECHKNEE_DATA", str(self.corrupted_copy(tmp_path)))
        with pytest.raises(DataIntegrityError):
            load_bundled("a4_traffic")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataIntegrityError, match="manifest"):
            load_bundled("a4_traffic", tmp_path)

    def test_lean_digest_is_hashlibs(self):
        for path in sorted(data_dir().iterdir()):
            assert _sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest(), path.name


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

    def test_unknown_unit_rejected(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1990,1.0\n")
        with pytest.raises(ValueError, match="unit"):
            parse_series_csv(path, "parsecs")

    def test_unsorted_input_is_sorted(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1991,2.0\n1990,1.0\n")
        assert parse_series_csv(path, "count-per-year").years == (1990, 1991)

    def test_round_trip_identity(self, tmp_path):
        original = load_bundled("a4_traffic")
        out = tmp_path / "traffic.csv"
        write_series_csv(original, out)
        again = parse_series_csv(out, "count-per-year")
        assert again == original


class TestExport:
    def test_export_copies_everything_bit_identically(self, tmp_path):
        written = export_bundled(tmp_path)
        assert len(written) == 2 * len(DATASET_IDS)
        for path in written:
            assert path.read_bytes() == (data_dir() / path.name).read_bytes()

    def test_exported_tables_reload_identically(self, tmp_path):
        export_bundled(tmp_path)
        for dataset_id in DATASET_IDS:
            assert load_bundled(dataset_id, tmp_path) == load_bundled(dataset_id)
