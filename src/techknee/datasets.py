"""Bundled appendix datasets.

Each bundled table ships as a plain CSV next to a JSON manifest carrying
unit tags, coverage, the source citation, and a sha256 checksum, so the
data can be audited by eye and corruption is a hard error.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from pathlib import Path
from typing import Mapping, NamedTuple

from .adoption import AnalogStorage, DigitalStorage, PhysicalMediaSpec
from .costs import MAIL_TARGETS, REFERENCE_MEDIA, MediaSpec, one_minute_size_bits
from .errors import DataIntegrityError
from .series import AnnualSeries, RateSchedule, date_class

DATASET_IDS = (
    "a1_bandwidth_cost",
    "a2_compression",
    "a3_postage",
    "a4_traffic",
    "a5_media_share",
    "a6_sales",
    "a7_minutes_per_unit",
    "a8_unit_storage",
)

ENV_DATA_DIR = "TECHKNEE_DATA"

# Digital equivalent of one minute of VHS-quality content (320x240 at SD
# color depth and frame rate, plus the audio track). Used only by the
# raw-bits usage metric; analog audio media use the reference audio rate.
VHS_RAW_BITS_PER_MINUTE = (320 * 240 * 24 * 30 + 633_600) * 60.0


def data_dir() -> Path:
    """Bundled data directory, overridable via the TECHKNEE_DATA env var."""
    override = os.environ.get(ENV_DATA_DIR)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def _sha256(path: Path) -> str:
    # CPython's built-in SHA-256 gives hashlib's digest without loading
    # OpenSSL, which takes longer than hashing the tables (`random` loads
    # `_sha512` the same way). Its module is `_sha2` from Python 3.12 on.
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(path.read_bytes()).hexdigest()


def _read_manifest(dataset_id: str, directory: Path) -> dict:
    path = directory / f"{dataset_id}.manifest.json"
    if not path.exists():
        raise DataIntegrityError(f"missing manifest {path}")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _read_table(dataset_id: str, directory: Path) -> tuple[list[dict], dict]:
    """Rows + manifest for one bundled table, checksum-verified."""
    if dataset_id not in DATASET_IDS:
        raise KeyError(f"unknown dataset id {dataset_id!r}")
    manifest = _read_manifest(dataset_id, directory)
    csv_path = directory / f"{dataset_id}.csv"
    if manifest.get("file") != csv_path.name:
        # `export-data` and `case --json` name each table's CSV by its id.
        raise DataIntegrityError(
            f"{dataset_id}: manifest names file {manifest.get('file')!r}, not {csv_path.name!r}"
        )
    if not csv_path.exists():
        raise DataIntegrityError(f"missing data file {csv_path}")
    digest = _sha256(csv_path)
    if digest != manifest["sha256"]:
        raise DataIntegrityError(
            f"{dataset_id}: checksum mismatch ({digest} != manifest {manifest['sha256']})"
        )
    with open(csv_path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    coverage = manifest.get("coverage")
    if coverage and "rows" in coverage and len(rows) != coverage["rows"]:
        raise DataIntegrityError(
            f"{dataset_id}: {len(rows)} rows, manifest declares {coverage['rows']}"
        )
    return rows, manifest


def _annual(rows: list[dict], column: str, unit: str, scale: float = 1.0) -> AnnualSeries:
    pairs = tuple((int(r["year"]), float(r[column]) * scale) for r in rows)
    return AnnualSeries(pairs, unit)


def load_bundled(dataset_id: str, directory: Path | None = None):
    """Load one bundled table into its domain objects.

    Returns, by table: a1 -> AnnualSeries in 2016 dollars; a2 -> dict of
    compression AnnualSeries per media type; a3 -> dict of 2016-dollar
    RateSchedules, "first_ounce" and "additional_ounce"; a4 -> AnnualSeries;
    a5 -> dict of share AnnualSeries; a6 -> dict of sales AnnualSeries
    (absolute counts); a7/a8 -> plain keyed dicts. The nominal-dollar
    columns of a1 and a3 stay in the CSVs for auditing.
    """
    directory = directory or data_dir()
    rows, _ = _read_table(dataset_id, directory)

    if dataset_id == "a1_bandwidth_cost":
        return _annual(rows, "usd2016_per_mbps_month", "real-dollars-per-megabit-month")

    if dataset_id == "a2_compression":
        return {
            media: _annual(rows, media, "dimensionless-share")
            for media in ("text", "image", "audio", "video")
        }

    if dataset_id == "a3_postage":
        date = date_class()
        return {
            rate: RateSchedule(
                tuple((date.fromisoformat(r["effective_date"]), float(r[f"{rate}_usd2016"])) for r in rows),
                "real-dollars",
            )
            for rate in ("first_ounce", "additional_ounce")
        }

    if dataset_id == "a4_traffic":
        return _annual(rows, "gigabytes_per_year", "count-per-year")

    if dataset_id == "a5_media_share":
        return {
            media: _annual(rows, f"{media}_percent", "dimensionless-share", scale=0.01)
            for media in ("audio", "video")
        }

    if dataset_id == "a6_sales":
        # Stored in millions as printed; scaled to absolute counts here.
        return {
            name: _annual(rows, f"{name}_millions", "count-per-year", scale=1e6)
            for name in ("cd", "cassette", "vinyl", "dvd", "vhs")
        }

    if dataset_id == "a7_minutes_per_unit":
        return {r["media"]: float(r["minutes_per_unit"]) for r in rows}

    if dataset_id == "a8_unit_storage":
        return {r["media"]: float(r["megabytes_per_unit"]) for r in rows}

    raise KeyError(dataset_id)


class Datasets(NamedTuple):
    """What scenarios resolve against: the bundled tables, with one table
    per scenario axis.

    `targets` maps a target name to a mail weight in ounces or to a
    performance series; `reference_media` maps a name to its media unit;
    `media_share` and `physical_media` (the competitor set) are keyed by
    case. `load_all` fills them from the bundled tables, and
    `sweep.extend_datasets` merges a scenario config's declarations into a
    new bundle. Bundled data is never mutated.
    """

    bandwidth_real: AnnualSeries
    compression: Mapping[str, AnnualSeries]
    postage: Mapping[str, RateSchedule]
    traffic: AnnualSeries
    media_share: Mapping[str, AnnualSeries]
    physical_media: Mapping[str, tuple[PhysicalMediaSpec, ...]]
    reference_media: Mapping[str, MediaSpec]
    targets: Mapping[str, int | AnnualSeries]


def _physical_media(directory: Path) -> dict[str, tuple[PhysicalMediaSpec, ...]]:
    """Competitor media per case, from tables A.6-A.8."""
    sales = load_bundled("a6_sales", directory)
    minutes = load_bundled("a7_minutes_per_unit", directory)
    storage = load_bundled("a8_unit_storage", directory)
    audio_raw = one_minute_size_bits("audio")
    return {
        "audio": (
            PhysicalMediaSpec("cd", DigitalStorage(storage["CD"]), sales["cd"]),
            PhysicalMediaSpec("cassette", AnalogStorage(minutes["Cassette"], audio_raw), sales["cassette"]),
            PhysicalMediaSpec("vinyl", AnalogStorage(minutes["Vinyl"], audio_raw), sales["vinyl"]),
        ),
        "video": (
            PhysicalMediaSpec("dvd", DigitalStorage(storage["DVD"]), sales["dvd"]),
            PhysicalMediaSpec("vhs", AnalogStorage(minutes["VHS"], VHS_RAW_BITS_PER_MINUTE), sales["vhs"]),
        ),
    }


def load_all(directory: Path | None = None) -> Datasets:
    directory = directory or data_dir()
    return Datasets(
        bandwidth_real=load_bundled("a1_bandwidth_cost", directory),
        compression=load_bundled("a2_compression", directory),
        postage=load_bundled("a3_postage", directory),
        traffic=load_bundled("a4_traffic", directory),
        media_share=load_bundled("a5_media_share", directory),
        physical_media=_physical_media(directory),
        reference_media=dict(REFERENCE_MEDIA),
        targets=dict(MAIL_TARGETS),
    )


def export_bundled(out_dir: str | Path, directory: Path | None = None) -> list[Path]:
    """Copy every bundled CSV and manifest into `out_dir` for auditing."""
    import shutil

    directory = directory or data_dir()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for dataset_id in DATASET_IDS:
        _read_table(dataset_id, directory)  # checksum gate before export
        for suffix in (".csv", ".manifest.json"):
            src = directory / f"{dataset_id}{suffix}"
            dst = out / src.name
            shutil.copyfile(src, dst)
            written.append(dst)
    return written
