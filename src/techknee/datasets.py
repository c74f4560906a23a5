"""Bundled appendix datasets.

Each bundled table ships as a plain CSV next to a JSON manifest carrying
unit tags, coverage, the source citation, and a sha256 checksum, so the
data can be audited by eye and corruption is a hard error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from collections import namedtuple
from pathlib import Path

from .adoption import AnalogStorage, DigitalStorage, PhysicalMediaSpec
from .costs import MAIL_TARGETS, REFERENCE_BIT_RATES, REFERENCE_MEDIA, one_minute_size_bits
from .errors import DataIntegrityError
from .series import AnnualSeries, RateSchedule, _read_date, _read_number, _read_year

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

_ENV_DATA_DIR = "TECHKNEE_DATA"

# Digital equivalent of one minute of VHS-quality content (320x240 at SD
# color depth and frame rate, plus the audio track). Used only by the
# raw-bits usage metric; analog audio media use the reference audio rate.
_VHS_RAW_BITS_PER_MINUTE = (320 * 240 * 24 * 30 + REFERENCE_BIT_RATES["audio"]) * 60.0


def data_dir() -> Path:
    """Bundled data directory, overridable via the TECHKNEE_DATA env var."""
    override = os.environ.get(_ENV_DATA_DIR)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def _sha256(data: bytes) -> str:
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
    return sha256(data).hexdigest()


def _read_table(dataset_id: str, directory: Path, parse=list):
    """`parse` of the rows of one bundled table, checked against its
    manifest: the manifest must be a JSON object that names the table's
    CSV and carries its sha256, and a row count it declares must be an
    integer that matches. `parse` is given `(line, row)` pairs; rows it
    cannot read (a missing column, a bad cell) make the table malformed."""
    manifest_path = directory / f"{dataset_id}.manifest.json"
    if not manifest_path.exists():
        raise DataIntegrityError(f"missing manifest {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataIntegrityError(f"{dataset_id}: manifest {manifest_path} is not UTF-8 JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise DataIntegrityError(f"{dataset_id}: manifest is not a JSON object")
    coverage = manifest.get("coverage") or {}
    if not isinstance(coverage, dict):
        raise DataIntegrityError(f"{dataset_id}: manifest coverage is not a JSON object")
    if type(coverage.get("rows", 0)) is not int:  # a JSON `true` is a Python int, but no count
        raise DataIntegrityError(f"{dataset_id}: manifest coverage rows {coverage['rows']!r} is not an integer")
    csv_path = directory / f"{dataset_id}.csv"
    if manifest.get("file") != csv_path.name:
        # `export-data` and `case --json` name each table's CSV by its id.
        raise DataIntegrityError(
            f"{dataset_id}: manifest names file {manifest.get('file')!r}, not {csv_path.name!r}"
        )
    if not csv_path.exists():
        raise DataIntegrityError(f"missing data file {csv_path}")
    # One read, so the rows parsed are the bytes whose checksum was verified.
    data = csv_path.read_bytes()
    digest = _sha256(data)
    if digest != manifest.get("sha256"):
        raise DataIntegrityError(
            f"{dataset_id}: checksum mismatch ({digest} != manifest {manifest.get('sha256')})"
        )
    try:
        reader = csv.DictReader(io.StringIO(data.decode("utf-8"), newline=""), restval="")
        rows = [(reader.line_num, row) for row in reader]
        if "rows" in coverage and len(rows) != coverage["rows"]:
            raise DataIntegrityError(f"{dataset_id}: {len(rows)} rows, manifest declares {coverage['rows']}")
        return parse(rows)
    except (ValueError, KeyError, TypeError, csv.Error) as exc:
        reason = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise DataIntegrityError(f"{dataset_id}: malformed table: {reason}") from None


def _pairs(rows: list[tuple[int, dict]], key: str, read_key, column: str, scale: float = 1.0) -> tuple:
    """(`read_key` of the `key` cell, the `column` number x `scale`) of each
    row; a cell that is unreadable or not finite is refused naming its line."""
    pairs = []
    for line, row in rows:
        try:
            pairs.append((read_key(row[key]), _read_number(row[column]) * scale))
            if not math.isfinite(pairs[-1][1]):
                raise ValueError(f"{column} {row[column]!r}{'' if scale == 1.0 else f' x {scale:g}'} is not finite")
        except ValueError as exc:
            raise ValueError(f"line {line}: {exc}") from None
    return tuple(pairs)


def _annual(rows: list[tuple[int, dict]], column: str, unit: str, scale: float = 1.0) -> AnnualSeries:
    return AnnualSeries(_pairs(rows, "year", _read_year, column, scale), unit)


Datasets = namedtuple("Datasets", "bandwidth_real compression postage traffic media_share "
                      "physical_media reference_media targets")
Datasets.__doc__ = """What scenarios resolve against: the bundled tables, with one table
per scenario axis.

Money is in 2016 dollars and sales in absolute counts. `postage` maps
"first_ounce" and "additional_ounce" to rate schedules; `targets` maps
a target name to a mail weight in ounces or to a performance series;
`reference_media` maps a name to its media unit; `compression`,
`media_share` and `physical_media` (the competitor set) are keyed by
case. `load_all` fills them from the bundled tables, and
`sweep.extend_datasets` merges a scenario config's declarations into a
new bundle. Bundled data is never mutated.
"""


def load_all(directory: Path | None = None) -> Datasets:
    """The eight bundled tables, each checked against its manifest, as one
    bundle. The nominal-dollar columns of a1 and a3 and the text and image
    compression columns of a2 stay in the CSVs for auditing."""
    directory = directory or data_dir()
    audio_raw = one_minute_size_bits("audio")

    def analog(rows: list[tuple[int, dict]]) -> dict:
        minutes = dict(_pairs(rows, "media", str, "minutes_per_unit"))
        return {"cassette": AnalogStorage(minutes["Cassette"], audio_raw),
                "vinyl": AnalogStorage(minutes["Vinyl"], audio_raw),
                "vhs": AnalogStorage(minutes["VHS"], _VHS_RAW_BITS_PER_MINUTE)}

    def digital(rows: list[tuple[int, dict]]) -> dict:
        megabytes = dict(_pairs(rows, "media", str, "megabytes_per_unit"))
        return {"cd": DigitalStorage(megabytes["CD"]), "dvd": DigitalStorage(megabytes["DVD"])}

    # Each table's part of the bundle, in DATASET_IDS order; the first five
    # are the first five fields of Datasets.
    parsers = (
        lambda rows: _annual(rows, "usd2016_per_mbps_month", "real-dollars-per-megabit-month"),
        lambda rows: {media: _annual(rows, media, "dimensionless-share") for media in ("audio", "video")},
        lambda rows: {rate: RateSchedule(_pairs(rows, "effective_date", _read_date, f"{rate}_usd2016"), "real-dollars")
                      for rate in ("first_ounce", "additional_ounce")},
        lambda rows: _annual(rows, "gigabytes_per_year", "count-per-year"),
        lambda rows: {media: _annual(rows, f"{media}_percent", "dimensionless-share", scale=0.01)
                      for media in ("audio", "video")},
        # Sales are stored in millions as printed; scaled to absolute counts here.
        lambda rows: {name: _annual(rows, f"{name}_millions", "count-per-year", scale=1e6)
                      for name in ("cd", "cassette", "vinyl", "dvd", "vhs")},
        analog,
        digital,
    )
    *tables, sales, analog_storage, digital_storage = (
        _read_table(dataset_id, directory, parse) for dataset_id, parse in zip(DATASET_IDS, parsers))
    storage = {**analog_storage, **digital_storage}
    physical_media = {case: tuple(PhysicalMediaSpec(name, storage[name], sales[name]) for name in names)
                      for case, names in (("audio", ("cd", "cassette", "vinyl")), ("video", ("dvd", "vhs")))}
    return Datasets(*tables, physical_media, dict(REFERENCE_MEDIA), dict(MAIL_TARGETS))


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
