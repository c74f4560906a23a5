"""Unit-tagged annual time series, dated rate schedules, and the
`year,value` CSV format series are exchanged in.

Everything here is immutable and pure: series never interpolate missing
years, and scaling preserves the unit tag.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path

TYPE_CHECKING = False  # true for type checkers; importing `typing` costs ~5 ms
if TYPE_CHECKING:
    from datetime import date

# Closed vocabulary of unit tags. Tags are carried, never inferred.
UNIT_TAGS = frozenset(
    {
        "bits",
        "media-units-per-real-dollar",
        "minutes-per-year",
        "real-dollars-per-megabit-month",
        "real-dollars",
        "dimensionless-share",
        "count-per-year",
    }
)

class AnnualSeries:
    """Year-indexed positive finite values with a unit tag.

    `entries` is stored as a tuple of (year, value) pairs with strictly
    increasing years. Construct from a mapping or pair iterable via
    `AnnualSeries.from_mapping` / the constructor. Immutable, compared and
    hashed by value; the constructor validates through `__post_init__`,
    looked up on the class at every construction.
    """

    __slots__ = ("entries", "unit")

    def __init__(self, entries: tuple[tuple[int, float], ...], unit: str) -> None:
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "unit", unit)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.unit not in UNIT_TAGS:
            raise ValueError(f"unknown unit tag {self.unit!r}")
        prev = None
        for year, value in self.entries:
            if isinstance(year, bool) or not isinstance(year, int):  # `True` is an int, not a year
                raise ValueError(f"year {year!r} is not an integer")
            if prev is not None and year <= prev:
                raise ValueError(f"years not strictly increasing at {year}")
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {value!r} at year {year}")
            if value < 0:
                raise ValueError(f"negative value {value!r} at year {year}")
            prev = year

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.unit) == (other.entries, other.unit)

    def __hash__(self) -> int:
        return hash((self.entries, self.unit))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(entries={self.entries!r}, unit={self.unit!r})"

    def __reduce__(self):
        return type(self), (self.entries, self.unit)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, float], unit: str) -> "AnnualSeries":
        pairs = tuple(sorted((int(y), float(v)) for y, v in mapping.items()))
        return cls(pairs, unit)

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(y for y, _ in self.entries)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return iter(self.entries)

    def to_mapping(self) -> dict[int, float]:
        return dict(self.entries)

    def scale(self, factor: float) -> "AnnualSeries":
        """Multiply every value by a non-negative scalar; the tag is preserved."""
        if not 0 <= factor < math.inf:
            raise ValueError(f"scale factor must be non-negative and finite, got {factor!r}")
        for year, value in self.entries:
            if value and factor and not _normal(value * factor):
                raise ValueError(f"{value!r} x {factor!r} at {year} is beyond a float's range")
        return AnnualSeries(tuple((y, v * factor) for y, v in self.entries), self.unit)


def _normal(*values: float) -> bool:
    """Whether every value is in a float's normal range, where a rounding is relative."""
    return all(sys.float_info.min <= value < math.inf for value in values)


def align(first: AnnualSeries, *others: AnnualSeries) -> list[tuple]:
    """Rows (year, first-value, *other-values) over the years every input
    has, ascending: the one rule for combining series. A year missing from
    any input is omitted, never interpolated."""
    rows = list(first.entries)
    for other in others:
        values = other.to_mapping()
        rows = [row + (values[row[0]],) for row in rows if row[0] in values]
    return rows


# The `_make` of each validated record, which its `_replace` calls: through
# the constructor, whose checks namedtuple's own `_make` skips.
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class RateSchedule(namedtuple("RateSchedule", "changes unit")):
    """Dated changes of one rate, each in force from its calendar date
    until superseded. Used for postage.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, changes: tuple[tuple[date, float], ...], unit: str) -> RateSchedule:
        prev = None
        for effective, _ in changes:
            if prev is not None and effective <= prev:
                raise ValueError(f"effective dates not strictly increasing at {effective}")
            prev = effective
        return super().__new__(cls, changes, unit)

    def rate_on(self, probe: date) -> float:
        """The rate in force on `probe`; error if no change applies yet."""
        current: float | None = None
        for effective, value in self.changes:
            if effective <= probe:
                current = value
            else:
                break
        if current is None:
            raise ValueError(f"no rate in effect on {probe.isoformat()}")
        return current


def _date_class() -> type[date]:
    """`datetime.date`, taken from the C module `_datetime` that `datetime`
    re-exports, so that the pure-Python `datetime` module (loaded by
    `import datetime` up to Python 3.11) is not; `datetime` is the
    fallback."""
    try:
        from _datetime import date
    except ImportError:
        from datetime import date
    return date


def annualize(schedule: RateSchedule, years: Iterable[int]) -> AnnualSeries:
    """Annual series from a dated schedule: the value for year Y is the rate
    in force on July 1 of Y.

    A mid-year probe is the one convention the bundled postage table is
    resolved by: a change in the first half of a year counts for that year
    (2002-06-30 for 2002), one in the second half from the next year
    (1981-11-01 from 1982).
    """
    date = _date_class()
    years = sorted(set(int(y) for y in years))
    if years and not date.min.year <= years[0] <= years[-1] <= date.max.year:
        raise ValueError(f"years {years[0]} to {years[-1]} reach beyond the calendar of dated rates, 1-9999")
    pairs = tuple((year, schedule.rate_on(date(year, 7, 1))) for year in years)
    return AnnualSeries(pairs, schedule.unit)


def _named(where: str, parse):
    """`parse()`, its ValueError prefixed with `where`: the input it read."""
    try:
        return parse()
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _reader(convert: type, refusal: str):
    def read(text: str):
        if "_" in text or not text.isascii():
            raise ValueError(f"{refusal}: {text!r}")
        return convert(text)
    read.__name__ = convert.__name__  # as argparse's usage error names it: "invalid float value"
    return read


# Readers of each year, number and date in input text: int() and float() of
# ASCII without `_` (no digit separators or non-ASCII digits), and a date as
# `isoformat` writes it; from 3.11 `fromisoformat` alone reads `19850217` too.
_read_year = _reader(int, "invalid literal for int() with base 10")
_read_number = _reader(float, "could not convert string to float")


def _read_date(text: str) -> date:
    day = _date_class().fromisoformat(text)
    if day.isoformat() != text:
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return day


def parse_series_csv(path: str | Path, declared_unit: str) -> AnnualSeries:
    """Read a `year,value` CSV into a validated series; columns after
    the second, such as a `note`, are ignored.

    The unit is supplied by the caller (manifest or CLI flag), never
    inferred. Malformed rows are reported with their line number, and
    bytes that are not UTF-8 with the file's name.
    """
    path = Path(path)
    if declared_unit not in UNIT_TAGS:
        raise ValueError(f"unknown unit tag {declared_unit!r}")
    pairs: list[tuple[int, float]] = []
    seen: dict[int, int] = {}
    try:
        text = path.read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header[:2]] != ["year", "value"]:
        raise ValueError(f"{path}:1: expected header 'year,value'")
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise ValueError(f"{path}:{lineno}: expected two columns")
        try:
            year = _read_year(row[0])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad year {row[0]!r}") from None
        try:
            value = _read_number(row[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value {row[1]!r}") from None
        if year in seen:
            raise ValueError(f"{path}:{lineno}: duplicate year {year} (first at line {seen[year]})")
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite value")
        if value < 0:
            raise ValueError(f"{path}:{lineno}: negative value")
        seen[year] = lineno
        pairs.append((year, value))
    pairs.sort()
    return AnnualSeries(tuple(pairs), declared_unit)

