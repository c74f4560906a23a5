"""Unit-tagged annual time series and dated rate schedules.

Everything here is immutable and pure: series never interpolate missing
years, and scaling preserves the unit tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Iterator, Mapping

from .errors import MissingYearError

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

@dataclass(frozen=True)
class AnnualSeries:
    """Year-indexed positive finite values with a unit tag.

    `entries` is stored as a tuple of (year, value) pairs with strictly
    increasing years. Construct from a mapping or pair iterable via
    `AnnualSeries.from_mapping` / the constructor.
    """

    entries: tuple[tuple[int, float], ...]
    unit: str

    def __post_init__(self) -> None:
        if self.unit not in UNIT_TAGS:
            raise ValueError(f"unknown unit tag {self.unit!r}")
        prev = None
        for year, value in self.entries:
            if not isinstance(year, int):
                raise ValueError(f"year {year!r} is not an integer")
            if prev is not None and year <= prev:
                raise ValueError(f"years not strictly increasing at {year}")
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {value!r} at year {year}")
            if value < 0:
                raise ValueError(f"negative value {value!r} at year {year}")
            prev = year

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
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return AnnualSeries(tuple((y, v * factor) for y, v in self.entries), self.unit)


def align(a: AnnualSeries, b: AnnualSeries) -> list[tuple[int, float, float]]:
    """Rows (year, a-value, b-value) over the intersection of years, ascending."""
    bmap = b.to_mapping()
    return [(y, v, bmap[y]) for y, v in a.entries if y in bmap]


@dataclass(frozen=True)
class RateSchedule:
    """Dated changes of one rate, each in force from its calendar date
    until superseded. Used for postage.
    """

    changes: tuple[tuple[date, float], ...]
    unit: str

    def __post_init__(self) -> None:
        prev = None
        for effective, _ in self.changes:
            if prev is not None and effective <= prev:
                raise ValueError(f"effective dates not strictly increasing at {effective}")
            prev = effective

    def rate_on(self, probe: date) -> float:
        """The rate in force on `probe`; error if no change applies yet."""
        current: float | None = None
        for effective, value in self.changes:
            if effective <= probe:
                current = value
            else:
                break
        if current is None:
            raise MissingYearError(f"no rate in effect on {probe.isoformat()}")
        return current


def annualize(schedule: RateSchedule, years: Iterable[int]) -> AnnualSeries:
    """Annual series from a dated schedule: the value for year Y is the rate
    in force on July 1 of Y.

    A mid-year probe is the one convention the bundled postage table is
    resolved by: a change in the first half of a year counts for that year
    (2002-06-30 for 2002), one in the second half from the next year
    (1981-11-01 from 1982).
    """
    pairs = []
    for year in sorted(set(int(y) for y in years)):
        value = schedule.rate_on(date(year, 7, 1))
        pairs.append((year, value))
    return AnnualSeries(tuple(pairs), schedule.unit)
