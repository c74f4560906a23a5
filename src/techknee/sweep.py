"""Scenario enumeration, the crossover/knee pipeline, and reproduction of
the published case-study tables.

A scenario is one complete choice along the uncertainty axes: target
domain, performance reference unit, usage metric, detection mode, and
knee threshold. The reproduction report runs every reproducible table
cell through the same pipeline and scores it against the published year
at its documented tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .adoption import DomainUsage, UsageMetric, adoption_share, analog_media_minutes, \
    digital_media_minutes, extend_compression, internet_media_minutes, \
    internet_media_raw_bits, physical_media_raw_bits, protocol_mix, \
    AnalogStorage, DigitalStorage, PhysicalMediaSpec
from .costs import InternetPricing, MailSpec, MediaSpec, REFERENCE_MEDIA, \
    internet_distribution_perf, mail_distribution_perf, one_minute_size_bits
from .datasets import Datasets, parse_series_csv
from .errors import TechkneeError
from .fitting import CrossoverResult, ExpFit, KneeResult, crossover_empirical, \
    crossover_fitted, fit_exponential, knee
from .series import AnnualSeries, annualize


class ScenarioError(TechkneeError):
    """A scenario failed; the message carries the scenario id."""


@dataclass(frozen=True)
class Detection:
    """Crossover detection mode: empirical series or fitted curves."""

    mode: str  # "empirical" | "fitted"
    window_from: int | None = None
    window_to: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("empirical", "fitted"):
            raise ValueError(f"unknown detection mode {self.mode!r}")
        if self.mode == "empirical" and (self.window_from or self.window_to):
            raise ValueError("empirical detection takes no window")

    def label(self) -> str:
        if self.mode == "empirical":
            return "empirical"
        lo = self.window_from if self.window_from is not None else ""
        hi = self.window_to if self.window_to is not None else ""
        return f"fitted:{lo}-{hi}" if (lo or hi) else "fitted"


# Mail targets: medium name -> ceiled weight in ounces. CD and DVD ship
# under an ounce in a sleeve; a shelled cassette exceeds one ounce.
MAIL_TARGETS = {"mail_cd": 1, "mail_cassette": 2, "mail_dvd": 1}


@dataclass(frozen=True)
class Scenario:
    """One complete choice along the uncertainty axes."""

    case: str  # "audio" | "video" | "custom"
    target: str
    reference_media: str
    usage_metric: UsageMetric
    detection: Detection
    knee_threshold: float

    def __post_init__(self) -> None:
        if self.case not in ("audio", "video", "custom"):
            raise ValueError(f"unknown case {self.case!r}")
        if not 0.0 < self.knee_threshold < 1.0:
            raise ValueError("knee threshold must be in (0, 1)")

    @property
    def scenario_id(self) -> str:
        return "|".join(
            [
                self.case,
                self.target,
                self.reference_media,
                self.usage_metric.label(),
                self.detection.label(),
                f"{self.knee_threshold:g}",
            ]
        )


@dataclass(frozen=True)
class SweepResult:
    scenario: Scenario
    crossover: CrossoverResult
    knee: KneeResult
    diagnostics: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class FeasibilityRange:
    """Min/max event years over a scenario group, absences counted."""

    label: str
    n_scenarios: int
    crossover_min: int | None
    crossover_max: int | None
    crossover_absent: int
    knee_min: int | None
    knee_max: int | None
    knee_absent: int


def parse_usage_metric(raw) -> UsageMetric:
    """Accepts 'minutes', 'raw_bits', 'units:<minutes>', or a JSON object."""
    if isinstance(raw, UsageMetric):
        return raw
    if isinstance(raw, str):
        if raw.startswith("units:"):
            return UsageMetric.units(float(raw.split(":", 1)[1]))
        return UsageMetric(raw)
    if isinstance(raw, dict):
        kind = raw["kind"]
        if kind == "units":
            return UsageMetric.units(float(raw["unit_length_minutes"]))
        return UsageMetric(kind)
    raise ValueError(f"cannot parse usage metric from {raw!r}")


def parse_detection(raw) -> Detection:
    """Accepts 'empirical', 'fitted', 'fitted:<from>-<to>', or a JSON object."""
    if isinstance(raw, Detection):
        return raw
    if isinstance(raw, str):
        if raw == "empirical":
            return Detection("empirical")
        if raw == "fitted":
            return Detection("fitted")
        if raw.startswith("fitted:"):
            lo, _, hi = raw.split(":", 1)[1].partition("-")
            return Detection("fitted", int(lo) if lo else None, int(hi) if hi else None)
    if isinstance(raw, dict):
        return Detection(
            raw.get("mode", "fitted"),
            raw.get("from"),
            raw.get("to"),
        )
    raise ValueError(f"cannot parse detection from {raw!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Axis values for a cartesian sweep, in declaration order."""

    case: str
    targets: tuple[str, ...]
    reference_media: tuple[str, ...]
    usage_metrics: tuple[UsageMetric, ...]
    detection: tuple[Detection, ...]
    knee_thresholds: tuple[float, ...]

    @classmethod
    def from_json(cls, doc: Mapping) -> "SweepConfig":
        for key in ("case", "targets", "reference_media", "usage_metrics", "detection", "knee_thresholds"):
            if key not in doc or (key != "case" and not doc[key]):
                raise ValueError(f"config needs at least one value for {key!r}")
        return cls(
            case=doc["case"],
            targets=tuple(doc["targets"]),
            reference_media=tuple(doc["reference_media"]),
            usage_metrics=tuple(parse_usage_metric(m) for m in doc["usage_metrics"]),
            detection=tuple(parse_detection(d) for d in doc["detection"]),
            knee_thresholds=tuple(float(t) for t in doc["knee_thresholds"]),
        )


def enumerate_scenarios(config: SweepConfig, datasets: Datasets | None = None) -> list[Scenario]:
    """Cartesian product over the axes, in axis declaration order."""

    def target_known(name: str) -> bool:
        if name in MAIL_TARGETS:
            return True
        return datasets is not None and (
            name in datasets.custom_series or name in datasets.custom_mail
        )

    def media_known(name: str) -> bool:
        if name in REFERENCE_MEDIA:
            return True
        return datasets is not None and name in datasets.custom_media

    scenarios = []
    for target in config.targets:
        if not target_known(target):
            raise ValueError(f"unresolvable target {target!r}")
        for media in config.reference_media:
            if not media_known(media):
                raise ValueError(f"unresolvable reference media {media!r}")
            for metric in config.usage_metrics:
                for detection in config.detection:
                    for threshold in config.knee_thresholds:
                        scenarios.append(
                            Scenario(config.case, target, media, metric, detection, threshold)
                        )
    return scenarios


# ---------------------------------------------------------------------------
# config-declared extensions


def _parse_custom_media(name: str, doc: Mapping) -> MediaSpec:
    """Media unit from JSON with explicit unit suffixes on every field."""
    kind = doc["kind"]
    fields = dict(
        kind=kind,
        length_seconds=float(doc["length_seconds"]),
        audio_bit_rate=float(doc.get("audio_bit_rate_kbps", 633.6)) * 1e3,
    )
    if "override_size_gigabits" in doc:
        fields["override_size_bits"] = float(doc["override_size_gigabits"]) * 1e9
    elif kind == "video":
        fields.update(
            pixel_height=int(doc["pixel_height"]),
            pixel_width=int(doc["pixel_width"]),
            bits_per_pixel=int(doc["bits_per_pixel"]),
            frames_per_second=float(doc["frames_per_second"]),
        )
    try:
        return MediaSpec(**fields)
    except (ValueError, KeyError) as exc:
        raise ValueError(f"custom media {name!r}: {exc}") from exc


def _parse_physical_media(case: str, doc: Mapping, resolve) -> PhysicalMediaSpec:
    sales = resolve(doc["sales_path"], "count-per-year")
    if "sales_scale" in doc:
        sales = sales.scale(float(doc["sales_scale"]))
    if doc["kind"] == "analog":
        storage = AnalogStorage(
            minutes_per_unit=float(doc["minutes_per_unit"]),
            raw_bits_per_minute=float(
                doc.get("raw_bits_per_minute", one_minute_size_bits(case))
            ),
        )
    elif doc["kind"] == "digital":
        storage = DigitalStorage(unit_storage_megabytes=float(doc["unit_storage_megabytes"]))
    else:
        raise ValueError(f"physical medium {doc.get('name')!r}: unknown kind {doc['kind']!r}")
    return PhysicalMediaSpec(doc["name"], storage, sales)


def extend_datasets(datasets: Datasets, doc: Mapping, base_dir=None) -> Datasets:
    """Apply a scenario config's custom declarations to a dataset bundle.

    Supported keys: `custom_series` (named performance/usage series from
    CSV), `custom_media` (reference media units), `custom_targets` (mail
    weights), `protocol_mix` (per-case media share built from protocol
    tables), and `custom_physical_media` (per-case competitor sets).
    Relative CSV paths resolve against `base_dir`.
    """
    from dataclasses import replace
    from pathlib import Path

    def resolve(path: str, unit: str) -> AnnualSeries:
        p = Path(path)
        if base_dir is not None and not p.is_absolute():
            p = Path(base_dir) / p
        return parse_series_csv(p, unit)

    updates: dict = {}
    if doc.get("custom_series"):
        updates["custom_series"] = {
            name: resolve(spec["path"], spec["unit"])
            for name, spec in doc["custom_series"].items()
        }
    if doc.get("custom_media"):
        updates["custom_media"] = {
            name: _parse_custom_media(name, spec) for name, spec in doc["custom_media"].items()
        }
    if doc.get("custom_targets"):
        updates["custom_mail"] = {
            name: int(spec["weight_ounces"]) for name, spec in doc["custom_targets"].items()
        }
    if doc.get("protocol_mix"):
        updates["media_share_override"] = {
            case: protocol_mix(
                [
                    (resolve(entry["path"], "dimensionless-share"), float(entry["media_fraction"]))
                    for entry in entries
                ]
            )
            for case, entries in doc["protocol_mix"].items()
        }
    if doc.get("custom_physical_media"):
        updates["physical_media_override"] = {
            case: tuple(_parse_physical_media(case, entry, resolve) for entry in entries)
            for case, entries in doc["custom_physical_media"].items()
        }
    return replace(datasets, **updates) if updates else datasets


# ---------------------------------------------------------------------------
# pipeline pieces


def replacement_performance(case: str, reference_media: str, datasets: Datasets) -> AnnualSeries:
    """Internet distribution performance for a case's reference unit."""
    spec = REFERENCE_MEDIA.get(reference_media)
    if spec is None:
        spec = datasets.custom_media.get(reference_media)
    if spec is None:
        raise ValueError(f"unresolvable reference media {reference_media!r}")
    if case in ("audio", "video") and spec.kind != case:
        raise ValueError(f"reference media {reference_media!r} is {spec.kind}, case is {case}")
    pricing = InternetPricing(datasets.bandwidth_real)
    compression = datasets.compression[spec.kind]
    return internet_distribution_perf(pricing, compression, spec)


def target_performance(target: str, datasets: Datasets, years: Iterable[int] | None = None) -> AnnualSeries:
    """Mail performance for a named target, or a user-supplied series."""
    weight = MAIL_TARGETS.get(target)
    if weight is None:
        weight = datasets.custom_mail.get(target)
    if weight is not None:
        if years is None:
            years = datasets.bandwidth_real.years
        first = annualize(datasets.postage, years, "first_ounce_usd2016")
        additional = annualize(datasets.postage, years, "additional_ounce_usd2016")
        mail = MailSpec(weight, first, additional)
        return mail_distribution_perf(mail)
    if target in datasets.custom_series:
        series = datasets.custom_series[target]
        if series.unit != "media-units-per-real-dollar":
            raise ValueError(f"custom target {target!r} tagged {series.unit!r}")
        return series
    raise ValueError(f"unresolvable target {target!r}")


def domain_usages(case: str, metric: UsageMetric, datasets: Datasets) -> tuple[DomainUsage, list[DomainUsage]]:
    """Internet and physical-media usage series in the chosen metric."""
    if case not in ("audio", "video"):
        raise ValueError(f"adoption is defined for the audio/video cases, not {case!r}")
    compression = extend_compression(
        datasets.compression[case], datasets.traffic.years[0], datasets.traffic.years[-1]
    )
    share = datasets.case_media_share(case)
    one_min = one_minute_size_bits(case)
    media = datasets.physical_media(case)

    if metric.kind == "raw_bits":
        internet = DomainUsage("internet", internet_media_raw_bits(datasets.traffic, share))
        physical = [DomainUsage(m.name, physical_media_raw_bits(m)) for m in media]
        return internet, physical

    internet = DomainUsage(
        "internet", internet_media_minutes(datasets.traffic, share, compression, one_min)
    )
    physical = []
    for m in media:
        if isinstance(m.storage, AnalogStorage):
            physical.append(DomainUsage(m.name, analog_media_minutes(m)))
        else:
            physical.append(DomainUsage(m.name, digital_media_minutes(m, compression, one_min)))
    return internet, physical


def adoption_series(case: str, metric: UsageMetric, datasets: Datasets,
                    denominator: str = "all-domains") -> AnnualSeries:
    internet, physical = domain_usages(case, metric, datasets)
    return adoption_share(internet, physical, metric, denominator)


_NO_DIAGNOSTICS: Mapping[str, float] = MappingProxyType({})


class _Stages:
    """The pipeline stages over one datasets bundle, each distinct input
    computed once.

    A crossover depends only on (case, target, reference media, detection)
    and a knee only on (case, usage metric, threshold), so scenarios that
    share those keys share one result. Stages are looked up by their
    module names at call time, so patching `techknee.sweep.<stage>` sees
    every call. An instance lives for one call of `run_scenario`,
    `run_sweep` or `reproduce_case_studies`.
    """

    def __init__(self, datasets: Datasets) -> None:
        self.datasets = datasets
        self._replacement: dict[tuple, AnnualSeries] = {}
        self._target: dict[str, AnnualSeries] = {}
        self._adoption: dict[tuple, AnnualSeries] = {}
        self._fit: dict[tuple, ExpFit] = {}
        self._crossover: dict[tuple, tuple[CrossoverResult, Mapping[str, float]]] = {}
        self._knee: dict[tuple, KneeResult] = {}

    def replacement(self, case: str, reference_media: str) -> AnnualSeries:
        key = (case, reference_media)
        if key not in self._replacement:
            self._replacement[key] = replacement_performance(case, reference_media, self.datasets)
        return self._replacement[key]

    def target(self, target: str) -> AnnualSeries:
        if target not in self._target:
            self._target[target] = target_performance(target, self.datasets)
        return self._target[target]

    def adoption(self, case: str, metric: UsageMetric) -> AnnualSeries:
        key = (case, metric)
        if key not in self._adoption:
            self._adoption[key] = adoption_series(case, metric, self.datasets)
        return self._adoption[key]

    def _fitted(self, series_key: tuple, series: AnnualSeries, window: tuple) -> ExpFit:
        key = (series_key, window)
        if key not in self._fit:
            self._fit[key] = fit_exponential(series, window)
        return self._fit[key]

    def crossover(self, s: Scenario) -> tuple[CrossoverResult, Mapping[str, float]]:
        """The crossover and its read-only diagnostics, shared by every
        scenario with the same crossover key."""
        key = (s.case, s.target, s.reference_media, s.detection)
        hit = self._crossover.get(key)
        if hit is None:
            hit = self._crossover[key] = self._detect_crossover(s)
        return hit

    def _detect_crossover(self, s: Scenario) -> tuple[CrossoverResult, Mapping[str, float]]:
        replacement = self.replacement(s.case, s.reference_media)
        target = self.target(s.target)
        if s.detection.mode == "empirical":
            return crossover_empirical(replacement, target), _NO_DIAGNOSTICS
        window = (s.detection.window_from, s.detection.window_to)
        fit_r = self._fitted(("replacement", s.case, s.reference_media), replacement, window)
        fit_t = self._fitted(("target", s.target), target, window)
        crossover = crossover_fitted(fit_r, fit_t)
        diagnostics = {
            "replacement_a": fit_r.a,
            "replacement_k": fit_r.k,
            "replacement_r_squared": fit_r.r_squared,
            "target_a": fit_t.a,
            "target_k": fit_t.k,
            "target_r_squared": fit_t.r_squared,
        }
        if crossover.fractional_year is not None:
            lo = min(fit_r.window[0], fit_t.window[0])
            hi = max(fit_r.window[1], fit_t.window[1])
            diagnostics["crossover_extrapolated"] = float(
                not lo <= crossover.fractional_year <= hi
            )
        return crossover, MappingProxyType(diagnostics)

    def knee(self, s: Scenario) -> KneeResult:
        key = (s.case, s.usage_metric, s.knee_threshold)
        hit = self._knee.get(key)
        if hit is None:
            if s.case == "custom":
                # No bundled usage data for custom cases: the knee is absent.
                hit = KneeResult(None, s.knee_threshold)
            else:
                hit = knee(self.adoption(s.case, s.usage_metric), s.knee_threshold)
            self._knee[key] = hit
        return hit

    def run(self, scenario: Scenario) -> SweepResult:
        try:
            crossover, diagnostics = self.crossover(scenario)
            knee_result = self.knee(scenario)
        except (TechkneeError, ValueError, KeyError) as exc:
            raise ScenarioError(f"scenario {scenario.scenario_id}: {exc}") from exc
        return SweepResult(scenario, crossover, knee_result, diagnostics)


def run_scenario(scenario: Scenario, datasets: Datasets) -> SweepResult:
    """Full pipeline for one scenario; deterministic, errors annotated."""
    return _Stages(datasets).run(scenario)


def run_sweep(config: SweepConfig, datasets: Datasets) -> list[SweepResult]:
    """Evaluate every scenario; output order follows the enumeration.

    Each distinct crossover and knee is computed once and joined onto
    every scenario that shares its key. Scenarios are evaluated in
    enumeration order, so a failure names the first failing scenario.
    """
    stages = _Stages(datasets)
    return [stages.run(s) for s in enumerate_scenarios(config, datasets)]


def feasibility_range(results: list[SweepResult], group_by: str | None = None) -> list[FeasibilityRange]:
    """Min/max crossover and knee years per group of scenarios.

    `group_by` names a scenario axis ("case", "target", "reference_media",
    "usage_metric", "detection", "knee_threshold"); None pools everything
    under the label "all". Absent events are counted, not ranged.
    """
    if not results:
        raise ValueError("no results to aggregate")

    def key(result: SweepResult) -> str:
        if group_by is None:
            return "all"
        value = getattr(result.scenario, group_by)
        if isinstance(value, UsageMetric):
            return value.label()
        if isinstance(value, Detection):
            return value.label()
        return str(value)

    groups: dict[str, list[SweepResult]] = {}
    for r in results:
        groups.setdefault(key(r), []).append(r)

    out = []
    for label in sorted(groups):
        rs = groups[label]
        crossings = [r.crossover.year for r in rs if r.crossover.year is not None]
        knees = [r.knee.year for r in rs if r.knee.year is not None]
        out.append(
            FeasibilityRange(
                label=label,
                n_scenarios=len(rs),
                crossover_min=min(crossings) if crossings else None,
                crossover_max=max(crossings) if crossings else None,
                crossover_absent=len(rs) - len(crossings),
                knee_min=min(knees) if knees else None,
                knee_max=max(knees) if knees else None,
                knee_absent=len(rs) - len(knees),
            )
        )
    return out


# ---------------------------------------------------------------------------
# reproduction of the published tables


@dataclass(frozen=True)
class Cell:
    """One published table cell checked against the pipeline."""

    cell_id: str
    table: str
    case: str
    label: str
    expected: int | None
    tolerance: int
    computed: int | None
    status: str  # exact | within_tolerance | deviation | unsupported
    note: str = ""


@dataclass(frozen=True)
class RangeCheck:
    """A published feasibility range checked against computed cells."""

    range_id: str
    case: str
    expected: tuple[int, int]
    computed: tuple[int, int] | None
    status: str


@dataclass(frozen=True)
class ReproductionReport:
    cells: tuple[Cell, ...]
    ranges: tuple[RangeCheck, ...]
    curves: Mapping[str, Mapping[str, AnnualSeries]]

    @property
    def deviations(self) -> list[str]:
        ids = [c.cell_id for c in self.cells if c.status == "deviation"]
        ids += [r.range_id for r in self.ranges if r.status == "deviation"]
        return ids

    @property
    def ok(self) -> bool:
        return not self.deviations

    def to_json(self) -> str:
        doc = {
            "cells": [
                {
                    "id": c.cell_id,
                    "table": c.table,
                    "case": c.case,
                    "label": c.label,
                    "expected": c.expected,
                    "tolerance": c.tolerance,
                    "computed": c.computed,
                    "status": c.status,
                    "note": c.note,
                }
                for c in self.cells
            ],
            "ranges": [
                {
                    "id": r.range_id,
                    "case": r.case,
                    "expected": list(r.expected),
                    "computed": list(r.computed) if r.computed else None,
                    "status": r.status,
                }
                for r in self.ranges
            ],
            "deviations": self.deviations,
        }
        return json.dumps(doc, indent=2)


def _score(expected: int | None, tolerance: int, computed: int | None) -> str:
    if expected is None:
        return "unsupported"
    if computed is None:
        return "deviation"
    if computed == expected:
        return "exact"
    if abs(computed - expected) <= tolerance:
        return "within_tolerance"
    return "deviation"


_BASELINE = {
    "audio": {"target": "mail_cd", "reference": "album"},
    "video": {"target": "mail_dvd", "reference": "clip"},
}

_EMPIRICAL = Detection("empirical")
_MINUTES = UsageMetric.minutes()


def _baseline_scenario(case: str, **overrides) -> Scenario:
    base = _BASELINE[case]
    fields = dict(
        case=case,
        target=base["target"],
        reference_media=base["reference"],
        usage_metric=_MINUTES,
        detection=_EMPIRICAL,
        knee_threshold=0.01,
    )
    fields.update(overrides)
    return Scenario(**fields)


# (cell_id, table, case, label, scenario overrides, event, expected, tolerance)
# Tolerance policy: baseline cells exact; ±1 for cells sensitive to the
# documented convention ambiguities (usage-metric conventions, late-2000s
# postage changes, regression windows).
_CELL_SPECS: tuple = (
    ("t2_audio_mail_cd", "table2", "audio", "mail CD", {}, "crossover", 1998, 0),
    ("t2_audio_mail_cassette", "table2", "audio", "mail cassette", {"target": "mail_cassette"}, "crossover", 1997, 0),
    ("t2_video_mail_dvd", "table2", "video", "mail DVD", {}, "crossover", 2002, 0),
    ("t3_audio_minutes_1pct", "table3", "audio", "minutes knee above 1%", {}, "knee", 1999, 0),
    ("t3_audio_minutes_10pct", "table3", "audio", "minutes knee above 10%", {"knee_threshold": 0.10}, "knee", 2001, 0),
    ("t3_audio_raw_1pct", "table3", "audio", "raw-data knee above 1%", {"usage_metric": UsageMetric.raw_bits()}, "knee", 1999, 1),
    ("t3_audio_raw_10pct", "table3", "audio", "raw-data knee above 10%", {"usage_metric": UsageMetric.raw_bits(), "knee_threshold": 0.10}, "knee", 2001, 1),
    ("t3_audio_songs_1pct", "table3", "audio", "3-min songs knee above 1%", {"usage_metric": UsageMetric.units(3)}, "knee", 1999, 1),
    ("t3_audio_songs_10pct", "table3", "audio", "3-min songs knee above 10%", {"usage_metric": UsageMetric.units(3), "knee_threshold": 0.10}, "knee", 2000, 1),
    ("t3_video_minutes_1pct", "table3", "video", "minutes knee above 1%", {}, "knee", 2001, 0),
    ("t3_video_minutes_10pct", "table3", "video", "minutes knee above 10%", {"knee_threshold": 0.10}, "knee", 2003, 1),
    ("t3_video_raw_1pct", "table3", "video", "raw-data knee above 1%", {"usage_metric": UsageMetric.raw_bits()}, "knee", 2001, 1),
    ("t3_video_raw_10pct", "table3", "video", "raw-data knee above 10%", {"usage_metric": UsageMetric.raw_bits(), "knee_threshold": 0.10}, "knee", 2005, 1),
    ("t3_video_movies_1pct", "table3", "video", "movies knee above 1%", {"usage_metric": UsageMetric.units(90)}, "knee", 2000, 1),
    ("t3_video_movies_10pct", "table3", "video", "movies knee above 10%", {"usage_metric": UsageMetric.units(90), "knee_threshold": 0.10}, "knee", 2002, 1),
    ("t4_audio_album", "table4", "audio", "album reference", {}, "crossover", 1998, 0),
    ("t4_audio_song", "table4", "audio", "3-min song reference", {"reference_media": "song"}, "crossover", 1992, 0),
    ("t4_video_clip", "table4", "video", "5-min clip reference", {}, "crossover", 2002, 0),
    ("t4_video_sd_movie", "table4", "video", "90-min SD movie reference", {"reference_media": "sd_movie"}, "crossover", 2007, 1),
    ("t4_video_hd_movie", "table4", "video", "90-min HD movie reference", {"reference_media": "hd_movie"}, "crossover", 2008, 1),
    ("t5_audio_empirical", "table5", "audio", "empirical data", {}, "crossover", 1998, 0),
    ("t5_audio_fit_all", "table5", "audio", "exponential regression, all data", {"detection": Detection("fitted")}, "crossover", 1996, 1),
    ("t5_audio_fit_from1995", "table5", "audio", "exponential regression, from 1995", {"detection": Detection("fitted", 1995)}, "crossover", 2001, 1),
    ("t5_video_empirical", "table5", "video", "empirical data", {}, "crossover", 2002, 0),
    ("t5_video_fit_all", "table5", "video", "exponential regression, all data", {"detection": Detection("fitted")}, "crossover", 2001, 1),
    ("t5_video_fit_from1995", "table5", "video", "exponential regression, from 1995", {"detection": Detection("fitted", 1995)}, "crossover", 2002, 1),
)

# Drive-to-store cells: the source tables give no cost model, so they
# are carried only as user-supplied custom targets and never scored.
_UNSUPPORTED_CELLS: tuple = (
    ("t2_audio_drive", "table2", "audio", "drive to store"),
    ("t2_video_drive", "table2", "video", "drive to store"),
)

# Published feasibility ranges (crossover), per case, over the union of
# the reproducible Table 2 / 4 / 5 cells.
_RANGE_SPECS = (
    ("fig4_audio_crossover_range", "audio", (1992, 2001)),
    ("fig4_video_crossover_range", "video", (2001, 2008)),
)


def reproduce_case_studies(datasets: Datasets) -> ReproductionReport:
    """Recompute every reproducible cell of Tables 2-5 and the summary ranges."""
    stages = _Stages(datasets)
    cells = []
    crossover_years: dict[str, list[int]] = {"audio": [], "video": []}
    for cell_id, table, case, label, overrides, event, expected, tolerance in _CELL_SPECS:
        scenario = _baseline_scenario(case, **overrides)
        result = stages.run(scenario)
        computed = result.crossover.year if event == "crossover" else result.knee.year
        if event == "crossover" and computed is not None:
            crossover_years[case].append(computed)
        cells.append(
            Cell(cell_id, table, case, label, expected, tolerance, computed,
                 _score(expected, tolerance, computed))
        )
    for cell_id, table, case, label in _UNSUPPORTED_CELLS:
        cells.append(
            Cell(cell_id, table, case, label, None, 0, None, "unsupported",
                 note="no published cost model; supply a custom target series to explore")
        )

    ranges = []
    for range_id, case, expected in _RANGE_SPECS:
        years = crossover_years[case]
        computed = (min(years), max(years)) if years else None
        status = "exact" if computed == expected else "deviation"
        ranges.append(RangeCheck(range_id, case, expected, computed, status))

    curves = {}
    for case in ("audio", "video"):
        base = _BASELINE[case]
        curves[case] = {
            "replacement": stages.replacement(case, base["reference"]),
            "target": stages.target(base["target"]),
            "adoption": stages.adoption(case, _MINUTES),
        }
    return ReproductionReport(tuple(cells), tuple(ranges), curves)
