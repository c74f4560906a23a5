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
import math
from collections import namedtuple
from collections.abc import Iterator, Mapping
from functools import cache
from itertools import product

from .adoption import UsageMetric, adoption_share, analog_media_minutes, \
    digital_media_minutes, extend_compression, internet_media_minutes, \
    internet_media_raw_bits, physical_media_raw_bits, protocol_mix, \
    AnalogStorage, DigitalStorage, PhysicalMediaSpec
from .costs import REFERENCE_BIT_RATES, MediaSpec, internet_distribution_perf, mail_distribution_perf, \
    one_minute_size_bits
from .datasets import Datasets
from .errors import TechkneeError
from .fitting import CrossoverResult, crossover_empirical, crossover_fitted, fit_exponential, knee
from .series import AnnualSeries, _read_number, _read_year, annualize, parse_series_csv


class ScenarioError(TechkneeError):
    """A scenario failed; the message carries the scenario id."""


class Detection(namedtuple("Detection", "mode window_from window_to")):
    """Crossover detection mode: empirical series or fitted curves."""

    __slots__ = ()

    def __new__(cls, mode: str, window_from: int | None = None, window_to: int | None = None) -> Detection:
        if mode not in ("empirical", "fitted"):
            raise ValueError(f"unknown detection mode {mode!r}")
        if mode == "empirical" and (window_from is not None or window_to is not None):
            raise ValueError("empirical detection takes no window")
        for year in (window_from, window_to):
            if year is None:
                continue
            # `True` is an int, but no year.
            if isinstance(year, bool) or not isinstance(year, int):
                raise ValueError(f"window year {year!r} is not an integer")
            # `label` writes 'fitted:<from>-<to>', which a negative year
            # would make unparseable.
            if year < 0:
                raise ValueError(f"window year {year} is negative")
        return super().__new__(cls, mode, window_from, window_to)

    def label(self) -> str:
        lo, hi = self.window_from, self.window_to
        if lo is None and hi is None:
            return self.mode
        return f"fitted:{'' if lo is None else lo}-{'' if hi is None else hi}"


class Scenario(namedtuple("Scenario", "case target reference_media usage_metric detection knee_threshold")):
    """One complete choice along the uncertainty axes."""

    __slots__ = ()

    def __new__(cls, case: str, target: str, reference_media: str, usage_metric: UsageMetric,
                detection: Detection, knee_threshold: float) -> Scenario:
        _check_case(case)
        _check_threshold(knee_threshold)
        return super().__new__(cls, case, target, reference_media, usage_metric, detection, knee_threshold)

    @property
    def scenario_id(self) -> str:
        return _scenario_id(*self)


def _check_case(case: str) -> None:
    if case not in ("audio", "video"):
        raise ValueError(f"unknown case {case!r}")


def _check_threshold(knee_threshold: float) -> float:
    if not 0.0 < knee_threshold < 1.0:
        raise ValueError("knee threshold must be in (0, 1)")
    return knee_threshold


def _id_prefix(case: str, target: str, reference_media: str, metric_label: str, detection_label: str) -> str:
    """A scenario id up to its threshold."""
    return "|".join((case, target, reference_media, metric_label, detection_label, ""))


def _scenario_id(case: str, target: str, reference_media: str, usage_metric: UsageMetric,
                 detection: Detection, knee_threshold: float) -> str:
    return (_id_prefix(case, target, reference_media, usage_metric.label(), detection.label())
            + _threshold_label(knee_threshold))


def _threshold_label(knee_threshold: float) -> str:
    """The shortest text that parses back to the same threshold."""
    return repr(float(knee_threshold))


FitDiagnostics = namedtuple("FitDiagnostics", "replacement target crossover_extrapolated")
FitDiagnostics.__doc__ = """The two `ExpFit`s behind a fitted crossover; empirical detection has
none. `crossover_extrapolated` says whether the intersection lies outside
the span of both fit windows, and is None when the curves never intersect."""

SweepResult = namedtuple("SweepResult", "scenario crossover knee diagnostics", defaults=(None,))


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", float: "a number"}
_REQUIRED = object()


def _expect(raw, kind: type):
    """A config value of JSON type `kind`: dict, list, str, or float (a
    number, or a string holding one, returned as a float; `true` and
    `false` are not numbers)."""
    if kind is float and isinstance(raw, (int, str)) and not isinstance(raw, bool):
        # Through the text, so that an integer beyond a float's range reads
        # as infinite, as "1e400" does, where float(10**400) would raise.
        return _read_number(str(raw))
    if not isinstance(raw, kind):
        raise ValueError(f"expected {_JSON_NAMES[kind]}, got {json.dumps(raw, default=repr)}")
    return raw


def _field(doc, key: str, kind: type | None = None, default=_REQUIRED):
    """A field of a config object, checked by `_expect` when `kind` is
    given; required unless it has a default."""
    doc = _expect(doc, dict)
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"missing field {key!r}")
        return default
    return doc[key] if kind is None else _named(key, lambda: _expect(doc[key], kind))


def _known(doc, *keys: str) -> Mapping:
    """A config object whose keys are all among `keys`, those its parser reads."""
    for key in _expect(doc, dict):
        if key not in keys:
            raise ValueError(f"{key}: unknown config key")
    return doc


def _named(where: str, parse):
    """`parse()`, its ValueError prefixed with the config entry it parses."""
    try:
        return parse()
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _parse_usage_metric(raw) -> UsageMetric:
    """Accepts 'minutes', 'raw_bits' or 'units:<minutes>', as a label writes it."""
    if _expect(raw, str).startswith("units:"):
        return UsageMetric("units", _read_number(raw.split(":", 1)[1]))
    return UsageMetric(raw)


def _parse_detection(raw) -> Detection:
    """Accepts 'empirical', 'fitted' or 'fitted:<from>-<to>', as a label writes it."""
    if _expect(raw, str) in ("empirical", "fitted"):
        return Detection(raw)
    if raw.startswith("fitted:"):
        lo, _, hi = raw.split(":", 1)[1].partition("-")
        if not lo and hi[:1].isdigit() and "-" in hi:  # '-5-', '-5-2000': a from-year's sign
            lo, _, hi = hi.partition("-")
            lo = "-" + lo
        return Detection("fitted", _read_year(lo) if lo else None, _read_year(hi) if hi else None)
    raise ValueError(f"cannot parse detection from {raw!r}")


def parse_scenario_id(case: str, raw: str, threshold: float | None = None) -> Scenario:
    """The scenario of a `scenario_id`,
    'case|target|reference|metric|detection|threshold'. The case may be
    left out. The knee threshold is the id's, or else `threshold`, or else
    1%; an id that carries one refuses a `threshold`. Fields are read left
    to right, and a refusal names the field it could not read."""
    parts = raw.split("|")
    if len(parts) == 6 and parts[0] != case:
        raise ValueError(f"scenario id {raw!r} is for case {parts[0]!r}, not {case!r}")
    if parts[0] == case:
        parts = parts[1:]
    if len(parts) not in (4, 5):
        raise ValueError(f"scenario id {raw!r} needs target|reference|metric|detection[|threshold]")
    target, media, metric_text, detection_text, *carried = parts
    metric = _named("metric", lambda: _parse_usage_metric(metric_text))
    detection = _named("detection", lambda: _parse_detection(detection_text))
    if carried:
        if threshold is not None:
            raise ValueError(f"scenario id {raw!r} carries threshold {carried[0]}, so threshold "
                             f"{threshold!r} cannot be given too")
        threshold = _named("threshold", lambda: _check_threshold(_read_number(carried[0])))
    return Scenario(case, target, media, metric, detection, 0.01 if threshold is None else threshold)


class SweepConfig(namedtuple("SweepConfig", "case targets reference_media usage_metrics detection "
                             "knee_thresholds")):
    """Axis values for a cartesian sweep, in declaration order."""

    __slots__ = ()

    @classmethod
    def from_json(cls, doc: Mapping) -> "SweepConfig":
        for key in cls._fields:
            if key not in doc or (key != "case" and not doc[key]):
                raise ValueError(f"config needs at least one value for {key!r}")

        def each(key: str, parse=lambda raw: _expect(raw, str)) -> tuple:
            # A value equal to an earlier one would repeat its scenario ids.
            first: dict = {}
            for i, raw in enumerate(_named(key, lambda: _expect(doc[key], list))):
                value = _named(f"{key}[{i}]", lambda: parse(raw))
                if value in first:
                    raise ValueError(f"{key}[{i}]: duplicate of {key}[{first[value]}]")
                first[value] = i
            return tuple(first)

        return cls(
            case=_named("case", lambda: _expect(doc["case"], str)),
            targets=each("targets"),
            reference_media=each("reference_media"),
            usage_metrics=each("usage_metrics", _parse_usage_metric),
            detection=each("detection", _parse_detection),
            knee_thresholds=each("knee_thresholds", lambda raw: _check_threshold(_expect(raw, float))),
        )


def _product(config: SweepConfig) -> Iterator[tuple]:
    """The (target, reference media, usage metric, detection) of a sweep's
    scenarios, each once for all thresholds, in enumeration order: the
    product of the axes, once the case is checked. The stages resolve the
    names, so a refusal names its scenario."""
    _check_case(config.case)
    return product(config.targets, config.reference_media, config.usage_metrics, config.detection)


def enumerate_scenarios(config: SweepConfig, datasets: Datasets) -> list[Scenario]:
    """Cartesian product over the axes, in axis declaration order."""
    return [Scenario(config.case, *axes, threshold)
            for axes in _product(config) for threshold in config.knee_thresholds]


# ---------------------------------------------------------------------------
# config-declared extensions


def _number(doc: Mapping, key: str, default=_REQUIRED, *, integer: bool = False) -> float:
    """A finite number field, checked where it is read; with `integer` it
    must be a whole number, which may be written as a float (1080.0)."""
    value = _field(doc, key, float, default)
    if integer and not value.is_integer():
        raise ValueError(f"{key}: expected an integer, got {json.dumps(value)}")
    if not math.isfinite(value):
        raise ValueError(f"{key}: expected a finite number, got {json.dumps(value)}")
    return value


def _parse_custom_media(doc: Mapping) -> MediaSpec:
    """Media unit from JSON with explicit unit suffixes on every field, each
    checked as it is read: the kind, `length_seconds`, then the size, which
    is `override_size_gigabits` or else (audio rate + a video's pixel rate)
    × length. A key of the size not taken is refused before its values."""
    kind = _field(doc, "kind")
    if kind not in ("audio", "video"):
        raise ValueError(f"unknown media kind {kind!r}")
    length = _number(doc, "length_seconds")
    if not length > 0:
        raise ValueError("length must be positive")
    if "override_size_gigabits" in doc:
        return MediaSpec(kind, _number(_known(doc, "kind", "length_seconds", "override_size_gigabits"),
                                       "override_size_gigabits") * 1e9)
    video_keys = (("pixel_height", "pixel_width", "bits_per_pixel", "frames_per_second")
                  if kind == "video" else ())
    rate = _number(_known(doc, "kind", "length_seconds", "audio_bit_rate_kbps", *video_keys),
                   "audio_bit_rate_kbps", REFERENCE_BIT_RATES["audio"] / 1e3) * 1e3
    if not rate > 0:
        raise ValueError("audio bit rate must be positive")
    if kind == "video":
        height, width, depth = (_number(doc, key, integer=True) for key in video_keys[:3])
        if height <= 0 or width <= 0:
            raise ValueError("video needs positive pixel dimensions")
        fps = _number(doc, "frames_per_second")
        if depth <= 0 or not fps > 0:
            raise ValueError("video needs positive depth and frame rate")
        rate += height * width * depth * fps
    return MediaSpec(kind, rate * length)


def _parse_physical_media(case: str, doc: Mapping, resolve) -> PhysicalMediaSpec:
    kind = _field(doc, "kind")
    if kind not in ("analog", "digital"):
        raise ValueError(f"physical medium {doc.get('name')!r}: unknown kind {kind!r}")
    storage_keys = ("minutes_per_unit", "raw_bits_per_minute") if kind == "analog" else ("unit_storage_megabytes",)
    _known(doc, "name", "kind", "sales_path", "sales_scale", *storage_keys)
    sales = resolve(_field(doc, "sales_path", str), "count-per-year")
    if "sales_scale" in doc:
        sales = sales.scale(_number(doc, "sales_scale"))
    if kind == "analog":
        storage = AnalogStorage(
            minutes_per_unit=_number(doc, "minutes_per_unit"),
            raw_bits_per_minute=_number(doc, "raw_bits_per_minute", one_minute_size_bits(case)),
        )
    else:
        storage = DigitalStorage(unit_storage_megabytes=_number(doc, "unit_storage_megabytes"))
    return PhysicalMediaSpec(_field(doc, "name"), storage, sales)


_DECLARATIONS = ("custom_series", "custom_targets", "custom_media", "protocol_mix", "custom_physical_media")


def extend_datasets(datasets: Datasets, doc: Mapping, base_dir=None) -> Datasets:
    """Merge a scenario config's declarations into a new dataset bundle.

    `custom_series` (performance series from CSV) and `custom_targets`
    (mail weights in ounces, rounded up to the started ounce) add targets;
    `custom_media` adds reference media units, whose pixel fields are
    integers. A declared target or media name must be new (one that is
    bundled or already declared is refused) and hold no '|'.
    `protocol_mix` (a media share built from protocol tables) and
    `custom_physical_media` (a competitor set) replace the entry of their
    case, 'audio' or 'video'. Relative CSV paths resolve against
    `base_dir`. An invalid entry, an unknown case, a key that no parser
    reads or a number that is not finite raises ValueError naming it, e.g.
    `custom_series['drive']: missing field 'unit'`, `custom_targets['x']:
    wieght: unknown config key` or `custom_media['long']: length_seconds:
    expected a finite number, got Infinity`.
    """
    from pathlib import Path

    def resolve(path: str, unit: str) -> AnnualSeries:
        return parse_series_csv(Path(path) if base_dir is None else Path(base_dir) / path, unit)

    def objects(key: str) -> dict:
        return _named(key, lambda: _expect(doc[key], dict)) if doc.get(key) else {}

    def declare(table: dict, bundled: Mapping, key: str, what: str, parse) -> None:
        for name, spec in objects(key).items():
            where = f"{key}[{name!r}]"
            if name in table:
                origin = "a bundled" if name in bundled else "an already declared"
                raise ValueError(f"{where}: shadows {origin} {what}")
            if "|" in name:
                raise ValueError(f"{where}: '|' separates scenario id fields, so no name may hold it")
            table[name] = _named(where, lambda: parse(spec))

    def replace_cases(table: dict, key: str, parse, combine) -> None:
        for case, raw in objects(key).items():
            where = f"{key}[{case!r}]"
            if case not in ("audio", "video"):
                raise ValueError(f"{where}: unknown case (expected 'audio' or 'video')")
            entries = [_named(f"{where}[{i}]", lambda: parse(case, entry))
                       for i, entry in enumerate(_named(where, lambda: _expect(raw, list)))]
            table[case] = _named(where, lambda: combine(entries))

    _known(doc, *SweepConfig._fields, *_DECLARATIONS)
    targets, media = dict(datasets.targets), dict(datasets.reference_media)
    declare(targets, datasets.targets, "custom_series", "target", lambda spec: resolve(
        _field(_known(spec, "path", "unit"), "path", str), _field(spec, "unit", str)))
    declare(media, datasets.reference_media, "custom_media", "reference media unit", _parse_custom_media)
    declare(targets, datasets.targets, "custom_targets", "target", lambda spec: math.ceil(
        _number(_known(spec, "weight_ounces"), "weight_ounces")))
    shares, competitors = dict(datasets.media_share), dict(datasets.physical_media)
    replace_cases(shares, "protocol_mix", lambda case, entry: (
        resolve(_field(_known(entry, "path", "media_fraction"), "path", str), "dimensionless-share"),
        _number(entry, "media_fraction")
    ), protocol_mix)
    replace_cases(competitors, "custom_physical_media",
                  lambda case, entry: _parse_physical_media(case, entry, resolve), tuple)
    return datasets._replace(targets=targets, reference_media=media, media_share=shares,
                             physical_media=competitors)


# ---------------------------------------------------------------------------
# pipeline pieces


def replacement_performance(case: str, reference_media: str, datasets: Datasets) -> AnnualSeries:
    """Internet distribution performance for a case's reference unit."""
    spec = datasets.reference_media.get(reference_media)
    if spec is None:
        raise ValueError(f"unresolvable reference media {reference_media!r}")
    if spec.kind != case:
        raise ValueError(f"reference media {reference_media!r} is {spec.kind}, case is {case}")
    compression = datasets.compression[spec.kind]
    return internet_distribution_perf(datasets.bandwidth_real, compression, spec)


def target_performance(target: str, datasets: Datasets) -> AnnualSeries:
    """Mail performance for a target's weight over the bandwidth table's
    years, or the target's own performance series."""
    weight_or_series = datasets.targets.get(target)
    if weight_or_series is None:
        raise ValueError(f"unresolvable target {target!r}")
    if isinstance(weight_or_series, AnnualSeries):
        if weight_or_series.unit != "media-units-per-real-dollar":
            raise ValueError(f"custom target {target!r} tagged {weight_or_series.unit!r}")
        return weight_or_series
    years = datasets.bandwidth_real.years
    first = annualize(datasets.postage["first_ounce"], years)
    additional = annualize(datasets.postage["additional_ounce"], years)
    return mail_distribution_perf(weight_or_series, first, additional)


def adoption_series(case: str, metric: UsageMetric, datasets: Datasets) -> AnnualSeries:
    share = datasets.media_share[case]
    media = datasets.physical_media[case]
    if metric.kind == "raw_bits":
        internet = internet_media_raw_bits(datasets.traffic, share)
        physical = [(m.name, physical_media_raw_bits(m)) for m in media]
    else:
        compression = extend_compression(
            datasets.compression[case], datasets.traffic.years[0], datasets.traffic.years[-1]
        )
        one_min = one_minute_size_bits(case)
        internet = internet_media_minutes(datasets.traffic, share, compression, one_min)
        physical = [(m.name, analog_media_minutes(m) if isinstance(m.storage, AnalogStorage)
                     else digital_media_minutes(m, compression, one_min)) for m in media]
    return adoption_share(internet, physical, metric)


class _Stages:
    """The one evaluator: the pipeline stages over one datasets bundle,
    each memoised with `functools.cache` on its own arguments.

    A crossover depends only on (case, target, reference media, detection)
    and a knee only on (case, usage metric, threshold), so `tables`
    evaluates a sweep into one table of each, and `result` one scenario.
    `sweep_tables`, `run_scenario` and `reproduce_case_studies` each hold
    an instance for one call, and the `case` command one whose curves
    `--out` draws. Stages are looked up by their module names at call
    time, so patching `techknee.sweep.<stage>` sees every call. The memos
    close over each other, not over the instance, which therefore holds
    no reference cycle.
    """

    def __init__(self, datasets: Datasets) -> None:
        replacement = cache(lambda case, media: replacement_performance(case, media, datasets))
        target = cache(lambda name: target_performance(name, datasets))
        adoption = cache(lambda case, metric: adoption_series(case, metric, datasets))
        replacement_fit = cache(lambda case, media, window: fit_exponential(replacement(case, media), window))
        target_fit = cache(lambda name, window: fit_exponential(target(name), window))

        @cache
        def crossover(case: str, target_name: str, media: str,
                      detection: Detection) -> tuple[CrossoverResult, FitDiagnostics | None]:
            replacement_perf, target_perf = replacement(case, media), target(target_name)
            if detection.mode == "empirical":
                return crossover_empirical(replacement_perf, target_perf), None
            window = (detection.window_from, detection.window_to)
            fit_r, fit_t = replacement_fit(case, media, window), target_fit(target_name, window)
            result = crossover_fitted(fit_r, fit_t)
            extrapolated = None
            if result.fractional_year is not None:
                lo = min(fit_r.window[0], fit_t.window[0])
                hi = max(fit_r.window[1], fit_t.window[1])
                extrapolated = not lo <= result.fractional_year <= hi
            return result, FitDiagnostics(fit_r, fit_t, extrapolated)

        self.replacement, self.target, self.adoption, self.crossover = replacement, target, adoption, crossover
        self.knee = cache(lambda case, metric, threshold: knee(adoption(case, metric), threshold))

    def tables(self, config: SweepConfig) -> tuple[dict, dict]:
        """A sweep's two tables: (target, reference media, detection) ->
        (crossover, diagnostics), and usage metric -> its knee years, one
        per threshold in order. Scenario (target, media, metric,
        detection, the i-th threshold) has crossover `crossovers[target,
        media, detection]` and knee `knees[metric][i]`. The tables are
        filled walking the axis product in enumeration order, so a failure
        raises ScenarioError naming the first failing scenario."""
        case, thresholds = config.case, config.knee_thresholds
        crossovers, knees = {}, {}
        for target, media, metric, detection in _product(config):
            threshold = thresholds[0]
            try:
                crossovers[target, media, detection] = self.crossover(case, target, media, detection)
                if metric not in knees:
                    row = []
                    for threshold in thresholds:
                        row.append(self.knee(case, metric, threshold))
                    knees[metric] = tuple(row)
            except (TechkneeError, ValueError) as exc:
                scenario_id = _scenario_id(case, target, media, metric, detection, threshold)
                raise ScenarioError(f"scenario {scenario_id}: {exc}") from exc
        return crossovers, knees

    def result(self, scenario: Scenario) -> SweepResult:
        """One scenario, read from the tables of the sweep of it alone."""
        crossovers, knees = self.tables(SweepConfig(scenario.case, *((value,) for value in scenario[1:])))
        ((crossover, diagnostics),), ((year,),) = crossovers.values(), knees.values()
        return SweepResult(scenario, crossover, year, diagnostics)


def run_scenario(scenario: Scenario, datasets: Datasets) -> SweepResult:
    """Full pipeline for one scenario."""
    return _Stages(datasets).result(scenario)


def sweep_tables(config: SweepConfig, datasets: Datasets) -> tuple[dict, dict]:
    """A sweep's two tables (`_Stages.tables`), each event computed once."""
    return _Stages(datasets).tables(config)


def run_sweep(config: SweepConfig, datasets: Datasets) -> list[SweepResult]:
    """`sweep_tables` expanded into one result per scenario, in enumeration order."""
    crossovers, knees = sweep_tables(config, datasets)
    return [SweepResult(Scenario(config.case, target, media, metric, detection, threshold), crossover, k, diagnostics)
            for target, media, metric, detection in _product(config)
            for crossover, diagnostics in (crossovers[target, media, detection],)
            for threshold, k in zip(config.knee_thresholds, knees[metric])]


def feasibility_range(tables: tuple[dict, dict], group_by: str | None = None) -> list[dict]:
    """Min/max crossover and knee years per group of a sweep's scenarios,
    in label order, as the entries of `feasibility.json`: `label`,
    `n_scenarios`, `crossover` [min, max], `crossover_absent`, `knee`
    [min, max] and `knee_absent`, with null for a range that has no year.

    `tables` are a sweep's (`sweep_tables`). `group_by` names an axis
    ("target", "reference_media", "usage_metric", "detection"); None
    pools everything under the label "all". A sweep is the product of its
    axes, so a group pairs each of its crossovers with each knee of its
    rows: a target's `crossover_absent` is its absent crossovers times
    the knees of all rows. Absent events are counted, not ranged.
    """
    crossovers, knees = tables
    if not crossovers or not knees:
        raise ValueError("no results to aggregate")
    position = {None: None, "target": 0, "reference_media": 1, "detection": 2, "usage_metric": None}[group_by]
    # Group value (None: all of them) -> the crossover years, and the knee years of its rows; None where absent.
    crossings, knee_years = {}, {}
    for key, (crossover, _) in crossovers.items():
        crossings.setdefault(None if position is None else key[position], []).append(crossover.year)
    for metric, row in knees.items():
        knee_years.setdefault(metric if group_by == "usage_metric" else None, []).extend(row)
    ranges = []
    for (x_value, xs), (k_value, ks) in product(crossings.items(), knee_years.items()):
        value = k_value if x_value is None else x_value
        present_x, present_k = [x for x in xs if x is not None], [k for k in ks if k is not None]
        ranges.append({
            "label": "all" if value is None else value if isinstance(value, str) else value.label(),
            "n_scenarios": len(xs) * len(ks),
            "crossover": [min(present_x, default=None), max(present_x, default=None)],
            "crossover_absent": (len(xs) - len(present_x)) * len(ks),
            "knee": [min(present_k, default=None), max(present_k, default=None)],
            "knee_absent": (len(ks) - len(present_k)) * len(xs),
        })
    return sorted(ranges, key=lambda entry: entry["label"])


# ---------------------------------------------------------------------------
# reproduction of the published tables


Cell = namedtuple("Cell", "cell_id table case label expected tolerance computed status note", defaults=("",))
Cell.__doc__ = """One published table cell checked against the pipeline; `status` is
exact, within_tolerance, deviation or unsupported."""

RangeCheck = namedtuple("RangeCheck", "range_id case expected computed status")
RangeCheck.__doc__ = "A published feasibility range checked against computed cells."


class ReproductionReport(namedtuple("ReproductionReport", "cells ranges curves")):
    __slots__ = ()

    @property
    def deviations(self) -> list[str]:
        ids = [c.cell_id for c in self.cells if c.status == "deviation"]
        ids += [r.range_id for r in self.ranges if r.status == "deviation"]
        return ids

    def to_json(self) -> str:
        """Cells and ranges keyed by field name, the first field as "id"."""
        def record(row: tuple) -> dict:
            return {"id": row[0], **dict(zip(row._fields[1:], row[1:]))}

        doc = {
            "cells": [record(c) for c in self.cells],
            "ranges": [record(r) for r in self.ranges],
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


# The scenario each case's `techknee case` runs by default, and the one the
# reproduction's curves show: a scenario id without its case and threshold.
_BASELINE = {
    "audio": "mail_cd|album|minutes|empirical",
    "video": "mail_dvd|clip|minutes|empirical",
}

# (cell_id, table, case, label, scenario id, event, expected, tolerance[, note]);
# `techknee case <case> --scenario <id>` re-runs a cell.
# Tolerance policy: baseline cells exact; ±1 for cells sensitive to the
# documented convention ambiguities (usage-metric conventions, late-2000s
# postage changes, regression windows). The drive-to-store cells come last:
# the source tables give them no cost model, so they have no scenario and
# no expected year, and are scored unsupported; a custom target series can
# explore them.
_NO_COST_MODEL = "no published cost model; supply a custom target series to explore"
_CELL_SPECS: tuple = (
    ("t2_audio_mail_cd", "table2", "audio", "mail CD", "mail_cd|album|minutes|empirical|0.01", "crossover", 1998, 0),
    ("t2_audio_mail_cassette", "table2", "audio", "mail cassette", "mail_cassette|album|minutes|empirical|0.01", "crossover", 1997, 0),
    ("t2_video_mail_dvd", "table2", "video", "mail DVD", "mail_dvd|clip|minutes|empirical|0.01", "crossover", 2002, 0),
    ("t3_audio_minutes_1pct", "table3", "audio", "minutes knee above 1%", "mail_cd|album|minutes|empirical|0.01", "knee", 1999, 0),
    ("t3_audio_minutes_10pct", "table3", "audio", "minutes knee above 10%", "mail_cd|album|minutes|empirical|0.1", "knee", 2001, 0),
    ("t3_audio_raw_1pct", "table3", "audio", "raw-data knee above 1%", "mail_cd|album|raw_bits|empirical|0.01", "knee", 1999, 1),
    ("t3_audio_raw_10pct", "table3", "audio", "raw-data knee above 10%", "mail_cd|album|raw_bits|empirical|0.1", "knee", 2001, 1),
    ("t3_audio_songs_1pct", "table3", "audio", "3-min songs knee above 1%", "mail_cd|album|units:3|empirical|0.01", "knee", 1999, 1),
    ("t3_audio_songs_10pct", "table3", "audio", "3-min songs knee above 10%", "mail_cd|album|units:3|empirical|0.1", "knee", 2000, 1),
    ("t3_video_minutes_1pct", "table3", "video", "minutes knee above 1%", "mail_dvd|clip|minutes|empirical|0.01", "knee", 2001, 0),
    ("t3_video_minutes_10pct", "table3", "video", "minutes knee above 10%", "mail_dvd|clip|minutes|empirical|0.1", "knee", 2003, 1),
    ("t3_video_raw_1pct", "table3", "video", "raw-data knee above 1%", "mail_dvd|clip|raw_bits|empirical|0.01", "knee", 2001, 1),
    ("t3_video_raw_10pct", "table3", "video", "raw-data knee above 10%", "mail_dvd|clip|raw_bits|empirical|0.1", "knee", 2005, 1),
    ("t3_video_movies_1pct", "table3", "video", "movies knee above 1%", "mail_dvd|clip|units:90|empirical|0.01", "knee", 2000, 1),
    ("t3_video_movies_10pct", "table3", "video", "movies knee above 10%", "mail_dvd|clip|units:90|empirical|0.1", "knee", 2002, 1),
    ("t4_audio_album", "table4", "audio", "album reference", "mail_cd|album|minutes|empirical|0.01", "crossover", 1998, 0),
    ("t4_audio_song", "table4", "audio", "3-min song reference", "mail_cd|song|minutes|empirical|0.01", "crossover", 1992, 0),
    ("t4_video_clip", "table4", "video", "5-min clip reference", "mail_dvd|clip|minutes|empirical|0.01", "crossover", 2002, 0),
    ("t4_video_sd_movie", "table4", "video", "90-min SD movie reference", "mail_dvd|sd_movie|minutes|empirical|0.01", "crossover", 2007, 1),
    ("t4_video_hd_movie", "table4", "video", "90-min HD movie reference", "mail_dvd|hd_movie|minutes|empirical|0.01", "crossover", 2008, 1),
    ("t5_audio_empirical", "table5", "audio", "empirical data", "mail_cd|album|minutes|empirical|0.01", "crossover", 1998, 0),
    ("t5_audio_fit_all", "table5", "audio", "exponential regression, all data", "mail_cd|album|minutes|fitted|0.01", "crossover", 1996, 1),
    ("t5_audio_fit_from1995", "table5", "audio", "exponential regression, from 1995", "mail_cd|album|minutes|fitted:1995-|0.01", "crossover", 2001, 1),
    ("t5_video_empirical", "table5", "video", "empirical data", "mail_dvd|clip|minutes|empirical|0.01", "crossover", 2002, 0),
    ("t5_video_fit_all", "table5", "video", "exponential regression, all data", "mail_dvd|clip|minutes|fitted|0.01", "crossover", 2001, 1),
    ("t5_video_fit_from1995", "table5", "video", "exponential regression, from 1995", "mail_dvd|clip|minutes|fitted:1995-|0.01", "crossover", 2002, 1),
    ("t2_audio_drive", "table2", "audio", "drive to store", None, None, None, 0, _NO_COST_MODEL),
    ("t2_video_drive", "table2", "video", "drive to store", None, None, None, 0, _NO_COST_MODEL),
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
    for cell_id, table, case, label, scenario_id, event, expected, tolerance, *note in _CELL_SPECS:
        computed = None
        if scenario_id is not None:
            result = stages.result(parse_scenario_id(case, scenario_id))
            computed = result.crossover.year if event == "crossover" else result.knee
        if event == "crossover" and computed is not None:
            crossover_years[case].append(computed)
        cells.append(Cell(cell_id, table, case, label, expected, tolerance, computed,
                          _score(expected, tolerance, computed), *note))

    ranges = []
    for range_id, case, expected in _RANGE_SPECS:
        years = crossover_years[case]
        computed = (min(years), max(years)) if years else None
        status = "exact" if computed == expected else "deviation"
        ranges.append(RangeCheck(range_id, case, expected, computed, status))

    curves = {}
    for case, scenario_id in _BASELINE.items():
        base = parse_scenario_id(case, scenario_id)
        curves[case] = {
            "replacement": stages.replacement(case, base.reference_media),
            "target": stages.target(base.target),
            "adoption": stages.adoption(case, base.usage_metric),
        }
    return ReproductionReport(tuple(cells), tuple(ranges), curves)
