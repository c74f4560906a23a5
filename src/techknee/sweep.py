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
from typing import Iterator, Mapping, NamedTuple

from .adoption import DomainUsage, UsageMetric, adoption_share, analog_media_minutes, \
    digital_media_minutes, extend_compression, internet_media_minutes, \
    internet_media_raw_bits, physical_media_raw_bits, protocol_mix, \
    AnalogStorage, DigitalStorage, PhysicalMediaSpec
from .costs import MailSpec, MediaSpec, internet_distribution_perf, mail_distribution_perf, \
    one_minute_size_bits
from .datasets import Datasets
from .errors import TechkneeError
from .fitting import CrossoverResult, KneeResult, crossover_empirical, \
    crossover_fitted, fit_exponential, knee
from .series import AnnualSeries, annualize, parse_series_csv


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
            # A JSON `true` is a Python int; it is not a year.
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
        _check_scenario(case, knee_threshold)
        return super().__new__(cls, case, target, reference_media, usage_metric, detection, knee_threshold)

    @property
    def scenario_id(self) -> str:
        return _scenario_id(self.case, self.target, self.reference_media, self.usage_metric,
                            self.detection, self.knee_threshold)


def _check_scenario(case: str, knee_threshold: float) -> None:
    if case not in ("audio", "video"):
        raise ValueError(f"unknown case {case!r}")
    if not 0.0 < knee_threshold < 1.0:
        raise ValueError("knee threshold must be in (0, 1)")


def _scenario_id(case: str, target: str, reference_media: str, usage_metric: UsageMetric,
                 detection: Detection, knee_threshold: float) -> str:
    return "|".join([case, target, reference_media, usage_metric.label(), detection.label(),
                     _threshold_label(knee_threshold)])


def _threshold_label(knee_threshold: float) -> str:
    """The shortest text that parses back to the same threshold."""
    return repr(float(knee_threshold))


class FitDiagnostics(NamedTuple):
    """The two fits behind a fitted crossover; empirical detection has none.
    `crossover_extrapolated` says whether the intersection lies outside the
    span of both fit windows, and is None when the curves never intersect."""

    replacement_a: float
    replacement_k: float
    replacement_r_squared: float
    target_a: float
    target_k: float
    target_r_squared: float
    crossover_extrapolated: bool | None


class SweepResult(NamedTuple):
    scenario: Scenario
    crossover: CrossoverResult
    knee: KneeResult
    diagnostics: FitDiagnostics | None = None


class SweepBlock(NamedTuple):
    """The scenarios of a sweep that differ only in their knee threshold.

    They share one crossover and its diagnostics; `knees` follows the
    config's thresholds in order and is shared by every block with the
    same usage metric.
    """

    target: str
    reference_media: str
    usage_metric: UsageMetric
    detection: Detection
    crossover: CrossoverResult
    diagnostics: FitDiagnostics | None
    knees: tuple[KneeResult, ...]


class FeasibilityRange(NamedTuple):
    """Min/max event years over a scenario group, absences counted."""

    label: str
    n_scenarios: int
    crossover_min: int | None
    crossover_max: int | None
    crossover_absent: int
    knee_min: int | None
    knee_max: int | None
    knee_absent: int


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", float: "a number"}
_REQUIRED = object()


def _expect(raw, kind: type):
    """A config value of JSON type `kind`: dict, list, str, or float (a
    number, or a string holding one, returned as a float)."""
    if kind is float and isinstance(raw, (int, str)):
        return float(raw)
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


def parse_usage_metric(raw) -> UsageMetric:
    """Accepts 'minutes', 'raw_bits', 'units:<minutes>', or a JSON object."""
    if isinstance(raw, str):
        if raw.startswith("units:"):
            return UsageMetric.units(float(raw.split(":", 1)[1]))
        return UsageMetric(raw)
    if isinstance(raw, dict):
        _known(raw, "kind", "unit_length_minutes")
        return UsageMetric(_field(raw, "kind"), _field(raw, "unit_length_minutes", float, None))
    raise ValueError(f"cannot parse usage metric from {raw!r}")


def parse_detection(raw) -> Detection:
    """Accepts 'empirical', 'fitted', 'fitted:<from>-<to>', or a JSON object."""
    if isinstance(raw, str):
        if raw == "empirical":
            return Detection("empirical")
        if raw == "fitted":
            return Detection("fitted")
        if raw.startswith("fitted:"):
            lo, _, hi = raw.split(":", 1)[1].partition("-")
            return Detection("fitted", int(lo) if lo else None, int(hi) if hi else None)
    if isinstance(raw, dict):
        _known(raw, "mode", "from", "to")
        return Detection(raw.get("mode", "fitted"), raw.get("from"), raw.get("to"))
    raise ValueError(f"cannot parse detection from {raw!r}")


def parse_scenario_id(case: str, raw: str, default_threshold: float) -> Scenario:
    """The scenario of a `scenario_id`,
    'case|target|reference|metric|detection|threshold'. The case may be
    left out, and so may the threshold, which is then `default_threshold`."""
    parts = raw.split("|")
    if parts and parts[0] == case:
        parts = parts[1:]
    if len(parts) not in (4, 5):
        raise ValueError(f"scenario id {raw!r} needs target|reference|metric|detection[|threshold]")
    target, media, metric, detection, *threshold = parts
    return Scenario(case, target, media, parse_usage_metric(metric), parse_detection(detection),
                    float(threshold[0]) if threshold else default_threshold)


class SweepConfig(NamedTuple):
    """Axis values for a cartesian sweep, in declaration order."""

    case: str
    targets: tuple[str, ...]
    reference_media: tuple[str, ...]
    usage_metrics: tuple[UsageMetric, ...]
    detection: tuple[Detection, ...]
    knee_thresholds: tuple[float, ...]

    @classmethod
    def from_json(cls, doc: Mapping) -> "SweepConfig":
        for key in cls._fields:
            if key not in doc or (key != "case" and not doc[key]):
                raise ValueError(f"config needs at least one value for {key!r}")

        def each(key: str, parse) -> tuple:
            # A value equal to an earlier one would repeat its scenario ids.
            first: dict = {}
            for i, raw in enumerate(_named(key, lambda: _expect(doc[key], list))):
                value = _named(f"{key}[{i}]", lambda: parse(raw))
                if value in first:
                    raise ValueError(f"{key}[{i}]: duplicate of {key}[{first[value]}]")
                first[value] = i
            return tuple(first)

        def name(raw) -> str:
            return _expect(raw, str)

        return cls(
            case=_named("case", lambda: name(doc["case"])),
            targets=each("targets", name),
            reference_media=each("reference_media", name),
            usage_metrics=each("usage_metrics", parse_usage_metric),
            detection=each("detection", parse_detection),
            knee_thresholds=each("knee_thresholds", lambda raw: _expect(raw, float)),
        )


def _blocks(config: SweepConfig, datasets: Datasets) -> Iterator[tuple]:
    """(target, reference media, usage metric, detection) of each block in
    enumeration order, raising the error of the first invalid scenario."""
    checked = False
    for target in config.targets:
        if target not in datasets.targets:
            raise ValueError(f"unresolvable target {target!r}")
        for media in config.reference_media:
            if media not in datasets.reference_media:
                raise ValueError(f"unresolvable reference media {media!r}")
            if not checked:
                for threshold in config.knee_thresholds:
                    _check_scenario(config.case, threshold)
                checked = True
            for metric in config.usage_metrics:
                for detection in config.detection:
                    yield target, media, metric, detection


def enumerate_scenarios(config: SweepConfig, datasets: Datasets) -> list[Scenario]:
    """Cartesian product over the axes, in axis declaration order."""
    return [
        Scenario(config.case, target, media, metric, detection, threshold)
        for target, media, metric, detection in _blocks(config, datasets)
        for threshold in config.knee_thresholds
    ]


# ---------------------------------------------------------------------------
# config-declared extensions


def _integer(doc: Mapping, key: str) -> int:
    """An integer field; a whole number written as a float (1080.0) counts."""
    value = _field(doc, key, float)
    if not value.is_integer():
        raise ValueError(f"{key}: expected an integer, got {json.dumps(value)}")
    return int(value)


def _weight_ounces(doc: Mapping) -> int:
    """A mail weight rounded up to the started ounce, as postage charges it."""
    weight = _field(_known(doc, "weight_ounces"), "weight_ounces", float)
    if not math.isfinite(weight):
        raise ValueError(f"weight_ounces: expected a finite number, got {json.dumps(weight)}")
    return math.ceil(weight)


def _parse_custom_media(doc: Mapping) -> MediaSpec:
    """Media unit from JSON with explicit unit suffixes on every field."""
    kind = _field(doc, "kind")
    fields = dict(kind=kind, length_seconds=_field(doc, "length_seconds", float))
    if "override_size_gigabits" in doc:
        size_keys = ("override_size_gigabits",)
        fields["override_size_bits"] = _field(doc, "override_size_gigabits", float) * 1e9
    else:
        # The size is derived, from the audio rate and any video geometry.
        size_keys = ("audio_bit_rate_kbps",)
        fields["audio_bit_rate"] = _field(doc, "audio_bit_rate_kbps", float, 633.6) * 1e3
        if kind == "video":
            size_keys += ("pixel_height", "pixel_width", "bits_per_pixel", "frames_per_second")
            fields.update(
                pixel_height=_integer(doc, "pixel_height"),
                pixel_width=_integer(doc, "pixel_width"),
                bits_per_pixel=_integer(doc, "bits_per_pixel"),
                frames_per_second=_field(doc, "frames_per_second", float),
            )
    spec = MediaSpec(**fields)
    _known(doc, "kind", "length_seconds", *size_keys)
    return spec


def _parse_physical_media(case: str, doc: Mapping, resolve) -> PhysicalMediaSpec:
    kind = _field(doc, "kind")
    if kind not in ("analog", "digital"):
        raise ValueError(f"physical medium {doc.get('name')!r}: unknown kind {kind!r}")
    storage_keys = ("minutes_per_unit", "raw_bits_per_minute") if kind == "analog" else ("unit_storage_megabytes",)
    _known(doc, "name", "kind", "sales_path", "sales_scale", *storage_keys)
    sales = resolve(_field(doc, "sales_path", str), "count-per-year")
    if "sales_scale" in doc:
        sales = sales.scale(_field(doc, "sales_scale", float))
    if kind == "analog":
        storage = AnalogStorage(
            minutes_per_unit=_field(doc, "minutes_per_unit", float),
            raw_bits_per_minute=_field(doc, "raw_bits_per_minute", float, one_minute_size_bits(case)),
        )
    else:
        storage = DigitalStorage(unit_storage_megabytes=_field(doc, "unit_storage_megabytes", float))
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
    `base_dir`. An invalid entry, an unknown case or a key that no parser
    reads, at the top level or in an entry, raises ValueError naming it,
    e.g. `custom_series['drive']: missing field 'unit'` or
    `custom_targets['x']: wieght: unknown config key`.
    """
    from pathlib import Path

    def resolve(path: str, unit: str) -> AnnualSeries:
        p = Path(path)
        if base_dir is not None and not p.is_absolute():
            p = Path(base_dir) / p
        try:
            return parse_series_csv(p, unit)
        except FileNotFoundError:
            raise ValueError(f"no such file: {p}") from None

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
    declare(targets, datasets.targets, "custom_targets", "target", _weight_ounces)
    shares, competitors = dict(datasets.media_share), dict(datasets.physical_media)
    replace_cases(shares, "protocol_mix", lambda case, entry: (
        resolve(_field(_known(entry, "path", "media_fraction"), "path", str), "dimensionless-share"),
        _field(entry, "media_fraction", float)
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
    return mail_distribution_perf(MailSpec(weight_or_series, first, additional))


def domain_usages(case: str, metric: UsageMetric, datasets: Datasets) -> tuple[DomainUsage, list[DomainUsage]]:
    """Internet and physical-media usage series in the chosen metric."""
    compression = extend_compression(
        datasets.compression[case], datasets.traffic.years[0], datasets.traffic.years[-1]
    )
    share = datasets.media_share[case]
    one_min = one_minute_size_bits(case)
    media = datasets.physical_media[case]

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


def adoption_series(case: str, metric: UsageMetric, datasets: Datasets) -> AnnualSeries:
    internet, physical = domain_usages(case, metric, datasets)
    return adoption_share(internet, physical, metric)


class _Stages:
    """The pipeline stages over one datasets bundle, each distinct input
    computed once.

    A crossover depends only on (case, target, reference media, detection)
    and a knee only on (case, usage metric, threshold), so scenarios that
    share those keys share one result. Stages are looked up by their
    module names at call time, so patching `techknee.sweep.<stage>` sees
    every call. An instance lives for one call of `run_scenario`,
    `sweep_blocks` or `reproduce_case_studies`.
    """

    def __init__(self, datasets: Datasets) -> None:
        self.datasets = datasets
        self._memo: dict[tuple, object] = {}

    def _once(self, key: tuple, compute, *args):
        """`compute(*args)`, computed once per key; keys start with their stage."""
        if key not in self._memo:
            self._memo[key] = compute(*args)
        return self._memo[key]

    def replacement(self, case: str, reference_media: str) -> AnnualSeries:
        return self._once(("replacement", case, reference_media), replacement_performance,
                          case, reference_media, self.datasets)

    def target(self, target: str) -> AnnualSeries:
        return self._once(("target", target), target_performance, target, self.datasets)

    def adoption(self, case: str, metric: UsageMetric) -> AnnualSeries:
        return self._once(("adoption", case, metric), adoption_series, case, metric, self.datasets)

    def crossover(self, case: str, target: str, reference_media: str,
                  detection: Detection) -> tuple[CrossoverResult, FitDiagnostics | None]:
        """The crossover and its diagnostics, shared by every scenario with
        the same crossover key."""
        return self._once(("crossover", case, target, reference_media, detection),
                          self._detect_crossover, case, target, reference_media, detection)

    def _detect_crossover(self, case: str, target_name: str, reference_media: str,
                          detection: Detection) -> tuple[CrossoverResult, FitDiagnostics | None]:
        replacement = self.replacement(case, reference_media)
        target = self.target(target_name)
        if detection.mode == "empirical":
            return crossover_empirical(replacement, target), None
        window = (detection.window_from, detection.window_to)
        fit_r = self._once(("fit", "replacement", case, reference_media, window),
                           fit_exponential, replacement, window)
        fit_t = self._once(("fit", "target", target_name, window), fit_exponential, target, window)
        crossover = crossover_fitted(fit_r, fit_t)
        extrapolated = None
        if crossover.fractional_year is not None:
            lo = min(fit_r.window[0], fit_t.window[0])
            hi = max(fit_r.window[1], fit_t.window[1])
            extrapolated = not lo <= crossover.fractional_year <= hi
        return crossover, FitDiagnostics(fit_r.a, fit_r.k, fit_r.r_squared,
                                         fit_t.a, fit_t.k, fit_t.r_squared, extrapolated)

    def knee(self, case: str, metric: UsageMetric, threshold: float) -> KneeResult:
        return self._once(("knee", case, metric, threshold), knee, self.adoption(case, metric), threshold)

    def run(self, scenario: Scenario) -> SweepResult:
        s = scenario
        try:
            crossover, diagnostics = self.crossover(s.case, s.target, s.reference_media, s.detection)
            knee_result = self.knee(s.case, s.usage_metric, s.knee_threshold)
        except (TechkneeError, ValueError, KeyError) as exc:
            raise ScenarioError(f"scenario {scenario.scenario_id}: {exc}") from exc
        return SweepResult(scenario, crossover, knee_result, diagnostics)


def run_scenario(scenario: Scenario, datasets: Datasets) -> SweepResult:
    """Full pipeline for one scenario; deterministic, errors annotated."""
    return _Stages(datasets).run(scenario)


def sweep_blocks(config: SweepConfig, datasets: Datasets) -> list[SweepBlock]:
    """Evaluate a sweep one block at a time, in enumeration order.

    A block is one (target, reference media, usage metric, detection)
    with all of the config's thresholds. Each distinct crossover and knee
    is computed once. A failure raises ScenarioError naming the first
    failing scenario in enumeration order.
    """
    stages = _Stages(datasets)
    case, thresholds = config.case, config.knee_thresholds
    knees: dict[UsageMetric, tuple[KneeResult, ...]] = {}
    blocks = []
    for target, media, metric, detection in _blocks(config, datasets):
        threshold = thresholds[0]  # names the failing scenario below
        try:
            crossover, diagnostics = stages.crossover(case, target, media, detection)
            if metric not in knees:
                row = []
                for threshold in thresholds:
                    row.append(stages.knee(case, metric, threshold))
                knees[metric] = tuple(row)
        except (TechkneeError, ValueError, KeyError) as exc:
            scenario_id = _scenario_id(case, target, media, metric, detection, threshold)
            raise ScenarioError(f"scenario {scenario_id}: {exc}") from exc
        blocks.append(SweepBlock(target, media, metric, detection, crossover, diagnostics, knees[metric]))
    return blocks


def run_sweep(config: SweepConfig, datasets: Datasets) -> list[SweepResult]:
    """Evaluate every scenario; output order follows the enumeration.

    The results expand `sweep_blocks`: each distinct crossover and knee is
    computed once and joined onto every scenario that shares its key, and
    a failure names the first failing scenario in enumeration order.
    """
    return [
        SweepResult(Scenario(config.case, b.target, b.reference_media, b.usage_metric, b.detection,
                             threshold), b.crossover, k, b.diagnostics)
        for b in sweep_blocks(config, datasets)
        for threshold, k in zip(config.knee_thresholds, b.knees)
    ]


def _label(value) -> str:
    if isinstance(value, (UsageMetric, Detection)):
        return value.label()
    return str(value)


def feasibility_range(blocks: list[SweepBlock], group_by: str | None = None) -> list[FeasibilityRange]:
    """Min/max crossover and knee years per group of a sweep's scenarios,
    in label order.

    `group_by` names a block axis ("target", "reference_media",
    "usage_metric", "detection"); None pools everything under the label
    "all". Absent events are counted, not ranged.
    """
    knee_spans: dict[UsageMetric, tuple] = {}
    groups: dict[str, tuple[list[int], list[int], list[int]]] = {}
    for b in blocks:
        span = knee_spans.get(b.usage_metric)
        if span is None:
            years = [k.year for k in b.knees if k.year is not None]
            span = knee_spans[b.usage_metric] = (
                [min(years), max(years)] if years else [], len(b.knees) - len(years)
            )
        knee_extremes, knees_absent = span
        label = "all" if group_by is None else _label(getattr(b, group_by))
        counts, crossings, knees = groups.setdefault(label, ([0, 0, 0], [], []))
        n = len(b.knees)
        counts[0] += n
        if b.crossover.year is None:
            counts[1] += n
        else:
            crossings.append(b.crossover.year)
        knees += knee_extremes
        counts[2] += knees_absent
    if not groups:
        raise ValueError("no results to aggregate")
    return [
        FeasibilityRange(
            label=label,
            n_scenarios=n,
            crossover_min=min(crossings) if crossings else None,
            crossover_max=max(crossings) if crossings else None,
            crossover_absent=crossover_absent,
            knee_min=min(knees) if knees else None,
            knee_max=max(knees) if knees else None,
            knee_absent=knee_absent,
        )
        for label, ((n, crossover_absent, knee_absent), crossings, knees) in sorted(groups.items())
    ]


# ---------------------------------------------------------------------------
# reproduction of the published tables


class Cell(NamedTuple):
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


class RangeCheck(NamedTuple):
    """A published feasibility range checked against computed cells."""

    range_id: str
    case: str
    expected: tuple[int, int]
    computed: tuple[int, int] | None
    status: str


class ReproductionReport(NamedTuple):
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

# (cell_id, table, case, label, scenario id, event, expected, tolerance);
# `techknee case <case> --scenario <id>` re-runs a cell.
# Tolerance policy: baseline cells exact; ±1 for cells sensitive to the
# documented convention ambiguities (usage-metric conventions, late-2000s
# postage changes, regression windows).
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
    for cell_id, table, case, label, scenario_id, event, expected, tolerance in _CELL_SPECS:
        result = stages.run(parse_scenario_id(case, scenario_id, 0.01))
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
    for case, scenario_id in _BASELINE.items():
        base = parse_scenario_id(case, scenario_id, 0.01)
        curves[case] = {
            "replacement": stages.replacement(case, base.reference_media),
            "target": stages.target(base.target),
            "adoption": stages.adoption(case, base.usage_metric),
        }
    return ReproductionReport(tuple(cells), tuple(ranges), curves)
