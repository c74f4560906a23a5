"""Traced in-process run: spans around the calls into each techknee module.

The tracer replaces public names at the place the caller looks them up
(`techknee.sweep.fit_exponential`, `techknee.cli.run_sweep`, ...) and
`AnnualSeries.__post_init__` on the class, records one span per call
(name, start, end, parent span, invocation) in memory, and restores
every name when the run ends. Nothing is printed.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

# (module attribute holding the callee, span name, key kind for `_useful`)
SITES = (
    ("cli", "load_all", "datasets.load_all", None),
    ("cli", "parse_series_csv", "datasets.parse_series_csv", None),
    ("sweep", "parse_series_csv", "datasets.parse_series_csv", None),
    ("sweep", "extend_datasets", "sweep.extend_datasets", None),
    ("cli", "run_sweep", "sweep.run_sweep", None),
    ("sweep", "enumerate_scenarios", "sweep.enumerate_scenarios", None),
    ("cli", "run_scenario", "sweep.run_scenario", "scenario"),
    ("sweep", "run_scenario", "sweep.run_scenario", "scenario"),
    ("sweep", "replacement_performance", "sweep.replacement_performance", "args"),
    ("sweep", "target_performance", "sweep.target_performance", "args"),
    ("sweep", "adoption_series", "sweep.adoption_series", "args"),
    ("cli", "feasibility_range", "sweep.feasibility_range", None),
    ("cli", "reproduce_case_studies", "sweep.reproduce_case_studies", None),
    ("sweep", "annualize", "series.annualize", None),
    ("sweep", "internet_distribution_perf", "costs.internet_distribution_perf", None),
    ("sweep", "mail_distribution_perf", "costs.mail_distribution_perf", None),
    ("sweep", "extend_compression", "adoption.usage_build", None),
    ("sweep", "internet_media_minutes", "adoption.usage_build", None),
    ("sweep", "internet_media_raw_bits", "adoption.usage_build", None),
    ("sweep", "physical_media_raw_bits", "adoption.usage_build", None),
    ("sweep", "analog_media_minutes", "adoption.usage_build", None),
    ("sweep", "digital_media_minutes", "adoption.usage_build", None),
    ("sweep", "protocol_mix", "adoption.usage_build", None),
    ("sweep", "adoption_share", "adoption.adoption_share", None),
    ("cli", "fit_exponential", "fitting.fit_exponential", "args"),
    ("sweep", "fit_exponential", "fitting.fit_exponential", "args"),
    ("cli", "crossover_empirical", "fitting.crossover", "crossover"),
    ("cli", "crossover_fitted", "fitting.crossover", "crossover"),
    ("sweep", "crossover_empirical", "fitting.crossover", "crossover"),
    ("sweep", "crossover_fitted", "fitting.crossover", "crossover"),
    ("cli", "knee", "fitting.knee", "knee"),
    ("sweep", "knee", "fitting.knee", "knee"),
    ("cli", "write_tidy_csv", "plots.write_tidy_csv", "bytes"),
    ("cli", "write_case_svg", "plots.write_case_svg", "bytes"),
)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.invocation = array("i")
        self.current_invocation = -1
        self.keys: dict[str, set] = {}
        self.bytes_written = 0
        self._stack: list[int] = []
        self._scenarios: list = []
        self._fingerprints: dict[int, tuple] = {}
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, key=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        def traced(*args, **kwargs):
            if key is not None:
                self.keys.setdefault(name, set()).add(key(*args, **kwargs))
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.invocation.append(self.current_invocation)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self.start[i] = t0
                self._stack.pop()

        return traced

    def _value(self, obj):
        """The argument itself, or a value fingerprint when it is unhashable
        (a Datasets bundle); fingerprints are cached per object."""
        hit = self._fingerprints.get(id(obj))
        if hit is not None:
            return hit[1]
        try:
            hash(obj)
            return obj
        except TypeError:
            self._fingerprints[id(obj)] = (obj, ("fingerprint", hash(repr(obj))))
            return self._fingerprints[id(obj)][1]

    def _args_key(self, *args, **kwargs):
        return tuple(map(self._value, args)) + tuple(sorted((k, self._value(v)) for k, v in kwargs.items()))

    def _scenario_key(self, kind: str, *args, **kwargs):
        if not self._scenarios:
            return self._args_key(*args, **kwargs)
        s = self._scenarios[-1]
        if kind == "crossover":
            return (s.case, s.target, s.reference_media, s.detection)
        return (s.case, s.usage_metric, s.knee_threshold)

    def _in_scenario(self, fn):
        def run(scenario, *args, **kwargs):
            self._scenarios.append(scenario)
            try:
                return fn(scenario, *args, **kwargs)
            finally:
                self._scenarios.pop()
        return run

    def _counting_bytes(self, fn):
        def write(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.bytes_written += Path(path).stat().st_size
            return result
        return write

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import techknee.cli
        import techknee.series
        import techknee.sweep

        modules = {"cli": techknee.cli, "sweep": techknee.sweep}
        for module_name, attr, name, kind in SITES:
            module = modules[module_name]
            fn = getattr(module, attr)
            key = None
            if kind == "scenario":
                fn = self._in_scenario(fn)
            elif kind == "bytes":
                fn = self._counting_bytes(fn)
            elif kind == "args":
                key = self._args_key
            elif kind in ("crossover", "knee"):
                key = (lambda k: lambda *a, **kw: self._scenario_key(k, *a, **kw))(kind)
            self._patch(module, attr, self.span(name, fn, key))
        cls = techknee.series.AnnualSeries
        self._patch(cls, "__post_init__", self.span("series.validate", cls.__post_init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- deriving --------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, distinct keys."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            t = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child[i]
        for name, keys in self.keys.items():
            out[name]["distinct"] = len(keys)
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for i in range(len(self.start)):
                f.write(
                    f'{{"name": "{self.names[self.name_id[i]]}", "start": {self.start[i]!r}, '
                    f'"end": {self.end[i]!r}, "parent": {self.parent[i]}, '
                    f'"workload": "{self.workload}", "invocation": {self.invocation[i]}}}\n'
                )
