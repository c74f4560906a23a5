"""Command-line front-end.

Exit codes: 0 success, 1 domain error (no crossover under
--require-crossover, reproduction mismatch under --strict), 2 usage error
(bad flags, missing or unusable paths, unit mismatches, input values the
library rejects). Output carries explicit units and provenance and contains no
timestamps, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import TechkneeError
from .fitting import crossover_empirical, crossover_fitted, fit_exponential, knee, tir
from .series import UNIT_TAGS, parse_series_csv

if TYPE_CHECKING:
    from .sweep import SweepConfig

# Library names that only some commands call, by the submodule that
# defines them. A command imports its submodules when it runs, so `fit`,
# `crossover` and `knee` never load `datasets`, `sweep` or `plots`. A
# command binds these names into this module on first use and keeps a
# binding already there, so a caller that replaced one (bench/tracer.py
# wraps `cli.load_all`) keeps its replacement. `__getattr__` resolves
# them for readers from outside before any command has run; no command
# calls `run_sweep`, which is here for them.
_LAZY = {
    "load_all": "datasets",
    "feasibility_range": "sweep",
    "reproduce_case_studies": "sweep",
    "run_scenario": "sweep",
    "run_sweep": "sweep",
    "write_case_svg": "plots",
    "write_tidy_csv": "plots",
}


def _bind(*names: str) -> list:
    """The `_LAZY` names, each bound into this module unless it already is."""
    from importlib import import_module

    bound = globals()
    return [bound.setdefault(name, getattr(import_module(f".{_LAZY[name]}", __package__), name))
            for name in names]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _bind(name)[0]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="techknee",
        description="Fit technology improvement curves, detect performance "
        "crossovers and adoption knees, and reproduce the bundled "
        "internet-audio/video case studies.",
    )
    parser.add_argument("--version", action="version", version=f"techknee {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit an exponential improvement curve to a CSV series")
    p.add_argument("--input", required=True, help="CSV file with header year,value")
    p.add_argument("--unit", default="count-per-year", choices=sorted(UNIT_TAGS))
    p.add_argument("--from", dest="from_year", type=int, default=None)
    p.add_argument("--to", dest="to_year", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("crossover", help="detect the performance crossover of two series")
    p.add_argument("--replacement", required=True, help="CSV for the improving technology")
    p.add_argument("--target", required=True, help="CSV for the incumbent technology")
    p.add_argument("--unit", default="media-units-per-real-dollar", choices=sorted(UNIT_TAGS))
    p.add_argument("--fitted", action="store_true", help="intersect fitted curves instead of raw data")
    p.add_argument("--from", dest="from_year", type=int, default=None, help="fit window start (fitted mode)")
    p.add_argument("--to", dest="to_year", type=int, default=None, help="fit window end (fitted mode)")
    p.add_argument("--require-crossover", action="store_true", help="exit 1 if no crossover is found")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("knee", help="detect the adoption-curve knee of a share series")
    p.add_argument("--input", required=True, help="CSV file with header year,value (shares in [0,1])")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("case", help="run a bundled case study end to end")
    p.add_argument("case", choices=["audio", "video"])
    p.add_argument(
        "--scenario",
        default=None,
        help="override the baseline axes with a scenario id, e.g. "
        "'mail_cassette|song|raw_bits|fitted:1995-|0.1' "
        "(target|reference|metric|detection|threshold)",
    )
    p.add_argument("--threshold", type=float, default=0.01, help="knee threshold (default 1%%)")
    p.add_argument("--out", default=None, help="directory for tidy curve CSV and SVG chart")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sweep", help="run a scenario sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="directory for results.csv and feasibility.json")

    p = sub.add_parser("reproduce", help="recompute every reproducible published table cell")
    p.add_argument("--strict", action="store_true", help="exit 1 if any cell deviates beyond tolerance")
    p.add_argument("--out", default=None, help="directory for the cell report and curve data")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("export-data", help="dump the bundled tables for auditing")
    p.add_argument("--out", required=True)

    return parser


def _load_series(path: str, unit: str):
    try:
        return parse_series_csv(path, unit)
    except FileNotFoundError:
        raise ValueError(f"no such file: {path} (pass an existing CSV with header year,value)")


def _cmd_fit(args) -> int:
    series = _load_series(args.input, args.unit)
    fit = fit_exponential(series, (args.from_year, args.to_year))
    rate = tir(fit)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "input": args.input,
                    "unit": args.unit,
                    "window": list(fit.window),
                    "n_points": fit.n_points,
                    "level_at_t0": fit.a,
                    "rate_per_year": fit.k,
                    "tir_percent": rate,
                    "r_squared": fit.r_squared,
                }
            )
        )
    else:
        print(f"input: {args.input} ({args.unit})")
        print(f"window: {fit.window[0]}-{fit.window[1]} ({fit.n_points} points)")
        print(f"level at {fit.t0}: {fit.a:.6g} {args.unit}")
        print(f"continuous rate: {fit.k:.6f} per year")
        print(f"TIR: {rate:.1f}% per year")
        print(f"r-squared (log space): {fit.r_squared:.4f}")
    return 0


def _cmd_crossover(args) -> int:
    replacement = _load_series(args.replacement, args.unit)
    target = _load_series(args.target, args.unit)
    if args.fitted:
        window = (args.from_year, args.to_year)
        result = crossover_fitted(
            fit_exponential(replacement, window), fit_exponential(target, window)
        )
    else:
        result = crossover_empirical(replacement, target)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "replacement": args.replacement,
                    "target": args.target,
                    "unit": args.unit,
                    "mode": result.mode,
                    "year": result.year,
                    "fractional_year": result.fractional_year,
                }
            )
        )
    else:
        provenance = f"{args.replacement} vs {args.target} ({args.unit}, {result.mode})"
        if result.year is None:
            print(f"{provenance}: no crossover")
        elif result.fractional_year is not None:
            print(f"{provenance}: crossover {result.year} (fractional {result.fractional_year:.2f})")
        else:
            print(f"{provenance}: crossover {result.year}")
    if args.require_crossover and result.year is None:
        print("error: no crossover found", file=sys.stderr)
        return 1
    return 0


def _cmd_knee(args) -> int:
    series = _load_series(args.input, "dimensionless-share")
    result = knee(series, args.threshold)
    if args.json:
        import json

        print(json.dumps({"input": args.input, "threshold": args.threshold, "year": result.year}))
    elif result.year is None:
        print(f"{args.input}: share never reaches {args.threshold:.0%}")
    else:
        print(f"{args.input}: knee({args.threshold:.0%}) = {result.year}")
    return 0


def _cmd_case(args) -> int:
    import json

    from .datasets import DATASET_IDS
    from .sweep import _BASELINE, parse_scenario_id

    load_all, run_scenario = _bind("load_all", "run_scenario")
    datasets = load_all()
    if args.scenario:
        try:
            scenario = parse_scenario_id(args.case, args.scenario, args.threshold)
        except ValueError as exc:
            raise ValueError(f"bad scenario id: {exc}")
    else:
        scenario = parse_scenario_id(args.case, _BASELINE[args.case], args.threshold)
    result = run_scenario(scenario, datasets)
    if args.out:
        # Before any output, so an unusable --out prints nothing.
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    threshold_label = f"{scenario.knee_threshold:.0%}"
    if args.json:
        print(
            json.dumps(
                {
                    "case": args.case,
                    "scenario": scenario.scenario_id,
                    "data": [f"{dataset_id}.csv" for dataset_id in DATASET_IDS],
                    "crossover": result.crossover.year,
                    "knee_threshold": scenario.knee_threshold,
                    "knee": result.knee.year,
                }
            )
        )
    else:
        print(f"case: {args.case}")
        print(f"replacement: internet {args.case} ({scenario.reference_media}) "
              f"[a1_bandwidth_cost, a2_compression]")
        print(f"target: {scenario.target} [a3_postage]")
        print(f"adoption: {scenario.usage_metric.label()} metric [a2, a4_traffic, a5_media_share, a6_sales, a7, a8]")
        print(f"crossover: {result.crossover.year}, knee({threshold_label}): {result.knee.year}")
    if args.out:
        from .sweep import adoption_series, replacement_performance, target_performance

        write_tidy_csv, write_case_svg = _bind("write_tidy_csv", "write_case_svg")
        curves = {
            f"internet_{args.case}": replacement_performance(args.case, scenario.reference_media, datasets),
            scenario.target: target_performance(scenario.target, datasets),
        }
        adoption = adoption_series(args.case, scenario.usage_metric, datasets)
        write_tidy_csv(out / f"{args.case}_curves.csv", {**curves, "adoption": adoption})
        write_case_svg(out / f"{args.case}.svg", curves, adoption, f"internet {args.case} vs {scenario.target}")
        if not args.json:
            print(f"wrote: {out / f'{args.case}_curves.csv'}")
            print(f"wrote: {out / f'{args.case}.svg'}")
    return 0


_SWEEP_COLUMNS = ("scenario_id", "case", "target", "reference_media", "usage_metric",
                  "detection", "knee_threshold", "crossover_year", "crossover_fractional", "knee_year")


class _CsvCells(dict):
    """Each field as csv.writer writes it inside a row, computed once per
    distinct field."""

    def __init__(self) -> None:
        super().__init__()
        self._writer = csv.writer(self)

    def write(self, line: str) -> None:
        self._line = line

    def __missing__(self, field: str) -> str:
        # A second, empty field keeps a lone empty field from being quoted;
        # the row ends ",\r\n".
        self._writer.writerow((field, ""))
        cell = self[field] = self._line[:-3]
        return cell


def _write_sweep_rows(path: Path, config: SweepConfig, blocks) -> None:
    """results.csv, one string per block, byte-identical to csv.writer
    writing one row per scenario."""
    from .sweep import _threshold_label

    cells = _CsvCells()
    case = cells[config.case]
    thresholds = [_threshold_label(t) for t in config.knee_thresholds]
    threshold_cells = [cells[t] for t in thresholds]
    # csv quotes a field for the characters in it, so an id whose prefix
    # and threshold need no quoting needs none either.
    plain_thresholds = threshold_cells == thresholds
    metric_labels = {m: m.label() for m in config.usage_metrics}
    detection_labels = {d: d.label() for d in config.detection}
    knee_cells: dict = {}
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(_SWEEP_COLUMNS)
        for b in blocks:
            metric, detection = metric_labels[b.usage_metric], detection_labels[b.detection]
            prefix = f"{config.case}|{b.target}|{b.reference_media}|{metric}|{detection}|"
            if plain_thresholds and cells[prefix] == prefix:
                ids = [prefix + t for t in thresholds]
            else:
                ids = [cells[prefix + t] for t in thresholds]
            middle = ",".join((case, cells[b.target], cells[b.reference_media], cells[metric], cells[detection]))
            x = b.crossover
            crossover = (cells["" if x.year is None else str(x.year)] + "," +
                         cells["" if x.fractional_year is None else f"{x.fractional_year:.4f}"])
            knees = knee_cells.get(b.usage_metric)
            if knees is None:
                knees = knee_cells[b.usage_metric] = [
                    cells["" if k.year is None else str(k.year)] for k in b.knees
                ]
            f.write("".join([
                f"{i},{middle},{t},{crossover},{k}\r\n" for i, t, k in zip(ids, threshold_cells, knees)
            ]))


def _cmd_sweep(args) -> int:
    import json

    try:
        with open(args.config, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ValueError(f"no such config file: {args.config}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.config}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise ValueError(f"{args.config}: a sweep config is a JSON object")

    from .sweep import SweepConfig, extend_datasets, sweep_blocks

    load_all, feasibility_range = _bind("load_all", "feasibility_range")
    datasets = extend_datasets(load_all(), doc, base_dir=Path(args.config).parent)
    config = SweepConfig.from_json(doc)
    blocks = sweep_blocks(config, datasets)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows_path = out / "results.csv"
    _write_sweep_rows(rows_path, config, blocks)
    n_scenarios = len(blocks) * len(config.knee_thresholds)
    ranges = feasibility_range(blocks) + feasibility_range(blocks, group_by="target")
    summary = {
        "n_scenarios": n_scenarios,
        "ranges": [
            {
                "label": fr.label,
                "n_scenarios": fr.n_scenarios,
                "crossover": [fr.crossover_min, fr.crossover_max],
                "crossover_absent": fr.crossover_absent,
                "knee": [fr.knee_min, fr.knee_max],
                "knee_absent": fr.knee_absent,
            }
            for fr in ranges
        ],
    }
    (out / "feasibility.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"{n_scenarios} scenarios -> {rows_path}")
    print(f"feasibility summary -> {out / 'feasibility.json'}")
    return 0


def _cmd_reproduce(args) -> int:
    from .sweep import Cell

    load_all, reproduce_case_studies = _bind("load_all", "reproduce_case_studies")
    datasets = load_all()
    report = reproduce_case_studies(datasets)
    if args.out:
        # Before any output, so an unusable --out prints nothing.
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    if args.json:
        print(report.to_json())
    else:
        for cell in report.cells:
            expected = cell.expected if cell.expected is not None else "-"
            computed = cell.computed if cell.computed is not None else "-"
            if cell.expected is None:
                tol = "-"
            else:
                tol = f"+/-{cell.tolerance}" if cell.tolerance else "exact"
            line = (f"{cell.status.upper():16s} {cell.cell_id:28s} expected {expected} "
                    f"({tol}) computed {computed}")
            if cell.note:
                line += f"  [{cell.note}]"
            print(line)
        for rng in report.ranges:
            computed = list(rng.computed) if rng.computed else "-"
            print(f"{rng.status.upper():16s} {rng.range_id:28s} expected {list(rng.expected)} "
                  f"computed {computed}")
        n_dev = len(report.deviations)
        print(f"deviations: {n_dev}" + (f" ({', '.join(report.deviations)})" if n_dev else ""))
    if args.out:
        with open(out / "cells.csv", "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)  # writes None as an empty field
            writer.writerow(Cell._fields)
            writer.writerows(report.cells)
        (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
        write_tidy_csv, write_case_svg = _bind("write_tidy_csv", "write_case_svg")
        for case, curves in report.curves.items():
            write_tidy_csv(out / f"fig3_{case}.csv", curves)
            write_case_svg(
                out / f"fig3_{case}.svg",
                {k: v for k, v in curves.items() if k != "adoption"},
                curves["adoption"],
                f"internet {case}: performance and adoption",
            )
    if args.strict and not report.ok:
        print(f"error: {len(report.deviations)} cell(s) deviate beyond tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_export_data(args) -> int:
    from .datasets import data_dir, export_bundled

    written = export_bundled(args.out)
    print(f"exported {len(written)} files from {data_dir()} to {args.out}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "crossover": _cmd_crossover,
    "knee": _cmd_knee,
    "case": _cmd_case,
    "sweep": _cmd_sweep,
    "reproduce": _cmd_reproduce,
    "export-data": _cmd_export_data,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (TechkneeError, ValueError, KeyError) as exc:
        # Bad input reaching the library (a share above 1, a config
        # missing an axis, an unknown metric) is a usage error too.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A path the user named that cannot be used: an --out that is a
        # file, an --input or --config that is a directory.
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
