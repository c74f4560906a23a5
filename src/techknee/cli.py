"""Command-line front-end.

Exit codes: 0 success, 1 domain error (no crossover under
--require-crossover, reproduction mismatch under --strict), 2 usage error
(bad flags, missing or unusable paths, unit mismatches, input values the
library rejects). Output carries explicit units and provenance and contains no
timestamps, so identical invocations produce byte-identical output.

Every command's arguments are declared once, in `_COMMANDS`. Plain argv is
read from that table by `_parse_plain`, without importing argparse; any argv
it cannot vouch for goes to the argparse parser `_build_parser` builds from
the same table, which alone prints help, the version and usage errors.
"""

from __future__ import annotations

import atexit
import csv
import math
import os
import sys
from functools import cache
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .errors import FitError, TechkneeError
from .fitting import _LN_FLOAT_MAX, crossover_empirical, crossover_fitted, fit_exponential, knee, tir
from .series import UNIT_TAGS, _read_number, _read_year, parse_series_csv

TYPE_CHECKING = False  # true for type checkers; importing `typing` costs ~5 ms
if TYPE_CHECKING:
    import argparse

    from .sweep import SweepConfig

# Library names that only some commands call, by the submodule that
# defines them. A command imports its submodules when it runs, so `fit`,
# `crossover` and `knee` never load `datasets`, `sweep` or `plots`. A
# command binds these names into this module on first use and keeps a
# binding already there, so a caller that replaced one (bench/tracer.py
# wraps `cli.load_all`) keeps its replacement. `__getattr__` resolves
# them for readers from outside before any command has run. No command
# calls `run_scenario` or `run_sweep`; they are here only for those readers.
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


def _window(args) -> tuple:
    """The --from/--to fit window, a reversed one refused before any file
    is read."""
    if args.from_year is not None and args.to_year is not None and args.from_year > args.to_year:
        raise ValueError(f"window start {args.from_year} exceeds window end {args.to_year}")
    return args.from_year, args.to_year


def _of_file(path: str, compute, *args):
    """`compute(*args)` on the series read from `path`; a FitError names
    the file."""
    try:
        return compute(*args)
    except FitError as exc:
        raise FitError(f"{path}: {exc}") from None


def _cmd_fit(args) -> int:
    window = _window(args)
    series = parse_series_csv(args.input, args.unit)
    fit = _of_file(args.input, fit_exponential, series, window)
    if abs(fit.log_a) > _LN_FLOAT_MAX:  # the one level techknee prints
        raise FitError(f"{args.input}: fitted level at {fit.window[0]} is e^{fit.log_a:.1f}, beyond a float's range")
    level = math.exp(fit.log_a)
    rate = _of_file(args.input, tir, fit)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "input": args.input,
                    "unit": args.unit,
                    "window": list(fit.window),
                    "n_points": fit.n_points,
                    "level_at_t0": level,
                    "rate_per_year": fit.k,
                    "tir_percent": rate,
                    "r_squared": fit.r_squared,
                }
            )
        )
    else:
        print(f"input: {args.input} ({args.unit})")
        print(f"window: {fit.window[0]}-{fit.window[1]} ({fit.n_points} points)")
        print(f"level at {fit.window[0]}: {level:.6g} {args.unit}")
        print(f"continuous rate: {fit.k:.6f} per year")
        print(f"TIR: {rate:.1f}% per year")
        print(f"r-squared (log space): {fit.r_squared:.4f}")
    return 0


def _cmd_crossover(args) -> int:
    if not args.fitted and (args.from_year, args.to_year) != (None, None):
        raise ValueError(f"--{'to' if args.from_year is None else 'from'} applies only with --fitted")
    window = _window(args)
    replacement = parse_series_csv(args.replacement, args.unit)
    target = parse_series_csv(args.target, args.unit)
    if args.fitted:
        result = crossover_fitted(
            _of_file(args.replacement, fit_exponential, replacement, window),
            _of_file(args.target, fit_exponential, target, window),
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
                    "mode": "fitted" if args.fitted else "empirical",
                    "year": result.year,
                    "fractional_year": result.fractional_year,
                }
            )
        )
    else:
        provenance = f"{args.replacement} vs {args.target} ({args.unit}, {'fitted' if args.fitted else 'empirical'})"
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


def _percent(share: float) -> str:
    """A threshold as a plain decimal percentage, to six significant
    digits: 1%, 0.4%, 0.0000001%."""
    text = f"{share * 100:g}"
    if "e" in text:  # `g` writes an exponent below 0.0001
        digits, exponent = text.split("e")
        text = f"{float(text):.{len(digits.replace('.', '')) - 1 - int(exponent)}f}"
    return text + "%"


def _cmd_knee(args) -> int:
    series = parse_series_csv(args.input, "dimensionless-share")
    year = knee(series, args.threshold)
    if args.json:
        import json

        print(json.dumps({"input": args.input, "threshold": args.threshold, "year": year}))
    elif year is None:
        print(f"{args.input}: share never reaches {_percent(args.threshold)}")
    else:
        print(f"{args.input}: knee({_percent(args.threshold)}) = {year}")
    return 0


def _write_curves(csv_path: Path, svg_path: Path, curves: dict, title: str) -> None:
    """`curves`, performance series and an "adoption" share, as tidy CSV and the SVG chart."""
    write_tidy_csv, write_case_svg = _bind("write_tidy_csv", "write_case_svg")
    write_tidy_csv(csv_path, curves)
    write_case_svg(svg_path, {k: v for k, v in curves.items() if k != "adoption"}, curves["adoption"], title)


def _cmd_case(args) -> int:
    import json

    from .datasets import DATASET_IDS
    from .sweep import _BASELINE, _Stages, parse_scenario_id

    stages = _Stages(_bind("load_all")[0]())
    if args.scenario:
        try:
            scenario = parse_scenario_id(args.case, args.scenario, args.threshold)
        except ValueError as exc:
            raise ValueError(f"bad scenario id: {exc}")
    else:
        scenario = parse_scenario_id(args.case, _BASELINE[args.case], args.threshold)
    result = stages.result(scenario)
    if args.out:
        # Before any output, so an unusable --out prints nothing.
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    if args.json:
        print(
            json.dumps(
                {
                    "case": args.case,
                    "scenario": scenario.scenario_id,
                    "data": [f"{dataset_id}.csv" for dataset_id in DATASET_IDS],
                    "crossover": result.crossover.year,
                    "knee_threshold": scenario.knee_threshold,
                    "knee": result.knee,
                }
            )
        )
    else:
        print(f"case: {args.case}")
        print(f"replacement: internet {args.case} ({scenario.reference_media}) "
              f"[a1_bandwidth_cost, a2_compression]")
        print(f"target: {scenario.target} [a3_postage]")
        print(f"adoption: {scenario.usage_metric.label()} metric [a2, a4_traffic, a5_media_share, a6_sales, a7, a8]")
        print(f"crossover: {result.crossover.year}, knee({_percent(scenario.knee_threshold)}): {result.knee}")
    if args.out:
        paths = out / f"{args.case}_curves.csv", out / f"{args.case}.svg"
        curves = {
            f"internet_{args.case}": stages.replacement(args.case, scenario.reference_media),
            scenario.target: stages.target(scenario.target),
            "adoption": stages.adoption(args.case, scenario.usage_metric),
        }
        _write_curves(*paths, curves, f"internet {args.case} vs {scenario.target}")
        if not args.json:
            for path in paths:
                print(f"wrote: {path}")
    return 0


_SWEEP_BUFFER = 256 * 1024  # under the default 8 KiB, each ~6 KB string of rows is its own write call
_SWEEP_COLUMNS = ("scenario_id", "case", "target", "reference_media", "usage_metric",
                  "detection", "knee_threshold", "crossover_year", "crossover_fractional", "knee_year")


def _write_sweep_rows(path: Path, config: SweepConfig, tables: tuple[dict, dict]) -> None:
    """results.csv from a sweep's two tables, walking the product of its
    axes with one join per (target, reference media, usage metric,
    detection), byte-identical to csv.writer writing one row per scenario."""
    from .sweep import _id_prefix, _product, _threshold_label

    lines: list[str] = []
    to_lines = csv.writer(SimpleNamespace(write=lines.append))

    @cache
    def cell(field: str) -> str:
        """`field` as csv.writer writes it inside a row."""
        # A second, empty field keeps a lone empty field from being quoted.
        to_lines.writerow((field, ""))
        return lines.pop()[:-3]  # less ',\r\n'

    crossovers, knees = tables
    thresholds = [_threshold_label(t) for t in config.knee_thresholds]
    n = len(thresholds)
    metric_slots = {}  # usage metric -> six slots per row of its knees
    for metric, row in knees.items():
        slots = metric_slots[metric] = [""] * (6 * n)
        slots[1::6] = slots[3::6] = thresholds
        slots[5::6] = [cell("" if k is None else str(k)) + "\r\n" for k in row]
    with open(path, "w", newline="", encoding="utf-8", buffering=_SWEEP_BUFFER) as f:
        csv.writer(f).writerow(_SWEEP_COLUMNS)
        for target, media, metric, detection in _product(config):
            slots = metric_slots[metric]
            axes = (config.case, target, media, metric.label(), detection.label())
            # A repr threshold needs no quoting: it goes before a closing quote.
            prefix = _id_prefix(*axes)
            quoted = cell(prefix)
            end = len(quoted) - (quoted != prefix)
            x, _ = crossovers[target, media, detection]
            fractional = "" if x.fractional_year is None else f"{x.fractional_year:.4f}"
            slots[0::6] = [quoted[:end]] * n
            slots[2::6] = [f"{quoted[end:]},{','.join(map(cell, axes))},"] * n
            slots[4::6] = [f",{cell('' if x.year is None else str(x.year))},{cell(fractional)},"] * n
            f.write("".join(slots))


def _cmd_sweep(args) -> int:
    import json

    def integer(digits: str) -> int:
        # int() refuses more digits than sys.get_int_max_str_digits() allows.
        try:
            return int(digits)
        except ValueError:
            raise ValueError(f"{args.config}: an integer of {len(digits.lstrip('-'))} digits "
                             "is too long to read") from None

    try:
        with open(args.config, encoding="utf-8") as f:
            doc = json.load(f, parse_int=integer)
    except FileNotFoundError:
        raise ValueError(f"no such config file: {args.config}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{args.config}: not UTF-8 JSON ({exc})")
    if not isinstance(doc, dict):
        raise ValueError(f"{args.config}: a sweep config is a JSON object")

    from .sweep import SweepConfig, extend_datasets, sweep_tables

    load_all, feasibility_range = _bind("load_all", "feasibility_range")
    datasets = extend_datasets(load_all(), doc, base_dir=Path(args.config).parent)
    config = SweepConfig.from_json(doc)
    tables = sweep_tables(config, datasets)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows_path = out / "results.csv"
    _write_sweep_rows(rows_path, config, tables)
    n_scenarios = math.prod(map(len, config[1:]))
    ranges = feasibility_range(tables) + feasibility_range(tables, group_by="target")
    summary = {"n_scenarios": n_scenarios, "ranges": ranges}
    (out / "feasibility.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"{n_scenarios} scenarios -> {rows_path}")
    print(f"feasibility summary -> {out / 'feasibility.json'}")
    return 0


def _cmd_reproduce(args) -> int:
    from .sweep import Cell

    load_all, reproduce_case_studies = _bind("load_all", "reproduce_case_studies")
    datasets = load_all()
    report = reproduce_case_studies(datasets)
    report_json = report.to_json() if args.json or args.out else None
    if args.out:
        # Before any output, so an unusable --out prints nothing.
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    if args.json:
        print(report_json)
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
        (out / "report.json").write_text(report_json + "\n", encoding="utf-8")
        for case, curves in report.curves.items():
            _write_curves(out / f"fig3_{case}.csv", out / f"fig3_{case}.svg", curves,
                          f"internet {case}: performance and adoption")
    if args.strict and report.deviations:
        print(f"error: {len(report.deviations)} cell(s) deviate beyond tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_export_data(args) -> int:
    from .datasets import data_dir, export_bundled

    written = export_bundled(args.out)
    print(f"exported {len(written)} files from {data_dir()} to {args.out}")
    return 0


# Each command: its function, its help, and its arguments as
# (name or flag, add_argument keywords). `_build_parser` builds argparse's
# parser from this table, and `_parse_plain` reads plain argv with it.
_COMMANDS = {
    "fit": (_cmd_fit, "fit an exponential improvement curve to a CSV series", (
        ("--input", dict(required=True, help="CSV file with header year,value")),
        ("--unit", dict(default="count-per-year", choices=sorted(UNIT_TAGS))),
        ("--from", dict(dest="from_year", type=_read_year, default=None)),
        ("--to", dict(dest="to_year", type=_read_year, default=None)),
        ("--json", dict(action="store_true")),
    )),
    "crossover": (_cmd_crossover, "detect the performance crossover of two series", (
        ("--replacement", dict(required=True, help="CSV for the improving technology")),
        ("--target", dict(required=True, help="CSV for the incumbent technology")),
        ("--unit", dict(default="media-units-per-real-dollar", choices=sorted(UNIT_TAGS))),
        ("--fitted", dict(action="store_true", help="intersect fitted curves instead of raw data")),
        ("--from", dict(dest="from_year", type=_read_year, default=None, help="fit window start (fitted mode)")),
        ("--to", dict(dest="to_year", type=_read_year, default=None, help="fit window end (fitted mode)")),
        ("--require-crossover", dict(action="store_true", help="exit 1 if no crossover is found")),
        ("--json", dict(action="store_true")),
    )),
    "knee": (_cmd_knee, "detect the adoption-curve knee of a share series", (
        ("--input", dict(required=True, help="CSV file with header year,value (shares in [0,1])")),
        ("--threshold", dict(type=_read_number, required=True)),
        ("--json", dict(action="store_true")),
    )),
    "case": (_cmd_case, "run a bundled case study end to end", (
        ("case", dict(choices=["audio", "video"])),
        ("--scenario", dict(default=None, help="override the baseline axes with a scenario id, e.g. "
                            "'mail_cassette|song|raw_bits|fitted:1995-|0.1' "
                            "(target|reference|metric|detection|threshold)")),
        ("--threshold", dict(type=_read_number, default=None,
                             help="knee threshold, for a scenario id without one (default 1%%)")),
        ("--out", dict(default=None, help="directory for tidy curve CSV and SVG chart")),
        ("--json", dict(action="store_true")),
    )),
    "sweep": (_cmd_sweep, "run a scenario sweep from a JSON config", (
        ("--config", dict(required=True)),
        ("--out", dict(required=True, help="directory for results.csv and feasibility.json")),
    )),
    "reproduce": (_cmd_reproduce, "recompute every reproducible published table cell", (
        ("--strict", dict(action="store_true", help="exit 1 if any cell deviates beyond tolerance")),
        ("--out", dict(default=None, help="directory for the cell report and curve data")),
        ("--json", dict(action="store_true")),
    )),
    "export-data": (_cmd_export_data, "dump the bundled tables for auditing", (
        ("--out", dict(required=True)),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="techknee",
        description="Fit technology improvement curves, detect performance "
        "crossovers and adoption knees, and reproduce the bundled "
        "internet-audio/video case studies.",
    )
    parser.add_argument("--version", action="version", version=f"techknee {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for `argv`, read from `_COMMANDS`
    without argparse; None wherever argparse might do anything else (help,
    the version, a usage error, an abbreviated or `=` option, a value that
    starts with `-`), which leaves that argv to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    args, options, positionals = {"command": argv[0]}, {}, []
    for name, keywords in _COMMANDS[argv[0]][2]:
        dest = keywords.get("dest", name.lstrip("-").replace("-", "_"))
        args[dest] = keywords.get("default", False if keywords.get("action") else None)
        if name.startswith("-"):
            options[name] = dest, keywords
        else:
            positionals.append((dest, keywords))
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if not positionals:
                return None
            dest, keywords = positionals.pop(0)
        elif token not in options:
            return None
        else:
            dest, keywords = options[token]
            if keywords.get("action"):  # store_true
                args[dest] = True
                continue
            token = next(tokens, "-")  # a missing value reads as an option
            if token.startswith("-"):
                return None
        try:
            value = keywords.get("type", str)(token)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        args[dest] = value
    if positionals or any(k.get("required") and args[d] is None for d, k in options.values()):
        return None
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:
        # A closed stdout, which `print` would silently drop everything to.
        print("error: stdout is closed, so no output can be written", file=sys.stderr)
        return 2
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 on --help/--version
            return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](args)
    except (TechkneeError, ValueError) as exc:
        # Bad input reaching the library (a share above 1, a config
        # missing an axis, an unknown metric) is a usage error too.
        message = exc
    except OSError as exc:
        # A path the user named that cannot be used: an --out that is a
        # file, an --input or --config that is a directory.
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
    # One line, though a path or config key named in it may hold a newline.
    print("error: " + str(message).replace("\n", "\\n"), file=sys.stderr)
    return 2


def app() -> None:
    """The `techknee` command: `main()`, then the end of the process.

    Interpreter teardown frees every module and object the command loaded,
    which takes longer than a small command's work, and nothing it does is
    visible: every file a command writes is closed before `main()`
    returns, and techknee starts no thread. So the process ends with
    `os._exit` once the `atexit` handlers have run and stdout and stderr
    are flushed, as a forked `multiprocessing` child does. If a flush
    fails, or a trace or profile function is set (coverage, cProfile, a
    debugger), it exits through `sys.exit` as usual, and so reports a
    failed flush and writes profiles the same way."""
    code = main()
    if sys.gettrace() is None and sys.getprofile() is None:
        atexit._run_exitfuncs()  # clears them, so `sys.exit` below runs none twice
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except OSError:
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    app()
