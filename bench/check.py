"""Output checker for the techknee benchmark.

`check(inv, returncode, stdout, stderr, workdir)` returns the list of
problems with one invocation (empty when it passed) and the number of
scenario results the command reported. It never imports techknee: the
expected values come from the workload generator, from invariants of the
outputs, and from the values recorded in expected.json.

    python3 bench/check.py --record

re-records expected.json from the program in this checkout (reproduce
statuses, the `case --scenario` pool and the sweep digests of the
recorded seeds). Do that only when a change is meant to alter results.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
import sys
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
RECORDED_SEEDS = range(10)
# Read by name, so added columns or keys are not counted as differences.
SWEEP_COLUMNS = ("scenario_id", "crossover_year", "crossover_fractional", "knee_year")
RANGE_KEYS = ("label", "n_scenarios", "crossover", "crossover_absent", "knee", "knee_absent")

_expected: dict | None = None


def expected() -> dict:
    global _expected
    if _expected is None:
        _expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return _expected


def check(inv: dict, returncode: int, stdout: str, stderr: str, workdir: Path) -> tuple[list[str], int]:
    spec = inv["check"]
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if problems:
        return problems, 0
    try:
        return CHECKS[spec["kind"]](spec, stdout, workdir)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, OSError, ET.ParseError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], 0


def _year(raw):
    return None if raw in (None, "", "None", "-") else int(raw)


# ---------------------------------------------------------------------------
# reproduce


def _check_report(doc: dict) -> list[str]:
    want = expected()["reproduce"]
    got_cells = {c["id"]: [c["status"], c["computed"]] for c in doc["cells"]}
    got_ranges = {r["id"]: [r["status"], r["computed"]] for r in doc["ranges"]}
    problems = [f"cell {k}: {got_cells.get(k)} != recorded {v}"
                for k, v in want["cells"].items() if got_cells.get(k) != v]
    problems += [f"range {k}: {got_ranges.get(k)} != recorded {v}"
                 for k, v in want["ranges"].items() if got_ranges.get(k) != v]
    if sorted(doc["deviations"]) != sorted(want["deviations"]):
        problems.append(f"deviations {doc['deviations']} != recorded {want['deviations']}")
    return problems


def _check_reproduce(spec: dict, stdout: str, workdir: Path):
    want = expected()["reproduce"]
    if spec["json"]:
        problems = _check_report(json.loads(stdout))
    else:
        got = {}
        for line in stdout.splitlines():
            parts = line.split()
            if len(parts) >= 2 and (parts[1] in want["cells"] or parts[1] in want["ranges"]):
                computed = re.search(r" computed (\[.*?\]|\S+)", line).group(1)
                got[parts[1]] = [parts[0].lower(), None if computed == "-" else json.loads(computed)]
        expect = {**want["cells"], **want["ranges"]}
        problems = [f"{k}: {got.get(k)} != recorded {v}" for k, v in expect.items() if got.get(k) != v]
        if not stdout.rstrip().endswith(f"deviations: {len(want['deviations'])} ({', '.join(want['deviations'])})"):
            problems.append("deviations line differs")
    if spec.get("out"):
        out = workdir / spec["out"]
        problems += _check_report(json.loads((out / "report.json").read_text(encoding="utf-8")))
        with open(out / "cells.csv", newline="", encoding="utf-8") as f:
            cells = {r["cell_id"]: r["status"] for r in csv.DictReader(f)}
        if cells != {k: v[0] for k, v in want["cells"].items()}:
            problems.append("cells.csv statuses differ from recorded")
        for case in ("audio", "video"):
            problems += _check_curves(out / f"fig3_{case}.csv")
            ET.parse(out / f"fig3_{case}.svg")
    scored = sum(1 for v in want["cells"].values() if v[0] != "unsupported")
    return problems, scored


def _check_curves(path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    bad = [r for r in rows if not 0 <= float(r["value"]) < math.inf
           or (r["series"] == "adoption" and float(r["value"]) > 1)]
    if not rows or bad:
        return [f"{path.name}: no rows or out-of-range values"]
    return []


# ---------------------------------------------------------------------------
# case, fit, crossover, knee


def _check_case(spec: dict, stdout: str, workdir: Path):
    want = expected()
    crossover = want["crossover"][spec["crossover_key"]]
    knee = want["knee"][spec["knee_key"]]
    if spec["json"]:
        doc = json.loads(stdout)
        got = (doc["crossover"], doc["knee"])
    else:
        m = re.search(r"^crossover: (\S+), knee\(\S+\): (\S+)$", stdout, re.M)
        got = (_year(m.group(1)), _year(m.group(2)))
    problems = [] if got == (crossover, knee) else [f"case {got} != recorded {(crossover, knee)}"]
    if spec.get("out"):
        out = workdir / spec["out"]
        problems += _check_curves(out / f"{spec['case']}_curves.csv")
        ET.parse(out / f"{spec['case']}.svg")
    return problems, 1


def _check_fit(spec: dict, stdout: str, workdir: Path):
    if spec["json"]:
        doc = json.loads(stdout)
        ok = (math.isclose(doc["rate_per_year"], spec["k"], rel_tol=1e-7, abs_tol=1e-9)
              and doc["window"] == spec["window"] and doc["n_points"] == spec["n_points"])
    else:
        rate = float(re.search(r"^continuous rate: (\S+) per year$", stdout, re.M).group(1))
        window = re.search(r"^window: (\d+)-(\d+) \((\d+) points\)$", stdout, re.M).groups()
        ok = abs(rate - spec["k"]) <= 1.5e-6 and [int(window[0]), int(window[1])] == spec["window"]
    return ([] if ok else [f"fit output differs from generated rate {spec['k']}"]), 0


def _check_crossover(spec: dict, stdout: str, workdir: Path):
    if spec["json"]:
        doc = json.loads(stdout)
        year, frac, tol = doc["year"], doc["fractional_year"], 1e-6
    else:
        m = re.search(r": (?:no crossover|crossover (\d+)(?: \(fractional (\S+)\))?)$", stdout, re.M)
        year, frac, tol = _year(m.group(1)), m.group(2) and float(m.group(2)), 0.006
    ok = year == spec["year"] and (
        frac is None if spec["fractional"] is None else abs(frac - spec["fractional"]) <= tol)
    return ([] if ok else [f"crossover {year} ({frac}) != generated {spec['year']} ({spec['fractional']})"]), 0


def _check_knee(spec: dict, stdout: str, workdir: Path):
    if spec["json"]:
        year = json.loads(stdout)["year"]
    else:
        m = re.search(r"= (\d+)$", stdout.strip())
        year = int(m.group(1)) if m else (None if "never reaches" in stdout else "unparsed")
    return ([] if year == spec["year"] else [f"knee {year} != generated {spec['year']}"]), 0


# ---------------------------------------------------------------------------
# sweep


def sweep_digest(rows: list[dict], feasibility: dict) -> str:
    h = hashlib.sha256()
    for r in rows:
        h.update(("|".join(r[c] for c in SWEEP_COLUMNS) + "\n").encode())
    h.update(json.dumps(_known_ranges(feasibility)).encode())
    return h.hexdigest()


def _known_ranges(feasibility: dict) -> list[dict]:
    return [{k: r.get(k) for k in RANGE_KEYS} for r in feasibility["ranges"]]


def _ranges(rows: list[dict], label: str) -> dict:
    xs = [int(r["crossover_year"]) for r in rows if r["crossover_year"]]
    ks = [int(r["knee_year"]) for r in rows if r["knee_year"]]
    return {
        "label": label, "n_scenarios": len(rows),
        "crossover": [min(xs), max(xs)] if xs else [None, None], "crossover_absent": len(rows) - len(xs),
        "knee": [min(ks), max(ks)] if ks else [None, None], "knee_absent": len(rows) - len(ks),
    }


def sweep_problems(rows: list[dict], feasibility: dict, doc: dict) -> list[str]:
    """Invariants every correct sweep output holds, whatever the seed."""
    problems = []
    ids = [r["scenario_id"] for r in rows]
    if ids != workloads.scenario_ids(doc):
        problems.append("scenario ids differ from the config's enumeration")
    crossovers, knees, by_metric = {}, {}, {}
    for r in rows:
        case, target, ref, metric, detection, threshold = r["scenario_id"].split("|")
        year, frac = r["crossover_year"], r["crossover_fractional"]
        if frac and not detection.startswith("fitted"):
            problems.append(f"{r['scenario_id']}: fractional year without a fitted detection")
        if frac and year and not int(year) - 1 <= float(frac) <= int(year):
            problems.append(f"{r['scenario_id']}: year {year} is not the ceiling of {frac}")
        if crossovers.setdefault((target, ref, detection), (year, frac)) != (year, frac):
            problems.append(f"{r['scenario_id']}: crossover differs within its key")
        if knees.setdefault((metric, threshold), r["knee_year"]) != r["knee_year"]:
            problems.append(f"{r['scenario_id']}: knee differs within its key")
        by_metric.setdefault(metric, {})[float(threshold)] = r["knee_year"]
    for metric, by_threshold in by_metric.items():
        years = [math.inf if not y else int(y) for _, y in sorted(by_threshold.items())]
        if years != sorted(years):
            problems.append(f"{metric}: knee year falls as the threshold rises")
    want = [_ranges(rows, "all")] + [
        _ranges([r for r in rows if r["target"] == t], t) for t in sorted({r["target"] for r in rows})]
    if feasibility.get("n_scenarios") != len(rows) or _known_ranges(feasibility) != want:
        problems.append("feasibility.json differs from the ranges of results.csv")
    return problems[:20]


def read_sweep(out: Path) -> tuple[list[dict], dict]:
    with open(out / "results.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return rows, json.loads((out / "feasibility.json").read_text(encoding="utf-8"))


def _check_sweep(spec: dict, stdout: str, workdir: Path):
    rows, feasibility = read_sweep(workdir / spec["out"])
    doc = json.loads((workdir / spec["config"]).read_text(encoding="utf-8"))
    problems = sweep_problems(rows, feasibility, doc)
    digest = sweep_digest(rows, feasibility)
    spec["digest"] = digest
    recorded = expected()["sweep_digests"].get(spec.get("digest_key", ""))
    if recorded is not None and recorded != digest:
        problems.append(f"sweep digest {digest[:16]} != recorded {recorded[:16]}")
    return problems, len(rows)


CHECKS = {
    "reproduce": _check_reproduce,
    "case": _check_case,
    "fit": _check_fit,
    "crossover": _check_crossover,
    "knee": _check_knee,
    "sweep": _check_sweep,
}


# ---------------------------------------------------------------------------
# recording


def _main_output(main, argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        if main(argv) != 0:
            raise SystemExit(f"recording failed: techknee {' '.join(argv)}")
    return buf.getvalue()


def record() -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    from techknee.cli import main

    report = json.loads(_main_output(main, ["reproduce", "--json"]))
    doc = {
        "reproduce": {
            "cells": {c["id"]: [c["status"], c["computed"]] for c in report["cells"]},
            "ranges": {r["id"]: [r["status"], r["computed"]] for r in report["ranges"]},
            "deviations": report["deviations"],
        },
        "crossover": {}, "knee": {}, "sweep_digests": {},
    }
    for case, pool in workloads.CASE_POOL.items():
        for target in pool["targets"]:
            for ref in pool["refs"]:
                for metric in pool["metrics"]:
                    for detection in workloads.POOL_DETECTIONS:
                        for threshold in workloads.POOL_THRESHOLDS:
                            sid = f"{target}|{ref}|{metric}|{detection}|{threshold:g}"
                            got = json.loads(_main_output(main, ["case", case, "--scenario", sid, "--json"]))
                            for table, key, value in (
                                ("crossover", workloads.crossover_key(case, target, ref, detection), got["crossover"]),
                                ("knee", workloads.knee_key(case, metric, threshold), got["knee"]),
                            ):
                                if doc[table].setdefault(key, value) != value:
                                    raise SystemExit(f"{table} {key} is not a function of its key")
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in ("sweep_shared", "sweep_custom"):
            for seed in RECORDED_SEEDS:
                work = Path(tmp) / f"{workload}-{seed}"
                (inv,) = workloads.generate(workload, seed, work / "inputs")
                _main_output(main, [
                    "sweep", "--config", str(work / inv["check"]["config"]), "--out", str(work / "out")])
                rows, feasibility = read_sweep(work / "out")
                doc["sweep_digests"][f"{workload}:{seed}"] = sweep_digest(rows, feasibility)
                print(f"recorded {workload}:{seed}", file=sys.stderr)
    return doc


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Re-record expected.json from this checkout.")
    parser.add_argument("--record", action="store_true", required=True)
    parser.parse_args()
    EXPECTED_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")
