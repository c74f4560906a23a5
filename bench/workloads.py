"""Seeded workload generator for the techknee benchmark.

`generate(workload, seed, inputs_dir)` writes every config and CSV a
workload needs under `inputs_dir` and returns its invocations: the argv
passed to `techknee` (paths relative to the work directory, which is the
parent of `inputs_dir`) and what the output checker expects of each.
The same seed always gives the same files and argv.

    python3 bench/workloads.py --seed 0 --out DIR

writes all three workloads under DIR/<workload>/ with an `argv.json`.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

WORKLOADS = ("cli_cold", "sweep_shared", "sweep_custom")
DEFAULT_SEED = 0

# Scenario pool for `case --scenario`: the checker looks each crossover
# key (case|target|reference|detection) and knee key (case|metric|threshold)
# up in the values recorded in expected.json.
CASE_POOL = {
    "audio": {"targets": ("mail_cd", "mail_cassette"), "refs": ("album", "song"),
              "metrics": ("minutes", "raw_bits", "units:3")},
    "video": {"targets": ("mail_dvd", "mail_cd"), "refs": ("clip", "sd_movie", "hd_movie"),
              "metrics": ("minutes", "raw_bits", "units:90")},
}
CASE_BASELINE = {"audio": ("mail_cd", "album"), "video": ("mail_dvd", "clip")}
POOL_DETECTIONS = ("empirical", "fitted", "fitted:1990-", "fitted:1995-", "fitted:1985-2005")
POOL_THRESHOLDS = (0.01, 0.05, 0.1, 0.25)

# Years covered by both the bandwidth-cost table and the postage-derived
# mail series, so every fit window below holds enough points of both.
FIRST_YEAR, LAST_YEAR = 1983, 2015


def crossover_key(case: str, target: str, ref: str, detection: str) -> str:
    return f"{case}|{target}|{ref}|{detection}"


def knee_key(case: str, metric: str, threshold: float) -> str:
    return f"{case}|{metric}|{threshold:g}"


def scenario_ids(doc: dict) -> list[str]:
    """Scenario ids of a sweep config, in the program's enumeration order."""
    return [
        f"{doc['case']}|{t}|{r}|{m}|{d}|{float(k):g}"
        for t in doc["targets"]
        for r in doc["reference_media"]
        for m in doc["usage_metrics"]
        for d in doc["detection"]
        for k in doc["knee_thresholds"]
    ]


def _write_csv(path: Path, pairs) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["year,value"] + [f"{y},{v!r}" for y, v in pairs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _windows(rng: random.Random, n: int, min_len: int) -> list[str]:
    """n distinct fitted-detection labels over the shared year span."""
    pool = [f"fitted:{lo}-" for lo in range(FIRST_YEAR + 1, LAST_YEAR - min_len + 1)]
    pool += [f"fitted:{lo}-{hi}" for lo in range(FIRST_YEAR, LAST_YEAR - min_len + 1)
             for hi in range(lo + min_len, LAST_YEAR)]
    return rng.sample(pool, n)


def _sustained_crossover(rep: list[tuple[int, float]], tgt: list[tuple[int, float]]):
    """First year from which rep >= tgt at every later shared year."""
    tmap = dict(tgt)
    year = None
    for y, v in rep:
        if y not in tmap:
            continue
        if v >= tmap[y]:
            year = y if year is None else year
        else:
            year = None
    return year


# ---------------------------------------------------------------------------
# cli_cold: why -- this is how people use the tool: one short cold-start
# command at a time (reproduce, case, fit / crossover / knee on their own
# CSVs). Interpreter start, `import techknee.cli`, `load_all` and the
# plot writers dominate; the sweep pipeline hardly shows. The mix has a
# fixed count of each command kind so every seed does the same work.


def _cli_cold(rng: random.Random, inputs: Path, tiny: bool) -> list[dict]:
    reps = 1 if tiny else 4
    invs: list[dict] = []

    def add(argv, check, out=False):
        invs.append({"argv": ["techknee", *argv], "check": check, "out": out})

    for _ in range(reps):
        add(["reproduce"], {"kind": "reproduce", "json": False})
        add(["reproduce", "--json"], {"kind": "reproduce", "json": True}, out=True)
    for i in range(reps):
        case = ("audio", "video")[i % 2]
        target, ref = CASE_BASELINE[case]
        threshold = rng.choice(POOL_THRESHOLDS)
        as_json = (i // 2) % 2 == 0
        check = {"kind": "case", "case": case,
                 "crossover_key": crossover_key(case, target, ref, "empirical"),
                 "knee_key": knee_key(case, "minutes", threshold), "json": as_json}
        argv = ["case", case, "--threshold", f"{threshold:g}"] + (["--json"] if as_json else [])
        add(argv, check)
        add(["case", case] + (["--json"] if not as_json else []),
            {**check, "knee_key": knee_key(case, "minutes", 0.01), "json": not as_json}, out=True)
    for i in range(2 * reps):
        case = rng.choice(("audio", "video"))
        pool = CASE_POOL[case]
        target, ref = rng.choice(pool["targets"]), rng.choice(pool["refs"])
        metric, detection = rng.choice(pool["metrics"]), rng.choice(POOL_DETECTIONS)
        threshold = rng.choice(POOL_THRESHOLDS)
        as_json = i % 2 == 0
        argv = ["case", case, "--scenario", f"{target}|{ref}|{metric}|{detection}|{threshold:g}"]
        add(argv + (["--json"] if as_json else []),
            {"kind": "case", "case": case,
             "crossover_key": crossover_key(case, target, ref, detection),
             "knee_key": knee_key(case, metric, threshold), "json": as_json},
            out=i < reps)

    for i in range(6 if not tiny else 1):
        y0 = rng.randint(1970, 2000)
        years = list(range(y0, y0 + rng.randint(8, 30)))
        a, k = math.exp(rng.uniform(-1, 6)), rng.choice((-1, 1)) * rng.uniform(0.02, 0.6)
        path = inputs / f"fit_{i}.csv"
        _write_csv(path, [(y, a * math.exp(k * (y - y0))) for y in years])
        argv = ["fit", "--input", str(path.relative_to(inputs.parent))]
        window = [years[0], years[-1]]
        if rng.random() < 0.5:
            window = [rng.randint(years[0], years[-4]), 0]
            window[1] = rng.randint(window[0] + 3, years[-1])
            argv += ["--from", str(window[0]), "--to", str(window[1])]
        as_json = i % 2 == 0
        add(argv + (["--json"] if as_json else []),
            {"kind": "fit", "k": k, "window": window, "n_points": window[1] - window[0] + 1,
             "json": as_json})

    for i in range(6 if not tiny else 1):
        y0 = rng.randint(1975, 1995)
        years = list(range(y0, y0 + rng.randint(12, 25)))
        k_t = rng.uniform(-0.1, 0.1)
        k_r = k_t + rng.uniform(0.1, 0.8)
        # fractional crossover kept away from whole years so its ceiling is robust
        t_star = y0 + rng.randint(2, len(years) - 3) + rng.uniform(0.15, 0.85)
        a_t = math.exp(rng.uniform(-2, 3))
        a_r = a_t * math.exp(-(k_r - k_t) * (t_star - y0))
        rep = [(y, a_r * math.exp(k_r * (y - y0))) for y in years]
        tgt = [(y, a_t * math.exp(k_t * (y - y0))) for y in years]
        rpath, tpath = inputs / f"replacement_{i}.csv", inputs / f"target_{i}.csv"
        _write_csv(rpath, rep)
        _write_csv(tpath, tgt)
        argv = ["crossover", "--replacement", str(rpath.relative_to(inputs.parent)),
                "--target", str(tpath.relative_to(inputs.parent))]
        fitted = i % 3 != 2
        if fitted:
            argv.append("--fitted")
            if rng.random() < 0.5:
                argv += ["--from", str(years[1])]
            check = {"kind": "crossover", "year": math.ceil(t_star), "fractional": t_star}
        else:
            check = {"kind": "crossover", "year": _sustained_crossover(rep, tgt), "fractional": None}
        as_json = i % 2 == 0
        add(argv + (["--json"] if as_json else []), {**check, "json": as_json})

    for i in range(4 if not tiny else 1):
        y0 = rng.randint(1980, 2000)
        years = list(range(y0, y0 + rng.randint(10, 25)))
        mid, slope, cap = y0 + rng.uniform(3, 12), rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.0)
        shares = [(y, cap / (1 + math.exp(-slope * (y - mid)))) for y in years]
        while True:
            threshold = round(rng.uniform(0.01, 0.5), 3)
            if all(abs(v - threshold) > 1e-9 for _, v in shares):
                break
        path = inputs / f"share_{i}.csv"
        _write_csv(path, shares)
        year = next((y for y, v in shares if v >= threshold), None)
        as_json = i % 2 == 0
        add(["knee", "--input", str(path.relative_to(inputs.parent)), "--threshold", repr(threshold)]
            + (["--json"] if as_json else []),
            {"kind": "knee", "year": year, "json": as_json})

    rng.shuffle(invs)
    for i, inv in enumerate(invs):
        if inv.pop("out"):
            inv["argv"] += ["--out", f"out/i{i:02d}"]
            inv["check"]["out"] = f"out/i{i:02d}"
    return invs


# ---------------------------------------------------------------------------
# sweep_shared: why -- the scenarios share most of their results: the
# 13,200 scenarios have only 88 distinct crossovers (2 targets x 2
# references x 22 detections) and 150 distinct knees (3 metrics x 50
# thresholds). Per-scenario recomputation in sweep, series, adoption and
# fitting dominates, so memoising those stages shows here. Bundled tables
# only; the default seed's config is committed as bench/sweep_13k.json.


def sweep_shared_config(seed: int, tiny: bool = False) -> dict:
    rng = random.Random(f"sweep_shared:{seed}")
    unit_minutes = rng.randint(2, 90)
    windows = _windows(rng, 20, 5)
    thresholds = sorted(rng.sample(range(1, 100), 50))
    doc = {
        "case": "audio",
        "targets": ["mail_cd", "mail_cassette"],
        "reference_media": ["album", "song"],
        "usage_metrics": ["minutes", "raw_bits", f"units:{unit_minutes}"],
        "detection": ["empirical", "fitted"] + windows,
        "knee_thresholds": [t / 100 for t in thresholds],
    }
    if tiny:
        doc["detection"] = doc["detection"][:3]
        doc["knee_thresholds"] = doc["knee_thresholds"][:3]
    return doc


def _sweep(doc: dict, inputs: Path, name: str) -> list[dict]:
    path = inputs / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return [{
        "argv": ["techknee", "sweep", "--config", str(path.relative_to(inputs.parent)), "--out", "out/sweep"],
        "check": {"kind": "sweep", "out": "out/sweep", "config": str(path.relative_to(inputs.parent))},
    }]


# ---------------------------------------------------------------------------
# sweep_custom: why -- the same layers the other way round. Every scenario
# has its own crossover key (targets x references x detections, all
# distinct) and there is a single knee key, so a crossover-only cache
# gains nothing. Targets and competitor data come from user CSVs through
# parse_series_csv and extend_datasets, custom-series targets skip
# annualize, and work moved into set-up shows as a cost here.


def sweep_custom_config(seed: int, inputs: Path, tiny: bool = False) -> dict:
    rng = random.Random(f"sweep_custom:{seed}")
    years = range(FIRST_YEAR, LAST_YEAR + 1)
    n_series, n_mail, n_media, n_windows = (2, 1, 1, 4) if tiny else (6, 4, 5, 118)

    custom_series = {}
    for i in range(n_series):
        a, k = rng.uniform(0.3, 5.0), rng.uniform(-0.06, 0.06)
        pairs = [(y, a * math.exp(k * (y - FIRST_YEAR) + rng.gauss(0, 0.05))) for y in years]
        _write_csv(inputs / "custom" / f"target_{i}.csv", pairs)
        custom_series[f"drive_{i}"] = {"path": f"custom/target_{i}.csv",
                                       "unit": "media-units-per-real-dollar"}
    custom_targets = {f"mail_w{i}": {"weight_ounces": rng.randint(1, 8)} for i in range(n_mail)}

    geometry = ((240, 320), (480, 640), (720, 1280), (1080, 1920))
    custom_media = {}
    for i in range(n_media):
        height, width = rng.choice(geometry)
        custom_media[f"video_{i}"] = {
            "kind": "video", "length_seconds": rng.randint(60, 7200), "pixel_height": height,
            "pixel_width": width, "bits_per_pixel": 24, "frames_per_second": rng.choice((24, 25, 30)),
        }

    mix = []
    for i in range(3):
        mid, slope, cap = rng.uniform(1995, 2008), rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.33)
        pairs = [(y, cap / (1 + math.exp(-slope * (y - mid)))) for y in range(1984, 2015)]
        _write_csv(inputs / "custom" / f"protocol_{i}.csv", pairs)
        mix.append({"path": f"custom/protocol_{i}.csv", "media_fraction": round(rng.uniform(0.2, 1.0), 3)})

    physical = []
    for i, kind in enumerate(("analog", "digital", "analog")):
        peak, width = rng.uniform(1995, 2005), rng.uniform(4, 10)
        scale = rng.uniform(2e8, 1e9)
        pairs = [(y, scale * math.exp(-((y - peak) / width) ** 2) + 1e6) for y in range(1990, 2013)]
        _write_csv(inputs / "custom" / f"sales_{i}.csv", pairs)
        entry = {"name": f"{kind}_{i}", "kind": kind, "sales_path": f"custom/sales_{i}.csv"}
        if kind == "analog":
            entry["minutes_per_unit"] = rng.choice((90, 120, 180, 240))
        else:
            entry["unit_storage_megabytes"] = rng.choice((4700, 8500, 25000))
        physical.append(entry)

    return {
        "case": "video",
        "targets": list(custom_series) + list(custom_targets),
        "reference_media": list(custom_media) + ["clip", "sd_movie", "hd_movie"],
        "usage_metrics": [f"units:{rng.randint(2, 120)}"],
        "detection": ["empirical", "fitted"] + _windows(rng, n_windows, 4),
        "knee_thresholds": [round(rng.uniform(0.02, 0.3), 3)],
        "custom_series": custom_series,
        "custom_targets": custom_targets,
        "custom_media": custom_media,
        "protocol_mix": {"video": mix},
        "custom_physical_media": {"video": physical},
    }


def generate(workload: str, seed: int, inputs: Path, tiny: bool = False) -> list[dict]:
    """Write a workload's inputs under `inputs`; return its invocations."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "cli_cold":
        return _cli_cold(random.Random(f"cli_cold:{seed}"), inputs, tiny)
    if workload == "sweep_shared":
        return _sweep(sweep_shared_config(seed, tiny), inputs, "sweep_shared")
    if workload == "sweep_custom":
        return _sweep(sweep_custom_config(seed, inputs, tiny), inputs, "sweep_custom")
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    for workload in WORKLOADS:
        invs = generate(workload, args.seed, args.out / workload / "inputs")
        (args.out / workload / "argv.json").write_text(json.dumps(invs, indent=1) + "\n", encoding="utf-8")
        print(f"{workload}: {len(invs)} invocations -> {args.out / workload}")


if __name__ == "__main__":
    main()
