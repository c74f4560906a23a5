"""Run one techknee benchmark workload, check its outputs, print its metrics.

    python3 bench/run.py --workload cli_cold --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the program is run from `src/`
with nothing installed. Workloads are generated from the seed by
workloads.py and every output is checked by check.py.

--trace 0 drives `techknee` from this single-threaded process as a closed
loop: each invocation is a fresh interpreter that starts only after the
previous one has exited. Passes over the workload repeat for --seconds.
Times are the best of those repeats: the fastest pass, and each command's
fastest run. On a shared machine whose speed drifts for tens of seconds
at a time, they vary far less from run to run than medians do; the
medians are printed as notes. Set-up time is the median of set-ups
spread over the run.

--trace 1 calls `techknee.cli.main(argv)` in this process for every
invocation, once untraced and once with tracer.py's spans installed, and
reports the per-layer metrics; it makes one pass whatever --seconds says.
End-to-end numbers never come from it.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. The full result,
with its environment block, is also written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

LAUNCH = "import sys; from techknee.cli import app; sys.argv[0] = 'techknee'; app()"
SETUP = "import sys, techknee.cli; from techknee.datasets import load_all; d = load_all()"
SETUP_CONFIG = (
    "; import json, pathlib; from techknee.sweep import SweepConfig, extend_datasets"
    "; p = pathlib.Path(sys.argv[1]); doc = json.loads(p.read_text())"
    "; extend_datasets(d, doc, base_dir=p.parent); SweepConfig.from_json(doc)"
)
SETUPS_PER_PASS = 2
IMPORT_RUNS = 7
CHILD_TIMEOUT_S = 90.0


def child_env() -> dict:
    """The caller's environment without settings that change how the
    program runs (bytecode caching, buffering, data directory)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "TECHKNEE_DATA"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], cwd: Path, stdout: Path | None = None, stderr: Path | None = None):
    """Run one child to completion; (seconds from spawn to exit, max RSS MB, exit code)."""
    out = open(stdout, "wb") if stdout else subprocess.DEVNULL
    err = open(stderr, "wb") if stderr else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for f in (out, err):
            if f is not subprocess.DEVNULL:
                f.close()
    return elapsed, usage.ru_maxrss / 1024, proc.returncode


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with at least ten samples above it (the
    maximum when there are fewer than eleven); (value, percentile, n)."""
    s = sorted(samples)
    n = len(s)
    i = n - 11 if n >= 11 else n - 1
    return s[i], 100.0 * (i + 1) / n, n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# untraced: end-to-end metrics


def measure(invs: list[dict], work: Path, seconds: float, setup_argv: list[str], notes: list[str]):
    spawn(setup_argv, work)  # fills the bytecode caches
    logs = work / "logs"
    logs.mkdir()
    setups, passes, rss, attempted, failed = [], [], [], 0, 0
    per_command: list[list[float]] = [[] for _ in invs]
    scenarios = [0] * len(invs)
    start = time.perf_counter()
    # Passes repeat while the next one is expected to end within --seconds.
    # Set-ups are spread between passes so that they sample the whole run.
    while not passes or (time.perf_counter() - start
                         + statistics.median(p["wall_s"] + p["setup_s"] for p in passes)) <= seconds:
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            elapsed, _, code = spawn(setup_argv, work)
            setups.append(elapsed)
            if code != 0:
                notes.append(f"set-up exited {code}")
        setup_s = time.perf_counter() - t0
        shutil.rmtree(work / "out", ignore_errors=True)
        records = []
        t0 = time.perf_counter()
        for i, inv in enumerate(invs):
            argv = [sys.executable, "-c", LAUNCH, *inv["argv"][1:]]
            records.append(spawn(argv, work, logs / f"{i}.out", logs / f"{i}.err"))
        passes.append({"wall_s": time.perf_counter() - t0, "setup_s": setup_s})
        for i, (inv, (elapsed, peak, code)) in enumerate(zip(invs, records)):
            problems, n = check.check(inv, code, (logs / f"{i}.out").read_text(),
                                      (logs / f"{i}.err").read_text(), work)
            attempted += 1
            scenarios[i] = max(scenarios[i], n)
            if problems:
                failed += 1
                notes.append(f"{' '.join(inv['argv'])}: {'; '.join(problems[:3])}")
            per_command[i].append(elapsed)
            rss.append(peak)

    durations = [t for ts in per_command for t in ts]
    best = [min(ts) for ts in per_command]
    # The tail is printed, not gated: with fewer than eleven invocations in
    # a run (the sweeps) no percentile has ten samples above it.
    tail_value, tail_pct, n = tail(durations)
    notes.append(f"{len(passes)} passes, {n} invocations; median pass "
                 f"{statistics.median(p['wall_s'] for p in passes)} s, median invocation "
                 f"{statistics.median(durations)} s; cmd_tail_s {tail_value} s is p{tail_pct:.1f} "
                 f"({n - round(tail_pct * n / 100)} samples above it)")
    metrics = {
        "wall_s": metric(min(p["wall_s"] for p in passes), "s"),
        "cmd_p50_s": metric(statistics.median(best), "s"),
        "scenarios_per_s": metric(sum(scenarios) / sum(best), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(max(rss), "MB"),
    }
    return metrics, attempted, failed, {"passes": passes, "setup_s": setups, "command_s": per_command}


# ---------------------------------------------------------------------------
# traced: per-layer metrics


def run_in_process(main, inv: dict, work: Path) -> tuple[list[str], int]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(inv["argv"][1:])
    except Exception:
        code = 1
        err.write(traceback.format_exc())
    return check.check(inv, code, out.getvalue(), err.getvalue(), work)


def in_process_pass(main, invs: list[dict], work: Path, notes: list[str], tr: tracer.Tracer | None = None):
    shutil.rmtree(work / "out", ignore_errors=True)
    failed = 0
    t0 = time.perf_counter()
    for i, inv in enumerate(invs):
        if tr is not None:
            tr.current_invocation = i
        problems, _ = run_in_process(main, inv, work)
        if problems:
            failed += 1
            notes.append(f"{' '.join(inv['argv'])}: {'; '.join(problems[:3])}")
    return time.perf_counter() - t0, failed


def us_per_scenario(seed: int, tiny: bool) -> dict:
    """In-process run_sweep on prefixes of the sweep_shared config."""
    from techknee.datasets import load_all
    from techknee.sweep import SweepConfig, run_sweep

    doc = workloads.sweep_shared_config(seed, tiny)
    prefix = dict(doc, targets=doc["targets"][:1], reference_media=doc["reference_media"][:1],
                  usage_metrics=doc["usage_metrics"][:1])
    sizes = {
        "n100": dict(prefix, detection=doc["detection"][:2]),
        "n1000": dict(prefix, detection=doc["detection"][:20]),
        "n13200": doc,
    }
    datasets = load_all()
    out = {}
    for name, cfg in sizes.items():
        config = SweepConfig.from_json(cfg)
        t0 = time.perf_counter()
        n = len(run_sweep(config, datasets))
        out[f"sweep.us_per_scenario.{name}"] = metric((time.perf_counter() - t0) / n * 1e6, "us")
    return out


def import_seconds(work: Path) -> float:
    """Fresh-process `import techknee.cli` minus a bare interpreter start."""
    bare, full = [], []
    spawn([sys.executable, "-c", "import techknee.cli"], work)
    for _ in range(IMPORT_RUNS):
        bare.append(spawn([sys.executable, "-c", "pass"], work)[0])
        full.append(spawn([sys.executable, "-c", "import techknee.cli"], work)[0])
    return statistics.median(full) - statistics.median(bare)


def traced(workload: str, seed: int, invs: list[dict], work: Path, tiny: bool, notes: list[str]):
    sys.path.insert(0, str(SRC))
    import techknee.cli

    here = Path.cwd()
    os.chdir(work)
    try:
        plain_s, failed = in_process_pass(techknee.cli.main, invs, work, notes)
        tr = tracer.Tracer(workload)
        main = tr.span("cli.main", techknee.cli.main)
        tr.install()
        try:
            traced_s, traced_failed = in_process_pass(main, invs, work, notes, tr)
        finally:
            tr.uninstall()
    finally:
        os.chdir(here)
    tr.write_jsonl(WORK_ROOT / f"trace-{workload}.jsonl")

    t = tr.totals()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "distinct": 0}
    get = lambda name: t.get(name, empty)  # noqa: E731
    m = {}
    m["cli.import_s"] = metric(import_seconds(work), "s")
    m["cli.main_s"] = metric(get("cli.main")["s"], "s")
    m["cli.main_self_s"] = metric(get("cli.main")["self_s"], "s")
    data = SRC / "techknee" / "data"
    table_bytes = sum(p.stat().st_size for p in data.glob("*.csv"))
    for name in ("datasets.load_all", "datasets.parse_series_csv"):
        m[f"{name}_calls"] = metric(get(name)["calls"], "count")
        m[f"{name}_s"] = metric(get(name)["s"], "s")
    m["datasets.bytes_hashed"] = metric(get("datasets.load_all")["calls"] * table_bytes, "B")
    for name in ("sweep.extend_datasets", "sweep.enumerate_scenarios", "sweep.feasibility_range",
                 "sweep.reproduce_case_studies", "plots.write_tidy_csv", "plots.write_case_svg"):
        m[f"{name}_s"] = metric(get(name)["s"], "s")
    m["sweep.run_scenario_calls"] = metric(get("sweep.run_scenario")["calls"], "count")
    m["sweep.run_scenario_self_s"] = metric(get("sweep.run_scenario")["self_s"], "s")
    for name in ("sweep.replacement_performance", "sweep.target_performance", "sweep.adoption_series",
                 "fitting.fit_exponential", "fitting.crossover", "fitting.knee"):
        calls = get(name)["calls"]
        m[f"{name}_calls"] = metric(calls, "count")
        m[f"{name}_s"] = metric(get(name)["s"], "s")
        m[f"{name}_useful"] = metric(get(name).get("distinct", 0) / calls if calls else 0.0, "ratio")
    for name in ("series.annualize", "costs.internet_distribution_perf",
                 "costs.mail_distribution_perf", "adoption.adoption_share"):
        m[f"{name}_calls"] = metric(get(name)["calls"], "count")
        m[f"{name}_s"] = metric(get(name)["s"], "s")
    m["series.annual_series_built"] = metric(get("series.validate")["calls"], "count")
    m["series.validate_s"] = metric(get("series.validate")["s"], "s")
    m["adoption.usage_build_s"] = metric(get("adoption.usage_build")["s"], "s")
    m["plots.bytes_written"] = metric(tr.bytes_written, "B")
    m.update(us_per_scenario(seed, tiny))
    m["trace.overhead_frac"] = metric(traced_s / plain_s - 1.0, "ratio")
    for name in ("sweep.target_performance", "fitting.crossover", "fitting.knee"):
        notes.append(f"{name}_useful = {get(name).get('distinct', 0)}/{get(name)['calls']}")
    notes.append(f"{len(tr.start)} spans; in-process pass {plain_s:.3f} s untraced, {traced_s:.3f} s traced")
    return m, 2 * len(invs), failed + traced_failed, {}


# ---------------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }
    work = WORK_ROOT / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    notes: list[str] = []
    try:
        invs = workloads.generate(workload, seed, work / "inputs", tiny)
        for inv in invs:
            if inv["check"]["kind"] == "sweep" and not tiny:
                inv["check"]["digest_key"] = f"{workload}:{seed}"
        if trace:
            metrics, attempted, failed, details = traced(workload, seed, invs, work, tiny, notes)
        else:
            setup_argv = [sys.executable, "-c", SETUP]
            if workload == "sweep_custom":
                setup_argv = [sys.executable, "-c", SETUP + SETUP_CONFIG, invs[0]["check"]["config"]]
            metrics, attempted, failed, details = measure(invs, work, seconds, setup_argv, notes)
        for spec in (inv["check"] for inv in invs if "digest" in inv["check"]):
            recorded = check.expected()["sweep_digests"].get(spec.get("digest_key"))
            notes.append(f"sweep digest {spec['digest']} (recorded for this seed: {recorded or 'none'})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = list(os.getloadavg())
    correct = failed == 0 and not any(n.startswith("set-up") for n in notes)
    return {"env": env, "notes": notes, "details": details, "correct": correct,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one techknee benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "techknee" / "cli.py").is_file():
        print(f"error: no techknee source under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    (WORK_ROOT / "results").mkdir(parents=True, exist_ok=True)
    path = WORK_ROOT / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"env {json.dumps(result['env'])}")
    for note in result["notes"]:
        print(f"note {note}")
    print(f"fail_frac {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']} invocations failed)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
