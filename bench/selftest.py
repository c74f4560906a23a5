"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload untraced and traced at tiny sizes and checks that
each metric BENCHMARK.json names is emitted with its unit; checks that the output checker flags a tampered results.csv row
and a changed reproduce status; and checks that the generator is
deterministic and that its default seed still gives bench/sweep_13k.json.
Exits 1 if anything fails. It is not a pytest module, so the test suite
neither runs nor times it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import check
import run
import workloads

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def metric_names() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[kind]}
        for name in workloads.WORKLOADS:
            result = run.run_workload(name, seed=3, seconds=0, trace=trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(result["correct"], f"{name} trace={int(trace)}: outputs pass the checker")
            expect(got == want, f"{name} trace={int(trace)}: emits every {kind} metric with its unit"
                   + ("" if got == want else f" (differs: {sorted(set(got.items()) ^ set(want.items()))})"))


def checker_flags_tampering(work: Path) -> None:
    sys.path.insert(0, str(run.SRC))
    from techknee.cli import main

    (sweep,) = workloads.generate("sweep_shared", 3, work / "inputs", tiny=True)
    reproduce = {"argv": ["techknee", "reproduce", "--json"], "check": {"kind": "reproduce", "json": True}}
    here = Path.cwd()
    os.chdir(work)
    try:
        problems, _ = run.run_in_process(main, sweep, work)
        expect(not problems, f"untouched sweep output passes {problems[:1]}")
        results = work / sweep["check"]["out"] / "results.csv"
        lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
        row = lines[5].rstrip("\n").split(",")
        row[-1] = str(int(row[-1] or 2000) + 1)
        lines[5] = ",".join(row) + "\n"
        results.write_text("".join(lines), encoding="utf-8")
        problems, _ = check.check(sweep, 0, "", "", work)
        expect(bool(problems), f"a tampered results.csv row is flagged {problems[:1]}")

        buf = StringIO()
        with redirect_stdout(buf):
            main(reproduce["argv"][1:])
        problems, _ = check.check(reproduce, 0, buf.getvalue(), "", work)
        expect(not problems, "untouched reproduce --json passes")
        doc = json.loads(buf.getvalue())
        cell = next(c for c in doc["cells"] if c["status"] == "exact")
        cell["status"] = "within_tolerance"
        problems, _ = check.check(reproduce, 0, json.dumps(doc), "", work)
        expect(bool(problems), f"a changed reproduce status is flagged {problems[:1]}")
        problems, _ = check.check(reproduce, 1, buf.getvalue(), "Traceback (most recent call last):\n", work)
        expect(len(problems) == 2, "a non-zero exit and a traceback are flagged")
    finally:
        os.chdir(here)


def generator_is_deterministic(work: Path) -> None:
    for w in workloads.WORKLOADS:
        a = workloads.generate(w, 7, work / f"{w}-a" / "inputs")
        b = workloads.generate(w, 7, work / f"{w}-b" / "inputs")
        files_a = {p.relative_to(work / f"{w}-a"): p.read_bytes() for p in (work / f"{w}-a").rglob("*.*")}
        files_b = {p.relative_to(work / f"{w}-b"): p.read_bytes() for p in (work / f"{w}-b").rglob("*.*")}
        expect(a == b and files_a == files_b, f"{w}: the same seed gives the same argv and files")
    committed = json.loads((run.HERE / "sweep_13k.json").read_text(encoding="utf-8"))
    generated = workloads.sweep_shared_config(workloads.DEFAULT_SEED)
    expect(committed == generated and len(workloads.scenario_ids(generated)) == 13200,
           "the default seed gives the committed 13,200-scenario bench/sweep_13k.json")


def main() -> int:
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    metric_names()
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        checker_flags_tampering(Path(tmp) / "tamper")
        generator_is_deterministic(Path(tmp) / "gen")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
