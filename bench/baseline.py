"""Summarise the results in .bench_work/results/ into one baseline file.

    python3 bench/baseline.py --out bench/results/BENCH_<commit>.json

For each workload and mode (untraced, traced) it gives every metric's
median and quartiles over the seeds run, with the environment blocks of
those runs. Each committed file is one point of the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

import run


def summarise(results: list[dict]) -> dict:
    groups: dict[str, list[dict]] = {}
    for r in results:
        groups.setdefault(f"{r['env']['workload']}:trace{r['env']['trace']}", []).append(r)
    out = {}
    for key, rs in sorted(groups.items()):
        rs.sort(key=lambda r: r["env"]["seed"])
        metrics = {}
        for name, m in rs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in rs]
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            metrics[name] = {"unit": m["unit"], "median": statistics.median(values),
                             "q1": q[0], "q3": q[2], "n": len(values)}
        out[key] = {
            "seeds": [r["env"]["seed"] for r in rs],
            "correct": all(r["correct"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "metrics": metrics,
            "env": [r["env"] for r in rs],
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    results = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted((run.WORK_ROOT / "results").glob("*.json"))]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summarise(results), indent=1) + "\n", encoding="utf-8")
    print(f"{len(results)} results -> {args.out}")


if __name__ == "__main__":
    main()
