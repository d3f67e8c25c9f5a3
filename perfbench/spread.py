"""Run the benchmark over ten seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py \
        --save perfbench/results/BENCH_1.json --previous perfbench/results/BENCH_0.json

Every workload of ``BENCHMARK.json`` runs with seeds 1 to 10, for
``run_seconds`` each, untraced. For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound from ``BENCHMARK.json``. ``--save`` writes those figures to a results file, and
``--previous`` prints each median against an earlier results file, as a ratio
over its base.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
import results  # noqa: E402
import run  # noqa: E402

SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--save", help="results file to write")
    p.add_argument("--previous", help="results file to compare medians with")
    args = p.parse_args(argv)

    doc = {"seeds": f"{SEEDS[0]}-{SEEDS[-1]}", "seconds": seconds,
           "environment": run.environment(), "workloads": {}}
    previous = results.load(args.previous) if args.previous else None
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, seconds) for s in SEEDS]
        units = {k: m["unit"] for k, m in runs[0]["metrics"].items()}
        stats = {k: summarize([r["metrics"][k]["value"] for r in runs])
                 for k in units}
        doc["workloads"][workload] = {
            "units": units, "metrics": stats,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs)}
        print(f"{workload}: {len(runs)} runs, all correct: "
              f"{doc['workloads'][workload]['correct']}")
        for k, s in stats.items():
            bound = bounds.get(k)
            mark = ("" if bound is None or k == "setup_s"
                    else " OVER BOUND" if s["spread"] > bound
                    else " over a third of bound" if s["spread"] > bound / 3
                    else "")
            print(f"  {k}: median {s['median']:.6g} {units[k]}, quartiles "
                  f"{s['q1']:.6g}..{s['q3']:.6g}, spread {s['spread']:.4f} "
                  f"(bound {bound}){mark}")
        if previous and workload in previous["workloads"]:
            old = previous["workloads"][workload]
            print(f"  medians against {args.previous}:")
            for line in results.diff_lines(
                    {k: {"value": s["median"], "unit": old["units"][k]}
                     for k, s in old["metrics"].items()},
                    {k: {"value": s["median"], "unit": units[k]}
                     for k, s in stats.items()}):
                print("  " + line)
    if args.save:
        results.save(args.save, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
