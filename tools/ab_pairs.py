"""Alternating A/B pairs of perfbench runs on two checkouts, as one JSON record.

Run from anywhere:

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload beta_c \\
        --pairs 5 --seconds 16 --first-seed 801 --out BENCH_beta_c_summary.json

Pair i runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` with S = first seed + i in each checkout, one process at a
time; the parent goes first in even pairs and the change in odd ones.
The record holds ``nproc``, each side's ``git describe``, every run's
metrics and ``correct`` flag, and a summary: each metric's median per
side, the parent's interquartile range (inclusive quartiles) and the
number of pairs in which the change is better, by the metric's
direction in the change's ``BENCHMARK.json``.  Exits 1 if any run is
incorrect or fails.  Stdlib only; nothing under either checkout is
written but the benchmark's own run records.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def directions(benchmark: dict) -> dict:
    """Metric name -> "higher" or "lower", off BENCHMARK.json's end_to_end list."""
    return {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}


def parse_result(stdout: str) -> dict:
    """The benchmark's last stdout line: {"correct", "attempted", "failed",
    "metrics"}, each metric a {"value", "unit"} record."""
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(runs, better: dict) -> dict:
    """Per-side medians, the parent's IQR and the change's win count per metric.

    ``runs`` are dicts with "pair", "side" and the parsed result's
    "correct" and "metrics"; only pairs whose two runs both report
    metrics count, and a pair is won when the change's value is strictly
    better than the parent's in that pair."""
    by_side = {side: {run["pair"]: run["metrics"] for run in runs
                      if run["side"] == side and run["metrics"]} for side in SIDES}
    pairs = sorted(set(by_side["parent"]) & set(by_side["change"]))
    summary = {"pairs": len(pairs), "all_correct": all(run["correct"] for run in runs),
               "median": {side: {} for side in SIDES}, "parent_iqr": {}, "change_wins": {}}
    for name, way in better.items() if pairs else ():
        parent, change = ([by_side[side][p][name]["value"] for p in pairs] for side in SIDES)
        summary["median"]["parent"][name] = statistics.median(parent)
        summary["median"]["change"][name] = statistics.median(change)
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(pairs) > 1 else parent * 3)
        summary["parent_iqr"][name] = q3 - q1
        sign = 1.0 if way == "higher" else -1.0
        summary["change_wins"][name] = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    return summary


def _describe(checkout: Path) -> str:
    done = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return {"correct": False, "metrics": {}, "returncode": done.returncode}
    return parse_result(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = directions(json.loads((checkouts["change"] / "BENCHMARK.json").read_text()))

    runs = []
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            result = _run(checkouts[side], args.workload, seed, args.seconds)
            runs.append({"pair": pair, "side": side, "seed": seed, **result})
            print(f"pair {pair} {side} seed {seed}: correct {result['correct']} "
                  f"{json.dumps(result['metrics'])}", file=sys.stderr)
    record = {
        "workload": args.workload, "seconds": args.seconds, "first_seed": args.first_seed,
        "nproc": len(os.sched_getaffinity(0)),
        "describe": {side: _describe(checkouts[side]) for side in SIDES},
        "runs": runs, "summary": summarize(runs, better),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if record["summary"]["all_correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
