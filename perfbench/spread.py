#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload beta_c --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed, one after another, with the
``run_seconds`` of BENCHMARK.json, and prints for each end-to-end metric
its median and the distance between its first and third quartile as a
share of the median, next to the metric's bound.  The same figures for
the unscaled job wall times, taken from the run records, follow.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    values, unscaled = {}, {}
    for seed in args.seeds:
        done = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        record = done.stderr.split("run record: ")[-1].strip()
        for name, metric in json.loads(Path(record).read_text())[
                "unscaled_metrics"].items():
            unscaled.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()))
    for title, table in (("scaled", values), ("unscaled", unscaled)):
        print(title)
        for spec in bench["end_to_end"]:
            vals = table[spec["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"  {spec['name']:18s} median {med:.5g} {spec['unit']:8s} "
                  f"spread {(q3 - q1) / med:.4f}  bound {spec['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
