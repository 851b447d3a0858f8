"""Smoke test of the benchmark at tiny sizes, one job per workload.

    python -m pytest perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric BENCHMARK.json names
is printed with its unit, that the outputs pass the benchmark's checks,
and that a threshold still costs exactly 42 chain solves.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_emitted_with_units(workload, trace, section):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    if workload == "beta_c" and trace == 1:
        assert result["metrics"]["continuum.solves_per_threshold"]["value"] == 42


def test_refuses_to_run_without_sources():
    # the benchmark directory itself has no src/polymerlab beneath it
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "beta_c",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT / "perfbench", capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
