"""The summary of tools/ab_pairs.py on canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def _line(throughput, p50, correct=True):
    return json.dumps({"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
                       "metrics": {"throughput_rps": {"value": throughput, "unit": "1/s"},
                                   "job_p50_s": {"value": p50, "unit": "s"}}})


CANNED = {  # (pair, side) -> the run's stdout, its result line last
    (0, "parent"): ("job 0: ok\n", 600.0, 0.0030),
    (0, "change"): ("", 690.0, 0.0026),
    (1, "change"): ("", 700.0, 0.0031),
    (1, "parent"): ("", 640.0, 0.0030),
    (2, "parent"): ("", 580.0, 0.0033),
    (2, "change"): ("", 560.0, 0.0027),
    (3, "parent"): ("", 620.0, 0.0032),
    (3, "change"): ("", 680.0, 0.0029),
}


def _runs(canned):
    return [{"pair": pair, "side": side, **ab_pairs.parse_result(head + _line(*values))}
            for (pair, side), (head, *values) in canned.items()]


def test_directions_follow_the_benchmark_file():
    better = ab_pairs.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert better["throughput_rps"] == "higher" and better["job_p50_s"] == "lower"


def test_summary_medians_parent_iqr_and_wins():
    better = {"throughput_rps": "higher", "job_p50_s": "lower"}
    summary = ab_pairs.summarize(_runs(CANNED), better)
    assert summary["pairs"] == 4 and summary["all_correct"]
    assert summary["median"]["parent"] == {"throughput_rps": 610.0,
                                           "job_p50_s": pytest.approx(0.0031)}
    assert summary["median"]["change"]["throughput_rps"] == 685.0
    # inclusive quartiles of 580, 600, 620, 640: 595 and 625
    assert summary["parent_iqr"]["throughput_rps"] == 30.0
    assert summary["change_wins"] == {"throughput_rps": 3, "job_p50_s": 3}


def test_a_failed_run_drops_its_pair_and_marks_the_record_incorrect():
    runs = _runs(CANNED)
    runs.append({"pair": 4, "side": "parent", **ab_pairs.parse_result(_line(1.0, 1.0, False))})
    runs.append({"pair": 4, "side": "change", "correct": False, "metrics": {}})
    summary = ab_pairs.summarize(runs, {"throughput_rps": "higher"})
    assert summary["pairs"] == 4 and not summary["all_correct"]
    assert summary["change_wins"] == {"throughput_rps": 3}
