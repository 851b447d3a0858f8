#!/usr/bin/env python3
"""polymerlab benchmark: seeded jobs in a closed loop, one in flight.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload r5_campaign --seed 1 --seconds 32 --trace 0

``--trace 0`` runs jobs until ``--seconds`` have passed and prints the
end-to-end metrics, over job times scaled by a reference kernel timed
around each job.  ``--trace 1`` runs a fixed number of jobs, each once
untraced and once with spans around the public calls of every layer, and
prints the per-layer metrics.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; attempted and failed
count replicas.  A run record with provenance, per-job wall times and
output digests (and, when traced, the spans) is written under
``.perfbench_runs/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# threads = 1: keep numerical libraries to one thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
WORKLOADS = ("r5_campaign", "gibbs_tail", "beta_c")
# fresh-process set-ups timed per run besides the run's own
SETUP_PROBES = 4
# jobs that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
# The host's speed drifts by a sixth or more over minutes, for a fixed
# kernel as much as for the jobs.  The kernel is timed just before and
# just after every untraced job, and the job's wall time is scaled to a
# host on which the kernel takes REFERENCE_S (its median on the host that
# defined the benchmark); see perfbench/README.md.
REFERENCE_LOOPS = 100_000
REFERENCE_TABLE = 512
REFERENCE_PASSES = 5
REFERENCE_S = 0.030


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, one job, one set-up probe (for the smoke test)",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _reference() -> float:
    """Seconds the reference kernel takes on the host right now: an integer
    loop in pure Python, then the per-column slice, subtract and max of a
    small dynamic program, the two parts of about equal cost."""
    import numpy as np  # first called after set-up, which times the import

    table = np.linspace(0.0, 1.0, REFERENCE_TABLE ** 2).reshape(
        REFERENCE_TABLE, REFERENCE_TABLE)
    row = table[0].copy()
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i ^ (i >> 3)
    for _ in range(REFERENCE_PASSES):
        for j in range(1, REFERENCE_TABLE):
            total += float((row[:j] - table[:j, j]).max())
    return time.perf_counter() - start


def _setup(name: str, smoke: bool):
    """Import, validate, classify and fill caches; returns (workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports polymerlab: part of set-up)

    workload = workloads.workloads(smoke)[name]
    workload.setup()
    return workload, time.perf_counter() - start


def _probe_setups(args, count: int) -> list:
    """Set-up times of ``count`` fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _run_job(workload, seed: int, index: int, work_dir: Path, tracer=None) -> dict:
    """One timed job plus its untimed checks; an untraced job is bracketed
    by the reference kernel, and ``scaled_s`` is its wall time at REFERENCE_S."""
    from polymerlab.experiments import derive_seed

    job_seed = derive_seed(seed, index)
    shutil.rmtree(work_dir, ignore_errors=True)
    raw, error = None, None
    before = None if tracer else _reference()
    with tracer.recording(index) if tracer else nullcontext():
        start = time.perf_counter()
        try:
            raw = workload.run(job_seed, work_dir)
        except Exception:  # a raising job fails its replicas; the run goes on
            error = traceback.format_exc()
        wall = time.perf_counter() - start
    record = {"index": index, "seed": job_seed, "wall_s": wall,
              "replicas": workload.replicas}
    if not tracer:
        reference = (before + _reference()) / 2
        record.update(reference_s=reference, scaled_s=wall * REFERENCE_S / reference)
    if error is None:
        try:
            check = workload.check(job_seed, raw, work_dir)
        except Exception:  # a check that raises is a failed check
            error = traceback.format_exc()
    if error is not None:
        record.update(failed=workload.replicas, digest=None, problems=[error])
    else:
        record.update(failed=check.failed, digest=check.digest,
                      problems=check.problems)
    for problem in record["problems"]:
        print(f"job {index}: {problem}", file=sys.stderr)
    return record


def _tail(times: list):
    """Wall time at the highest percentile with TAIL_BEYOND jobs beyond it;
    with too few jobs, the slowest job at percentile 100."""
    ordered = sorted(times)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def _provenance(args, workload) -> dict:
    import numpy
    import scipy

    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        described = done.stdout.strip() or "unknown"
    except OSError:
        described = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_describe": described,
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "replicas_per_job": workload.replicas,
        "threads": 1,
    }


def _end_to_end(jobs: list, setup_times: list, key: str = "scaled_s") -> dict:
    """The end-to-end metrics over job times ``key`` (scaled or raw wall)."""
    times = [j[key] for j in jobs]
    attempted = sum(j["replicas"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    tail, _ = _tail(times)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "throughput_rps": {"value": attempted / sum(times), "unit": "1/s"},
        "job_p50_s": {"value": statistics.median(times), "unit": "s"},
        "job_tail_s": {"value": tail, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "success_fraction": {"value": 1.0 - failed / attempted, "unit": "fraction"},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "polymerlab" / "__init__.py").is_file():
        print(f"error: no polymerlab sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    # git describe (here and in write_outputs) stays inside the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)

    workload, setup_here = _setup(args.workload, args.smoke)
    if args.probe_setup:
        print(repr(setup_here))
        return 0
    import polymerlab

    if Path(polymerlab.__file__).resolve().parent != (SRC / "polymerlab").resolve():
        print(f"error: polymerlab imported from {polymerlab.__file__}", file=sys.stderr)
        return 2

    work_dir = OUT / f"work-{os.getpid()}"
    max_jobs = 1 if args.smoke else None
    jobs, traced = [], []
    try:
        if args.trace == 0:
            setup_times = [setup_here] + _probe_setups(
                args, 1 if args.smoke else SETUP_PROBES)
            start = time.perf_counter()
            while not jobs or (time.perf_counter() - start < args.seconds
                               and (max_jobs is None or len(jobs) < max_jobs)):
                jobs.append(_run_job(workload, args.seed, len(jobs), work_dir))
        else:
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
            # a fixed job count, so per-layer sums and counts compare
            # across commits; about --seconds at the defining commit
            count = max_jobs or max(1, round(args.seconds / (2 * workload.nominal_job_s)))
            for index in range(count):
                jobs.append(_run_job(workload, args.seed, index, work_dir))
                traced.append(_run_job(workload, args.seed, index, work_dir, tracer))
                if traced[-1]["digest"] != jobs[-1]["digest"]:
                    traced[-1]["problems"].append("traced output digest differs")
                    traced[-1]["failed"] = traced[-1]["replicas"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    every = jobs + traced
    attempted = sum(j["replicas"] for j in every)
    failed = sum(j["failed"] for j in every)
    if args.trace == 0:
        metrics = _end_to_end(jobs, setup_times)
        _, tail_pct = _tail([j["wall_s"] for j in jobs])
        extra = {"setup_samples_s": setup_times, "job_tail_percentile": tail_pct,
                 "reference_s": REFERENCE_S,
                 "unscaled_metrics": _end_to_end(jobs, setup_times, "wall_s")}
    else:
        metrics = layer_metrics(tracer.spans, sum(j["wall_s"] for j in traced),
                                sum(j["wall_s"] for j in jobs))
        extra = {"spans": len(tracer.spans)}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "provenance": _provenance(args, workload),
        "jobs": len(jobs), "replicas": attempted, "failed": failed,
        **extra, "metrics": metrics, "job_records": jobs, "traced_job_records": traced,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(
            {"columns": ["name", "start", "end", "parent", "job", "work"],
             "spans": tracer.spans}) + "\n")
    print(f"run record: {OUT / stem}.json", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
