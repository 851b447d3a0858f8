"""Spans around the public calls of each polymerlab layer.

While a job is recorded, every traced function is replaced by a wrapper
both in its defining module and in every polymerlab module that imported
it by name (``experiments.log_partition``, ``continuum.solve`` and
``regimes.critical_coupling`` are bindings of their own); all bindings
are restored when the job ends.  Spans stay in memory as rows
``[name, start, end, parent, job, work]``, where ``parent`` indexes the
enclosing span (-1 for none) and ``work`` is a size computed from the
call's arguments, so rates built on it are labelled *computed*.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _sites(a, result):
    return a["n"] * (2 * a["h"] + 1)


def _cells(a, result):
    """n * (2w + 1), w the half width the constraint makes the pass use."""
    n, constraint = a["field"].n, a["constraint"]
    w = n if constraint.band is None else min(constraint.band, n)
    if constraint.band_window is not None:
        w = min(w, constraint.band_window[1] - 1)
    return n * (2 * w + 1)


def _pairs(a, result):
    points = a["points"]
    m = len(getattr(points, "points", points))  # raw rows or a ChainGeometry
    return m * (m - 1) // 2


def _thresholds(a, result):
    return 2 * a["replicas"]  # the primary and the doubled truncation


def _bytes(a, result):
    return sum(p.stat().st_size for p in Path(a["out_dir"]).iterdir() if p.is_file())


# traced function -> the stats reported for it
REPORT = {
    "environment.sample_field": ("calls", "self_s", "ns_per_site"),
    "environment.ordered_statistics": ("self_s",),
    "environment.reachable_mask": ("calls", "self_s"),
    "polymer.log_partition": ("calls", "self_s", "ns_per_cell"),
    "polymer.gibbs_band_probability": ("calls", "self_s"),
    "polymer.chaos_terms": ("self_s",),
    "polymer.kernel_grid": ("self_s",),
    # the quadrature inside chaos_terms, kept out of its self time
    "polymer.log_mgf_truncated": ("self_s",),
    "elpp.solve": ("calls", "self_s", "us_per_pair"),
    "elpp.prepare_geometry": ("calls", "self_s"),
    "continuum.critical_coupling": ("self_s",),
    "continuum.sample_ppp": ("self_s",),
    "continuum.sample_heat_kernel_sum": ("self_s",),
    "regimes.classify": ("self_s",),
    "regimes.fluctuation_scale": ("calls",),
    "experiments.run_experiment": ("self_s",),
    "experiments.write_outputs": ("self_s", "bytes"),
    "cli.main": ("self_s",),
}

WORK = {
    "environment.sample_field": _sites,
    "polymer.log_partition": _cells,
    "elpp.solve": _pairs,
    "continuum.critical_coupling": _thresholds,
    "experiments.write_outputs": _bytes,
}


def _rate(scale):
    """Self time per unit of work; 0 where the layer did no work."""
    return lambda calls, self_s, work: scale * self_s / work if work else 0.0


# stat -> (unit, value from calls, self seconds and summed work)
STATS = {
    "calls": ("count", lambda calls, self_s, work: calls),
    "self_s": ("s", lambda calls, self_s, work: self_s),
    "ns_per_site": ("ns", _rate(1e9)),
    "ns_per_cell": ("ns", _rate(1e9)),
    "us_per_pair": ("us", _rate(1e6)),
    "bytes": ("bytes", lambda calls, self_s, work: work),
}


class Tracer:
    """Records spans of the traced functions during ``recording(job)``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None
        self._wrappers = {}  # id(original) -> (original, wrapper)
        for qualified in REPORT:
            module, name = qualified.split(".")
            original = getattr(sys.modules["polymerlab." + module], name)
            wrapper = self._wrap(qualified, original, WORK.get(qualified))
            self._wrappers[id(original)] = (original, wrapper)

    def _wrap(self, name, fn, work):
        signature = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = work(bound.arguments, result)
            return result

        return traced

    @contextmanager
    def recording(self, job: int):
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "polymerlab" and not mod_name.startswith("polymerlab."):
                continue
            for attr, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    patched.append((module, attr, value))
        self._job = job
        try:
            yield
        finally:
            self._job = None
            for module, attr, value in patched:
                setattr(module, attr, value)


def layer_metrics(spans, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics over the recorded jobs.

    ``traced_s`` and ``untraced_s`` are the summed wall times of the same
    jobs run with and without tracing.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    agg = {name: [0, 0.0, 0] for name in REPORT}
    for s, d, c in zip(spans, dur, child):
        entry = agg[s[0]]
        entry[0] += 1
        entry[1] += d - c
        entry[2] += s[5] or 0

    metrics = {}
    for name, stats in REPORT.items():
        for stat in stats:
            unit, value = STATS[stat]
            metrics[f"{name}.{stat}"] = {"value": value(*agg[name]), "unit": unit}

    def under_threshold(i):
        while i >= 0:
            if spans[i][0] == "continuum.critical_coupling":
                return True
            i = spans[i][3]
        return False

    solves = sum(1 for s in spans if s[0] == "elpp.solve" and under_threshold(s[3]))
    thresholds = agg["continuum.critical_coupling"][2]
    metrics["continuum.solves_per_threshold"] = {
        "value": solves / thresholds if thresholds else 0.0, "unit": "count"
    }
    metrics["trace.overhead_frac"] = {
        "value": 1.0 - untraced_s / traced_s, "unit": "fraction"
    }
    metrics["trace.coverage"] = {
        "value": sum(d - c for d, c in zip(dur, child)) / traced_s, "unit": "fraction"
    }
    return metrics
