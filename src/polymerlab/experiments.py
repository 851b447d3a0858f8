"""Config-driven Monte Carlo campaigns over the exact solvers.

Four experiment kinds tie the discrete model to its limit objects:
transversal-fluctuation decay tables, per-class convergence of the
rescaled free energy, ordered-statistics coupling to the limiting
point process, and the small-tail-index conditional diffusive scale.
A campaign is a JSON config (schema 1) mapped over (size, replica)
tasks, optionally on a worker pool.  Per-task seeds are derived from
(base seed, n, replica) alone and rows are keyed and sorted before
emission, so the CSVs are byte-identical for a fixed config whatever
the thread count.  Wall-clock and git metadata go to a separate JSON
manifest, keeping the CSVs reproducible.

``run_experiment`` is the one campaign runner.  Each kind is a spec in
``_KINDS``: a set-up step (config checks and ``_classified``'s label,
giving the manifest fields), a size step, the replica function, the
replica tables with their columns, and a summary function that reads
those tables by column name and returns the decay or KS table.  The size
step runs once per size in the calling process and gives the field box h
and the kind's constants that depend on n alone.  Each (n, replica) task
is one context record (config, fields, the weight law, n, beta_n, the
size's constants, replica index and seeds), from which the field is
drawn in one place: into the campaign's draw buffer for the size, which
lives for one run_experiment call (on a pool, in each worker).
The runner maps the tasks, sorts each table by (n, replica), counts
failures and flags, adds the summary and writes the manifest meta.

Exact transfer passes are O(n^2) per replica with the full-width
field box, hence the hard size cap at 4096.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy

from . import json_text
from .continuum import sample_ppp
from .elpp import ENTROPY_LIPSCHITZ, ENTROPY_QUADRATIC, solve
from .environment import (
    TailParams,
    _draw_field,
    ordered_statistics,
    quantile,
    reachable_count,
    top_sites,
)
from .polymer import FREE, _summed_v_n, gibbs_band_probabilities, log_partition
from .regimes import (
    DIFFUSIVE,
    LABEL_BOUNDARY,
    LABEL_R2,
    LABEL_R3,
    LABEL_R3A,
    LABEL_R3B,
    LABEL_R4,
    LABEL_SMALL_N,
    LABEL_SMALL_SPLIT,
    LABEL_SMALL_SQRT,
    LABEL_ZERO,
    LINEAR,
    RECORDS,
    PowerLawSchedule,
    classify,
    fluctuation_scale,
)

__all__ = [
    "SCHEMA_VERSION",
    "KIND_FLUCTUATION",
    "KIND_REGIME",
    "KIND_ORDERED",
    "KIND_SMALL_ALPHA",
    "ExperimentConfig",
    "ExperimentResult",
    "Table",
    "derive_seed",
    "load_config",
    "run_experiment",
    "write_outputs",
    "run_from_file",
]

SCHEMA_VERSION = 1
SIZE_CAP = 4096
ELL_CAP = 256
ORDERED_ELL_CAP = 64
HAT_PROXY_TOP = 256  # truncation of the conditioning proxy, fixed

KIND_FLUCTUATION = "fluctuation"
KIND_REGIME = "regime_convergence"
KIND_ORDERED = "ordered_stats_coupling"
KIND_SMALL_ALPHA = "small_alpha"
KINDS = (KIND_FLUCTUATION, KIND_REGIME, KIND_ORDERED, KIND_SMALL_ALPHA)

# identity slack for the per-replica discrete/continuum coupling check
COUPLING_TOL = 1e-9
# slack for probability monotonicity between separate transfer passes
MONOTONE_TOL = 1e-9

_FIELD_SLOT = 0
_PPP_SLOT = 1
_CLASSIFY_KEY = 927


def derive_seed(base: int, *keys: int) -> int:
    """Deterministic child seed for a keyed task, independent of pool order."""
    seq = np.random.SeedSequence([int(base), *(int(k) for k in keys)])
    return int(seq.generate_state(1)[0])


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative campaign description, JSON schema version 1.

    ``beta_hat = 0`` is allowed and short-circuits every coupling to
    zero (the plain random-walk model, without a ``schedule()``); any
    positive value follows beta_n = beta_hat * n**(-gamma).

    Every field is checked against its annotation and normalised (ints
    to ``int``, floats to ``float``, lists to tuples).
    """

    kind: str
    alpha: float
    gamma: float
    sizes: Tuple[int, ...]
    replicas: int
    seed: int
    beta_hat: float = 1.0
    law: str = "constant"
    c: float = 1.0
    b: float = 1.0
    ell: int = 64
    eps: float = 1e-3
    kernel_cutoff: float = 8.0
    a_values: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    c_values: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    c1_values: Tuple[float, ...] = (0.25, 0.5, 1.0)
    band_fraction: float = 0.25
    half_width: Optional[int] = None
    threads: int = 1
    out: Optional[str] = None

    def __post_init__(self):
        for key in _CONFIG_TYPES:
            object.__setattr__(self, key, _typed(key, getattr(self, key)))
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if self.beta_hat < 0.0:
            raise ValueError("beta_hat must be nonnegative")
        sizes = self.sizes
        if not sizes:
            raise ValueError("sizes must be nonempty")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        if sizes[0] < 2:
            raise ValueError("sizes must be at least 2")
        if sizes[-1] > SIZE_CAP:
            raise ValueError(f"sizes are capped at {SIZE_CAP}")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 1 <= self.ell <= ELL_CAP:
            raise ValueError(f"ell must lie in [1, {ELL_CAP}]")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.kernel_cutoff <= 0.0:
            raise ValueError("kernel_cutoff must be positive")
        for name in ("a_values", "c_values", "c1_values"):
            vals = getattr(self, name)
            if not vals or any(v <= 0 for v in vals):
                raise ValueError(f"{name} must be positive")
            if name != "c1_values" and any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if not 0.0 < self.band_fraction <= 1.0:
            raise ValueError("band_fraction must lie in (0, 1]")
        if self.half_width is not None and self.half_width < 1:
            raise ValueError("half_width must be at least 1")
        if not 1 <= self.threads <= 64:
            raise ValueError("threads must lie in [1, 64]")

    def tail(self) -> TailParams:
        return TailParams(self.alpha, law=self.law, c=self.c, b=self.b)

    def schedule(self) -> PowerLawSchedule:
        return PowerLawSchedule(self.gamma, self.beta_hat)

    def beta_at(self, n: int) -> float:
        if self.beta_hat == 0.0:
            return 0.0
        return self.schedule().at(n)


# Value type per config key, read off the field annotation:
# (scalar type, list of them, None allowed)
_CONFIG_TYPES = {
    f.name: (
        re.search(r"int|float|str", f.type).group(),
        f.type.startswith("Tuple"),
        f.type.startswith("Optional"),
    )
    for f in dataclasses.fields(ExperimentConfig)
}
_SCALARS = {"int": (Integral, "integer"), "float": (Real, "number"), "str": (str, "string")}


def _typed(key: str, value):
    """``value`` checked against the key's annotated type and normalised."""
    scalar, is_list, nullable = _CONFIG_TYPES[key]
    if value is None and nullable:
        return None
    allowed, noun = _SCALARS[scalar]
    is_seq = isinstance(value, (list, tuple))
    items = value if is_seq else [value]
    if is_list != is_seq or not all(
        isinstance(v, allowed) and not isinstance(v, bool) for v in items
    ):
        want = noun + " list" * is_list + " or null" * nullable
        raise ValueError(f"config key {key!r} has the wrong type: {value!r} (expected {want})")
    if scalar == "int":
        items = [int(v) for v in items]
    elif scalar == "float":
        try:
            items = [float(v) for v in items]
        except OverflowError:  # an integer past the float range
            items = [math.inf]
        if not all(map(math.isfinite, items)):
            raise ValueError(f"config key {key!r} must be finite: {value!r}")
    return tuple(items) if is_list else items[0]


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file (strict schema 1)."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    schema = raw.pop("schema", None)
    if schema != SCHEMA_VERSION:
        raise ValueError(f"config schema must be {SCHEMA_VERSION}, got {schema!r}")
    unknown = set(raw) - set(_CONFIG_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = [f.name for f in dataclasses.fields(ExperimentConfig)
               if f.default is dataclasses.MISSING and f.name not in raw]
    if missing:
        raise ValueError(f"missing config keys: {missing}")
    return ExperimentConfig(**raw)


class Table(NamedTuple):
    columns: Tuple[str, ...]
    rows: List[tuple]

    def groups(self, name: str, *keys: str) -> Dict[tuple, list]:
        """Column ``name`` by the ``keys`` columns' values, in row order, in one pass."""
        col, *idx = map(self.columns.index, (name, *keys))
        out: Dict[tuple, list] = {}
        for row in self.rows:
            out.setdefault(tuple(row[i] for i in idx), []).append(row[col])
        return out


@dataclass(frozen=True)
class ExperimentResult:
    """Sorted row tables plus the hard-invariant violation count.

    Byte-for-byte deterministic under a fixed (config, seed): rows are
    keyed by their leading columns and assembled independently of the
    worker pool's completion order.
    """

    config: ExperimentConfig
    tables: Dict[str, Table]
    invariant_failures: int
    flagged: int
    meta: Dict[str, object]


# ---------------------------------------------------------------------------
# Task plumbing
# ---------------------------------------------------------------------------


def _sized(kind, config: ExperimentConfig, fields: dict) -> Tuple[List[dict], int]:
    """Each size's task constants (config, fields, the weight law built
    once, n, beta_n and the kind's size step) and the count of the scipy
    quadrature warnings the size steps raised, counted instead of shown;
    other warnings show after, as the active filters say: a filter
    naming their module applies, and a ``default`` one shows each
    location once.

    A quadrature warning needs ``scipy.integrate``, which the size steps
    import only where they integrate, so its class is looked up once they
    have run: if the module is not loaded, none was raised."""
    sizes, tail = [], config.tail()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for n in config.sizes:
            beta = config.beta_at(n)
            sizes.append(dict(config=config, fields=fields, tail=tail, n=n, beta=beta,
                              **kind.size(config, fields, n, beta)))
    quadrature = getattr(sys.modules.get("scipy.integrate"), "IntegrationWarning", ())
    others = [w for w in caught if not issubclass(w.category, quadrature)]
    # as warn would: its module (a file's first name, not __mp_main__), one registry each
    modules = {getattr(m, "__file__", None): name
               for name, m in reversed(list(sys.modules.items()))} if others else {}
    registries: Dict[str, dict] = {}
    for w in others:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                               module=modules.get(w.filename),
                               registry=registries.setdefault(w.filename, {}), source=w.source)
    return sizes, len(caught) - len(others)


def _run_replica(job, buffers: dict) -> dict:
    """One replica on the field its task context names, drawn into the
    draw buffer that ``buffers`` holds for the field's shape; a buffer of
    another shape is dropped first.  The replica may overwrite the buffer
    once it has read the field, and returns nothing that shares it."""
    replica, t = job
    shape = (t.n, 2 * t.h + 1)
    if shape not in buffers:
        buffers.clear()
        buffers[shape] = np.empty(shape)
    return replica(t, _draw_field(buffers[shape], t.tail, t.seed))


# a pool worker's draw buffer; the worker lives for one campaign's pool
_worker_buffers: dict = {}


def _pooled_replica(job) -> dict:
    return _run_replica(job, _worker_buffers)


def _processes(config: ExperimentConfig) -> int:
    """Processes a campaign runs on: config.threads, or 1 (in-process) for one task."""
    return config.threads if len(config.sizes) * config.replicas > 1 else 1


@functools.cache  # the code a process runs cannot change once imported
def _git_describe() -> str:
    """``git describe`` of the tree this package is loaded from, whatever
    the working directory."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).parent,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def _classified(config: ExperimentConfig, seed=None) -> Tuple[str, float, str, str]:
    """Label, beta_limit, normalizer and limit object of the schedule (a
    random split resolved with ``seed``), or of the zero-coupling control
    at beta_hat 0."""
    if config.beta_hat == 0.0:
        return (LABEL_ZERO, 0.0, "zero coupling: every rescaled observable is 0 exactly",
                "2 * heat-kernel functional (diagnostic companion)")
    report = classify(config.alpha, config.schedule(), tail=config.tail(), seed=seed)
    return report.label, report.beta_limit, report.normalizer, report.limit_object


def _ks(sample, reference) -> float:
    """Two-sample KS distance, bit for bit ``scipy.stats.ks_2samp``'s
    statistic; nan below two samples or with a nan in either.

    The empirical CDFs of n1 and n2 points differ by h / lcm(n1, n2) for
    a whole h, taken here from the two ``searchsorted`` counts.
    ``ks_2samp`` rounds its float gap to that rational while max(n1, n2)
    <= 10000 (its exact p-value range) and keeps the float gap above, as
    this does."""
    a, b = np.sort(sample), np.sort(reference)
    if len(a) < 2 or not len(b) or np.isnan(a[-1]) or np.isnan(b[-1]):
        return math.nan
    both = np.concatenate([a, b])
    count_a, count_b = (np.searchsorted(s, both, side="right") for s in (a, b))
    if max(len(a), len(b)) > 10000:
        return float(np.abs(count_a / len(a) - count_b / len(b)).max())
    lcm = math.lcm(len(a), len(b))
    return int(np.abs(count_a * (lcm // len(a)) - count_b * (lcm // len(b))).max()) / lcm


def _top_lattice(field, ell: int) -> np.ndarray:
    """``top_sites`` rows of the field, ell clipped at the reachable count."""
    return top_sites(field, min(ell, reachable_count(field.n, field.h)))


def _window_probs(field, beta: float, windows) -> Tuple[float, List[float]]:
    """The FREE log Z and, in window order, the ``gibbs_band_probabilities``
    of each window [lo, hi) with lo < hi and 0.0 for every empty one."""
    live = [lo < hi for lo, hi in windows]
    log_z, found = gibbs_band_probabilities(field, beta, [w for w, ok in zip(windows, live) if ok])
    found = iter(found)
    return log_z, [next(found) if ok else 0.0 for ok in live]


def _exceeding(bounds, values) -> int:
    """How many values exceed their bound beyond the monotonicity slack."""
    return sum(v > b * (1.0 + MONOTONE_TOL) + 1e-15 for b, v in zip(bounds, values))


# ---------------------------------------------------------------------------
# Fluctuation decay
# ---------------------------------------------------------------------------


def _fluctuation_setup(config: ExperimentConfig):
    if not 0.5 < config.alpha < 2.0:
        raise ValueError("fluctuation campaigns need alpha in (1/2, 2)")
    label = _classified(config)[0]
    if label not in (LABEL_ZERO, LABEL_R2, LABEL_R3, LABEL_R3A, LABEL_R3B, LABEL_R4):
        raise ValueError(
            f"schedule classifies as {label}; the scale balance needs "
            "the intermediate strip"
        )
    return {"label": label}


def _fluctuation_size(config: ExperimentConfig, fields, n: int, beta: float) -> dict:
    h_n = fluctuation_scale(n, beta, config.tail()).h
    return dict(h=n, h_n=h_n, windows=[(math.ceil(a * h_n), n + 1) for a in config.a_values])


def _fluctuation_replica(t, field) -> dict:
    """Exact Gibbs tail P(max |S_i| >= A h_n) swept over A."""
    n = t.n
    probs = _window_probs(field, t.beta, t.windows)[1]
    rows = [(n, t.replica, t.seed, float(a), float(t.h_n), float(prob))
            for a, prob in zip(t.config.a_values, probs)]
    return {"gibbs_tail": rows, "failures": _exceeding([math.inf, *probs], probs)}


def _decay(config: ExperimentConfig, tables: Dict[str, Table], fields) -> Tuple[str, Table]:
    """Per (n, A, c1), the fraction of replicas whose tail lies above
    n exp(-c1 A^2 h_n^2 / n).  The walk-deviation constants are not
    pinned down, so thresholds are swept over c1_values rather than
    fixed."""
    gibbs_tail, rows = tables["gibbs_tail"], []
    h_ns, tail_probs = gibbs_tail.groups("h_n", "n"), gibbs_tail.groups("tail_prob", "n", "a")
    for n in config.sizes:
        h_n = h_ns[n,][0]
        for a in config.a_values:
            probs = tail_probs[n, a]
            med = statistics.median(probs)
            for c1 in config.c1_values:
                thr = n * math.exp(-c1 * a * a * h_n * h_n / n)
                frac = sum(p > thr for p in probs) / len(probs)
                rows.append(
                    (n, float(a), float(c1), float(thr), float(frac), float(med), len(probs))
                )
    return "decay", Table(
        ("n", "a", "c1", "threshold", "exceed_fraction", "median_tail_prob", "replicas"), rows
    )


# ---------------------------------------------------------------------------
# Per-class convergence
# ---------------------------------------------------------------------------


def _regime_setup(config: ExperimentConfig):
    """Random splits in the classification are resolved with a seed
    derived from the config seed."""
    label, beta_limit, normalizer, limit_object = _classified(
        config, derive_seed(config.seed, _CLASSIFY_KEY))
    if label == LABEL_BOUNDARY:
        raise ValueError("alpha = 1/2 classification is undecided")
    if label in (LABEL_R3, LABEL_SMALL_SPLIT):
        raise ValueError("random split left unresolved")  # unreachable
    return dict(label=label, beta_limit=beta_limit, normalizer=normalizer,
                limit_object=limit_object, wrapper=RECORDS[label].wrapper)


def _regime_size(config: ExperimentConfig, fields, n: int, beta: float) -> dict:
    """The field box, the label's rescaling constants, and the coupled
    pair's units and entropy (Lipschitz on the linear pathway)."""
    record = RECORDS[fields["label"]]
    pathway, tail = record.pathway, config.tail()
    h = pathway.box(n, beta, tail, config.kernel_cutoff)
    if pathway is LINEAR:
        m_scale = quantile(tail, float(n) ** 2)
        units, nu, entropy = (n, n, m_scale), beta * m_scale / n, ENTROPY_LIPSCHITZ
    else:
        m_scale = quantile(tail, float(n) * h)
        units, nu, entropy = (n, h, m_scale), beta * m_scale * n / (h * h), ENTROPY_QUADRATIC
    return dict(h=h, center=record.centering_total(n, beta, tail),
                prefactor=pathway.prefactor(n),
                scale=beta * quantile(tail, pathway.scale_arg(n, h)),
                units=units, nu=nu, entropy=entropy)


def _regime_replica(t, field) -> dict:
    """Rescaled exact free energy, the companion its regime record draws
    (an independent truncated sample of the matching limit object), and
    the exact discrete to continuum coupling identity on the top-ell
    weights: the discrete chain value in continuum units vs the continuum
    solver on the same rescaled points, exact up to rounding because the
    costs scale covariantly under (i, x, w) -> (i/n, x/h, w/m(nh)).
    A replica of the zero-value branch whose own companion sample sits
    above its critical coupling (the R3b companion, its best non-empty
    chain, is positive) is flagged, never dropped."""
    n, h, beta, config, fields = t.n, t.h, t.beta, t.config, t.fields
    record, beta_limit = RECORDS[fields["label"]], fields["beta_limit"]
    logz = log_partition(field, beta, FREE)
    rescaled = 0.0 if beta == 0.0 else t.prefactor * (logz - t.center) / t.scale

    lattice = _top_lattice(field, config.ell)
    chain = solve(lattice, beta, 0.0, t.entropy).value
    discrete = chain / n if record.pathway is LINEAR else chain * n / (h * h)
    cont = solve(lattice / t.units, t.nu, 0.0, t.entropy).value

    companion = record.draw_companion(config, beta_limit, t.nu, t.seed_ppp)
    # the sample sits above its own critical coupling: its best non-empty
    # chain, the R3b companion, has a positive value
    flagged = int(fields["label"] == LABEL_R3B and companion > 0.0)

    diff = abs(discrete - cont)
    failures = int(diff > COUPLING_TOL * max(1.0, abs(cont)))

    rescaled_vn = math.nan
    if record.pathway is DIFFUSIVE:
        # last: chaos_v_n(field, beta, h) summed in the field's own draw
        # buffer, which it overwrites
        v_n = _summed_v_n(field, beta, h, None, field.weights)
        rescaled_vn = 0.0 if beta == 0.0 else t.prefactor * v_n / t.scale

    obs_row = (
        n, t.replica, t.seed, float(beta), h, float(logz), float(t.center),
        float(rescaled), float(rescaled_vn), float(companion), flagged,
        fields["label"], fields["wrapper"], fields["normalizer"],
    )
    coup_row = (n, t.replica, t.seed, float(t.nu), float(discrete), float(cont),
                float(diff))
    return {
        "observable": [obs_row],
        "coupling": [coup_row],
        "failures": failures,
        "flagged": flagged,
    }


def _regime_ks(config: ExperimentConfig, tables: Dict[str, Table], fields) -> Tuple[str, Table]:
    """KS distance of the rescaled statistic to its companion, per size.

    On the diffusive branch the summary carries two rows per size: the
    exact free-energy statistic against the doubled heat-kernel
    companion, and the first chaos term against the same companion.
    The chaos term keeps its weight cutoff, which thins its upper tail
    at finite n, so it is reported beside the cutoff-free exact free
    energy, never instead of it.  A size whose companions are not all
    finite gets nan rows and one RuntimeWarning naming n and the label.
    """
    targets = ["rescaled"]
    if RECORDS[fields["label"]].pathway is DIFFUSIVE:
        targets.append("rescaled_vn")
    by_size = {name: tables["observable"].groups(name, "n") for name in ["companion", *targets]}
    rows = []
    for n in config.sizes:
        companions = by_size["companion"][n,]
        usable = all(math.isfinite(c) for c in companions)
        if not usable:
            warnings.warn(f"n {n}, label {fields['label']}: a companion is not finite, "
                          "so the KS distances are nan", RuntimeWarning)
        for name in targets:
            ks = _ks(by_size[name][n,], companions) if usable else math.nan
            rows.append((n, name, ks, len(companions)))
    return "ks_summary", Table(("n", "observable", "ks_distance", "replicas"), rows)


# ---------------------------------------------------------------------------
# Ordered-statistics coupling
# ---------------------------------------------------------------------------


def _ordered_size(config: ExperimentConfig, fields, n: int, beta: float) -> dict:
    h = config.half_width or math.ceil(math.sqrt(n))
    if config.ell > ORDERED_ELL_CAP:
        raise ValueError(f"ordered-statistics ell is capped at {ORDERED_ELL_CAP}")
    if config.ell > n * (2 * h + 1):
        raise ValueError("ell exceeds the site count at the smallest size")
    return dict(h=h, scale=quantile(config.tail(), 2.0 * n * h))


def _ordered_replica(t, field) -> dict:
    """Top-ell field weights rescaled to continuum units (w / m(2nh),
    i/n, x/h) beside a direct point-process sample.  All box sites
    enter the ranking here (no walk-reachability cut), which is what
    the 2nh site count in the weight scale assumes."""
    n, h, ell = t.n, t.h, t.config.ell
    top = ordered_statistics(field, ell)
    ppp = sample_ppp(t.config.alpha, 1.0, top=ell, seed=t.seed_ppp)
    rows = []
    failures = 0
    for source, raw, (w, i, x) in (
        ("field", top[:, 2], (top[:, 2] / t.scale, top[:, 0] / n, top[:, 1] / h)),
        ("ppp", ppp[:, 2], (ppp[:, 2], ppp[:, 0], ppp[:, 1])),
    ):
        failures += int(np.count_nonzero(raw[1:] > raw[:-1]))
        rows += [(n, t.replica, source, r + 1, t.seed, float(w[r]), float(i[r]), float(x[r]))
                 for r in range(ell)]
    return {"order_stats": rows, "failures": failures}


def _marginal_ks(config: ExperimentConfig, tables: Dict[str, Table], fields) -> Tuple[str, Table]:
    """Per-rank two-sample KS distance between field and point process."""
    weights = tables["order_stats"].groups("weight_over_scale", "n", "source", "rank")
    rows = []
    for n in config.sizes:
        for r in range(1, config.ell + 1):
            from_field, from_ppp = weights[n, "field", r], weights[n, "ppp", r]
            rows.append((n, r, _ks(from_field, from_ppp), len(from_field)))
    return "marginal_ks", Table(("n", "rank", "ks_distance", "replicas"), rows)


# ---------------------------------------------------------------------------
# Small tail index, diffusive scale
# ---------------------------------------------------------------------------


def _small_alpha_setup(config: ExperimentConfig):
    if not 0.0 < config.alpha < 0.5:
        raise ValueError("small-alpha campaigns need alpha in (0, 1/2)")
    label = _classified(config)[0]
    if label == LABEL_SMALL_N:
        raise ValueError(
            "linear-scale coupling diverges; this campaign needs the "
            "transition line or below"
        )
    return {"label": label}


def _small_alpha_size(config: ExperimentConfig, fields, n: int, beta: float) -> dict:
    """Tail then band windows per C, the proxy's units (i/n, x/n, w/m(n^2)) and
    run coupling, and the diffusive rescaling sqrt(n) / (beta_n m(n^{3/2}))."""
    tail = config.tail()
    m_lin = quantile(tail, float(n) ** 2)
    los = [math.ceil(c * math.sqrt(n)) for c in config.c_values]
    windows = [(lo, hi) for hi in (n + 1, math.ceil(config.band_fraction * n)) for lo in los]
    return dict(h=n, windows=windows, units=(n, n, m_lin),
                beta_run=beta * m_lin / n, prefactor=DIFFUSIVE.prefactor(n),
                scale=beta * quantile(tail, DIFFUSIVE.scale_arg(n, n)))


def _small_alpha_replica(t, field) -> dict:
    """Conditional diffusive-scale law for tail index below 1/2.

    A truncated Lipschitz-value proxy, the linear record's functional,
    decides whether the linear-scale mechanism is dormant; on those
    replicas the rescaled free energy is paired with the diffusive
    record's companion, an independent doubled heat-kernel sample.  The exact
    Gibbs tail beyond C sqrt(n) and the occupancy of the intermediate
    band [C sqrt(n), band_fraction * n) are swept over c_values.
    """
    n, beta = t.n, t.beta
    logz, probs = _window_probs(field, beta, t.windows)
    rescaled = 0.0 if beta == 0.0 else t.prefactor * logz / t.scale

    # conditioning proxy: Lipschitz chain value on the rescaled top
    # weights; truncation can only lower it, so replicas the full value
    # would reject may still pass (bias toward accepting).  The other
    # way, zero-slope lattice sites carry exactly zero entropy, so a
    # hair-thin positive proxy is common while the top weights still
    # cover a sizable share of the box (small n).
    pts = _top_lattice(field, HAT_PROXY_TOP) / t.units
    proxy = RECORDS[LABEL_SMALL_N].companion(pts, t.beta_run, t.beta_run)
    conditioned = int(proxy == 0.0)

    companion = RECORDS[LABEL_SMALL_SQRT].draw_companion(t.config, 0.0, 0.0, t.seed_ppp)

    tails, bands = probs[: len(probs) // 2], probs[len(probs) // 2 :]
    failures = _exceeding(tails, bands) + _exceeding([math.inf, *tails], tails)
    band_rows = [(n, t.replica, t.seed, float(c), float(tail_p), float(band_p))
                 for c, tail_p, band_p in zip(t.config.c_values, tails, bands)]
    cond_row = (
        n, t.replica, t.seed, float(beta), float(proxy), conditioned,
        float(logz), float(rescaled), float(companion),
    )
    return {"conditioned": [cond_row], "bands": band_rows, "failures": failures}


def _conditioned_ks(config: ExperimentConfig, tables: Dict[str, Table],
                    fields) -> Tuple[str, Table]:
    """KS distance of the conditioned replicas' rescaled free energy to
    the companions of all replicas, per size."""
    rescaled = tables["conditioned"].groups("rescaled", "n", "conditioned")
    companions = tables["conditioned"].groups("companion", "n")
    rows = []
    for n in config.sizes:
        kept = rescaled.get((n, 1), [])  # no group where no replica is conditioned
        rows.append((n, _ks(kept, companions[n,]), len(kept), len(companions[n,])))
    return "ks_summary", Table(("n", "ks_distance", "conditioned_count", "replicas"), rows)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class _Kind(NamedTuple):
    """What one experiment kind gives run_experiment."""

    setup: Callable  # config -> manifest fields; raises on a bad config
    size: Callable  # (config, fields, n, beta_n) -> field box h and the size's constants
    # (task context, field in the draw buffer) -> rows per table, failures[, flagged]
    replica: Callable
    tables: Dict[str, Tuple[str, ...]]  # replica table -> columns
    summary: Callable  # (config, tables, manifest fields) -> (name, summary table)


_KINDS = {
    KIND_FLUCTUATION: _Kind(_fluctuation_setup, _fluctuation_size, _fluctuation_replica, {
        "gibbs_tail": ("n", "replica", "seed", "a", "h_n", "tail_prob"),
    }, _decay),
    KIND_REGIME: _Kind(_regime_setup, _regime_size, _regime_replica, {
        "observable": ("n", "replica", "seed", "beta_n", "h_field", "log_z", "centering",
                       "rescaled", "rescaled_vn", "companion", "flagged", "label",
                       "wrapper", "normalizer"),
        "coupling": ("n", "replica", "seed", "nu_effective", "discrete_value",
                     "continuum_value", "abs_diff"),
    }, _regime_ks),
    KIND_ORDERED: _Kind(lambda config: {}, _ordered_size, _ordered_replica, {
        "order_stats": ("n", "replica", "source", "rank", "seed", "weight_over_scale",
                        "t_frac", "x_frac"),
    }, _marginal_ks),
    KIND_SMALL_ALPHA: _Kind(_small_alpha_setup, _small_alpha_size, _small_alpha_replica, {
        "conditioned": ("n", "replica", "seed", "beta_n", "hat_proxy", "conditioned",
                        "log_z", "rescaled", "companion"),
        "bands": ("n", "replica", "seed", "c", "tail_prob", "band_prob"),
    }, _conditioned_ks),
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the campaign of ``config.kind``: its replica tables, each
    sorted by (n, replica), then its summary table; the manifest meta
    holds the kind's fields, the wall time and the size steps' total
    quadrature warnings.  The replicas run on a pool of
    _processes(config) processes when that is above 1.  Each process
    draws its fields into one buffer per size, which is released when
    this call returns or raises (a pool's with its workers)."""
    kind = _KINDS[config.kind]
    fields = kind.setup(config)
    start = time.perf_counter()
    sizes, quadrature_warnings = _sized(kind, config, fields)
    jobs = [(kind.replica, SimpleNamespace(
        **size, replica=r, seed=derive_seed(config.seed, size["n"], r, _FIELD_SLOT),
        seed_ppp=derive_seed(config.seed, size["n"], r, _PPP_SLOT),
    )) for size in sizes for r in range(config.replicas)]
    buffers: dict = {}
    try:
        if _processes(config) == 1:
            bundles = [_run_replica(job, buffers) for job in jobs]
        else:
            import multiprocessing  # loaded only where a pool starts

            with multiprocessing.Pool(processes=config.threads) as pool:
                bundles = list(pool.imap_unordered(_pooled_replica, jobs, chunksize=1))
    except BaseException as exc:
        traceback.clear_frames(exc.__traceback__)  # a raising replica's frames hold the buffer
        raise
    finally:
        buffers.clear()
    tables = {}
    for name, columns in kind.tables.items():
        # each replica emits its rows in key order, and the sort is stable
        rows = [row for b in bundles for row in b[name]]
        rows.sort(key=lambda r: r[:2])
        tables[name] = Table(columns, rows)
    name, summary = kind.summary(config, tables, fields)
    tables[name] = summary
    meta = {
        **fields,
        "wall_time_s": time.perf_counter() - start,
        "quadrature_warnings": quadrature_warnings,
    }
    failures = sum(b["failures"] for b in bundles)
    flagged = sum(b.get("flagged", 0) for b in bundles)
    return ExperimentResult(config, tables, failures, flagged, meta)


def write_outputs(result: ExperimentResult, out_dir) -> List[Path]:
    """One CSV per table plus a manifest.json.

    The CSVs are byte-identical across reruns of the same config; the
    manifest carries the volatile context (wall time, git state) and is
    deliberately kept out of that guarantee.  The manifest is strict JSON
    (``json_text``): a non-finite float (an infinite ``beta_limit``) is
    written as the string "inf", "-inf" or "nan".
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, table in result.tables.items():
        path = out / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table.columns)
            writer.writerows(table.rows)
        paths.append(path)
    manifest = {
        "schema": SCHEMA_VERSION,
        "config": dataclasses.asdict(result.config),
        "invariant_failures": result.invariant_failures,
        "flagged": result.flagged,
        "meta": result.meta,
        "git": _git_describe(),
        "provenance": {"python": platform.python_version(), "numpy": np.__version__,
                       "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
                       "processes": _processes(result.config)},
        "tables": {name: len(t.rows) for name, t in result.tables.items()},
    }
    (out / "manifest.json").write_text(json_text(manifest) + "\n")
    return paths


def run_from_file(path, out_dir=None, threads: Optional[int] = None) -> int:
    """CLI entry: run a config file, write outputs, return the exit code
    (0 iff every hard invariant held on every replica)."""
    config = load_config(path)
    if threads is not None:
        config = dataclasses.replace(config, threads=threads)
    result = run_experiment(config)
    target = out_dir or config.out or "."
    write_outputs(result, target)
    return 0 if result.invariant_failures == 0 else 1
