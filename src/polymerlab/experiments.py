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

Exact transfer passes are O(n^2) per replica with the full-width
field box, hence the hard size cap at 4096.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import multiprocessing
import re
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.stats import ks_2samp

from .continuum import (
    chain_value,
    lipschitz_chain_value,
    sample_heat_kernel_sum,
    sample_ppp,
)
from .elpp import ENTROPY_LIPSCHITZ, solve
from .environment import (
    TailParams,
    ordered_statistics,
    quantile,
    reachable_mask,
    sample_field,
)
from .polymer import FREE, chaos_terms, gibbs_band_probability, log_partition
from .regimes import (
    DIFFUSIVE,
    LABEL_BOUNDARY,
    LABEL_R2,
    LABEL_R3,
    LABEL_R3A,
    LABEL_R3B,
    LABEL_R4,
    LABEL_R5,
    LABEL_SMALL_N,
    LABEL_SMALL_SPLIT,
    LINEAR,
    RECORDS,
    PowerLawSchedule,
    RegimeRecord,
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
    "run_fluctuation",
    "run_regime_convergence",
    "run_ordered_stats_coupling",
    "run_small_alpha",
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

LABEL_ZERO = "zero-coupling"

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
    zero (the plain random-walk model); any positive value follows the
    power-law schedule beta_n = beta_hat * n**(-gamma).
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
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if self.beta_hat < 0.0:
            raise ValueError("beta_hat must be nonnegative")
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
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
        if not 1 <= self.ell <= ELL_CAP:
            raise ValueError(f"ell must lie in [1, {ELL_CAP}]")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.kernel_cutoff <= 0.0:
            raise ValueError("kernel_cutoff must be positive")
        for name in ("a_values", "c_values"):
            vals = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, vals)
            if not vals or any(v <= 0 for v in vals):
                raise ValueError(f"{name} must be positive")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        c1 = tuple(float(v) for v in self.c1_values)
        object.__setattr__(self, "c1_values", c1)
        if not c1 or any(v <= 0 for v in c1):
            raise ValueError("c1_values must be positive")
        if not 0.0 < self.band_fraction <= 1.0:
            raise ValueError("band_fraction must lie in (0, 1]")
        if self.half_width is not None and self.half_width < 1:
            raise ValueError("half_width must be at least 1")
        if not 1 <= self.threads <= 64:
            raise ValueError("threads must lie in [1, 64]")

    def tail(self) -> TailParams:
        return TailParams(self.alpha, law=self.law, c=self.c, b=self.b)

    def schedule(self) -> PowerLawSchedule:
        if self.beta_hat == 0.0:
            raise ValueError("zero coupling has no schedule")
        return PowerLawSchedule(self.gamma, self.beta_hat)

    def beta_at(self, n: int) -> float:
        if self.beta_hat == 0.0:
            return 0.0
        return self.schedule().at(n)


# JSON value type per config key, read off the field annotation:
# (scalar type, list of them, null allowed)
_CONFIG_TYPES = {
    f.name: (
        re.search(r"int|float|str", f.type).group(),
        f.type.startswith("Tuple"),
        f.type.startswith("Optional"),
    )
    for f in dataclasses.fields(ExperimentConfig)
}
_JSON_SCALARS = {"int": int, "float": (int, float), "str": str}


def _json_value_ok(value, key: str) -> bool:
    scalar, is_list, nullable = _CONFIG_TYPES[key]
    if value is None:
        return nullable
    if is_list != isinstance(value, list):
        return False
    return all(
        isinstance(v, _JSON_SCALARS[scalar]) and not isinstance(v, bool)
        for v in (value if is_list else [value])
    )


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
    for key, value in raw.items():
        if not _json_value_ok(value, key):
            raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
        if isinstance(value, list):
            raw[key] = tuple(value)
    return ExperimentConfig(**raw)


class Table(NamedTuple):
    columns: Tuple[str, ...]
    rows: List[tuple]


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


def _map_tasks(worker, tasks, threads: int) -> list:
    if threads <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with multiprocessing.Pool(processes=threads) as pool:
        return list(pool.imap_unordered(worker, tasks, chunksize=1))


def _sorted_rows(bundles: list, table: str, key_width: int) -> List[tuple]:
    rows = [row for b in bundles for row in b[table]]
    rows.sort(key=lambda r: r[:key_width])
    return rows


def _git_describe() -> str:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# Fluctuation decay
# ---------------------------------------------------------------------------


def _fluctuation_replica(task) -> dict:
    config, n, replica = task
    tail = config.tail()
    beta = config.beta_at(n)
    h_n = fluctuation_scale(n, beta, tail).h
    seed = derive_seed(config.seed, n, replica, _FIELD_SLOT)
    field = sample_field(n, n, tail, seed)
    rows = []
    failures = 0
    prev = math.inf
    for a in config.a_values:
        lo = math.ceil(a * h_n)
        if lo > n:
            prob = 0.0
        else:
            prob = gibbs_band_probability(field, beta, lo, n + 1)
        if prob > prev * (1.0 + MONOTONE_TOL) + 1e-15:
            failures += 1
        prev = prob
        rows.append((n, replica, seed, float(a), float(h_n), float(prob)))
    return {"gibbs_tail": rows, "failures": failures}


def run_fluctuation(config: ExperimentConfig) -> ExperimentResult:
    """Exact Gibbs tail P(max |S_i| >= A h_n) swept over A, with the
    per-(n, A, c1) fraction of replicas above n exp(-c1 A^2 h_n^2 / n).

    The walk-deviation constants are not pinned down, so thresholds
    are swept over c1_values rather than fixed.
    """
    if config.kind != KIND_FLUCTUATION:
        raise ValueError("config.kind mismatch")
    if not 0.5 < config.alpha < 2.0:
        raise ValueError("fluctuation campaigns need alpha in (1/2, 2)")
    tail = config.tail()
    if config.beta_hat > 0.0:
        label = classify(config.alpha, config.schedule(), tail=tail).label
        if label not in (LABEL_R2, LABEL_R3, LABEL_R3A, LABEL_R3B, LABEL_R4):
            raise ValueError(
                f"schedule classifies as {label}; the scale balance needs "
                "the intermediate strip"
            )
    else:
        label = LABEL_ZERO

    start = time.perf_counter()
    tasks = [(config, n, r) for n in config.sizes for r in range(config.replicas)]
    bundles = _map_tasks(_fluctuation_replica, tasks, config.threads)
    tail_rows = _sorted_rows(bundles, "gibbs_tail", 4)
    failures = sum(b["failures"] for b in bundles)

    decay_rows = []
    for n in config.sizes:
        beta = config.beta_at(n)
        h_n = fluctuation_scale(n, beta, tail).h
        for a in config.a_values:
            probs = [r[5] for r in tail_rows if r[0] == n and r[3] == a]
            med = statistics.median(probs)
            for c1 in config.c1_values:
                thr = n * math.exp(-c1 * a * a * h_n * h_n / n)
                frac = sum(p > thr for p in probs) / len(probs)
                decay_rows.append(
                    (n, float(a), float(c1), float(thr), float(frac),
                     float(med), len(probs))
                )

    tables = {
        "gibbs_tail": Table(
            ("n", "replica", "seed", "a", "h_n", "tail_prob"), tail_rows
        ),
        "decay": Table(
            ("n", "a", "c1", "threshold", "exceed_fraction",
             "median_tail_prob", "replicas"),
            decay_rows,
        ),
    }
    meta = {"label": label, "wall_time_s": time.perf_counter() - start}
    return ExperimentResult(config, tables, failures, 0, meta)


# ---------------------------------------------------------------------------
# Per-class convergence
# ---------------------------------------------------------------------------


def _record(label: str) -> RegimeRecord:
    # the zero-coupling control runs on the diffusive record
    return RECORDS[LABEL_R5 if label == LABEL_ZERO else label]


def _companion_sample(record: RegimeRecord, config: ExperimentConfig,
                      beta_limit: float, nu: float,
                      seed: int) -> Tuple[float, np.ndarray]:
    if record.companion is None:
        # the stable functional at positive coupling is out of scope;
        # only the zero-coupling heat-kernel limit is sampled
        if beta_limit == 0.0:
            value = 2.0 * sample_heat_kernel_sum(
                config.alpha, config.eps, half_width=config.kernel_cutoff, seed=seed
            )
        else:
            value = math.nan
        return value, np.empty((0, 3))
    pts = sample_ppp(config.alpha, 1.0, top=config.ell, seed=seed)
    return record.companion(pts, beta_limit, nu), pts


def _coupled_pair(record: RegimeRecord, field, beta: float, h: int, ell: int,
                  tail: TailParams) -> Tuple[float, float, float]:
    """Discrete chain value in continuum units vs the continuum solver
    on the same rescaled points.  Exact up to rounding: the costs scale
    covariantly under (i, x, w) -> (i/n, x/h, w/m(nh))."""
    n = field.n
    count = int(reachable_mask(n, field.h).sum())
    stats = ordered_statistics(field, min(ell, count), reachable_only=True)
    lattice = np.column_stack(
        [stats.rows.astype(float), stats.cols.astype(float), stats.weights]
    )
    if record.pathway is LINEAR:
        m_scale = quantile(tail, float(n) ** 2)
        rescaled = np.column_stack(
            [lattice[:, 0] / n, lattice[:, 1] / n, lattice[:, 2] / m_scale]
        )
        nu = beta * m_scale / n
        discrete = solve(lattice, beta, 0.0, ENTROPY_LIPSCHITZ).value / n
        cont = solve(rescaled, nu, 0.0, ENTROPY_LIPSCHITZ).value
        return discrete, cont, nu
    m_scale = quantile(tail, float(n) * h)
    rescaled = np.column_stack(
        [lattice[:, 0] / n, lattice[:, 1] / h, lattice[:, 2] / m_scale]
    )
    nu = beta * m_scale * n / (h * h)
    discrete = solve(lattice, beta).value * n / (h * h)
    cont = solve(rescaled, nu).value
    return discrete, cont, nu


def _regime_replica(task) -> dict:
    config, n, replica, label, beta_limit = task
    record = _record(label)
    pathway = record.pathway
    tail = config.tail()
    beta = config.beta_at(n)
    h = pathway.box(n, beta, tail, config.kernel_cutoff)
    seed = derive_seed(config.seed, n, replica, _FIELD_SLOT)
    field = sample_field(n, h, tail, seed)
    logz = log_partition(field, beta, FREE)

    center = record.centering_total(n, beta, tail)
    prefactor = pathway.prefactor(n)
    scale = beta * quantile(tail, pathway.scale_arg(n, h))
    rescaled = 0.0 if beta == 0.0 else prefactor * (logz - center) / scale
    rescaled_vn = math.nan
    if pathway is DIFFUSIVE:
        v_n = chaos_terms(field, beta, band=h).v_n
        rescaled_vn = 0.0 if beta == 0.0 else prefactor * v_n / scale

    discrete, cont, nu = _coupled_pair(record, field, beta, h, config.ell, tail)
    seed_ppp = derive_seed(config.seed, n, replica, _PPP_SLOT)
    companion, pts = _companion_sample(record, config, beta_limit, nu, seed_ppp)

    flagged = 0
    if label == LABEL_R3B and len(pts) and chain_value(
        pts, 1.0, beta=beta_limit
    ) > 0.0:
        flagged = 1  # sample sits above its own critical coupling

    diff = abs(discrete - cont)
    failures = int(diff > COUPLING_TOL * max(1.0, abs(cont)))

    obs_row = (
        n, replica, seed, float(beta), h, float(logz), float(center),
        float(rescaled), float(rescaled_vn), float(companion), flagged,
    )
    coup_row = (n, replica, seed, float(nu), float(discrete), float(cont),
                float(diff))
    return {
        "observable": [obs_row],
        "coupling": [coup_row],
        "failures": failures,
        "flagged": flagged,
    }


def run_regime_convergence(config: ExperimentConfig) -> ExperimentResult:
    """Rescaled exact free energy per class, an independent truncated
    sample of the matching limit object, and the exact discrete to
    continuum coupling identity on the top-ell weights per replica.

    On the diffusive branch the distance summary carries two rows per
    size: the exact free-energy statistic against the doubled
    heat-kernel companion, and the first chaos term against the same
    companion.  The chaos term keeps its weight cutoff, which thins
    its upper tail at finite n; the free-energy statistic has no
    cutoff.

    Random splits in the classification are resolved with a seed
    derived from the config seed.  A replica of the zero-value branch
    whose own companion sample sits above its critical coupling is
    flagged, never dropped.
    """
    if config.kind != KIND_REGIME:
        raise ValueError("config.kind mismatch")
    tail = config.tail()
    if config.beta_hat == 0.0:
        label = LABEL_ZERO
        beta_limit = 0.0
        normalizer = "zero coupling: every rescaled observable is 0 exactly"
        limit_object = "2 * heat-kernel functional (diagnostic companion)"
    else:
        report = classify(
            config.alpha,
            config.schedule(),
            tail=tail,
            seed=derive_seed(config.seed, _CLASSIFY_KEY),
        )
        label = report.label
        beta_limit = report.beta_limit
        normalizer = report.normalizer
        limit_object = report.limit_object
        if label == LABEL_BOUNDARY:
            raise ValueError("alpha = 1/2 classification is undecided")
        if label in (LABEL_R3, LABEL_SMALL_SPLIT):
            raise ValueError("random split left unresolved")  # unreachable

    start = time.perf_counter()
    tasks = [
        (config, n, r, label, beta_limit)
        for n in config.sizes
        for r in range(config.replicas)
    ]
    bundles = _map_tasks(_regime_replica, tasks, config.threads)
    obs_rows = _sorted_rows(bundles, "observable", 3)
    coup_rows = _sorted_rows(bundles, "coupling", 3)
    failures = sum(b["failures"] for b in bundles)
    flagged = sum(b["flagged"] for b in bundles)

    record = _record(label)
    wrapper = record.wrapper
    obs_rows = [r + (label, wrapper, normalizer) for r in obs_rows]

    ks_rows = []
    # the chaos term keeps its weight cutoff, so its shape is reported
    # beside the cutoff-free exact free energy, never instead of it
    targets = [("rescaled", 7)]
    if record.pathway is DIFFUSIVE:
        targets.append(("rescaled_vn", 8))
    for n in config.sizes:
        sub = [r for r in obs_rows if r[0] == n]
        companions = [r[9] for r in sub]
        usable = len(sub) >= 2 and all(math.isfinite(c) for c in companions)
        for name, col in targets:
            if usable:
                ks = float(ks_2samp([r[col] for r in sub], companions).statistic)
            else:
                ks = math.nan
            ks_rows.append((n, name, ks, len(sub)))

    tables = {
        "observable": Table(
            ("n", "replica", "seed", "beta_n", "h_field", "log_z",
             "centering", "rescaled", "rescaled_vn", "companion", "flagged",
             "label", "wrapper", "normalizer"),
            obs_rows,
        ),
        "coupling": Table(
            ("n", "replica", "seed", "nu_effective", "discrete_value",
             "continuum_value", "abs_diff"),
            coup_rows,
        ),
        "ks_summary": Table(
            ("n", "observable", "ks_distance", "replicas"), ks_rows
        ),
    }
    meta = {
        "label": label,
        "beta_limit": beta_limit,
        "normalizer": normalizer,
        "limit_object": limit_object,
        "wrapper": wrapper,
        "wall_time_s": time.perf_counter() - start,
    }
    return ExperimentResult(config, tables, failures, flagged, meta)


# ---------------------------------------------------------------------------
# Ordered-statistics coupling
# ---------------------------------------------------------------------------


def _ordered_replica(task) -> dict:
    config, n, replica = task
    tail = config.tail()
    h = config.half_width or math.ceil(math.sqrt(n))
    seed = derive_seed(config.seed, n, replica, _FIELD_SLOT)
    field = sample_field(n, h, tail, seed)
    stats = ordered_statistics(field, config.ell, reachable_only=False)
    scale = quantile(tail, 2.0 * n * h)
    rows = []
    failures = 0
    for r in range(config.ell):
        rows.append(
            (n, replica, "field", r + 1, seed,
             float(stats.weights[r] / scale),
             float(stats.rows[r] / n), float(stats.cols[r] / h))
        )
        if r and stats.weights[r] > stats.weights[r - 1]:
            failures += 1
    ppp = sample_ppp(
        config.alpha, 1.0, top=config.ell,
        seed=derive_seed(config.seed, n, replica, _PPP_SLOT),
    )
    for r in range(config.ell):
        rows.append(
            (n, replica, "ppp", r + 1, seed,
             float(ppp[r, 2]), float(ppp[r, 0]), float(ppp[r, 1]))
        )
        if r and ppp[r, 2] > ppp[r - 1, 2]:
            failures += 1
    return {"order_stats": rows, "failures": failures}


def run_ordered_stats_coupling(config: ExperimentConfig) -> ExperimentResult:
    """Joint law of the top-ell field weights, rescaled to continuum
    units (w / m(2nh), i/n, x/h), against the direct point-process
    construction; per-rank two-sample KS distances are reported.

    All box sites enter the ranking here (no walk-reachability cut),
    which is what the 2nh site count in the weight scale assumes.
    """
    if config.kind != KIND_ORDERED:
        raise ValueError("config.kind mismatch")
    if config.ell > ORDERED_ELL_CAP:
        raise ValueError(f"ordered-statistics ell is capped at {ORDERED_ELL_CAP}")
    for n in config.sizes:
        h = config.half_width or math.ceil(math.sqrt(n))
        if config.ell > n * (2 * h + 1):
            raise ValueError("ell exceeds the site count at the smallest size")

    start = time.perf_counter()
    tasks = [(config, n, r) for n in config.sizes for r in range(config.replicas)]
    bundles = _map_tasks(_ordered_replica, tasks, config.threads)
    rows = _sorted_rows(bundles, "order_stats", 4)
    failures = sum(b["failures"] for b in bundles)

    ks_rows = []
    for n in config.sizes:
        for r in range(1, config.ell + 1):
            from_field = [
                row[5] for row in rows
                if row[0] == n and row[2] == "field" and row[3] == r
            ]
            from_ppp = [
                row[5] for row in rows
                if row[0] == n and row[2] == "ppp" and row[3] == r
            ]
            if len(from_field) >= 2:
                ks = float(ks_2samp(from_field, from_ppp).statistic)
            else:
                ks = math.nan
            ks_rows.append((n, r, ks, len(from_field)))

    tables = {
        "order_stats": Table(
            ("n", "replica", "source", "rank", "seed", "weight_over_scale",
             "t_frac", "x_frac"),
            rows,
        ),
        "marginal_ks": Table(
            ("n", "rank", "ks_distance", "replicas"), ks_rows
        ),
    }
    meta = {"wall_time_s": time.perf_counter() - start}
    return ExperimentResult(config, tables, failures, 0, meta)


# ---------------------------------------------------------------------------
# Small tail index, diffusive scale
# ---------------------------------------------------------------------------


def _small_alpha_replica(task) -> dict:
    config, n, replica = task
    tail = config.tail()
    beta = config.beta_at(n)
    seed = derive_seed(config.seed, n, replica, _FIELD_SLOT)
    field = sample_field(n, n, tail, seed)
    logz = log_partition(field, beta, FREE)
    m_lin = quantile(tail, float(n) ** 2)
    m_diff = quantile(tail, float(n) ** 1.5)
    rescaled = 0.0 if beta == 0.0 else math.sqrt(n) * logz / (beta * m_diff)

    # conditioning proxy: Lipschitz chain value on the rescaled top
    # weights; truncation can only lower it, so replicas the full value
    # would reject may still pass (bias toward accepting).  The other
    # way, zero-slope lattice sites carry exactly zero entropy, so a
    # hair-thin positive proxy is common while the top weights still
    # cover a sizable share of the box (small n).
    beta_run = beta * m_lin / n
    if beta_run > 0.0:
        count = int(reachable_mask(n, field.h).sum())
        stats = ordered_statistics(
            field, min(HAT_PROXY_TOP, count), reachable_only=True
        )
        pts = np.column_stack(
            [stats.rows / n, stats.cols / n, stats.weights / m_lin]
        )
        proxy = lipschitz_chain_value(pts, beta_run)
    else:
        proxy = 0.0
    conditioned = int(proxy == 0.0)

    companion = 2.0 * sample_heat_kernel_sum(
        config.alpha, config.eps, half_width=config.kernel_cutoff,
        seed=derive_seed(config.seed, n, replica, _PPP_SLOT),
    )

    failures = 0
    band_hi = math.ceil(config.band_fraction * n)
    band_rows = []
    prev_tail = math.inf
    for c in config.c_values:
        lo = math.ceil(c * math.sqrt(n))
        tail_p = 0.0 if lo > n else gibbs_band_probability(field, beta, lo, n + 1)
        band_p = (
            gibbs_band_probability(field, beta, lo, band_hi)
            if lo < band_hi else 0.0
        )
        if band_p > tail_p * (1.0 + MONOTONE_TOL) + 1e-15:
            failures += 1
        if tail_p > prev_tail * (1.0 + MONOTONE_TOL) + 1e-15:
            failures += 1
        prev_tail = tail_p
        band_rows.append(
            (n, replica, seed, float(c), float(tail_p), float(band_p))
        )

    cond_row = (
        n, replica, seed, float(beta), float(proxy), conditioned,
        float(logz), float(rescaled), float(companion),
    )
    return {"conditioned": [cond_row], "bands": band_rows, "failures": failures}


def run_small_alpha(config: ExperimentConfig) -> ExperimentResult:
    """Conditional diffusive-scale law for tail index below 1/2.

    Per replica: a truncated Lipschitz-value proxy decides whether the
    linear-scale mechanism is dormant; on those replicas the rescaled
    free energy is paired with an independent doubled heat-kernel
    sample.  The exact Gibbs tail beyond C sqrt(n) and the occupancy of
    the intermediate band [C sqrt(n), band_fraction * n) are swept
    over c_values.
    """
    if config.kind != KIND_SMALL_ALPHA:
        raise ValueError("config.kind mismatch")
    if not 0.0 < config.alpha < 0.5:
        raise ValueError("small-alpha campaigns need alpha in (0, 1/2)")
    if config.beta_hat > 0.0:
        label = classify(config.alpha, config.schedule(), tail=config.tail()).label
        if label == LABEL_SMALL_N:
            raise ValueError(
                "linear-scale coupling diverges; this campaign needs the "
                "transition line or below"
            )
    else:
        label = LABEL_ZERO

    start = time.perf_counter()
    tasks = [(config, n, r) for n in config.sizes for r in range(config.replicas)]
    bundles = _map_tasks(_small_alpha_replica, tasks, config.threads)
    cond_rows = _sorted_rows(bundles, "conditioned", 3)
    band_rows = _sorted_rows(bundles, "bands", 4)
    failures = sum(b["failures"] for b in bundles)

    ks_rows = []
    for n in config.sizes:
        sub = [r for r in cond_rows if r[0] == n]
        kept = [r[7] for r in sub if r[5] == 1]
        companions = [r[8] for r in sub]
        if len(kept) >= 2:
            ks = float(ks_2samp(kept, companions).statistic)
        else:
            ks = math.nan
        ks_rows.append((n, ks, len(kept), len(sub)))

    tables = {
        "conditioned": Table(
            ("n", "replica", "seed", "beta_n", "hat_proxy", "conditioned",
             "log_z", "rescaled", "companion"),
            cond_rows,
        ),
        "bands": Table(
            ("n", "replica", "seed", "c", "tail_prob", "band_prob"),
            band_rows,
        ),
        "ks_summary": Table(
            ("n", "ks_distance", "conditioned_count", "replicas"), ks_rows
        ),
    }
    meta = {"label": label, "wall_time_s": time.perf_counter() - start}
    return ExperimentResult(config, tables, failures, 0, meta)


# ---------------------------------------------------------------------------
# Dispatch and emission
# ---------------------------------------------------------------------------

_RUNNERS = {
    KIND_FLUCTUATION: run_fluctuation,
    KIND_REGIME: run_regime_convergence,
    KIND_ORDERED: run_ordered_stats_coupling,
    KIND_SMALL_ALPHA: run_small_alpha,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    return _RUNNERS[config.kind](config)


def write_outputs(result: ExperimentResult, out_dir) -> List[Path]:
    """One CSV per table plus a manifest.json.

    The CSVs are byte-identical across reruns of the same config; the
    manifest carries the volatile context (wall time, git state) and is
    deliberately kept out of that guarantee.
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
        "tables": {name: len(t.rows) for name, t in result.tables.items()},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
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
