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
``_KINDS``: a set-up step (the kind's config checks and label, giving
the replicas' extra task arguments and the manifest fields), the
replica function, the replica tables with their columns and sort-key
widths, and a summary function that reads those tables by column name
and returns the decay or KS table.  The runner maps the replicas,
sorts each table, counts failures and flags, adds the summary and
writes the manifest meta.

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
import warnings
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.integrate import IntegrationWarning
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
    reachable_count,
    sample_field,
)
from .polymer import FREE, chaos_terms, gibbs_band_probabilities, log_partition
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

    Every field is checked against its annotation and normalised (ints
    to ``int``, lists to tuples, float-list items to ``float``).
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
        if self.beta_hat == 0.0:
            raise ValueError("zero coupling has no schedule")
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
    elif is_list:
        items = [float(v) for v in items]
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
    return ExperimentConfig(**raw)


class Table(NamedTuple):
    columns: Tuple[str, ...]
    rows: List[tuple]

    def column(self, name: str, **where) -> list:
        """Column ``name`` of the rows whose columns equal ``where``'s values."""
        at = self.columns.index
        keep = [(at(key), value) for key, value in where.items()]
        col = at(name)
        return [row[col] for row in self.rows if all(row[i] == v for i, v in keep)]


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


def _counted(job) -> dict:
    """Run one replica; its scipy quadrature warnings are counted into
    the bundle instead of shown, and other warnings are shown as usual."""
    worker, task = job
    count = 0
    show = warnings.showwarning

    def count_quadrature(message, category, *args, **kwargs):
        nonlocal count
        if issubclass(category, IntegrationWarning):
            count += 1
        else:
            show(message, category, *args, **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("always", IntegrationWarning)
        warnings.showwarning = count_quadrature
        bundle = worker(task)
    bundle["quadrature_warnings"] = count
    return bundle


def _map_replicas(worker, config: ExperimentConfig, *extra) -> list:
    """One bundle per (config, n, replica, *extra) task, on a pool of
    config.threads processes when that is above 1."""
    jobs = [
        (worker, (config, n, r, *extra)) for n in config.sizes for r in range(config.replicas)
    ]
    if config.threads <= 1 or len(jobs) <= 1:
        return [_counted(job) for job in jobs]
    with multiprocessing.Pool(processes=config.threads) as pool:
        return list(pool.imap_unordered(_counted, jobs, chunksize=1))


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


def _label(config: ExperimentConfig) -> str:
    """The schedule's class, or the zero-coupling label at beta_hat 0."""
    if config.beta_hat == 0.0:
        return LABEL_ZERO
    return classify(config.alpha, config.schedule(), tail=config.tail()).label


def _ks(sample, reference) -> float:
    """Two-sample KS distance; nan below two samples."""
    if len(sample) < 2:
        return math.nan
    return float(ks_2samp(sample, reference).statistic)


def _top_lattice(field, ell: int) -> np.ndarray:
    """(i, x, w) rows of the field's top-ell walk-reachable weights."""
    count = reachable_count(field.n, field.h)
    stats = ordered_statistics(field, min(ell, count), reachable_only=True)
    return np.column_stack([stats.rows, stats.cols, stats.weights])


# ---------------------------------------------------------------------------
# Fluctuation decay
# ---------------------------------------------------------------------------


def _fluctuation_setup(config: ExperimentConfig):
    if not 0.5 < config.alpha < 2.0:
        raise ValueError("fluctuation campaigns need alpha in (1/2, 2)")
    label = _label(config)
    if label not in (LABEL_ZERO, LABEL_R2, LABEL_R3, LABEL_R3A, LABEL_R3B, LABEL_R4):
        raise ValueError(
            f"schedule classifies as {label}; the scale balance needs "
            "the intermediate strip"
        )
    return (), {"label": label}


def _fluctuation_replica(task) -> dict:
    """Exact Gibbs tail P(max |S_i| >= A h_n) swept over A."""
    config, n, replica = task
    tail = config.tail()
    beta = config.beta_at(n)
    h_n = fluctuation_scale(n, beta, tail).h
    seed = derive_seed(config.seed, n, replica, _FIELD_SLOT)
    field = sample_field(n, n, tail, seed)
    los = [math.ceil(a * h_n) for a in config.a_values]
    found = iter(gibbs_band_probabilities(field, beta, [(lo, n + 1) for lo in los if lo <= n]).probs)
    probs = [next(found) if lo <= n else 0.0 for lo in los]
    rows = []
    failures = 0
    prev = math.inf
    for a, prob in zip(config.a_values, probs):
        if prob > prev * (1.0 + MONOTONE_TOL) + 1e-15:
            failures += 1
        prev = prob
        rows.append((n, replica, seed, float(a), float(h_n), float(prob)))
    return {"gibbs_tail": rows, "failures": failures}


def _decay(config: ExperimentConfig, tables: Dict[str, Table], fields) -> Tuple[str, Table]:
    """Per (n, A, c1), the fraction of replicas whose tail lies above
    n exp(-c1 A^2 h_n^2 / n).  The walk-deviation constants are not
    pinned down, so thresholds are swept over c1_values rather than
    fixed."""
    tail = config.tail()
    rows = []
    for n in config.sizes:
        h_n = fluctuation_scale(n, config.beta_at(n), tail).h
        for a in config.a_values:
            probs = tables["gibbs_tail"].column("tail_prob", n=n, a=a)
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


def _record(label: str) -> RegimeRecord:
    # the zero-coupling control runs on the diffusive record
    return RECORDS[LABEL_R5 if label == LABEL_ZERO else label]


def _regime_setup(config: ExperimentConfig):
    """Random splits in the classification are resolved with a seed
    derived from the config seed."""
    if config.beta_hat == 0.0:
        label, beta_limit = LABEL_ZERO, 0.0
        normalizer = "zero coupling: every rescaled observable is 0 exactly"
        limit_object = "2 * heat-kernel functional (diagnostic companion)"
    else:
        report = classify(config.alpha, config.schedule(), tail=config.tail(),
                          seed=derive_seed(config.seed, _CLASSIFY_KEY))
        label, beta_limit = report.label, report.beta_limit
        normalizer, limit_object = report.normalizer, report.limit_object
        if label == LABEL_BOUNDARY:
            raise ValueError("alpha = 1/2 classification is undecided")
        if label in (LABEL_R3, LABEL_SMALL_SPLIT):
            raise ValueError("random split left unresolved")  # unreachable
    fields = dict(label=label, beta_limit=beta_limit, normalizer=normalizer,
                  limit_object=limit_object, wrapper=_record(label).wrapper)
    return (label, beta_limit, normalizer), fields


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
    lattice = _top_lattice(field, ell)
    if record.pathway is LINEAR:
        m_scale = quantile(tail, float(n) ** 2)
        nu = beta * m_scale / n
        discrete = solve(lattice, beta, 0.0, ENTROPY_LIPSCHITZ).value / n
        cont = solve(lattice / (n, n, m_scale), nu, 0.0, ENTROPY_LIPSCHITZ).value
        return discrete, cont, nu
    m_scale = quantile(tail, float(n) * h)
    nu = beta * m_scale * n / (h * h)
    discrete = solve(lattice, beta).value * n / (h * h)
    cont = solve(lattice / (n, h, m_scale), nu).value
    return discrete, cont, nu


def _regime_replica(task) -> dict:
    """Rescaled exact free energy, an independent truncated sample of
    the matching limit object, and the exact discrete to continuum
    coupling identity on the top-ell weights.  A replica of the
    zero-value branch whose own companion sample sits above its
    critical coupling is flagged, never dropped."""
    config, n, replica, label, beta_limit, normalizer = task
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
        label, record.wrapper, normalizer,
    )
    coup_row = (n, replica, seed, float(nu), float(discrete), float(cont),
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
    energy, never instead of it.
    """
    observable = tables["observable"]
    targets = ["rescaled"]
    if _record(fields["label"]).pathway is DIFFUSIVE:
        targets.append("rescaled_vn")
    rows = []
    for n in config.sizes:
        companions = observable.column("companion", n=n)
        usable = all(math.isfinite(c) for c in companions)
        for name in targets:
            ks = _ks(observable.column(name, n=n), companions) if usable else math.nan
            rows.append((n, name, ks, len(companions)))
    return "ks_summary", Table(("n", "observable", "ks_distance", "replicas"), rows)


# ---------------------------------------------------------------------------
# Ordered-statistics coupling
# ---------------------------------------------------------------------------


def _ordered_setup(config: ExperimentConfig):
    if config.ell > ORDERED_ELL_CAP:
        raise ValueError(f"ordered-statistics ell is capped at {ORDERED_ELL_CAP}")
    for n in config.sizes:
        h = config.half_width or math.ceil(math.sqrt(n))
        if config.ell > n * (2 * h + 1):
            raise ValueError("ell exceeds the site count at the smallest size")
    return (), {}


def _ordered_replica(task) -> dict:
    """Top-ell field weights rescaled to continuum units (w / m(2nh),
    i/n, x/h) beside a direct point-process sample.  All box sites
    enter the ranking here (no walk-reachability cut), which is what
    the 2nh site count in the weight scale assumes."""
    config, n, replica = task
    tail = config.tail()
    h = config.half_width or math.ceil(math.sqrt(n))
    seed = derive_seed(config.seed, n, replica, _FIELD_SLOT)
    field = sample_field(n, h, tail, seed)
    stats = ordered_statistics(field, config.ell, reachable_only=False)
    scale = quantile(tail, 2.0 * n * h)
    ppp = sample_ppp(
        config.alpha, 1.0, top=config.ell,
        seed=derive_seed(config.seed, n, replica, _PPP_SLOT),
    )
    rows = []
    failures = 0
    for source, raw, (w, t, x) in (
        ("field", stats.weights, (stats.weights / scale, stats.rows / n, stats.cols / h)),
        ("ppp", ppp[:, 2], (ppp[:, 2], ppp[:, 0], ppp[:, 1])),
    ):
        failures += int(np.count_nonzero(raw[1:] > raw[:-1]))
        rows += [(n, replica, source, r + 1, seed, float(w[r]), float(t[r]), float(x[r]))
                 for r in range(config.ell)]
    return {"order_stats": rows, "failures": failures}


def _marginal_ks(config: ExperimentConfig, tables: Dict[str, Table], fields) -> Tuple[str, Table]:
    """Per-rank two-sample KS distance between field and point process."""
    order_stats = tables["order_stats"]
    rows = []
    for n in config.sizes:
        for r in range(1, config.ell + 1):
            from_field = order_stats.column("weight_over_scale", n=n, source="field", rank=r)
            from_ppp = order_stats.column("weight_over_scale", n=n, source="ppp", rank=r)
            rows.append((n, r, _ks(from_field, from_ppp), len(from_field)))
    return "marginal_ks", Table(("n", "rank", "ks_distance", "replicas"), rows)


# ---------------------------------------------------------------------------
# Small tail index, diffusive scale
# ---------------------------------------------------------------------------


def _small_alpha_setup(config: ExperimentConfig):
    if not 0.0 < config.alpha < 0.5:
        raise ValueError("small-alpha campaigns need alpha in (0, 1/2)")
    label = _label(config)
    if label == LABEL_SMALL_N:
        raise ValueError(
            "linear-scale coupling diverges; this campaign needs the "
            "transition line or below"
        )
    return (), {"label": label}


def _small_alpha_replica(task) -> dict:
    """Conditional diffusive-scale law for tail index below 1/2.

    A truncated Lipschitz-value proxy decides whether the linear-scale
    mechanism is dormant; on those replicas the rescaled free energy is
    paired with an independent doubled heat-kernel sample.  The exact
    Gibbs tail beyond C sqrt(n) and the occupancy of the intermediate
    band [C sqrt(n), band_fraction * n) are swept over c_values.
    """
    config, n, replica = task
    tail = config.tail()
    beta = config.beta_at(n)
    seed = derive_seed(config.seed, n, replica, _FIELD_SLOT)
    field = sample_field(n, n, tail, seed)
    band_hi = math.ceil(config.band_fraction * n)
    los = [math.ceil(c * math.sqrt(n)) for c in config.c_values]
    logz, probs = gibbs_band_probabilities(
        field, beta,
        [(lo, n + 1) for lo in los if lo <= n] + [(lo, band_hi) for lo in los if lo < band_hi],
    )
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
        pts = _top_lattice(field, HAT_PROXY_TOP) / (n, n, m_lin)
        proxy = lipschitz_chain_value(pts, beta_run)
    else:
        proxy = 0.0
    conditioned = int(proxy == 0.0)

    companion = 2.0 * sample_heat_kernel_sum(
        config.alpha, config.eps, half_width=config.kernel_cutoff,
        seed=derive_seed(config.seed, n, replica, _PPP_SLOT),
    )

    failures = 0
    found = iter(probs)
    tails = [next(found) if lo <= n else 0.0 for lo in los]
    bands = [next(found) if lo < band_hi else 0.0 for lo in los]
    band_rows = []
    prev_tail = math.inf
    for c, tail_p, band_p in zip(config.c_values, tails, bands):
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


def _conditioned_ks(config: ExperimentConfig, tables: Dict[str, Table],
                    fields) -> Tuple[str, Table]:
    """KS distance of the conditioned replicas' rescaled free energy to
    the companions of all replicas, per size."""
    conditioned = tables["conditioned"]
    rows = []
    for n in config.sizes:
        kept = conditioned.column("rescaled", n=n, conditioned=1)
        companions = conditioned.column("companion", n=n)
        rows.append((n, _ks(kept, companions), len(kept), len(companions)))
    return "ks_summary", Table(("n", "ks_distance", "conditioned_count", "replicas"), rows)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class _Kind(NamedTuple):
    """What one experiment kind gives run_experiment."""

    setup: Callable  # config -> (extra task arguments, manifest fields); raises on a bad config
    replica: Callable  # (config, n, replica, *extra) -> rows per table, failures[, flagged]
    tables: Dict[str, Tuple[Tuple[str, ...], int]]  # replica table -> (columns, sort-key width)
    summary: Callable  # (config, tables, manifest fields) -> (name, summary table)


_KINDS = {
    KIND_FLUCTUATION: _Kind(_fluctuation_setup, _fluctuation_replica, {
        "gibbs_tail": (("n", "replica", "seed", "a", "h_n", "tail_prob"), 4),
    }, _decay),
    KIND_REGIME: _Kind(_regime_setup, _regime_replica, {
        "observable": (("n", "replica", "seed", "beta_n", "h_field", "log_z", "centering",
                        "rescaled", "rescaled_vn", "companion", "flagged", "label",
                        "wrapper", "normalizer"), 3),
        "coupling": (("n", "replica", "seed", "nu_effective", "discrete_value",
                      "continuum_value", "abs_diff"), 3),
    }, _regime_ks),
    KIND_ORDERED: _Kind(_ordered_setup, _ordered_replica, {
        "order_stats": (("n", "replica", "source", "rank", "seed", "weight_over_scale",
                         "t_frac", "x_frac"), 4),
    }, _marginal_ks),
    KIND_SMALL_ALPHA: _Kind(_small_alpha_setup, _small_alpha_replica, {
        "conditioned": (("n", "replica", "seed", "beta_n", "hat_proxy", "conditioned",
                         "log_z", "rescaled", "companion"), 3),
        "bands": (("n", "replica", "seed", "c", "tail_prob", "band_prob"), 4),
    }, _conditioned_ks),
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the campaign of ``config.kind``: its replica tables, each
    sorted by its key columns, then its summary table; the manifest
    meta holds the kind's fields, the wall time and the replicas'
    total quadrature warnings."""
    kind = _KINDS[config.kind]
    extra, fields = kind.setup(config)
    start = time.perf_counter()
    bundles = _map_replicas(kind.replica, config, *extra)
    tables = {}
    for name, (columns, key_width) in kind.tables.items():
        rows = [row for b in bundles for row in b[name]]
        rows.sort(key=lambda r: r[:key_width])
        tables[name] = Table(columns, rows)
    name, summary = kind.summary(config, tables, fields)
    tables[name] = summary
    meta = {
        **fields,
        "wall_time_s": time.perf_counter() - start,
        "quadrature_warnings": sum(b["quadrature_warnings"] for b in bundles),
    }
    failures = sum(b["failures"] for b in bundles)
    flagged = sum(b.get("flagged", 0) for b in bundles)
    return ExperimentResult(config, tables, failures, flagged, meta)


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
