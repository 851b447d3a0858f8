"""Poisson point samples and continuum variational values.

Rescaled heavy weights converge to a Poisson point process on
[0, 1] x [-q, q] x (0, inf) with weight intensity proportional to
w^(-alpha-1).  This module samples truncated realizations of that
process and evaluates the limiting energy-entropy values on them:
chain problems with an optional per-point log penalty, the Lipschitz
variant, the best single-point score, and heat-kernel-weighted sums.
It also finds the random coupling threshold where the penalized chain
value first becomes positive, exactly, as a ratio optimum over chains.

Two truncation modes produce the same law for the large weights:

* floor mode keeps every point with weight above ``eps``.  The count
  is Poisson with mean q * eps**(-alpha) and weights are iid Pareto
  rescaled above ``eps``.
* top mode keeps the ``top`` largest weights, built from partial sums
  of unit exponentials: the r-th weight is q**(1/alpha) * G_r**(-1/alpha).

Points are arrays of (t, x, w) rows throughout, matching the chain
solver.  Draw order is fixed per mode (count, weights, t, x in floor
mode; exponential gaps, t, x in top mode) so seeded samples are stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elpp import (
    ANY,
    ENTROPY_LIPSCHITZ,
    ENTROPY_QUADRATIC,
    MAX_GEOMETRY_POINTS,
    Cardinality,
    ChainGeometry,
    as_points,
    prepare_geometry,
    second_value,
    solve,
    top_by_weight,
)

# np.median and np.percentile read np.ma, which numpy imports on first
# access: load it with this module, so no estimate pays for that import
np.ma

NEG_INF = -np.inf

#: Default number of retained top weights for truncated estimates.
DEFAULT_TOP = 256
#: Cap on the points of one sample: 240 MB as (t, x, w) rows, about 0.5 GB
#: while it is drawn.  alpha 1.9 at eps 1e-3 on [-8, 8] means 4e6 points.
MAX_SAMPLE_POINTS = 10_000_000

#: Coupling bracket of the threshold estimate; solve cap of its ratio iteration.
BRACKET_LOW = 1e-4
BRACKET_HIGH = 1e4
RATIO_STEP_CAP = 64
#: Rounding margin of the point cuts (see _above and _hat_threshold).
CUT_MARGIN = 1e-9
#: Resamples of the threshold estimate's percentile-bootstrap interval.
BOOTSTRAP = 200

__all__ = [
    "DEFAULT_TOP",
    "PointMax",
    "CriticalCouplingEstimate",
    "sample_ppp",
    "heat_kernel_sum",
    "sample_heat_kernel_sum",
    "single_point_max",
    "chain_value",
    "lipschitz_chain_value",
    "critical_coupling",
]


def _as_points(points) -> np.ndarray:
    """elpp's point check, in input order and uncapped, and positive times."""
    arr = as_points(points)
    if np.any(arr[:, 0] <= 0.0):
        raise ValueError("point times must be positive")
    return arr


def sample_ppp(
    alpha: float,
    q: float,
    *,
    eps: float | None = None,
    top: int | None = None,
    seed=None,
) -> np.ndarray:
    """Sample a truncated heavy-tail Poisson point process.

    Exactly one of ``eps`` (floor mode, weights above eps) and ``top``
    (top mode, the ``top`` largest weights) must be given.  Returns an
    (m, 3) array of (t, x, w) rows with t uniform on [0, 1] and x
    uniform on [-q, q].  ``eps=inf`` returns an empty sample.  A floor
    mode mean q * eps**(-alpha) or a ``top`` above MAX_SAMPLE_POINTS is
    refused before anything is drawn, and a weight past the float range
    (alpha near 0 makes w**alpha tiny) raises ValueError once drawn.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    if q <= 0.0:
        raise ValueError("q must be positive")
    if (eps is None) == (top is None):
        raise ValueError("give exactly one of eps and top")
    rng = np.random.default_rng(seed)

    if eps is not None:
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        if math.log(q) - alpha * math.log(eps) > math.log(MAX_SAMPLE_POINTS):
            raise ValueError(f"floor mode mean q * eps**(-alpha) is over {MAX_SAMPLE_POINTS}")
        count = int(rng.poisson(q * eps ** (-alpha)))
        # Pareto above the floor: P(w > u) = (eps/u)^alpha for u >= eps.
        with np.errstate(all="ignore"):  # refused below if not finite
            weights = eps * rng.random(count) ** (-1.0 / alpha)
    else:
        if isinstance(top, bool) or int(top) != top:
            raise ValueError("top must be an integer")
        count = int(top)
        if count < 0:
            raise ValueError("top must be nonnegative")
        if count > MAX_SAMPLE_POINTS:
            raise ValueError(f"top exceeds {MAX_SAMPLE_POINTS} points")
        gaps = rng.standard_exponential(count)
        # Partial sums of unit exponentials give the ranked weights.
        with np.errstate(all="ignore"):
            weights = np.float64(q) ** (1.0 / alpha) * np.cumsum(gaps) ** (-1.0 / alpha)
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"alpha {alpha!r} draws weights past the float range")

    t = rng.random(count)
    x = rng.uniform(-q, q, count)
    return np.column_stack([t, x, weights])


def heat_kernel_sum(points) -> float:
    """Sum of w * (2 pi t)^(-1/2) * exp(-x^2 / (2t)) over the points."""
    arr = _as_points(points)
    t, x, w = arr[:, 0], arr[:, 1], arr[:, 2]
    density = np.exp(-(x * x) / (2.0 * t)) / np.sqrt(2.0 * math.pi * t)
    return float(np.sum(w * density))


def sample_heat_kernel_sum(
    alpha: float,
    eps: float,
    *,
    half_width: float = 8.0,
    seed=None,
) -> float:
    """Heat-kernel sum of a fresh floor-mode sample on [0,1] x [-K, K].

    ``half_width`` is K.  The value grows stochastically as ``eps``
    shrinks; couple comparisons across eps by sampling once at the
    smallest floor and filtering, since redrawing changes the count.
    """
    points = sample_ppp(alpha, half_width, eps=eps, seed=seed)
    return heat_kernel_sum(points)


class PointMax(NamedTuple):
    """Best single-point score and the input row that attains it."""

    value: float
    index: int | None


def single_point_max(points, beta: float) -> PointMax:
    """Maximize w - x^2 / (2 beta t) over the points.

    Empty input returns (-inf, None).  Ties keep the first row in
    input order.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    arr = _as_points(points)
    if arr.shape[0] == 0:
        return PointMax(NEG_INF, None)
    t, x, w = arr[:, 0], arr[:, 1], arr[:, 2]
    scores = w - (x * x) / (2.0 * beta * t)
    best = int(np.argmax(scores))
    return PointMax(float(scores[best]), best)


def chain_value(
    points,
    nu: float,
    *,
    beta: float | None = None,
    cardinality: Cardinality = ANY,
) -> float:
    """Best chain value nu*(collected weight) - entropy - penalty.

    With ``beta`` set, each collected point also costs 1/(2 beta); the
    cardinality modes then restrict or bound the number of points.
    Without ``beta`` the problem is the plain quadratic-entropy one.
    The empty chain keeps the default mode at a floor of zero; exact
    or at-least modes on an infeasible sample give -inf.
    """
    if nu < 0.0:
        raise ValueError("nu must be nonnegative")
    kappa = 0.0
    if beta is not None:
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        kappa = 1.0 / (2.0 * beta)
    result = solve(points, nu, kappa=kappa, cardinality=cardinality)
    return result.value


def lipschitz_chain_value(points, beta: float) -> float:
    """Best Lipschitz-entropy value sup {weight - entropy / beta}.

    Computed as (1/beta) * sup {beta * weight - entropy} so the pair
    costs are shared with the unscaled solver.  The empty chain keeps
    the value at a floor of zero; points outside the unit-slope cone
    from the origin are unreachable.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    result = solve(points, beta, kappa=0.0, entropy_kind=ENTROPY_LIPSCHITZ)
    return result.value / beta


def _above(points: np.ndarray, kappa: float) -> np.ndarray:
    """Rows of the points a chain optimal at price kappa per point can
    hold: weight above kappa - delta, delta = CUT_MARGIN * max(1, max w).

    Skipping a point never raises the quadratic entropy ((a+b)^2/(s+t)
    <= a^2/s + b^2/t), so a point with w < kappa only lowers a chain's
    value; one with w = kappa can tie, so it is kept.  delta covers the
    rounding: on a chain of positive value every partial value, leg cost
    and gain is at most L * max w, L <= MAX_GEOMETRY_POINTS, so the few
    roundings that could favour a detour through a dropped point over
    skipping it total under 100 * 2^-53 * 4096 * max w, delta / 20.
    A row under the cut costs a chain through it delta or more, far above
    rounding, so a lower cut that keeps some of them solves to the same
    chain.  A tilde geometry is cut at its iteration's start less delta:
    it holds every row that a later, higher price keeps, and every row
    that the tie check's top-two pass reads at the final ratio less
    delta.
    """
    return np.flatnonzero(points[:, 2] > kappa - _margin(points))


def _margin(points: np.ndarray) -> float:
    """delta of ``_above``: CUT_MARGIN * max(1, max w)."""
    return CUT_MARGIN * float(points[:, 2].max(initial=1.0))


def _threshold(geometry: ChainGeometry, start: float | None = None):
    """Exact critical coupling of one point set, and the ratio behind it.

    Quadratic entropy gives tilde: beta_c = 1/(2 rho*), rho* the max over
    chains of (weight - entropy) / size; Lipschitz entropy gives hat:
    beta_c is the min over chains of entropy / weight.  Dinkelbach's
    iteration solves at the current ratio and moves to the returned
    chain's ratio until the empty chain comes back or the ratio stops
    improving.  Every solve runs on ``geometry`` as given; the callers
    build it over only the points a chain can use (``_tilde_threshold``,
    ``_hat_threshold``).  ``start`` must be no better than the optimum.
    beta_c is nan at or above BRACKET_HIGH and at least BRACKET_LOW.
    """
    rises = geometry.entropy_kind == ENTROPY_QUADRATIC
    ratio = start if start is not None else (0.0 if rises else BRACKET_HIGH)
    for _ in range(RATIO_STEP_CAP):
        kappa, beta = (ratio, 1.0) if rises else (0.0, ratio)
        found = solve(geometry, beta, kappa=kappa)
        if not found.indices:
            break
        # the chain's terms from the geometry's own steps, as the DP adds them
        idx = np.asarray(found.indices)
        weight = float(geometry.points[idx, 2].sum())
        ent = float(geometry.origin_step[idx[0]] + geometry.into_step[idx[1:], idx[:-1]].sum())
        new = (weight - ent) / idx.size if rises else ent / weight
        gain = new - ratio if rises else ratio - new
        if gain < -1e-9 * abs(ratio):
            raise RuntimeError(f"positive-value chain at ratio {ratio!r} worsens the ratio")
        if gain <= 0.0:
            break
        ratio = new
    else:
        raise RuntimeError(f"ratio iteration did not settle in {RATIO_STEP_CAP} solves")
    beta = (0.5 / ratio if ratio > 0.0 else math.inf) if rises else ratio
    if beta >= BRACKET_HIGH:
        return math.nan, ratio
    return max(beta, BRACKET_LOW), ratio


def _tilde_threshold(points: np.ndarray, start: float | None = None):
    """Tilde ``_threshold`` from ``start`` on the quadratic geometry of
    only the points above start - 2 delta (see ``_above``).

    The default start is the best one-point ratio floored at 0, a lower
    bound since one point is a chain.  From any lower bound the
    iteration ends on a chain of the best ratio, to rounding; only when
    two such chains tie can the one it ends on, and so the rounded
    ratio, depend on where it started (4 - 16/6 against the 4/3 of a
    three-point chain).  So a one-point start stands only if
    ``_tied`` finds no second chain of positive value at the final ratio
    in the same geometry, by one top-two pass and no solve, else the
    iteration is redone from 0.
    """
    one_point = start is None
    if one_point:
        start = max(0.0, single_point_max(points, 1.0).value)
    geometry = prepare_geometry(points[_above(points, start - _margin(points))])
    found = _threshold(geometry, start)
    if one_point and start > 0.0 and _tied(geometry, found[1]):
        return _tilde_threshold(points, 0.0)
    return found


def _tied(geometry: ChainGeometry, ratio: float) -> bool:
    """Whether a second chain of the geometry's points beats ``ratio`` - delta.

    Every iteration ends on a chain within rounding of the best ratio,
    and such a chain has a value well above rounding at that price.  If
    only one chain has a positive value there, every start ends on it.
    So the check is whether the second largest chain value at that
    price is positive: one top-two pass (``second_value``), no solve.
    The ratio is at least the iteration's start, so the geometry holds
    every point above ratio - 2 delta, the heaviest too (so delta is
    that of the whole sample), and the pass reads the rows above
    ratio - delta (``_rows``), or the whole geometry when it is all.
    """
    kappa = ratio - _margin(geometry.points)
    rows = _above(geometry.points, kappa)
    kept = geometry if rows.size == len(geometry.points) else _rows(geometry, rows)
    return second_value(kept, 1.0, kappa) > 0.0


def _rows(geometry: ChainGeometry, rows: np.ndarray) -> ChainGeometry:
    """The geometry of some rows of ``geometry``, in their order, for the
    tie check's top-two pass.  Leg costs are elementwise in (dt, dx) and
    time-sorted rows stay sorted, so these are the floats
    ``prepare_geometry`` gives for those points."""
    return ChainGeometry(geometry.entropy_kind, geometry.points[rows],
                         geometry.origin_step[rows], geometry.into_step[np.ix_(rows, rows)])


def _hat_threshold(points: np.ndarray, start: float | None = None):
    """Hat ``_threshold`` from ``start`` on the Lipschitz geometry of only
    the points inside the origin's slope-1 cone, |x| <= t (1 + CUT_MARGIN).

    A Lipschitz leg is finite only if |dx| <= dt * _SLOPE_SLACK to
    rounding, and the dt of a chain's legs sum to its last point's t, so
    every point of a finite chain has |x| <= t (1 + 1e-12)(1 + 4u), u the
    unit roundoff: inside the margin.  A dropped point has value -inf in
    the solver's dynamic program, and removing it keeps the time order
    of the rest, so every chain, value and index tie-break is the same.
    """
    inside = np.abs(points[:, 1]) <= points[:, 0] * (1.0 + CUT_MARGIN)
    return _threshold(prepare_geometry(points[inside], ENTROPY_LIPSCHITZ), start)


@dataclass(frozen=True)
class CriticalCouplingEstimate:
    """Monte Carlo estimate of the positive-value coupling threshold.

    ``samples`` holds one threshold per replica at the requested
    truncation (nan where the bracket failed); ``doubled_samples``
    holds the thresholds on the same replicas with twice as many
    retained weights.  ``relative_shift`` compares the two medians as
    a truncation-sensitivity report.
    """

    flavor: str
    alpha: float
    q: float
    top: int
    median: float
    ci_low: float
    ci_high: float
    samples: np.ndarray
    doubled_median: float
    doubled_samples: np.ndarray
    relative_shift: float
    failures: int


def critical_coupling(
    alpha: float,
    *,
    replicas: int = 100,
    top: int = DEFAULT_TOP,
    q: float | None = None,
    seed=None,
) -> CriticalCouplingEstimate:
    """Estimate the coupling where the chain value first turns positive.

    Per replica, a top-mode sample with 2*``top`` weights is drawn once;
    the exact threshold is found by the ratio iteration on its ``top``
    largest weights (``top_by_weight``'s set, whose order no iteration
    reads) and again on the full sample.  Doubling the truncation is
    coupled point-set inclusion, and the full sample's iteration starts
    from the primary ratio, so per-replica thresholds can only shrink.
    Each iteration builds one geometry, over only the points a chain at
    its starting ratio can use: tilde keeps the points above that
    ratio's cut (the best one-point ratio for the primary, the primary
    ratio for the doubled sample), hat the points inside the origin's
    slope-1 cone.

    A tilde doubled iteration is skipped, and its threshold is the
    primary's, when no added point clears the final cut: the heaviest
    weight left out of the top set is at most rho - delta, rho the
    primary's final ratio and delta ``_margin`` (one value for both
    sets, which share their heaviest weight).  This is exact.  By
    ``_above``'s lemma a solve at price rho returns the chain it returns
    on the rows above rho - delta alone, and those rows are the same in
    both geometries: the primary's holds every top-set row above its
    start less 2 delta, a start at most rho; the doubled one's holds
    every sample row above rho - 2 delta; no added row lies above
    rho - delta.  So the doubled iteration's first solve, at rho, returns
    the chain that the primary's last solve returned at rho, with the
    same weight and entropy floats (legs are elementwise in (dt, dx)),
    and it stops where the primary stopped, at rho.  The doubled
    estimate thus equals the primary wherever the doubling adds no
    point above the final cut, so a ``relative_shift`` of 0 says exactly
    that the added points moved no median.  Hat always runs its doubled
    iteration: no weight cut is proven for the Lipschitz entropy.

    ``top`` is capped at MAX_GEOMETRY_POINTS / 2 before any solve.
    Reports the median over replicas with a percentile-bootstrap
    interval; raises ValueError when no replica has a threshold inside
    the bracket, an outcome of the inputs alone.  alpha sets the flavor:
    tilde (default q 8) on (1/2, 2), hat (default q 1) on (0, 1/2).
    """
    if 0.5 < alpha < 2.0:
        flavor, threshold, q = "tilde", _tilde_threshold, (8.0 if q is None else q)
    elif 0.0 < alpha < 0.5:
        flavor, threshold, q = "hat", _hat_threshold, (1.0 if q is None else q)
    else:
        raise ValueError("critical coupling needs alpha in (0, 1/2) or (1/2, 2)")
    if replicas < 1:
        raise ValueError("replicas must be positive")
    if top < 1:
        raise ValueError("top must be positive")
    if 2 * top > MAX_GEOMETRY_POINTS:
        raise ValueError(f"top capped at {MAX_GEOMETRY_POINTS // 2}: a doubled "
                         f"sample's geometry may need all {2 * top} points")

    root = np.random.SeedSequence(seed)
    sample_seeds = root.spawn(replicas + 1)
    primary = np.empty(replicas)
    doubled = np.empty(replicas)
    for r in range(replicas):
        sample = sample_ppp(alpha, q, top=2 * top, seed=sample_seeds[r])
        rows, left_out = top_by_weight(sample, top)
        primary[r], ratio = threshold(sample[rows])
        if flavor == "tilde" and left_out <= ratio - _margin(sample):
            doubled[r] = primary[r]
        else:
            doubled[r], _ = threshold(sample, ratio)

    finite = primary[np.isfinite(primary)]
    failures = replicas - finite.size
    if finite.size == 0:
        raise ValueError("no replica produced a threshold inside the bracket")
    median = float(np.median(finite))

    boot_rng = np.random.default_rng(sample_seeds[replicas])
    draws = boot_rng.choice(finite, size=(BOOTSTRAP, finite.size), replace=True)
    boot_medians = np.median(draws, axis=1)
    ci_low, ci_high = np.percentile(boot_medians, [2.5, 97.5])

    finite_doubled = doubled[np.isfinite(doubled)]
    doubled_median = float(np.median(finite_doubled)) if finite_doubled.size else math.nan
    shift = abs(median - doubled_median) / median if median > 0.0 else math.nan

    return CriticalCouplingEstimate(
        flavor=flavor,
        alpha=alpha,
        q=q,
        top=top,
        median=median,
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        samples=primary,
        doubled_median=doubled_median,
        doubled_samples=doubled,
        relative_shift=float(shift),
        failures=failures,
    )
