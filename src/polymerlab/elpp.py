"""Exact solver for entropy-penalised last-passage problems.

The optimisation: over chains (time-increasing point sequences picked
from a finite weighted point set, started at the origin), maximise

    sum_j (beta * w_j - kappa)  -  Ent(chain)

where Ent is either the quadratic path entropy

    Ent = 1/2 sum (x_j - x_{j-1})^2 / (t_j - t_{j-1})

or the Lipschitz rate entropy

    Ent-hat = sum (t_j - t_{j-1}) * e((x_j - x_{j-1}) / (t_j - t_{j-1}))
    e(s) = (1+s)/2 log(1+s) + (1-s)/2 log(1-s),   e(+-1) = log 2,

both measured from (0, 0), infinite over equal-time displacements and
(in the Lipschitz case) slopes above 1 in modulus.  Chains may be
required to have exactly k or at least r points.

solve() is an exact layered dynamic program, O(layers * m^2) time and
O(layers * m) memory; brute_force() enumerates subsets two independent
ways for cross-checking.  Ties in value are broken toward the chain
whose time-sorted index sequence is lexicographically smallest, the
empty chain smallest of all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import xlogy

from .environment import DisorderField

ENTROPY_QUADRATIC = "quadratic"
ENTROPY_LIPSCHITZ = "lipschitz"

_MAX_POINTS = 50_000
_MAX_GEOMETRY_POINTS = 4096
_MAX_BRUTE_LOOP = 14
_MAX_BRUTE_TABLE = 22

NEG_INF = -math.inf


# ---------------------------------------------------------------------------
# Entropy functionals
# ---------------------------------------------------------------------------


def _rate(s: np.ndarray) -> np.ndarray:
    """e(s) on [-1, 1]; xlogy handles the 0 log 0 endpoints exactly."""
    return 0.5 * (xlogy(1.0 + s, 1.0 + s) + xlogy(1.0 - s, 1.0 - s))


def _step_cost(kind: str, dt, dx) -> np.ndarray:
    """Per-leg entropy cost; inf on equal-time moves and steep slopes."""
    dt = np.asarray(dt, dtype=float)
    dx = np.asarray(dx, dtype=float)
    still = (dt == 0.0) & (dx == 0.0)
    if kind == ENTROPY_QUADRATIC:
        with np.errstate(divide="ignore", invalid="ignore"):
            cost = np.where(dt > 0.0, dx * dx / (2.0 * dt), math.inf)
    elif kind == ENTROPY_LIPSCHITZ:
        ok = (dt > 0.0) & (np.abs(dx) <= dt)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(ok, np.clip(np.divide(dx, np.where(ok, dt, 1.0)), -1.0, 1.0), 0.0)
            cost = np.where(ok, dt * _rate(s), math.inf)
    else:
        raise ValueError(f"unknown entropy kind {kind!r}")
    return np.where(still, 0.0, cost)


def _path_entropy(kind: str, delta) -> float:
    arr = np.asarray(delta, dtype=float)
    if arr.size == 0:
        return 0.0
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise ValueError("expected rows of (t, x) or (t, x, w)")
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    arr = arr[order]
    if len(arr) > 1 and np.any(
        (np.diff(arr[:, 0]) == 0.0) & (np.diff(arr[:, 1]) == 0.0)
    ):
        raise ValueError("duplicate (t, x) points")
    t = np.concatenate(([0.0], arr[:, 0]))
    x = np.concatenate(([0.0], arr[:, 1]))
    return float(np.sum(_step_cost(kind, np.diff(t), np.diff(x))))


def entropy(delta) -> float:
    """Quadratic path entropy of a point set, from the origin."""
    return _path_entropy(ENTROPY_QUADRATIC, delta)


def lipschitz_entropy(delta) -> float:
    """Lipschitz rate entropy of a point set, from the origin."""
    return _path_entropy(ENTROPY_LIPSCHITZ, delta)


# ---------------------------------------------------------------------------
# Problem types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cardinality:
    """Chain-size requirement: any size, exactly k, or at least r points."""

    kind: str = "any"
    count: int = 0

    def __post_init__(self):
        if self.kind not in ("any", "exactly", "atleast"):
            raise ValueError(f"unknown cardinality kind {self.kind!r}")
        if self.count < 0:
            raise ValueError("count must be >= 0")


ANY = Cardinality()


def exactly(k: int) -> Cardinality:
    return Cardinality("exactly", k)


def at_least(r: int) -> Cardinality:
    return Cardinality("atleast", r)


@dataclass(frozen=True)
class ChainSolution:
    """Optimal value with its chain; indices refer to the time-sorted
    point list.  value -inf with an empty chain means infeasible."""

    value: float
    indices: Tuple[int, ...]
    chain: Tuple[Tuple[float, float, float], ...]


@dataclass(frozen=True)
class ChainGeometry:
    """Precomputed entropy steps for repeated solves on one point set."""

    entropy_kind: str
    points: np.ndarray  # time-sorted (m, 3)
    origin_step: np.ndarray  # (m,)
    pair_step: np.ndarray  # (m, m), valid above the diagonal


def _as_sorted_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.empty((0, 3))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("expected rows of (t, x, w)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    if len(pts) > _MAX_POINTS:
        raise ValueError(f"more than {_MAX_POINTS} points")
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    pts = pts[order]
    if len(pts) > 1 and np.any(
        (np.diff(pts[:, 0]) == 0.0) & (np.diff(pts[:, 1]) == 0.0)
    ):
        raise ValueError("duplicate (t, x) points")
    return pts


def prepare_geometry(points, entropy_kind: str = ENTROPY_QUADRATIC) -> ChainGeometry:
    """Precompute all entropy steps; worth it when solving the same point
    set at many couplings."""
    pts = _as_sorted_points(points)
    m = len(pts)
    if m > _MAX_GEOMETRY_POINTS:
        raise ValueError(f"geometry matrix capped at {_MAX_GEOMETRY_POINTS} points")
    t, x = pts[:, 0], pts[:, 1]
    origin = _step_cost(entropy_kind, t, x)
    pair = _step_cost(entropy_kind, t[None, :] - t[:, None], x[None, :] - x[:, None])
    origin.flags.writeable = False
    pair.flags.writeable = False
    pts.flags.writeable = False
    return ChainGeometry(
        entropy_kind=entropy_kind, points=pts, origin_step=origin, pair_step=pair
    )


# ---------------------------------------------------------------------------
# Tie rules
# ---------------------------------------------------------------------------


def _prefix_less(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    """Order on open chain prefixes: appending the same tail keeps this
    order, so on a proper prefix tie the longer prefix is the smaller."""
    for ai, bi in zip(a, b):
        if ai != bi:
            return ai < bi
    return len(a) > len(b)


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------


def solve(
    points: Union[Sequence, np.ndarray, ChainGeometry],
    beta: float,
    kappa: float = 0.0,
    entropy_kind: Optional[str] = None,
    cardinality: Cardinality = ANY,
) -> ChainSolution:
    """Exact optimum of the chain problem by layered dynamic programming.

    Accepts raw (t, x, w) rows or a ChainGeometry; entropy_kind defaults
    to the geometry's kind, else quadratic.  Points at t <= 0 are simply
    unreachable (infinite entropy), except an exact origin copy.
    """
    if isinstance(points, ChainGeometry):
        geo: Optional[ChainGeometry] = points
        pts = points.points
        kind = points.entropy_kind
        if entropy_kind is not None and entropy_kind != kind:
            raise ValueError("entropy kind disagrees with the geometry")
    else:
        geo = None
        pts = _as_sorted_points(points)
        kind = ENTROPY_QUADRATIC if entropy_kind is None else entropy_kind
    m = len(pts)
    t, x, w = pts[:, 0], pts[:, 1], pts[:, 2]
    gain = beta * w - kappa

    if cardinality.kind == "exactly":
        want = cardinality.count
        if want == 0:
            return ChainSolution(0.0, (), ())
        if want > m:
            return ChainSolution(NEG_INF, (), ())
        layers, saturate, include_empty = want, False, False
    elif cardinality.kind == "atleast":
        want = cardinality.count
        if want == 0:
            layers, saturate, include_empty = 1, True, True
        else:
            if want > m:
                return ChainSolution(NEG_INF, (), ())
            layers, saturate, include_empty = want, True, False
    else:
        layers, saturate, include_empty = 1, True, True

    if m == 0:
        return ChainSolution(0.0, (), ()) if include_empty else ChainSolution(NEG_INF, (), ())

    origin_step = geo.origin_step if geo is not None else _step_cost(kind, t, x)
    val = np.full((layers + 1, m), NEG_INF)
    prefixes: list = [[None] * m for _ in range(layers + 1)]

    for j in range(m):
        if geo is not None:
            step = geo.pair_step[:j, j]
        else:
            step = _step_cost(kind, t[j] - t[:j], x[j] - x[:j])
        for c in range(1, layers + 1):
            best = NEG_INF
            best_prefix: Optional[Tuple[int, ...]] = None
            if c == 1 and origin_step[j] < math.inf:
                best = -float(origin_step[j])
                best_prefix = ()
            rows = []
            if c >= 2:
                rows.append(c - 1)
            if saturate and c == layers:
                rows.append(c)
            for row in rows:
                if j == 0:
                    continue
                cand = val[row, :j] - step
                top = float(cand.max())
                if top < best or top == NEG_INF:
                    continue
                for i in np.flatnonzero(cand == top):
                    p = prefixes[row][i] + (int(i),)
                    if top > best or best_prefix is None or _prefix_less(p, best_prefix):
                        best = top
                        best_prefix = p
            if best_prefix is not None:
                val[c, j] = gain[j] + best
                prefixes[c][j] = best_prefix

    final_row = val[layers]
    candidates: list = []
    if include_empty:
        candidates.append((0.0, ()))
    top = float(final_row.max()) if m else NEG_INF
    if top > NEG_INF:
        for j in np.flatnonzero(final_row == top):
            candidates.append((top, prefixes[layers][j] + (int(j),)))
    if not candidates:
        return ChainSolution(NEG_INF, (), ())
    best_value = max(v for v, _ in candidates)
    best_chain = min(ch for v, ch in candidates if v == best_value)
    return ChainSolution(
        value=best_value,
        indices=tuple(best_chain),
        chain=tuple(tuple(map(float, pts[i])) for i in best_chain),
    )


# ---------------------------------------------------------------------------
# Brute force (two independent enumeration routes)
# ---------------------------------------------------------------------------


def _allowed_sizes(cardinality: Cardinality, m: int):
    if cardinality.kind == "exactly":
        return [cardinality.count] if cardinality.count <= m else []
    if cardinality.kind == "atleast":
        return list(range(cardinality.count, m + 1)) + (
            [0] if cardinality.count == 0 else []
        )
    return list(range(0, m + 1))


def _brute_loop(pts, beta, kappa, kind, cardinality):
    m = len(pts)
    path_entropy = entropy if kind == ENTROPY_QUADRATIC else lipschitz_entropy
    best_value, best_chain = NEG_INF, None
    for size in _allowed_sizes(cardinality, m):
        for combo in itertools.combinations(range(m), size):
            subset = pts[list(combo)]
            ent = path_entropy(subset) if size else 0.0
            value = float(beta * subset[:, 2].sum() - kappa * size - ent)
            if value == NEG_INF:
                continue  # infinite entropy, not a feasible chain
            if (
                value > best_value
                or (value == best_value and (best_chain is None or combo < best_chain))
            ):
                best_value, best_chain = value, combo
    if best_chain is None:
        return ChainSolution(NEG_INF, (), ())
    return ChainSolution(
        best_value, tuple(best_chain), tuple(tuple(map(float, pts[i])) for i in best_chain)
    )


def _brute_table(pts, beta, kappa, kind, cardinality):
    m = len(pts)
    t, x, w = pts[:, 0], pts[:, 1], pts[:, 2]
    origin = _step_cost(kind, t, x)
    pair = _step_cost(kind, t[None, :] - t[:, None], x[None, :] - x[:, None])
    size = 1 << m
    msb = np.zeros(size, dtype=np.int64)
    for b in range(1, m):
        msb[1 << b : 1 << (b + 1)] = b
    ent = np.zeros(size)
    wsum = np.zeros(size)
    popcnt = np.zeros(size, dtype=np.int64)
    for b in range(m):
        rest = np.arange(1 << b)
        inc = np.where(rest == 0, origin[b], pair[msb[rest], b])
        block = (1 << b) + rest
        ent[block] = ent[rest] + inc
        wsum[block] = wsum[rest] + w[b]
        popcnt[block] = popcnt[rest] + 1
    with np.errstate(invalid="ignore"):
        values = beta * wsum - kappa * popcnt - ent
    values[np.isnan(values)] = NEG_INF  # inf - inf across the entropy term
    allowed = np.isin(popcnt, _allowed_sizes(cardinality, m))
    values = np.where(allowed, values, NEG_INF)
    best_value = float(values.max()) if size else NEG_INF
    if best_value == NEG_INF:
        return ChainSolution(NEG_INF, (), ())
    chains = []
    for mask in np.flatnonzero(values == best_value):
        chains.append(tuple(b for b in range(m) if (int(mask) >> b) & 1))
    best_chain = min(chains)
    return ChainSolution(
        best_value, best_chain, tuple(tuple(map(float, pts[i])) for i in best_chain)
    )


def brute_force(
    points,
    beta: float,
    kappa: float = 0.0,
    entropy_kind: str = ENTROPY_QUADRATIC,
    cardinality: Cardinality = ANY,
    method: str = "auto",
) -> ChainSolution:
    """Subset enumeration; `loop` recomputes each chain entropy from
    scratch, `table` builds all 2^m entropies incrementally."""
    pts = _as_sorted_points(points)
    m = len(pts)
    if method == "auto":
        method = "loop" if m <= 10 else "table"
    if method == "loop":
        if m > _MAX_BRUTE_LOOP:
            raise ValueError(f"loop route capped at {_MAX_BRUTE_LOOP} points")
        return _brute_loop(pts, beta, kappa, entropy_kind, cardinality)
    if method == "table":
        if m > _MAX_BRUTE_TABLE:
            raise ValueError(f"table route capped at {_MAX_BRUTE_TABLE} points")
        return _brute_table(pts, beta, kappa, entropy_kind, cardinality)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Point-set restrictions
# ---------------------------------------------------------------------------


def select_top(points, ell: int) -> np.ndarray:
    """The ell heaviest points (ties by smaller (t, x)), time-sorted."""
    pts = _as_sorted_points(points)
    if ell >= len(pts):
        return pts
    rank = np.lexsort((pts[:, 1], pts[:, 0], -pts[:, 2]))[:ell]
    return pts[np.sort(rank)]


def zero_top(points, ell: int) -> np.ndarray:
    """Same geometry with the ell heaviest weights replaced by zero."""
    pts = _as_sorted_points(points).copy()
    if ell > 0:
        rank = np.lexsort((pts[:, 1], pts[:, 0], -pts[:, 2]))[: min(ell, len(pts))]
        pts[rank, 2] = 0.0
    return pts


# ---------------------------------------------------------------------------
# Field-driven problems
# ---------------------------------------------------------------------------


def solve_field(
    field: DisorderField,
    beta: float,
    ell: int,
    kappa: Optional[float] = None,
    entropy_kind: str = ENTROPY_QUADRATIC,
    cardinality: Cardinality = ANY,
    reachable_only: bool = True,
) -> ChainSolution:
    """Chain problem over the field's ell heaviest sites, lattice units.

    kappa defaults to log(n)/2, the entropy price of marking one site.
    """
    from .environment import ordered_statistics

    if kappa is None:
        kappa = 0.5 * math.log(field.n)
    stats = ordered_statistics(field, ell, reachable_only=reachable_only)
    points = [(float(i), float(xp), float(wv)) for wv, (i, xp) in stats.entries]
    return solve(points, beta, kappa=kappa, entropy_kind=entropy_kind, cardinality=cardinality)

