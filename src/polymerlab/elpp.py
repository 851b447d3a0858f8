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
(in the Lipschitz case) slopes above 1 in modulus: entropy(delta, kind).
Chains may hold exactly k or at least r points; ANY is at_least(0).

solve() is an exact layered dynamic program, O(layers * m^2) time and
O(layers * m) memory; brute_force() enumerates subsets two independent
ways for cross-checking.  Ties in value are broken toward the chain
whose time-sorted index sequence is lexicographically smallest, the
empty chain smallest of all.

The solver works on point sets alone; a sampled field's problem is
solve(environment.top_sites(field, ell), beta, kappa=site_price(n)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import xlogy

ENTROPY_QUADRATIC = "quadratic"
ENTROPY_LIPSCHITZ = "lipschitz"

_MAX_POINTS = 50_000
MAX_GEOMETRY_POINTS = 4096
_MAX_BRUTE_LOOP = 14
_MAX_BRUTE_TABLE = 22
# |dx| <= dt up to rounding: a slope-1 leg between rescaled points
_SLOPE_SLACK = 1.0 + 1e-12

NEG_INF = -math.inf


# ---------------------------------------------------------------------------
# Entropy functionals
# ---------------------------------------------------------------------------


def _rate(s: np.ndarray) -> np.ndarray:
    """e(s) on [-1, 1]; xlogy handles the 0 log 0 endpoints exactly.  Near
    s = 0 the two terms cancel to rounding, which may fall below e's
    minimum 0 (-5.6e-17 at s = 4e-12), so the rate is floored there."""
    return np.maximum(0.5 * (xlogy(1.0 + s, 1.0 + s) + xlogy(1.0 - s, 1.0 - s)), 0.0)


def _step_cost(kind: str, dt, dx) -> np.ndarray:
    """Per-leg entropy cost, the one leg-cost rule of every route: 0
    standing still, inf on equal-time moves and steep slopes, and the
    kind's cost evaluated only on the legs that can be finite."""
    dt = np.asarray(dt, dtype=float)
    dx = np.asarray(dx, dtype=float)
    cost = np.where((dt == 0.0) & (dx == 0.0), 0.0, math.inf)
    ok = dt > 0.0
    if kind == ENTROPY_LIPSCHITZ:
        ok &= np.abs(dx) <= dt * _SLOPE_SLACK
    elif kind != ENTROPY_QUADRATIC:
        raise ValueError(f"unknown entropy kind {kind!r}")
    # a subnormal dt overflows dx^2 / 2dt; the quadratic divide writes the ok legs in place
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if kind == ENTROPY_QUADRATIC:
            return np.divide(dx * dx, 2.0 * dt, out=cost, where=ok)
        dt, dx = dt[ok], dx[ok]
        cost[ok] = dt * _rate(np.clip(dx / dt, -1.0, 1.0))
    return cost


def entropy(delta, kind: str = ENTROPY_QUADRATIC) -> float:
    """Path entropy of a point set of (t, x) or (t, x, w) rows, from the
    origin; ``kind`` is ENTROPY_QUADRATIC or ENTROPY_LIPSCHITZ."""
    arr = np.asarray(delta, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, 2)  # no legs: the cost is 0, once the kind is checked
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


# ---------------------------------------------------------------------------
# Problem types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cardinality:
    """Chain-size requirement: exactly k, or at least r points."""

    kind: str = "atleast"
    count: int = 0

    def __post_init__(self):
        if self.kind not in ("exactly", "atleast"):
            raise ValueError(f"unknown cardinality kind {self.kind!r}")
        if self.count < 0:
            raise ValueError("count must be >= 0")


ANY = Cardinality()  # any size: at least 0 points


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
    """Precomputed entropy steps for repeated solves on one point set,
    legs stored by end point so solve reads row j up to j contiguously."""

    entropy_kind: str
    points: np.ndarray  # time-sorted (m, 3)
    origin_step: np.ndarray  # (m,)
    into_step: np.ndarray  # (m, m), [j, i] the leg i -> j; read below the diagonal

    def __post_init__(self):
        for arr in (self.points, self.origin_step, self.into_step):
            arr.flags.writeable = False


def _solution(pts: np.ndarray, value: float, indices: Tuple[int, ...] = ()) -> ChainSolution:
    """The chain of the time-sorted rows ``indices`` of pts, at ``value``."""
    return ChainSolution(value, tuple(indices), tuple(tuple(map(float, pts[i])) for i in indices))


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
    if m > MAX_GEOMETRY_POINTS:
        raise ValueError(f"geometry matrix capped at {MAX_GEOMETRY_POINTS} points")
    t, x = pts[:, 0], pts[:, 1]
    origin = _step_cost(entropy_kind, t, x)
    # [j, i]: leg i -> j
    into = _step_cost(entropy_kind, np.subtract.outer(t, t), np.subtract.outer(x, x))
    return ChainGeometry(entropy_kind, pts, origin, into)


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

    # layer c holds the chains of c points, and with saturate the last
    # layer also the longer ones; exactly(0) has no layer, only the empty chain
    want = cardinality.count
    saturate = cardinality.kind != "exactly"
    if want > m:
        return _solution(pts, NEG_INF)
    layers = max(want, 1) if saturate else want

    origin_step = geo.origin_step if geo is not None else _step_cost(kind, t, x)
    val = np.full((layers + 1, m), NEG_INF)
    prefixes: list = [[None] * m for _ in range(layers + 1)]

    for j in range(m if layers else 0):
        if geo is not None:
            step = geo.into_step[j, :j]
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
                k = int(cand.argmax())  # the first maximum, nan first of all
                top = float(cand[k])
                if not top >= best or top == NEG_INF:
                    continue
                ties = (k,)
                if np.count_nonzero(cand[k + 1 :] == top):
                    # every equal candidate; max() fixes the sign of a +-0 tie
                    ties, top = np.flatnonzero(cand == top), float(cand.max())
                for i in ties:
                    p = prefixes[row][i] + (int(i),)
                    if top > best or best_prefix is None or _prefix_less(p, best_prefix):
                        best = top
                        best_prefix = p
            if best_prefix is not None:
                val[c, j] = gain[j] + best
                prefixes[c][j] = best_prefix

    final_row = val[layers]
    candidates: list = [(0.0, ())] if want == 0 else []
    top = float(final_row.max()) if m else NEG_INF
    if top > NEG_INF:
        for j in np.flatnonzero(final_row == top):
            candidates.append((top, prefixes[layers][j] + (int(j),)))
    if not candidates:
        return _solution(pts, NEG_INF)
    best_value = max(v for v, _ in candidates)
    return _solution(pts, best_value, min(ch for v, ch in candidates if v == best_value))


# ---------------------------------------------------------------------------
# Brute force (two independent enumeration routes)
# ---------------------------------------------------------------------------


def _allowed_sizes(cardinality: Cardinality, m: int):
    if cardinality.kind == "exactly":
        return [cardinality.count] if cardinality.count <= m else []
    return list(range(cardinality.count, m + 1))


def _brute_loop(pts, beta, kappa, kind, cardinality):
    m = len(pts)
    best_value, best_chain = NEG_INF, None
    for size in _allowed_sizes(cardinality, m):
        for combo in itertools.combinations(range(m), size):
            subset = pts[list(combo)]
            ent = entropy(subset, kind)
            value = float(beta * subset[:, 2].sum() - kappa * size - ent)
            if value == NEG_INF:
                continue  # infinite entropy, not a feasible chain
            if (
                value > best_value
                or (value == best_value and (best_chain is None or combo < best_chain))
            ):
                best_value, best_chain = value, combo
    if best_chain is None:
        return _solution(pts, NEG_INF)
    return _solution(pts, best_value, best_chain)


def chain_lattice(first, legs, weights, fold):
    """All 2^k subsets of k time-sorted items at once, indexed by bit
    mask: each subset's legs folded along its chain, its weight sum and
    its size.  A subset extends the subset without its last item by one
    leg: ``first[b]`` from the origin to item b, or ``legs[a, b]`` from
    item a.  ``fold`` is np.add for entropies, np.multiply for kernel
    products."""
    size = 1 << len(weights)
    folded = np.full(size, float(fold.identity))
    wsum = np.zeros(size)
    count = np.zeros(size, dtype=np.int64)
    last = np.zeros(size, dtype=np.int64)
    for b, weight in enumerate(weights):
        rest = np.arange(1 << b)
        block = (1 << b) + rest
        folded[block] = fold(folded[rest], np.where(rest == 0, first[b], legs[last[rest], b]))
        wsum[block] = wsum[rest] + weight
        count[block] = count[rest] + 1
        last[block] = b
    return folded, wsum, count


def _brute_table(pts, beta, kappa, kind, cardinality):
    m = len(pts)
    t, x, w = pts[:, 0], pts[:, 1], pts[:, 2]
    ent, wsum, popcnt = chain_lattice(
        _step_cost(kind, t, x),
        _step_cost(kind, t[None, :] - t[:, None], x[None, :] - x[:, None]), w, np.add,
    )
    with np.errstate(invalid="ignore"):
        values = beta * wsum - kappa * popcnt - ent
    values[np.isnan(values)] = NEG_INF  # inf - inf across the entropy term
    allowed = np.isin(popcnt, _allowed_sizes(cardinality, m))
    values = np.where(allowed, values, NEG_INF)
    best_value = float(values.max())
    if best_value == NEG_INF:
        return _solution(pts, NEG_INF)
    chains = [
        tuple(b for b in range(m) if (int(mask) >> b) & 1)
        for mask in np.flatnonzero(values == best_value)
    ]
    return _solution(pts, best_value, min(chains))


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
    """The ell heaviest points (ties by smaller (t, x)), time-sorted: a
    stable sort by weight of the (t, x)-sorted rows breaks ties so."""
    pts = _as_sorted_points(points)
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    return pts[np.sort(np.argsort(-pts[:, 2], kind="stable")[:ell])]


def site_price(n: int) -> float:
    """log(n)/2, the entropy price of marking one site of an n-step field."""
    return 0.5 * math.log(n)
