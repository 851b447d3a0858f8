"""Heavy-tailed disorder environments on space-time lattice boxes.

The weight law is P(omega > x) = L(x) * x**(-alpha) with tail exponent
alpha in (0, 2) and a slowly varying prefactor L, either a constant c
(pure Pareto, every quantile closed-form) or L(x) = (log(e + x))**b.
Weights live on the box {1..n} x {-h..h} and are nonnegative.

PRNG contract (fixed so that fields are reproducible across runs,
platforms, and box sizes): Philox4x64 counter-based generator.  Row i of
a field uses key (seed << 64) | i; the weight at column x is the inverse
transform of the uniform draw at absolute stream position x + 2**32.
Philox's advance(d) skips exactly 4*d float64 draws, so any column range
can be generated without producing the columns before it, and the weight
at (i, x) depends on (seed, i, x) alone.  Fields on nested boxes
therefore agree on shared sites.

Top weights: top_sites ranks the sites a walk from the origin can visit
(reaches, the one row rule), ordered_statistics the whole box; both
return (i, x, w) rows by weight descending, ties by the smaller (i, x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

LAW_CONSTANT = "constant"
LAW_LOGPOWER = "logpower"

# Absolute stream position of column x = 0; columns at x < 0 sit below it.
_COL_OFFSET = 1 << 32

# Log-spaced grid span used to vet monotonicity of a log-power survival.
_MONOTONE_GRID_DECADES = 14
_MONOTONE_GRID_POINTS = 400

# Entries of a log-power quantile bisected at a time: its iterates are block-sized.
_BISECT_BLOCK = 1 << 14


def _raw_survival(tail: TailParams, x):
    """L(x) * x**(-alpha) without the clamp at 1; x may be an array.
    Reads only alpha, law, c and b, so it runs before the edge is set."""
    x = np.asarray(x, dtype=float)
    if tail.law == LAW_CONSTANT:
        return tail.c * x ** (-tail.alpha)
    return np.log(np.e + x) ** tail.b * x ** (-tail.alpha)


def weight_density(tail: TailParams, x) -> np.ndarray:
    """Density of the weight law: -d/dx of the survival, 0 below the edge."""
    x = np.asarray(x, dtype=float)
    if tail.law == LAW_CONSTANT:
        val = tail.alpha * tail.c * x ** (-tail.alpha - 1.0)
    else:
        lg = np.log(np.e + x)
        val = lg ** (tail.b - 1.0) * x ** (-tail.alpha - 1.0) * (
            tail.alpha * lg - tail.b * x / (np.e + x)
        )
    return np.where(x >= tail.edge, val, 0.0)


@dataclass(frozen=True)
class TailParams:
    """Heavy-tail weight law P(omega > x) = L(x) x^(-alpha).

    law "constant" means L = c (support [c**(1/alpha), infinity), all
    quantiles closed-form); law "logpower" means L(x) = (log(e+x))**b.
    The support edge (smallest weight value) is resolved at construction.
    """

    alpha: float
    law: str = LAW_CONSTANT
    c: float = 1.0
    b: float = 1.0
    edge: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        # (0, 2] with the boundary included: alpha = 2 is a valid weight law
        # (several closed-form checks live there) even though the asymptotic
        # classification below 2 is what the solvers target.
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.law not in (LAW_CONSTANT, LAW_LOGPOWER):
            raise ValueError(f"unknown law {self.law!r}")
        if self.law == LAW_CONSTANT:
            if self.c <= 0.0:
                raise ValueError("constant L requires c > 0")
            edge = self.c ** (1.0 / self.alpha)
        else:
            edge = self._solve_edge()
            self._check_monotone(edge)
        object.__setattr__(self, "edge", float(edge))

    @property
    def log_power(self) -> float:
        """The power of log x in L: b for the logpower law, 0 for a constant L."""
        return self.b if self.law == LAW_LOGPOWER else 0.0

    def _solve_edge(self) -> float:
        """Smallest x with L(x) x^(-alpha) = 1, by bisection."""
        lo, hi = 1e-300, 1.0
        while _raw_survival(self, hi) > 1.0:
            lo, hi = hi, hi * 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _raw_survival(self, mid) > 1.0:
                lo = mid
            else:
                hi = mid
        return hi

    def _check_monotone(self, edge: float):
        # Decreasing survival needs alpha (e+x) log(e+x) > b x; vetted on a
        # log grid because the worst ratio sits at moderate x.
        grid = edge * np.exp(
            np.linspace(0.0, _MONOTONE_GRID_DECADES * np.log(10.0), _MONOTONE_GRID_POINTS)
        )
        s = _raw_survival(self, grid)
        if np.any(np.diff(s) > 1e-12 * s[:-1]):
            raise ValueError(
                f"survival not nonincreasing for alpha={self.alpha}, b={self.b}"
            )


@dataclass(frozen=True)
class DisorderField:
    """I.i.d. heavy-tail weights on the box {1..n} x {-h..h}.

    weights[i-1, x+h] is the weight at time step i, site x.  Deterministic
    function of (n, h, tail, seed).  sample_field's array is its own and
    read-only; a campaign replica's field is the campaign's draw buffer.
    """

    n: int
    h: int
    tail: TailParams
    seed: int
    weights: np.ndarray

    def weight_at(self, i: int, x: int) -> float:
        return float(self.weights[i - 1, x + self.h])


# ---------------------------------------------------------------------------
# Law: survival, quantile, moments
# ---------------------------------------------------------------------------


def survival(tail: TailParams, x):
    """P(omega > x) = min(1, L(x) x^(-alpha)); x > 0, scalar or array."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("survival requires x > 0")
    out = np.minimum(1.0, _raw_survival(tail, arr))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _quantile_from_survival(tail: TailParams, p, out=None):
    """Solve survival(m) = p for p in (0, 1]; vectorized bisection.  The
    result is written into ``out`` when given (a C-contiguous array of p's
    shape, which may be ``p`` itself).  The constant law's closed form is
    in place; the in-place ``**=`` keeps the scalar-power fast paths of
    ``**``, so the bits are those of (c / p) ** (1/alpha).  The log-power
    law bisects _BISECT_BLOCK entries at a time with its iterates stepped
    in place, so besides ``out`` it holds only block-sized arrays; every
    operation is elementwise, so the bits are those of one whole-array
    bisection."""
    p = np.asarray(p, dtype=float)
    if tail.law == LAW_CONSTANT:
        q = np.divide(tail.c, p, out=out)
        q **= 1.0 / tail.alpha
        return q
    q = np.empty(p.shape) if out is None else out
    flat_p, flat_q = p.reshape(-1), q.reshape(-1)
    for a in range(0, flat_p.size, _BISECT_BLOCK):
        target = flat_p[a : a + _BISECT_BLOCK].copy()  # p may be out itself
        hi = flat_q[a : a + _BISECT_BLOCK]
        hi[...] = max(2.0 * tail.edge, 2.0)
        lo = np.full(hi.shape, tail.edge)
        mid = np.empty(hi.shape)
        # Expand hi until survival(hi) <= p everywhere.
        while True:
            need = _raw_survival(tail, hi) > target
            if not np.any(need):
                break
            np.multiply(hi, 4.0, out=hi, where=need)
        for _ in range(100):
            np.add(lo, hi, out=mid)
            mid *= 0.5
            above = _raw_survival(tail, mid) > target
            np.copyto(lo, mid, where=above)
            np.copyto(hi, mid, where=~above)
    return q


def quantile(tail: TailParams, x):
    """The (1 - 1/x)-quantile of the weight law; x > 1, scalar or array.

    Pure Pareto: (c*x)**(1/alpha) exactly.  Log-power L: monotone bisection
    on the survival to relative tolerance well below 1e-12.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 1.0):
        raise ValueError("quantile requires x > 1")
    out = _quantile_from_survival(tail, 1.0 / arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _survival_integral(tail: TailParams, upper: float) -> float:
    """Integral of the survival from the support edge to ``upper``."""
    from scipy import integrate  # loaded only where it integrates

    body, _ = integrate.quad(
        lambda u: _raw_survival(tail, u),
        tail.edge, upper, epsabs=1e-12, epsrel=1e-12, limit=200,
    )
    return body


def mean_weight(tail: TailParams) -> float:
    """E[omega]; defined only for alpha > 1."""
    if tail.alpha <= 1.0:
        raise ValueError("mean is infinite for alpha <= 1")
    a = tail.edge
    if tail.law == LAW_CONSTANT:
        return tail.alpha / (tail.alpha - 1.0) * a
    return a + _survival_integral(tail, np.inf)


def truncated_mean_weight(tail: TailParams, cutoff: float) -> float:
    """E[omega * 1{omega <= cutoff}] via the survival integral, any alpha."""
    a = tail.edge
    if cutoff <= a:
        return 0.0
    if tail.law == LAW_CONSTANT:
        al, c = tail.alpha, tail.c
        if abs(al - 1.0) < 1e-12:
            body = c * (np.log(cutoff) - np.log(a))
        else:
            body = c * (a ** (1.0 - al) - cutoff ** (1.0 - al)) / (al - 1.0)
    else:
        body = _survival_integral(tail, cutoff)
    return a + body - cutoff * survival(tail, cutoff)


# ---------------------------------------------------------------------------
# Field sampling
# ---------------------------------------------------------------------------


def _uniforms(seed: int, h: int, out: np.ndarray):
    """Uniform draws for columns -h..h of rows 1..n into ``out`` (n, 2h+1),
    independent of h: one Philox generator, advanced to column -h and
    re-keyed for each row.  The re-keying state is one dict of plain
    Python ints (counter, buffer, key [i, seed] = (seed << 64) | i), so
    no uint64 array is built per row; the setter reads the same words,
    so the stream and the uniforms are the same.  Column -h at offset 0
    of a Philox block has no draws to skip."""
    start = _COL_OFFSET - h
    bits = Philox(key=seed << 64)
    bits.advance(start // 4)
    state, gen = bits.state, Generator(bits)
    key = [0, seed]
    state["state"] = {"counter": state["state"]["counter"].tolist(), "key": key}
    state["buffer"] = state["buffer"].tolist()
    skip = start % 4
    for i, row in enumerate(out, start=1):
        key[0] = i
        bits.state = state
        if skip:
            gen.random(skip)
        gen.random(out=row)


def _draw_field(out: np.ndarray, tail: TailParams, seed: int) -> DisorderField:
    """The field of (n, h, tail, seed) drawn into ``out``, a writable
    C-contiguous (n, 2h+1) array that becomes the field's weights: the
    fill behind sample_field, which a campaign points at its own buffer.
    Uniforms U, then omega = quantile(1/U') with U' = 1 - U in (0, 1],
    in place (the log-power law's bisection holds block-sized arrays)."""
    n, h = out.shape[0], (out.shape[1] - 1) // 2
    _uniforms(seed, h, out)
    _quantile_from_survival(tail, np.subtract(1.0, out, out=out), out=out)
    return DisorderField(n=n, h=h, tail=tail, seed=seed, weights=out)


def sample_field(n: int, h: int, tail: TailParams, seed: int) -> DisorderField:
    """Sample the disorder field on {1..n} x {-h..h}, into an array of
    its own that is read-only.  See the module docstring for the stream
    layout guaranteeing that nested boxes share weights.
    """
    if n < 1 or h < 0:
        raise ValueError("need n >= 1 and h >= 0")
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must fit in 64 bits")
    field = _draw_field(np.empty((n, 2 * h + 1)), tail, seed)
    field.weights.flags.writeable = False
    return field


def reaches(n: int, cap: int) -> np.ndarray:
    """The one row rule: int64 reach r of steps 0..n.  Step i holds x = -r,
    -r+2, ..., r, its parity in |x| <= min(i, cap); r = -1 holds no site."""
    if cap < 0:
        raise ValueError(f"band must be nonnegative, got {cap}")
    i = np.arange(n + 1)
    return np.minimum(i, cap - (i - cap) % 2)


def reachable_mask(n: int, h: int) -> np.ndarray:
    """Boolean (n, 2h+1) mask of the sites of steps 1..n under reaches:
    |x| <= r at r's parity; each modulo runs on a vector, not the grid."""
    r = reaches(n, h)[1:, None]
    x = np.arange(-h, h + 1)
    return (np.abs(x) <= r) & (x % 2 == r % 2)


def reachable_count(n: int, h: int) -> int:
    """Number of True sites of reachable_mask(n, h): r + 1 per step."""
    return int(np.sum(reaches(n, h)[1:] + 1))




# ---------------------------------------------------------------------------
# Top sites
# ---------------------------------------------------------------------------


def _kth_largest(values: np.ndarray, ell: int) -> float:
    """The ell-th largest of ``values``, a private copy that is
    partitioned in place: no index array of its size is formed."""
    total = values.shape[0]
    if not 1 <= ell <= total:
        raise ValueError(f"ell must be in [1, {total}], got {ell}")
    values.partition(total - ell)
    return values[total - ell]


def ordered_statistics(field: DisorderField, ell: int) -> np.ndarray:
    """(i, x, w) rows of the top-ell weights of the whole box, by weight
    descending, ties by the smaller (i, x): the box's flat index order."""
    flat = field.weights.ravel()
    k = np.flatnonzero(flat >= _kth_largest(flat.copy(), ell))  # all ties at the boundary
    k = k[np.argsort(-flat[k], kind="stable")[:ell]]
    width = field.weights.shape[1]
    return np.column_stack((k // width + 1, k % width - field.h, flat[k]))


def top_sites(field: DisorderField, ell: int, band: Optional[int] = None) -> np.ndarray:
    """(i, x, w) rows of the top-ell walk-reachable sites with |x| <= band.

    Step i's sites x = -r, -r+2, ..., r (r of reaches, the one row rule)
    are read into one compact copy, which is partitioned in place for
    the ell-th largest weight: row by row up to step cap, then past it,
    where r alternates between cap-1 and cap, as one strided block per
    parity.  The copy's order is not read, only its ell-th largest value.
    The sites at or above that value are taken from the box's flat index
    (the (i, x) order of a 2-D nonzero) and kept where the same r admits
    them.  No box mask of reachability is built.
    """
    n, h = field.n, field.h
    cap = h if band is None else min(band, h)
    reach = reaches(n, cap)[1:]
    values = np.empty(int(np.sum(reach + 1)))
    a = 0
    for r in range(1, min(cap, n) + 1):  # step r, below the cap, holds reach r
        values[a : a + r + 1] = field.weights[r - 1, h - r : h + r + 1 : 2]
        a += r + 1
    for first, r in enumerate(reach.tolist()[cap : cap + 2], start=cap):
        block = field.weights[first::2, h - r : h + r + 1 : 2]
        values[a : a + block.size].reshape(block.shape)[...] = block
        a += block.size
    box = field.weights[:, h - cap : h + cap + 1]
    kth = _kth_largest(values, ell)  # all ties at the boundary are candidates
    row, col = np.divmod(np.flatnonzero(box >= kth), 2 * cap + 1)
    x = col - cap
    keep = (np.abs(x) <= reach[row]) & ((x + reach[row]) % 2 == 0)
    row, x = row[keep], x[keep]
    w = box[row, x + cap]
    k = np.argsort(-w, kind="stable")[:ell]
    return np.column_stack((row[k] + 1, x[k], w[k]))
