"""Exact polymer Gibbs computations on a sampled disorder field.

Everything here is a deterministic function of the field: partition
functions by log-domain transfer recursion over the walk lattice (free
endpoint, optional band or band-window restriction on max |S_i|, an
energy window (lo, hi] filter, per-step centering), exact walk
kernels, Gibbs site marginals, the truncated-environment expansion
terms, and the heavy-site inclusion-exclusion decomposition.

Conventions: the walk starts at S_0 = 0 and takes n unit steps; the
energy collected at step i is beta * f(omega_{i, S_i}) when |S_i| <= h
(inside the field box) and 0 outside it; sites of the wrong parity are
unreachable and carry no mass.  All partition sums are computed in log
domain (elementwise logaddexp), so a weight with beta*omega up to 1e6
cannot overflow.  A returned -inf means the admissible path set is
empty, never an underflow.

Every log Z (free, band, window, and the truncated one of chaos_terms)
is one window list of one pass, ``_window_log_partitions``: a free or
band pass is the window [0, cap], and the windows of
gibbs_band_probabilities advance together beside the free one.  Every
pass runs on one step kernel, ``_transfer``, which says why its window
rules and buffers keep the bits of a full-width recursion; each final
log-sum is taken over the pass's full-width row.

``logsumexp`` repeats scipy.special.logsumexp's float operations (scipy
1.17) on a 1-D row, numpy ufunc for numpy ufunc, so its sums are scipy's
bit for bit without importing scipy.special.  ``kernel_grid`` reads an
exact log-factorial table instead of calling ``gammaln``: each entry is
cephes lgam's integer branch (the routine behind scipy's gammaln) in
Python floats and libm's log, so the grid's bits are scipy's too.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .elpp import chain_lattice, select_top
from .environment import (
    DisorderField,
    TailParams,
    mean_weight,
    reachable_count,
    reachable_mask,
    reaches,
    top_sites,
    truncated_mean_weight,
    quantile,
    weight_density,
)

LOG_HALF = math.log(0.5)
NEG_INF = -np.inf

CENTER_NONE = "none"
CENTER_MEAN = "mean"
CENTER_TRUNCATED = "truncated_mean"


@dataclass(frozen=True)
class WeightFilter:
    """The window (lo, hi] of the per-site energy beta*omega that is kept.

    beta*w is kept when lo < beta*w <= hi and replaced by 0 otherwise;
    the default window keeps every energy.  Thresholds compare against
    beta*w at the coupling actually passed to the partition function.
    An infinite edge is a meaningful window; a nan edge keeps nothing and
    is refused.
    """

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("energy filter edges must not be nan")

    def apply(self, energies: np.ndarray) -> np.ndarray:
        if self.lo == -math.inf and self.hi == math.inf:
            return energies  # the default window, once per block of transfer energies
        return np.where((energies > self.lo) & (energies <= self.hi), energies, 0.0)


def filter_above(t: float) -> WeightFilter:
    return WeightFilter(lo=t)


def filter_between(lo: float, hi: float) -> WeightFilter:
    if not lo < hi:
        raise ValueError("between filter needs lo < hi")
    return WeightFilter(lo, hi)


def filter_atmost_one() -> WeightFilter:
    return WeightFilter(hi=1.0)


@dataclass(frozen=True)
class PathConstraint:
    """Restrictions and adjustments applied to the partition sum.

    band: max_i |S_i| <= band.  band_window: max_i |S_i| in [H1, H2).
    centering subtracts a per-step constant from the exponent: "mean"
    subtracts beta*E[omega] (finite mean required), "truncated_mean"
    subtracts beta*E[omega 1{omega <= 1/beta}].
    """

    band: Optional[int] = None
    band_window: Optional[Tuple[int, int]] = None
    weight_filter: WeightFilter = WeightFilter()
    centering: str = CENTER_NONE

    def __post_init__(self):
        if self.band is not None and self.band < 0:
            raise ValueError("band must be >= 0")
        if self.band_window is not None:
            h1, h2 = self.band_window
            if not 0 <= h1 < h2:
                raise ValueError("band window needs 0 <= H1 < H2")
        if self.centering not in (CENTER_NONE, CENTER_MEAN, CENTER_TRUNCATED):
            raise ValueError(f"unknown centering {self.centering!r}")


FREE = PathConstraint()


def centering_moment(tail: TailParams, kind: str, cutoff: float) -> float:
    """Centering moment per unit coupling: 0, E[w], or E[w 1{w <= cutoff}]."""
    if kind == CENTER_NONE:
        return 0.0
    if kind == CENTER_MEAN:
        return mean_weight(tail)
    if kind == CENTER_TRUNCATED:
        return truncated_mean_weight(tail, cutoff)
    raise ValueError(f"unknown centering {kind!r}")


def centering_value(tail: TailParams, beta: float, kind: str) -> float:
    """Per-step centering constant beta * centering_moment(tail, kind, 1/beta)."""
    if kind == CENTER_NONE or beta == 0.0 or (kind == CENTER_TRUNCATED and beta < 0.0):
        return 0.0  # a negative cutoff lies below the support: nothing collected
    return beta * centering_moment(tail, kind, 1.0 / beta)


# ---------------------------------------------------------------------------
# Walk kernels
# ---------------------------------------------------------------------------


def walk_kernel(i: int, x: int) -> float:
    """P(S_i = x) for the simple walk; 0 on wrong parity or |x| > i."""
    if i < 1:
        raise ValueError("need i >= 1")
    if abs(x) > i or (i + x) % 2 != 0:
        return 0.0
    # integer true division rounds correctly at any i
    return math.comb(i, (i + x) // 2) / (1 << i)


# cephes lgam, the routine behind scipy.special.gammaln (scipy 1.17):
# log(sqrt(2 pi)) and the Stirling-series coefficients for 13 <= x < 1000
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _log_factorial(m: int) -> float:
    """log(m!) as gammaln(m + 1): cephes lgam's branch for x = m + 1 >= 1,
    in its float operations and order, with libm's log (math.log), so the
    double is scipy's.  Below 13 cephes takes the log of the product
    (x-1)...2, which is exact in doubles, so math.factorial gives it."""
    x = m + 1.0
    if x < 13:
        return math.log(math.factorial(m))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    s = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        s = s * p + a
    return q + s / x


# rows of kernel_grid formed at a time: its log-binomials are block-sized
_GRID_ROWS = 64


# a full-band grid at n 4096 alone is 268 MB, so only the last few are kept
@functools.lru_cache(maxsize=4)
def kernel_grid(n: int, half_width: int) -> np.ndarray:
    """(n, 2*half_width+1) array of P(S_i = x); row i-1, column x+half_width.
    Filled in blocks of _GRID_ROWS rows, so that besides the grid only
    block-sized temporaries and the reachable_mask of the box are held.
    Each log-binomial reads the table lf[m] = log(m!) of _log_factorial;
    gammaln is elementwise, so a lookup is the double gammaln(m + 1) would
    compute and the grid is that of the gammaln formula bit for bit.
    k is clipped at i: off-cone columns (|x| > i) index inside the table
    and are masked to 0 afterwards."""
    if half_width < 0:
        raise ValueError("half_width must be >= 0")
    lf = np.array([_log_factorial(m) for m in range(n + 1)])
    valid = reachable_mask(n, half_width)
    grid = np.empty(valid.shape)
    x = np.arange(-half_width, half_width + 1)[None, :]
    for a in range(0, n, _GRID_ROWS):
        i = np.arange(a + 1, min(a + _GRID_ROWS, n) + 1)[:, None]
        k = np.clip((i + x) // 2, 0, i)
        logp = lf[i] - lf[k] - lf[i - k]
        logp = logp + i * LOG_HALF
        grid[a : a + len(i)] = np.where(valid[a : a + len(i)], np.exp(logp), 0.0)
    grid.flags.writeable = False
    return grid


# ---------------------------------------------------------------------------
# Transfer recursion
# ---------------------------------------------------------------------------


def _scatter(row: np.ndarray, sites: np.ndarray, r: int):
    """Lay the sites -r, -r+2, ..., r into ``row``, centred at x = 0; sites
    beyond the row's half width are dropped."""
    half = (row.size - 1) // 2
    cut = max(0, (r - half + 1) // 2)
    row[half - r + 2 * cut : half + r - 2 * cut + 1 : 2] = sites[cut : r + 1 - cut]


def logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D float row by scipy.special.logsumexp's
    float operations: the maxima are taken out of the sum and counted, the
    rest is summed shifted by the maximum, and a result that is not finite
    (an all -inf row, an inf or a nan) is the direct log(sum(exp(a))).
    Every step is a numpy ufunc on a one-element array, as in scipy: the
    scalar math functions round differently from numpy's vector loops."""
    top = np.max(a, keepdims=True)
    ties = a == top
    m = np.sum(ties, dtype=float, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        # scipy keeps s = 0 undivided; 0 / m is that same +0 for m >= 1
        s = np.sum(np.exp(np.where(ties, NEG_INF, a) - top), keepdims=True) / m
        out = np.log1p(s) + np.log(m) + top
    if not np.isfinite(out[0]):
        with np.errstate(divide="ignore", over="ignore"):
            out = np.log(np.sum(np.exp(a), keepdims=True))
    return float(out[0])


def _logsumexp(sites: np.ndarray, r: int, half_width: int) -> float:
    """log-sum of a pass's last sites, taken over its full -inf row of
    width 2*half_width+1 so that the summation order is the full row's."""
    row = np.full(2 * half_width + 1, NEG_INF)
    _scatter(row, sites, r)
    return logsumexp(row)


# Campaign replicas run size by size and every replica of a size passes
# the same window list, so only a size's first replica builds its tables.
# One entry per size is live at a time; 8 keep a campaign's sizes apart
# while a pool's workers straddle them.  The largest entries, at
# experiments.SIZE_CAP (4096 steps, half width 4096), hold 0.36 MB for
# one window and 1.0 MB for three and take 0.7 and 2 ms to build, so 8
# hold a few MB.
@functools.lru_cache(maxsize=8)
def _window_edges(windows: Tuple[Tuple[int, int], ...], n: int, half_width: int):
    """The column table of ``_transfer``'s site-major buffer pair, (2,
    half_width + 3, L), and flat offsets into it of every forward step's
    window edge sites.  Buffer i % 2 holds step i; its row j holds the
    site x = -r + 2(j-1) in L contiguous columns (rows 0 and r+2 are
    -inf pads): layer 0 of each window with h1 > 0, then layer 1 of each
    window.  ``cols`` is each window's layer 0 and layer 1 column, layer
    0 being -1 where h1 = 0: every path has |x| >= 0 from step 1 on, so
    that window starts in layer 1.  Row i of (src, dst, clear) merges
    layer 0 of the site of i's parity among |x| in {h1, h1+1} into layer
    1 and clears it, and clears both layers of |x| = hw+1 when it has
    i's parity; an offset is parity*width*L + site*L + column.  A site
    past the reach, or a missing layer 0, points at offset 0, a pad that
    is -inf in both buffers; a merge past hw is cleared as dead or
    merges -inf into -inf.  ``active[i]`` says whether step i has any
    site.  The tables are cached, so they are read-only.
    """
    h1, hw = np.array(windows, dtype=np.int64).reshape(-1, 2).T
    low = h1 > 0
    cols = np.stack((np.where(low, np.cumsum(low) - 1, -1), low.sum() + np.arange(len(h1))))
    ncol = cols.max() + 1  # L
    i = np.arange(n + 1)[:, None]
    r = reaches(n, half_width)[:, None]
    # site x = -r, column 0 in pair[i % 2], the buffer that holds step i
    first = (i % 2) * ((half_width + 3) * ncol) + ncol

    def at(x, col, ok):  # offsets of -x and x in each window's column col, where ok
        site = (r[..., None] + np.array([-1, 1]) * x[..., None]) // 2
        return np.where(ok[..., None], first[..., None] + site * ncol + col[:, None], 0
                        ).reshape(n + 1, -1)

    a = h1 + (h1 + i) % 2
    merge = (a <= r) & low
    src = at(a, cols[0], merge)
    dead = (hw + 1 <= r) & ((hw + 1 + i) % 2 == 0)
    clear = np.concatenate((src, at(hw + 1, cols[0], dead & low), at(hw + 1, cols[1], dead)),
                           axis=1)
    dst = at(a, cols[1], merge)
    for table in (cols, src, dst, clear):
        table.flags.writeable = False
    return cols, src, dst, clear, tuple(clear.any(axis=1).tolist())


# field rows whose energies _transfer forms at a time, into one reused buffer
_ENERGY_ROWS = 16


def _transfer(weights, h, beta, filt, center, half_width, windows=(), store=None,
              backward=False):
    """The log-domain transfer pass that every pass of this module runs on.

    Step i keeps only its sites x = -r, -r+2, ..., r (r = reaches(n,
    half_width)[i]) in two -inf padded buffers.  A step is log((e^v[x-1] +
    e^v[x+1]) / 2), + beta*f(omega) on the field box, - center.  Forward
    passes start at S_0 = 0; the backward pass (log B_i of the marginals)
    starts from 0 at step n and adds step i+1's energy before the step,
    uncentered.
    Each (h1, hw) of ``windows`` is a two-layer pass for max_i |S_i| in
    [h1, hw]: layer 1 holds the paths that reached |x| >= h1, and sites
    past hw are -inf after every step; all windows advance together,
    forward only.  A pass without windows is the one window [0,
    half_width], which has no edge sites.

    Each site's columns are contiguous (see ``_window_edges``), so each
    step's logaddexp, + LOG_HALF, energy add and - center are one ufunc
    call over a C-contiguous (m, L) block; each is elementwise, so the
    bits are those of a pass over one row per layer.  Each window rule
    touches only the <= 2 edge sites per step that ``_window_edges``
    names, after + LOG_HALF and before the energy.  Layer 0 was cleared
    at every |x| >= h1 one step back (the origin alone is never merged),
    so after the step it can be finite there only at |x| = h1 or h1+1,
    and past hw only |x| = hw+1 can be finite.  At every other site the
    full-row rule leaves every bit as it is: the layer it reads is -inf,
    and logaddexp(-inf, y) == y + log1p(0.0) == y, as no pass value is
    -0.0.  The same identity lets an h1 = 0 window start in layer 1: the
    full-row rule merges its layer 0 into layer 1 unchanged at step 1
    and leaves it -inf after.
    The energies beta*f(omega) are formed _ENERGY_ROWS field rows at a
    time into one reused buffer, over the columns |x| <= min(h,
    half_width) that the pass reads, and each step's cut to the field
    box is built once per pass from the reaches.  The product and the
    filter are elementwise, so each energy is the float a per-step
    product gives.
    ``store`` gets each step's sites in row i-1 (backward: log B_i).
    Returns the last reach and sites, shape (1, r+1) or (2, K, r+1); a
    missing layer 0 is the -inf row it would hold.
    """
    n = weights.shape[0]
    cols, src, dst, clear, active = _window_edges(tuple(windows) or ((0, half_width),), n,
                                                  half_width)
    pair = np.full((2, half_width + 3, cols.max() + 1), NEG_INF)
    whole = pair.reshape(-1)
    cur, nxt = pair
    rs = reaches(n, half_width)
    reach = rs.tolist()
    r = reach[n if backward else 0]
    cur[1 : r + 2, np.where(cols[0] < 0, cols[1], cols[0])] = 0.0
    # step i's sites in the field box: buffer rows 1+cut..r+1-cut, whose
    # x = -r+2cut..r-2cut sit at x + c in the energy block's columns
    c = min(h, half_width)
    cut = np.maximum(0, (rs - h + 1) // 2)  # sites left of the field box
    bounds = np.stack((1 + cut, rs + 2 - cut, c - rs + 2 * cut, c + rs - 2 * cut + 1)).T.tolist()
    buf = np.empty((min(_ENERGY_ROWS, n), 2 * c + 1))
    first, energy = -_ENERGY_ROWS, None

    def add_energy(v, i):
        nonlocal first, energy
        if not first < i <= first + _ENERGY_ROWS:  # step i's row is i - 1
            first = (i - 1) // _ENERGY_ROWS * _ENERGY_ROWS
            rows = weights[first : first + _ENERGY_ROWS, h - c : h + c + 1]
            energy = filt.apply(np.multiply(beta, rows, out=buf[: len(rows)]))
        a, b, p, q = bounds[i]
        v[a:b] += energy[i - 1 - first, p:q:2, None]

    for i in range(n - 1, 0, -1) if backward else range(1, n + 1):
        if backward:
            add_energy(cur, i + 1)
        r_next = reach[i]
        s, r = (r - r_next + 1) // 2, r_next
        m = r + 1
        np.logaddexp(cur[s : s + m], cur[s + 1 : s + m + 1], out=nxt[1 : m + 1])
        nxt[m + 1] = NEG_INF
        cur, nxt = nxt, cur
        v = cur[1 : m + 1]
        v += LOG_HALF
        if active[i]:
            whole[dst[i]] = np.logaddexp(whole[src[i]], whole[dst[i]])
            whole[clear[i]] = NEG_INF
        if not backward:
            add_energy(cur, i)
            if center:
                v -= center
        if store is not None:
            _scatter(store[i - 1], v[:, 0], r)
    last = np.concatenate((np.full((1, r + 1), NEG_INF), cur[1 : r + 2].T))[cols + 1]
    return r, last if windows else last[1]


def _window_log_partitions(weights, h, beta, filt, center, windows) -> List[float]:
    """log Z restricted to max_i |S_i| in [h1, hw] for each (h1, hw), in one pass."""
    half_width = max(hw for _, hw in windows)
    r, sites = _transfer(weights, h, beta, filt, center, half_width, windows)
    return [_logsumexp(fl, r, hw) for fl, (_, hw) in zip(sites[1], windows)]


def log_partition(
    field: DisorderField, beta: float, constraint: PathConstraint = FREE
) -> float:
    """Exact log of the (restricted, filtered, centered) partition sum.

    Free-endpoint expectation over the n-step simple walk from 0; energy
    collected only inside the field box.  -inf (empty admissible set) is
    returned, never raised, when the restriction kills every path.
    """
    if beta < 0.0 and constraint.weight_filter != filter_atmost_one():
        raise ValueError("beta < 0 only allowed with the atmost1 filter")
    center = centering_value(field.tail, beta, constraint.centering)
    cap = field.n if constraint.band is None else min(constraint.band, field.n)
    h1, h2 = constraint.band_window or (0, cap + 1)
    return _window_log_partitions(field.weights, field.h, beta, constraint.weight_filter,
                                  center, [(h1, min(h2 - 1, cap))])[0]


class BandProbabilities(NamedTuple):
    log_z: float  # the FREE log partition, bit for bit
    probs: List[float]


def gibbs_band_probabilities(
    field: DisorderField, beta: float, windows: Sequence[Tuple[int, int]]
) -> BandProbabilities:
    """P under the Gibbs measure that max_i |S_i| lies in [h_low, h_high),
    for each window, all in one pass, with the FREE log Z.  The pass also
    advances the window [0, n+1), which kills no path and has no layer 0
    (every path has |x| >= 0): its one column is the FREE pass, bit for
    bit.  Each window with h_low > 0 adds two columns to the block that
    each step of ``_transfer`` runs in one ufunc call per operation."""
    n = field.n
    if any(not 0 <= lo < hi <= n + 1 for lo, hi in windows):
        raise ValueError("need 0 <= h_low < h_high <= n+1")
    if beta < 0.0:
        raise ValueError("need beta >= 0")
    log_free, *log_wins = _window_log_partitions(
        field.weights, field.h, beta, WeightFilter(), 0.0,
        [(0, n)] + [(lo, min(hi - 1, n)) for lo, hi in windows],
    )
    return BandProbabilities(log_free, [
        0.0 if lw == NEG_INF else float(min(1.0, math.exp(lw - log_free))) for lw in log_wins
    ])


def gibbs_band_probability(
    field: DisorderField, beta: float, h_low: int, h_high: int
) -> float:
    """P under the Gibbs measure that max_i |S_i| lies in [h_low, h_high)."""
    return gibbs_band_probabilities(field, beta, [(h_low, h_high)]).probs[0]


# ---------------------------------------------------------------------------
# Gibbs marginals
# ---------------------------------------------------------------------------


def gibbs_site_marginals(field: DisorderField, beta: float) -> np.ndarray:
    """P(S_i = x) under the Gibbs measure, shape (n, 2n+1), by
    forward-backward products of unfiltered, uncentered passes."""
    n = field.n
    states = np.full((n, 2 * n + 1), NEG_INF)  # log F_i; -inf off the cone
    _transfer(field.weights, field.h, beta, WeightFilter(), 0.0, n, store=states)
    logz = logsumexp(states[n - 1])
    marg = np.full_like(states, NEG_INF)  # log B_i, then the marginals
    marg[n - 1] = 0.0  # log B_n = 0
    _transfer(field.weights, field.h, beta, WeightFilter(), 0.0, n, store=marg, backward=True)
    marg += states
    marg -= logz
    np.exp(marg, out=marg)
    return marg


# ---------------------------------------------------------------------------
# Truncated-environment expansion
# ---------------------------------------------------------------------------


class ChaosTerms(NamedTuple):
    v_n: float  # sum (e^{beta w-trunc} - 1) p(i, x) over the band box
    w_n: float  # (e^lambda - 1)(1 - sum p)
    r_n: float  # residual making the expansion identity exact
    lam: float  # log E[exp(beta w-trunc)]
    cutoff: float  # the truncation level actually used


def log_mgf_truncated(tail: TailParams, t: float, cutoff: float) -> float:
    """log E[exp(t * omega * 1{omega <= cutoff})], quadrature to ~1e-11.

    A weight above the cutoff counts exp(0) = 1, so the mgf is 1 + J with
    J = int_edge^cutoff expm1(t u) f(u) du >= 0, f the density, and the
    result is log1p(J): no cancellation however small J is.  The body is
    J exp(-t cutoff) / s = int (e^(-t (cutoff - u)) - e^(-t cutoff)) f(u) du / s,
    s = 1 - e^(-t edge); its integrand is positive, overflows at no t and
    is of the order of f at the edge.  Its top half, u >= cutoff / 2, is
    integrated in the offset v = cutoff - u, so the exponent is exact
    however large the cutoff; the rest in pieces of u spaced by factors of
    2 up from the support edge, so the density's mass there is never lost
    in a span many decades long.  Each piece is resolved to 1e-11 of
    itself or 1e-15 of the pieces below it.  Below cutoff - 700/t the
    integrand is under e^-700 f and is dropped.  Where e^(t cutoff) would
    overflow, the result is t cutoff + log(e^(-t cutoff) + s body).
    Past cutoffs of about 1e150 the density underflows to subnormals
    while u f(u) still counts: ``quad`` warns on a few pieces, and the
    value agrees with the Pareto series only to about 1e-8.
    """
    from scipy import integrate  # loaded only where it integrates

    if t == 0.0:
        return 0.0
    if t < 0.0:
        raise ValueError("need t >= 0")
    if cutoff < tail.edge:
        return 0.0  # truncated weight is 0 almost surely
    scale = -math.expm1(-t * tail.edge)

    def body(u, v):  # the integrand at u = cutoff - v
        return math.exp(-t * v) * (math.expm1(-t * u) / -scale) * float(weight_density(tail, u))

    low = max(tail.edge, cutoff - 700.0 / t)
    mid = max(low, 0.5 * cutoff)
    edges = np.geomspace(low, mid, math.ceil(math.log2(mid / low)) + 1)
    spans = [(lambda u: body(u, cutoff - u), a, b) for a, b in zip(edges[:-1], edges[1:])]
    spans.append((lambda v: body(cutoff - v, v), 0.0, cutoff - mid))
    parts = [0.0]
    for f, a, b in spans:
        floor = max(1e-300, 1e-15 * sum(parts))
        parts.append(integrate.quad(f, a, b, epsabs=floor, epsrel=1e-11, limit=500)[0])
    shift, total = t * cutoff, scale * math.fsum(parts)
    if shift < 700.0:
        return math.log1p(math.exp(shift) * total)
    val = math.exp(-shift) + total
    if val <= 0.0:
        raise ValueError("truncated mgf underflowed; cutoff too extreme")
    return shift + math.log(val)


def _kernel_sum(energy: np.ndarray, grid: np.ndarray) -> float:
    """sum expm1(energy) * grid, formed in ``energy`` itself (C-contiguous,
    the grid's shape), which it overwrites.  A sum that overflows (inf * 0
    = nan where grid is 0) is redone over the sites with kernel mass,
    whose products ``energy`` now holds; only an overflow that counts
    warns."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.expm1(energy, out=energy)
        total = float(np.sum(np.multiply(energy, grid, out=energy)))
        if not math.isfinite(total):
            total = float(np.sum(energy[grid > 0.0]))
    if not math.isfinite(total):
        warnings.warn("overflow encountered in the chaos kernel sum", RuntimeWarning)
    return total


def _truncated_band(field: DisorderField, beta: float, band: int, cutoff: Optional[float],
                    box: Optional[np.ndarray] = None):
    """The truncation both chaos functions start from: the cutoff
    (default the quantile at n^(3/2) log n), the band box |x| <= band
    with its weights above the cutoff set to 0, and the band's kernel
    grid.  The box is truncated in a contiguous copy of the field's band
    box, or in ``box`` when given: a writable C-contiguous array that
    holds that band box (a campaign's draw buffer, at band = h)."""
    n, h = field.n, field.h
    if band < 0:
        raise ValueError("band must be >= 0")
    if band > h:
        raise ValueError("band exceeds the field box: no weights there")
    if beta < 0.0:
        raise ValueError("need beta >= 0")
    if cutoff is None:
        arg = n**1.5 * math.log(n)
        if arg <= 1.0:
            raise ValueError("default cutoff undefined at this n; pass cutoff")
        cutoff = quantile(field.tail, arg)
    if box is None:
        box = field.weights[:, h - band : h + band + 1].copy()
    above = box <= cutoff
    np.copyto(box, 0.0, where=np.logical_not(above, out=above))
    return cutoff, box, kernel_grid(n, band)


def chaos_v_n(field: DisorderField, beta: float, band: int, cutoff: Optional[float] = None,
              box: Optional[np.ndarray] = None) -> float:
    """The first chaos term ``chaos_terms(...).v_n`` alone, bit for bit,
    without the truncated-mgf quadrature or the truncated transfer pass.
    It is summed in place in ``box`` as _truncated_band takes it (a
    campaign's draw buffer, which it overwrites) or else in one copy of
    the band box, the one array it holds beside the cached grid."""
    _, box, grid = _truncated_band(field, beta, band, cutoff, box)
    box *= beta
    return _kernel_sum(box, grid)


def chaos_terms(
    field: DisorderField, beta: float, band: int, cutoff: Optional[float] = None
) -> ChaosTerms:
    """First-order expansion terms of the banded, weight-truncated sum.

    cutoff defaults to the quantile at n^(3/2) log n.  The identity
    exp(-n lam) Z-trunc = 1 + sum (e^{beta w-trunc - lam} - 1) p + r_n
    holds exactly by construction of r_n.
    """
    cutoff, box, grid = _truncated_band(field, beta, band, cutoff)
    lam = log_mgf_truncated(field.tail, beta, cutoff)
    v_n = _kernel_sum(beta * box, grid)
    # 1 minus the kernel mass of the whole space-time box; close to 1-n
    # for a wide band, so typically negative
    gap = 1.0 - float(grid.sum())
    if gap == 0.0 or lam == 0.0:
        w_n = 0.0
    elif lam > 700.0:
        w_n = math.inf if gap > 0.0 else -math.inf
    else:
        w_n = math.expm1(lam) * gap
    v_centered = _kernel_sum(beta * box - lam, grid)
    # the pass at half width band reads no site past it: the box is its field
    logz_trunc = _window_log_partitions(box, band, beta, WeightFilter(), 0.0, [(0, band)])[0]
    shift = logz_trunc - field.n * lam
    z_shifted = math.exp(shift) if shift < 700.0 else math.inf
    r_n = z_shifted - 1.0 - v_centered
    return ChaosTerms(v_n=v_n, w_n=w_n, r_n=r_n, lam=lam, cutoff=cutoff)


def centered_first_term(terms: ChaosTerms) -> float:
    """sum (e^{beta w-trunc - lam} - 1) p, recovered from the returned terms."""
    return math.exp(-terms.lam) * (1.0 + terms.v_n + terms.w_n) - 1.0


# ---------------------------------------------------------------------------
# Heavy-site decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeavySiteDecomposition:
    u: np.ndarray  # U_k with factor e^{beta * energy}, k = 0..len(sites)
    u_minus: np.ndarray  # variant with factor (e^{beta * energy} - 1)
    sites: List[Tuple[int, int, float]]  # (i, x, w), time-sorted
    capped: bool  # True when more heavy sites existed than the cap


_MAX_HEAVY_SITES = 20


def heavy_site_decomposition(
    field: DisorderField, beta: float, band: Optional[int] = None, ell: int = 10
) -> HeavySiteDecomposition:
    """Split the heavy-energy partition sum by visited heavy-site set.

    Heavy sites are the walk-reachable sites with beta*omega > 1 inside
    |x| <= band, capped at the ell largest.  U_k sums e^{beta*energy(D)}
    * P(S meets exactly D) over |D| = k subsets, the probability by
    inclusion-exclusion over supersets (free-walk kernel products).
    With all heavy sites inside the cap, sum_k U_k equals the
    above-one-filtered free partition sum exactly, and sum_{k>=1} of the
    minus variant equals that sum minus 1.
    """
    if ell > _MAX_HEAVY_SITES:
        raise ValueError(f"ell > {_MAX_HEAVY_SITES} refused: cost grows as 2^ell * ell")
    # heavy sites lead the ranking, so the top ell + 1 hold all that count
    count = reachable_count(field.n, field.h if band is None else min(band, field.h))
    heavy = top_sites(field, min(ell + 1, count), band) if count else np.empty((0, 3))
    heavy = heavy[beta * heavy[:, 2] > 1.0]
    capped = len(heavy) > ell
    heavy = select_top(heavy, ell)
    k = len(heavy)

    # contain[D] = P(S visits every site of D): the kernel product along D's
    # chain of heavy sites, on elpp's lattice of chains; legs with dt < 1 are
    # 0 and never read
    times, places, weights = heavy.T
    leg = np.vectorize(lambda dt, dx: walk_kernel(int(dt), int(dx)) if dt >= 1 else 0.0, otypes="d")
    exact, energy, popcnt = chain_lattice(
        leg(times, places), leg(times - times[:, None], places - places[:, None]),
        weights, np.multiply,
    )

    # Superset Mobius transform in place, from contain[D] to
    # exact[D] = sum_{T >= D} (-1)^{|T\D|} contain[T]
    idx = np.arange(1 << k)
    for b in range(k):
        without = idx[(idx >> b) & 1 == 0]
        exact[without] -= exact[without | (1 << b)]

    # couplings with beta * total heavy energy beyond ~700 overflow to
    # inf/nan here; the sum identities only hold in the finite range
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.bincount(popcnt, weights=np.exp(beta * energy) * exact, minlength=k + 1)
        u_minus = np.bincount(
            popcnt, weights=np.expm1(beta * energy) * exact, minlength=k + 1
        )
    return HeavySiteDecomposition(
        u=u, u_minus=u_minus, sites=[(int(t), int(x), w) for t, x, w in heavy.tolist()],
        capped=capped,
    )
