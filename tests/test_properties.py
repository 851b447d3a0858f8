"""Seeded property tests of the one transfer kernel against the 2^n path
enumeration (partition sums, site marginals and band-window
probabilities) and, byte for byte, against a full-row recursion that
applies the window rules as masks at every site (the backward pass of
the marginals included), of the first chaos
term alone against the full terms, of the chaos expansion identity,
of the heavy-site sum identities, of the chain solver against both
brute-force routes, of the exact threshold's point cuts (tilde by
weight, hat by the slope-1 cone), one-point start and doubled-iteration
skip against the iteration that solves on every point from ratio 0, of
geometry row
selections against fresh builds, byte for byte, of the top-two pass
against the runner-up of the 2^m chain table, of the tie check on its
iteration's geometry against the three-solve check on raw points,
of ``select_top`` and its rank rule ``top_by_weight`` against the
three-key sort it replaced, and of the
campaigns' KS distance against ``scipy.stats.ks_2samp``, bit for bit.

Hypothesis (MacIver et al., JOSS 2019) draws small boxes, edge boxes
included (h = 0, h >= n, band > h), couplings with log10(beta * max
omega) in [-3, 6], and every constraint kind: band, band window, each
weight filter, each centering, and negative beta with the atmost1
filter.  Chain problems are drawn on continuous points and on a small
integer lattice whose weights (signed zeros included) make ties;
threshold point sets also on lines of equal speed from the origin
(where skipping a point costs no entropy), with weights up to 1e9
against origin costs as large, and on and next to the slope-1 cone.
``derandomize=True`` makes every run draw the same examples.
"""

import contextlib
import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from polymerlab import continuum, polymer
from polymerlab.elpp import (
    ANY,
    ENTROPY_LIPSCHITZ,
    ENTROPY_QUADRATIC,
    _step_cost,
    at_least,
    brute_force,
    chain_lattice,
    exactly,
    prepare_geometry,
    second_value,
    select_top,
    solve,
    top_by_weight,
)
from polymerlab.environment import DisorderField, TailParams, reaches, sample_field
from polymerlab.experiments import _ks
from polymerlab.polymer import (
    CENTER_MEAN,
    CENTER_NONE,
    CENTER_TRUNCATED,
    FREE,
    PathConstraint,
    WeightFilter,
    centered_first_term,
    chaos_terms,
    chaos_v_n,
    filter_above,
    filter_atmost_one,
    filter_between,
    gibbs_band_probabilities,
    gibbs_site_marginals,
    heavy_site_decomposition,
    log_partition,
)
from test_polymer import enum_log_partition, enum_site_marginals

SEEDED = settings(derandomize=True, deadline=None, max_examples=300)
# each threshold draw runs several whole iterations; fewer keep the module under 20 s
SEEDED_THRESHOLDS = settings(SEEDED, max_examples=150)
# The composites below draw from strategies built once, at module level or
# per shape by functools.cache: a strategy built inside a composite is
# built and validated again at every draw, for the same examples.


def rounding(log_z):
    """Absolute error budget of probabilities exp(a - log_z) summed to 1:
    a few ulps of the log-domain magnitudes that cancel in a - log_z."""
    return 1e-12 + 16 * np.finfo(float).eps * abs(log_z)


@st.composite
def fields(draw):
    """A field of n <= 10 steps, box h in 0..n+2, and a coupling beta > 0."""
    n = draw(st.integers(1, 10))
    h = draw(st.integers(0, n + 2))
    alpha = draw(st.floats(0.2, 2.0, exclude_min=True, exclude_max=True))
    field = sample_field(n, h, TailParams(alpha), draw(st.integers(0, 2**32)))
    scale = draw(st.floats(-3.0, 6.0))
    return field, 10.0**scale / float(field.weights.max())


@st.composite
def constrained(draw):
    """A field, a coupling and a constraint of any kind."""
    field, beta = draw(fields())
    n, top = field.n, beta * float(field.weights.max())
    kind = draw(_CONSTRAINT_KINDS)
    band = window = None
    filt = WeightFilter()
    if kind == "band":
        band = draw(st.integers(0, n + 2))
    elif kind == "window":
        h1 = draw(st.integers(0, n + 1))
        window = (h1, draw(st.integers(h1 + 1, n + 3)))
    elif kind == "above":
        filt = filter_above(draw(st.floats(0.0, 1.0)) * top)
    elif kind == "between":
        lo = draw(st.floats(0.0, 1.0))
        filt = filter_between(lo * top, (lo + draw(st.floats(1e-3, 1.0))) * top)
    elif kind in ("atmost1", "negative"):
        filt = filter_atmost_one()
        beta = -beta if kind == "negative" else beta
    centering = draw(_CENTERINGS)
    return field, beta, PathConstraint(band, window, filt, centering)


_CONSTRAINT_KINDS = st.sampled_from(["band", "window", "all", "above", "between", "atmost1",
                                     "negative"])
_CENTERINGS = st.sampled_from([CENTER_NONE, CENTER_MEAN, CENTER_TRUNCATED])


@SEEDED
@given(constrained())
def test_log_partition_matches_enumeration(case):
    field, beta, constraint = case
    if constraint.centering == CENTER_MEAN and field.tail.alpha <= 1.0:
        with pytest.raises(ValueError, match="mean is infinite"):
            log_partition(field, beta, constraint)
        return
    got = log_partition(field, beta, constraint)
    want = enum_log_partition(field, beta, constraint)
    if want == -math.inf:
        assert got == -math.inf
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@st.composite
def partitions(draw):
    """A field, a coupling and windows that partition [0, n+1)."""
    field, beta = draw(fields())
    cuts = draw(st.sets(st.integers(1, field.n), max_size=field.n))
    edges = [0, *sorted(cuts), field.n + 1]
    return field, beta, list(zip(edges[:-1], edges[1:]))


@SEEDED
@given(partitions())
def test_band_probabilities_partition_sums_to_one(case):
    field, beta, windows = case
    log_z, probs = gibbs_band_probabilities(field, beta, windows)
    assert log_z == log_partition(field, beta, FREE)
    assert math.fsum(probs) == pytest.approx(1.0, abs=rounding(log_z))


@SEEDED
@given(fields())
def test_site_marginal_rows_sum_to_one(case):
    field, beta = case
    rows = gibbs_site_marginals(field, beta).sum(axis=1)
    log_z = log_partition(field, beta, FREE)
    np.testing.assert_allclose(rows, 1.0, rtol=0.0, atol=rounding(log_z))


@SEEDED
@given(fields())
def test_site_marginals_match_enumeration(case):
    field, beta = case
    log_z = log_partition(field, beta, FREE)
    np.testing.assert_allclose(gibbs_site_marginals(field, beta),
                               enum_site_marginals(field, beta), rtol=0.0, atol=rounding(log_z))


@st.composite
def windowed(draw):
    """A field, a coupling and 1 to 4 windows [lo, hi) of max |S_i| with
    0 <= lo < hi <= n + 1; windows may overlap."""
    field, beta = draw(fields())
    return field, beta, draw(_windows(field.n))


@functools.cache
def _windows(n):
    window = st.integers(0, n).flatmap(functools.partial(_window_from, n=n))
    return st.lists(window, min_size=1, max_size=4)


@functools.cache
def _window_from(lo, n):
    return st.tuples(st.just(lo), st.integers(lo + 1, n + 1))


@SEEDED
@given(windowed())
def test_band_probabilities_match_enumeration(case):
    field, beta, windows = case
    log_z, probs = gibbs_band_probabilities(field, beta, windows)
    log_free = enum_log_partition(field, beta, FREE)
    for window, p in zip(windows, probs):
        log_win = enum_log_partition(field, beta, PathConstraint(band_window=window))
        if log_win == -math.inf:
            assert p == 0.0  # no path has its maximum in the window
        else:
            assert p == pytest.approx(math.exp(log_win - log_free), rel=0.0,
                                      abs=rounding(log_z))


def full_row_transfer(weights, h, beta, filt, center, half_width, windows, backward=False):
    """Each step's state of the transfer pass over the whole row
    -half_width..half_width, the window rules applied as full-row
    flag/dead masks: shape (n, 1, width) or (n, 2, K, width).  The
    backward pass (no windows, uncentered) starts from 0 on step n's row,
    adds step i+1's energy before each step and masks the cone |x| <= i:
    shape (n-1, 1, width), row i-1 holding step i."""
    n, width = weights.shape[0], 2 * half_width + 1
    ruler = np.abs(np.arange(-half_width, half_width + 1))
    bounds = np.array(windows, dtype=np.int64).reshape(-1, 2)
    flag, dead = ruler >= bounds[:, :1], ruler > bounds[:, 1:]
    cur = np.full(((2, len(windows)) if windows else (1,)) + (width + 2,), -np.inf)
    box = ruler <= h
    parity = [np.flatnonzero(box & ((ruler + i) % 2 == 0)) for i in (0, 1)]

    def add_energy(v, i):
        x = parity[i % 2]  # columns of i's parity on the box
        v[..., x] += filt.apply(beta * weights[i - 1, x - half_width + h])

    if backward:
        cur[0, 1:-1][(ruler <= n) & ((ruler + n) % 2 == 0)] = 0.0
    else:
        cur[0, ..., half_width + 1] = 0.0
    rows = []
    for i in range(n - 1, 0, -1) if backward else range(1, n + 1):
        if backward:
            add_energy(cur[..., 1:-1], i + 1)
        nxt = np.full_like(cur, -np.inf)
        v = nxt[..., 1:-1]
        np.logaddexp(cur[..., :-2], cur[..., 2:], out=v)
        v += polymer.LOG_HALF
        if windows:
            np.logaddexp(v[0], v[1], out=v[1], where=flag)
            np.copyto(v[0], -np.inf, where=flag)
            np.copyto(v, -np.inf, where=dead)
        if backward:
            np.copyto(v, -np.inf, where=ruler > i)
        else:
            add_energy(v, i)
            if center:
                v -= center
        rows.append(v.copy())
        cur = nxt
    return np.array(rows[::-1] if backward else rows).reshape(-1, *cur.shape[:-1], width)


@st.composite
def transfer_cases(draw):
    """A pass of n <= 40 steps at half width <= n, centered or not, with
    any energy filter, and none or 1 to 3 windows (h1, hw): h1 = 0,
    hw = 0, h1 = hw, h1 > hw (what a band below a band window's H1
    gives) and hw past the reach among them."""
    n = draw(st.integers(1, 40))
    h = draw(st.integers(0, n + 2))
    half_width = draw(st.integers(0, n))
    field = sample_field(n, h, TailParams(draw(st.floats(0.3, 1.9))), draw(st.integers(0, 2**32)))
    beta = 10.0 ** draw(st.floats(-3.0, 6.0)) / float(field.weights.max())
    top = beta * float(field.weights.max())
    filt = draw(st.sampled_from([WeightFilter(), filter_above(0.3 * top),
                                 filter_between(0.1 * top, 0.7 * top)]))
    center = draw(st.sampled_from([0.0, 0.75 * beta]))
    return field, beta, filt, center, half_width, draw(_transfer_windows(n, half_width))


@functools.cache
def _transfer_windows(n, half_width):
    edge = st.integers(0, n + 1)
    shapes = {
        "h1=0": st.tuples(st.just(0), edge),
        "hw=0": st.tuples(edge, st.just(0)),
        "h1=hw": edge.map(lambda e: (e, e)),
        "h1>hw": st.integers(1, n + 1).flatmap(
            lambda a: st.tuples(st.just(a), st.integers(0, a - 1))),
        "past": st.tuples(edge, st.integers(half_width, n + 2)),
        "any": st.tuples(edge, edge),
    }
    window = st.sampled_from(sorted(shapes)).flatmap(shapes.get)
    return st.one_of(st.just([]), st.lists(window, min_size=1, max_size=3))


@SEEDED
@given(transfer_cases())
def test_transfer_edges_match_full_row_masks_byte_for_byte(case):
    # every step's sites and stored rows are the full-row recursion's
    # bytes, whose off-cone, off-parity and dead sites are all -inf
    field, beta, filt, center, half_width, windows = case
    n, h = field.n, field.h
    want = full_row_transfer(field.weights, h, beta, filt, center, half_width, windows)
    reach = reaches(n, half_width).tolist()
    for i in range(1, n + 1):
        r = reach[i]
        sites = want[i - 1][..., half_width - r : half_width + r + 1 : 2]
        rest = want[i - 1].copy()
        rest[..., half_width - r : half_width + r + 1 : 2] = -np.inf
        assert np.all(rest == -np.inf)
        got_r, got = polymer._transfer(field.weights[:i], h, beta, filt, center, half_width,
                                       windows)
        assert got_r == r and got.tobytes() == np.ascontiguousarray(sites).tobytes()
    if not windows:
        store = np.full((n, 2 * half_width + 1), -np.inf)
        polymer._transfer(field.weights, h, beta, filt, center, half_width, store=store)
        assert store.tobytes() == want[:, 0].tobytes()
        # the backward pass of gibbs_site_marginals, log B_i of steps n-1 .. 1
        back = full_row_transfer(field.weights, h, beta, filt, center, half_width, windows,
                                 backward=True)
        store = np.full((n, 2 * half_width + 1), -np.inf)
        polymer._transfer(field.weights, h, beta, filt, center, half_width, store=store,
                          backward=True)
        assert store[: n - 1].tobytes() == back[:, 0].tobytes()
        assert np.all(store[n - 1] == -np.inf)


@st.composite
def chaos_cases(draw):
    """A field, a coupling, a band inside the box, and a cutoff: a drawn
    multiple of the top weight, or the default where n > 1 defines it."""
    field, beta = draw(fields())
    band = draw(st.integers(0, field.h))
    top = float(field.weights.max())
    cutoff = draw(st.one_of(st.floats(0.0, 2.0).map(lambda c: c * top),
                            st.none() if field.n > 1 else st.just(top)))
    return field, beta, band, cutoff


@SEEDED
@given(chaos_cases())
def test_chaos_v_n_is_the_full_terms_v_n_bit_for_bit(case):
    field, beta, band, cutoff = case
    # v_n is formed before lam enters chaos_terms, so lam's quadrature is
    # stubbed out: it is not what is compared, and it is most of the time
    with warnings.catch_warnings(), mock.patch.object(polymer, "log_mgf_truncated",
                                                      lambda tail, t, cutoff: 0.0):
        warnings.simplefilter("ignore", RuntimeWarning)  # expm1 overflow at huge couplings
        alone = chaos_v_n(field, beta, band, cutoff)
        full = chaos_terms(field, beta, band, cutoff).v_n
    assert np.float64(alone).tobytes() == np.float64(full).tobytes()


# each draw integrates the truncated mgf; fewer keep the module under 20 s
@settings(SEEDED, max_examples=100)
@given(chaos_cases())
def test_chaos_identity_holds_in_its_finite_range(case):
    # exp(-n lam) Z_trunc = 1 + centered_first_term + r_n, with Z_trunc the
    # banded free sum of the truncated weights from log_partition: it holds
    # only when v_n, w_n, lam and the centred kernel sum agree, as each
    # _kernel_sum sums in its own copy of the box
    field, beta, band, cutoff = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # expm1 overflow at huge couplings
        terms = chaos_terms(field, beta, band, cutoff)
    trunc = np.where(field.weights <= terms.cutoff, field.weights, 0.0)
    log_z = log_partition(DisorderField(field.n, field.h, field.tail, field.seed, trunc), beta,
                          PathConstraint(band=band))
    shift = log_z - field.n * terms.lam
    spread = math.exp(-terms.lam) * (1.0 + abs(terms.v_n) + abs(terms.w_n))
    if shift >= 700.0 or not math.isfinite(spread + terms.r_n):
        return  # past the finite range
    z = math.exp(shift)
    rhs = 1.0 + centered_first_term(terms) + terms.r_n
    assert abs(z - rhs) <= 1e-9 * (1.0 + z + spread + abs(terms.r_n))


@st.composite
def heavy_cases(draw):
    """A field of n <= 40 steps, a band b inside its box, and a coupling
    with log10(beta * max omega) in [-1, 2]."""
    n = draw(st.integers(1, 40))
    h = draw(st.integers(0, n + 2))
    alpha = draw(st.floats(0.2, 2.0, exclude_min=True, exclude_max=True))
    field = sample_field(n, h, TailParams(alpha), draw(st.integers(0, 2**32)))
    scale = draw(st.floats(-1.0, 2.0))
    return field, draw(st.integers(0, h)), 10.0**scale / float(field.weights.max())


@SEEDED
@given(heavy_cases())
def test_heavy_site_sums_are_the_above_one_partition_sum(case):
    field, band, beta = case
    split = heavy_site_decomposition(field, beta, band)
    if split.capped:
        return  # the identities need every heavy site inside the cap
    # the box h = band shares the field's weights, so its free sum is the
    # field's sum with the energy outside |x| <= band dropped
    nested = sample_field(field.n, band, field.tail, field.seed)
    z = math.exp(log_partition(nested, beta, PathConstraint(weight_filter=filter_above(1.0))))
    assert split.u.sum() == pytest.approx(z, rel=1e-12)
    assert split.u_minus[1:].sum() == pytest.approx(z - 1.0, rel=0.0, abs=1e-12 * z)


@st.composite
def chain_problems(draw):
    """Up to 10 distinct (t, x) points, continuous or on a small lattice
    with tied and signed-zero weights, and a problem of any kind."""
    rows = draw(_CHAIN_ROWS[draw(st.booleans())])
    cardinality = draw(_CARDINALITIES)
    return (np.array(rows, dtype=float).reshape(-1, 3), draw(st.floats(-3.0, 3.0)),
            draw(_PRICES), draw(_KINDS), cardinality)


def _distinct(row, **sizes):
    """Lists of rows with distinct (t, x)."""
    return st.lists(row, unique_by=lambda r: r[:2], **sizes)


_CHAIN_ROWS = {
    True: _distinct(st.tuples(st.integers(0, 4), st.integers(-3, 3),
                              st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])), max_size=10),
    False: _distinct(st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0), st.floats(-3.0, 3.0)),
                     max_size=10),
}
_CARDINALITIES = st.sampled_from([ANY, *map(at_least, range(4)), *map(exactly, range(4))])
_PRICES = st.sampled_from([0.0, 0.5, 1.0])
_KINDS = st.sampled_from([ENTROPY_QUADRATIC, ENTROPY_LIPSCHITZ])


def feasible_values(pts, beta, kappa, kind, cardinality):
    """Every feasible chain's value, largest first, from the 2^m table."""
    pts = pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]
    t, x, w = pts.T
    ent, wsum, size = chain_lattice(
        _step_cost(kind, t, x), _step_cost(kind, t - t[:, None], x - x[:, None]), w, np.add,
    )
    values = beta * wsum - kappa * size - ent
    count = cardinality.count
    allowed = size == count if cardinality.kind == "exactly" else size >= count
    return np.sort(values[allowed & (values > -math.inf)])[::-1]


@SEEDED
@given(chain_problems())
def test_solve_matches_both_brute_force_routes(case):
    pts, beta, kappa, kind, cardinality = case
    got = solve(pts, beta, kappa, kind, cardinality)
    values = feasible_values(pts, beta, kappa, kind, cardinality)
    # rounding may break an exact tie either way, so chains are compared
    # only where the optimum is clear of every other chain
    clear = len(values) < 2 or values[0] - values[1] > 1e-9
    for method in ("loop", "table"):
        want = brute_force(pts, beta, kappa, kind, cardinality, method=method)
        if want.value == -math.inf:
            assert got.value == -math.inf
        else:
            assert got.value == pytest.approx(want.value, rel=0.0, abs=1e-12)
        if clear:
            assert got.indices == want.indices


@SEEDED
@given(chain_problems())
def test_second_value_is_the_runner_up_of_the_chain_table(case):
    # the top-two pass against the 2^m table: equal values count apart,
    # and fewer than two feasible non-empty chains give -inf
    pts, beta, kappa, kind, _ = case
    got = second_value(prepare_geometry(pts, kind), beta, kappa)
    values = feasible_values(pts, beta, kappa, kind, at_least(1))
    if len(values) < 2:
        assert got == -math.inf
    else:
        assert got == pytest.approx(values[1], rel=0.0, abs=1e-12)


@st.composite
def threshold_sets(draw):
    """1 to 12 distinct (t, x, w) points of one kind: an integer lattice
    with integer weights, a line x = v t of equal speed with lattice
    points off it, continuous points, heavy points whose weights (up to
    1e9) nearly pay their origin costs, points on and next to the
    origin's slope-1 cone, or signed zeros."""
    kind = draw(_THRESHOLD_KINDS)
    speed = draw(_THRESHOLD_SPEEDS[kind]) if kind in _THRESHOLD_SPEEDS else None
    return np.array(draw(_threshold_rows(kind, speed)), dtype=float)


_THRESHOLD_KINDS = st.sampled_from(["lattice", "line", "continuous", "heavy", "cone", "zeros"])
_THRESHOLD_SPEEDS = {"line": st.sampled_from([0.0, 0.5, 1.0, -2.0]), "heavy": st.floats(1e3, 4e4)}


@functools.cache
def _threshold_rows(kind, speed):
    if kind == "lattice":
        row = st.tuples(st.integers(1, 5), st.integers(-4, 4), st.integers(-1, 4))
    elif kind == "line":
        on_line = st.integers(1, 16).map(lambda k: (k / 4, speed * k / 4))
        off_line = st.tuples(st.integers(1, 4), st.integers(-4, 4))
        row = st.tuples(st.one_of(on_line, off_line), st.integers(0, 5)).map(
            lambda r: (*r[0], r[1]))
    elif kind == "continuous":
        row = st.tuples(st.floats(0.01, 1.0), st.floats(-2.0, 2.0), st.floats(-0.5, 10.0))
    elif kind == "heavy":

        def heavy(r):
            t, x = r[0], speed * r[0] + r[1]
            return t, x, min(1e9, x * x / (2.0 * t) + r[2])

        row = st.tuples(st.floats(0.01, 1.0), st.floats(-1.0, 1.0),
                        st.floats(-50.0, 50.0)).map(heavy)
    elif kind == "cone":
        # |x| = t, one ulp either side, and past the slope slack
        slope = st.sampled_from([1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -52, 1.0 + 2e-12])
        row = st.tuples(st.integers(1, 8), slope, st.sampled_from([-1.0, 1.0]),
                        st.integers(1, 4)).map(lambda r: (r[0] / 8, r[2] * r[1] * r[0] / 8, r[3]))
    else:
        row = st.tuples(st.integers(1, 4), st.sampled_from([-0.0, 0.0, 1.0, -1.0]),
                        st.sampled_from([-0.0, 0.0, 0.5, 1.0]))
    return _distinct(row, min_size=1, max_size=12)


def full_threshold(geometry, start=None):
    """The ratio iteration with every solve on the whole geometry."""
    rises = geometry.entropy_kind == ENTROPY_QUADRATIC
    ratio = start if start is not None else (0.0 if rises else continuum.BRACKET_HIGH)
    for _ in range(continuum.RATIO_STEP_CAP):
        kappa, beta = (ratio, 1.0) if rises else (0.0, ratio)
        found = solve(geometry, beta, kappa=kappa)
        if not found.indices:
            break
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
        raise RuntimeError(f"ratio iteration did not settle in {continuum.RATIO_STEP_CAP} solves")
    beta = (0.5 / ratio if ratio > 0.0 else math.inf) if rises else ratio
    if beta >= continuum.BRACKET_HIGH:
        return math.nan, ratio
    return max(beta, continuum.BRACKET_LOW), ratio


def bits(threshold):
    """(beta_c, ratio) as bytes, or the error the iteration raised."""
    try:
        return np.array(threshold(), dtype=float).tobytes()
    except RuntimeError as err:
        return str(err)


@SEEDED_THRESHOLDS
@given(threshold_sets())
def test_ratio_cut_leaves_every_solve_unchanged(pts):
    # at 0, at each weight (a point of weight equal to the price can tie)
    # and at each ratio of the full iteration
    geometry = prepare_geometry(pts)
    prices = {0.0, *pts[:, 2].tolist()}
    with contextlib.suppress(RuntimeError):
        prices.add(full_threshold(geometry)[1])
    for kappa in prices:
        rows = continuum._above(geometry.points, kappa)
        cut = solve(prepare_geometry(geometry.points[rows]), 1.0, kappa=kappa)
        assert tuple(rows[list(cut.indices)]) == solve(geometry, 1.0, kappa=kappa).indices


# two single points tied at ratio 1/3 whose rounded ratios differ, and one
# point tied with a three-point chain at 4/3 (4 - 16/6 rounds above 4/3)
@example(np.array([[3.0, -2.0, 1.0], [3.0, 4.0, 3.0], [1.0, -1.0, 0.0]]), ENTROPY_QUADRATIC)
@example(np.array([[2.0, 4.0, 2.0], [4.0, 1.0, -1.0], [4.0, -2.0, -1.0], [3.0, 4.0, 4.0],
                   [4.0, 3.0, 1.0], [2.0, 1.0, 1.0], [1.0, 3.0, 3.0]]), ENTROPY_QUADRATIC)
# a zero weight whose tiny Lipschitz origin cost once rounded below 0
@example(np.array([[0.25, 1e-12, 0.0]]), ENTROPY_LIPSCHITZ)
# best hat chains through a point one ulp, and 5e-13, outside |x| = t: a
# cone cut with no margin, or one under the slope slack, would drop it
@example(np.array([[0.375, 0.375 * (1 + 2 ** -52), 4.0], [1.0, 1.0, 1.0]]), ENTROPY_LIPSCHITZ)
@example(np.array([[0.5, 0.5 * (1 + 5e-13), 4.0], [1.0, 1.0, 1.0]]), ENTROPY_LIPSCHITZ)
@SEEDED_THRESHOLDS
@given(threshold_sets(), st.sampled_from([ENTROPY_QUADRATIC, ENTROPY_LIPSCHITZ]))
def test_threshold_cut_and_starts_match_the_full_iteration_bit_for_bit(pts, kind):
    geometry = prepare_geometry(pts, kind)
    want = bits(lambda: full_threshold(geometry))
    assert bits(lambda: continuum._threshold(geometry)) == want
    # a doubled sample's iteration starts from the ratio of its top half
    half = (len(pts) + 1) // 2
    top_half = prepare_geometry(select_top(pts, half), kind)
    start = full_threshold(top_half)[1]
    want_doubled = bits(lambda: full_threshold(geometry, start))
    assert bits(lambda: continuum._threshold(geometry, start)) == want_doubled
    # critical_coupling's skip: where no row outside the top half clears
    # start - delta, the doubled iteration ends on the top half's own bits
    outside = np.sort(pts[:, 2])[:len(pts) - half]
    if kind == ENTROPY_QUADRATIC and np.all(outside <= start - continuum._margin(pts)):
        assert want_doubled == bits(lambda: full_threshold(top_half))
    point_set_threshold = (continuum._tilde_threshold if kind == ENTROPY_QUADRATIC
                           else continuum._hat_threshold)
    assert bits(lambda: point_set_threshold(pts)) == want
    assert bits(lambda: point_set_threshold(pts, start)) == want_doubled


@st.composite
def geometry_sets(draw):
    """threshold_sets() rows, at will with an exact origin copy and points
    a subnormal time from the origin and from each other, and a
    time-sorted selection of their rows."""
    pts = draw(threshold_sets())
    extra = draw(_EXTRA_ROWS)
    pts = np.concatenate([pts, np.array(extra).reshape(-1, 3)])
    keep = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
    return pts, np.flatnonzero(keep)


_EXTRA_ROWS = st.lists(st.sampled_from([(0.0, 0.0, 1.0), (5e-324, 1e-300, 2.0),
                                        (1e-323, 0.0, 3.0), (1e-323, 1.0, 0.5)]), unique=True)


@SEEDED
@given(geometry_sets(), st.sampled_from([ENTROPY_QUADRATIC, ENTROPY_LIPSCHITZ]))
def test_geometry_row_selection_is_the_geometry_of_the_rows(case, kind):
    pts, rows = case
    geometry = prepare_geometry(pts, kind)
    got, want = continuum._rows(geometry, rows), prepare_geometry(geometry.points[rows], kind)
    assert got.entropy_kind == kind
    for name in ("points", "origin_step", "into_step"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def raw_point_tied(points, ratio):
    """The three-solve tie check on raw points: the best chain, the best
    chain with more points than it, and the best without each of its
    points, each deletion solved on raw rows."""
    kappa = ratio - continuum._margin(points)
    kept = points[continuum._above(points, kappa)]
    if len(kept) < 2:
        return False
    geometry = prepare_geometry(kept)
    best = solve(geometry, 1.0, kappa=kappa).indices
    if solve(geometry, 1.0, kappa=kappa, cardinality=at_least(len(best) + 1)).value > 0.0:
        return True
    return any(solve(np.delete(geometry.points, j, axis=0), 1.0, kappa=kappa).indices
               for j in best)


# the two tie sets above (ratios 1/3 and 4/3, each the start's), and a
# point of weight in (start - 2 delta, start - delta], kept only by the
# geometry's wider cut
@example(np.array([[3.0, -2.0, 1.0], [3.0, 4.0, 3.0], [1.0, -1.0, 0.0]]))
@example(np.array([[2.0, 4.0, 2.0], [4.0, 1.0, -1.0], [4.0, -2.0, -1.0], [3.0, 4.0, 4.0],
                   [4.0, 3.0, 1.0], [2.0, 1.0, 1.0], [1.0, 3.0, 3.0]]))
@example(np.array([[1.0, 0.0, 2.0], [0.5, 0.0, 2.0 - 3e-9]]))
@SEEDED_THRESHOLDS
@given(threshold_sets())
def test_tie_check_on_the_iteration_geometry_matches_the_raw_point_check(pts):
    # at the ratio the one-point-start iteration ends on, on its geometry
    with mock.patch.object(continuum, "_tied", wraps=continuum._tied) as tied:
        bits(lambda: continuum._tilde_threshold(pts))
    checks = [args for args, _ in tied.call_args_list]
    # and at 0, at each weight (a point of weight equal to the price can
    # tie) and at the final ratio, each on the geometry of an iteration
    # started there
    prices = {0.0, *pts[:, 2].tolist()}
    with contextlib.suppress(RuntimeError):
        prices.add(continuum._tilde_threshold(pts)[1])
    for price in prices:
        rows = continuum._above(pts, price - continuum._margin(pts))
        checks.append((prepare_geometry(pts[rows]), price))
    for geometry, ratio in checks:
        assert continuum._tied(geometry, ratio) is raw_point_tied(pts, ratio)


@SEEDED
@given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
                          st.sampled_from([-0.0, 0.0, 1.0, 2.0])),
                min_size=1, max_size=12, unique_by=lambda r: r[:2]))
def test_select_top_is_the_weight_then_time_then_space_rule(rows):
    # ties at the ell-th weight and equal times with different x
    pts = np.array(rows, dtype=float)
    by_time = pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]
    m = len(pts)
    for ell in (0, 1, m - 1, m, m + 3):
        order = np.lexsort((by_time[:, 1], by_time[:, 0], -by_time[:, 2]))
        want = by_time[np.sort(order[:ell])]
        assert select_top(pts, ell).tobytes() == want.tobytes()
        # the shared rank rule on the unsorted rows: the same set, and the
        # heaviest weight it leaves out
        rows, left_out = top_by_weight(pts, ell)
        got = pts[rows]
        assert got[np.lexsort((got[:, 1], got[:, 0]))].tobytes() == want.tobytes()
        assert left_out == by_time[order[ell:], 2].max(initial=-math.inf)


@st.composite
def ks_samples(draw):
    """Two samples of 2 to 60 values, unequal sizes included, with ties
    from a small integer grid, +-inf, and a nan in neither, the first or
    the second."""
    samples = [draw(_KS_VALUES) for _ in range(2)]
    spoiled = draw(_KS_SPOILED)
    if spoiled is not None:
        samples[spoiled][draw(st.integers(0, len(samples[spoiled]) - 1))] = math.nan
    return samples


_KS_VALUES = st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3),
                                st.sampled_from([-math.inf, math.inf])), min_size=2, max_size=60)
_KS_SPOILED = st.sampled_from([None, 0, 1])
# above 10000 samples ks_2samp keeps the float gap, which here is not the
# nearest h / lcm(n1, n2); at 10000 it still rounds to it
_WIDE = [np.round(np.random.default_rng(5).normal(shift, 1.0, size), 2)
         for shift, size in ((0.0, 10001), (0.05, 20000))]


@example(_WIDE)
@example(_WIDE[::-1])
@example([_WIDE[1][:10000], _WIDE[0][:5]])
@SEEDED
@given(ks_samples())
def test_ks_distance_is_the_ks_2samp_statistic(samples):
    a, b = samples
    with warnings.catch_warnings():  # some exact p-values fail; the statistic is still h / lcm
        warnings.simplefilter("ignore", RuntimeWarning)
        want = float(ks_2samp(a, b).statistic)
    assert _ks(a, b).hex() == want.hex()
    assert math.isnan(_ks(a[:1], b))  # one replica has no distance
