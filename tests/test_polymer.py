"""Transfer recursion, kernels, sampling, expansion and heavy-site tests.

The main oracle enumerates all 2^n sign paths directly and reduces with
logsumexp, so every partition value is checked against an independent
route at n <= 11.
"""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln, logsumexp

from polymerlab import polymer
from polymerlab.environment import (
    DisorderField,
    TailParams,
    quantile,
    reaches,
    sample_field,
    top_sites,
    truncated_mean_weight,
)
from polymerlab.polymer import (
    CENTER_MEAN,
    CENTER_NONE,
    CENTER_TRUNCATED,
    FREE,
    ChaosTerms,
    PathConstraint,
    WeightFilter,
    centered_first_term,
    centering_value,
    chaos_terms,
    chaos_v_n,
    filter_above,
    filter_atmost_one,
    filter_between,
    gibbs_band_probabilities,
    gibbs_band_probability,
    gibbs_site_marginals,
    heavy_site_decomposition,
    kernel_grid,
    log_mgf_truncated,
    log_partition,
    walk_kernel,
)

PARETO_12 = TailParams(alpha=1.2)
PARETO_15 = TailParams(alpha=1.5)
PARETO_08 = TailParams(alpha=0.8)


# ---------------------------------------------------------------------------
# Enumeration oracle
# ---------------------------------------------------------------------------


@functools.cache
def all_paths(n):
    """(2^n, n) matrix of walk positions S_1..S_n, built once per n and
    read-only, since every enumeration oracle shares it."""
    m = 1 << n
    bits = (np.arange(m)[:, None] >> np.arange(n)[None, :]) & 1
    pos = np.cumsum(2 * bits - 1, axis=1)
    pos.flags.writeable = False
    return pos


@functools.cache
def path_sites(n, h):
    """Per (n, h), read-only: each path's in-box mask, box columns and
    peak max |S_i|."""
    pos = all_paths(n)
    sites = np.abs(pos) <= h, np.clip(pos, -h, h) + h, np.abs(pos).max(axis=1)
    for arr in sites:
        arr.flags.writeable = False
    return sites


def enum_log_partition(field, beta, constraint=FREE):
    """Brute-force free-endpoint partition sum over every sign path."""
    n, h = field.n, field.h
    inside, cols, peak = path_sites(n, h)
    w = np.where(inside, field.weights[np.arange(n)[None, :], cols], 0.0)
    energies = constraint.weight_filter.apply(beta * w)
    keep = np.ones(peak.shape[0], dtype=bool)
    if constraint.band is not None:
        keep &= peak <= constraint.band
    if constraint.band_window is not None:
        h1, h2 = constraint.band_window
        keep &= (peak >= h1) & (peak < h2)
    if not keep.any():
        return -np.inf
    center = centering_value(field.tail, beta, constraint.centering)
    totals = energies.sum(axis=1) - n * center
    return float(logsumexp(totals[keep]) - n * math.log(2))


def enum_site_marginals(field, beta):
    """Exact Gibbs visit probabilities from the path enumeration."""
    n, h = field.n, field.h
    inside, cols, _ = path_sites(n, h)
    w = np.where(inside, field.weights[np.arange(n)[None, :], cols], 0.0)
    gibbs = np.exp(beta * w.sum(axis=1) - logsumexp(beta * w.sum(axis=1)))
    # bin (i, x) sums its paths' weights in path order, as np.add.at does
    bins = all_paths(n) + n + (2 * n + 1) * np.arange(n)
    return np.bincount(bins.ravel(), np.repeat(gibbs, n), n * (2 * n + 1)).reshape(n, -1)


# ---------------------------------------------------------------------------
# Walk kernels
# ---------------------------------------------------------------------------


def test_walk_kernel_small_exact():
    assert walk_kernel(4, 0) == pytest.approx(6 / 16, abs=0)
    assert walk_kernel(4, 2) == pytest.approx(4 / 16, abs=0)
    assert walk_kernel(4, -4) == pytest.approx(1 / 16, abs=0)
    assert walk_kernel(4, 1) == 0.0
    assert walk_kernel(3, 5) == 0.0
    with pytest.raises(ValueError):
        walk_kernel(0, 0)


def test_walk_kernel_convolution():
    # p_i(.) must equal the i-fold convolution of the one-step law
    row = np.zeros(201)
    row[100] = 1.0
    for i in range(1, 61):
        row = 0.5 * (np.roll(row, 1) + np.roll(row, -1))
        for x in range(-i, i + 1):
            assert walk_kernel(i, x) == pytest.approx(row[100 + x], rel=1e-13, abs=1e-300)


def test_walk_kernel_normalised_large():
    for i in (999, 1000, 1001, 1500, 4096):
        total = sum(walk_kernel(i, x) for x in range(-i, i + 1, 2))
        assert total == pytest.approx(1.0, rel=1e-11)


def test_kernel_grid_matches_scalar():
    grid = kernel_grid(40, 12)
    for i in (1, 7, 24, 40):
        for x in (-12, -3, 0, 5, 12):
            assert grid[i - 1, x + 12] == pytest.approx(
                walk_kernel(i, x), rel=1e-12, abs=1e-300
            )
    assert not grid.flags.writeable


def test_log_factorial_equals_gammaln_bitwise():
    # every m up to 2^17, both sides of each cephes branch edge in
    # x = m + 1 (the exact product below 13, the Stirling series and its
    # short form from 1000, the bare Stirling term past 1e8), then
    # seeded integers up to 1e12
    rng = np.random.default_rng(20261)
    edges = (12, 13, 14, 999, 1000, 1001, 10**8, 10**8 + 1)
    ms = (list(range((1 << 17) + 1)) + [x - 1 for x in edges]
          + [int(m) for m in rng.integers(0, 10**12, 10_000)])
    got = np.array([polymer._log_factorial(m) for m in ms])
    assert got.tobytes() == gammaln(np.array(ms, dtype=float) + 1).tobytes()


@pytest.mark.parametrize("n, half_width", [(2048, 363), (1, 3), (5, 40), (64, 64)])
def test_kernel_grid_is_the_gammaln_formula_bitwise(n, half_width):
    # the grid with the log-binomials of scipy's gammaln, row block by row
    # block: the r5 shape, half widths past n (off-cone columns) and a full box
    valid = polymer.reachable_mask(n, half_width)
    want = np.empty(valid.shape)
    x = np.arange(-half_width, half_width + 1)[None, :]
    for a in range(0, n, polymer._GRID_ROWS):
        i = np.arange(a + 1, min(a + polymer._GRID_ROWS, n) + 1)[:, None]
        k = np.clip((i + x) // 2, 0, None)
        logp = gammaln(i + 1) - gammaln(k + 1) - gammaln(np.clip(i - k, 0, None) + 1)
        logp = logp + i * polymer.LOG_HALF
        want[a : a + len(i)] = np.where(valid[a : a + len(i)], np.exp(logp), 0.0)
    assert kernel_grid.__wrapped__(n, half_width).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Partition sums against the enumeration oracle
# ---------------------------------------------------------------------------


CONSTRAINTS = [
    FREE,
    PathConstraint(band=3),
    PathConstraint(band_window=(2, 5)),
    PathConstraint(band_window=(0, 4)),
    PathConstraint(weight_filter=filter_above(1.5)),
    PathConstraint(weight_filter=filter_between(1.0, 4.0)),
    PathConstraint(weight_filter=filter_atmost_one()),
    PathConstraint(band=4, weight_filter=filter_above(1.0)),
]


@pytest.mark.parametrize("n,h,alpha,beta,seed", [
    (6, 6, 0.8, 0.3, 101),
    (9, 5, 1.2, 1.7, 102),
    (11, 11, 1.5, 0.05, 103),
    (10, 3, 0.8, 2.0, 104),
])
def test_log_partition_matches_enumeration(n, h, alpha, beta, seed):
    field = sample_field(n, h, TailParams(alpha=alpha), seed)
    for constraint in CONSTRAINTS:
        want = enum_log_partition(field, beta, constraint)
        got = log_partition(field, beta, constraint)
        if want == -np.inf:
            assert got == -np.inf
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_weight_filter_is_one_window():
    # a bare lower edge is the above filter, not a filter that keeps all
    field = sample_field(8, 8, PARETO_15, 7)
    for t in (1.0, 2.0, 4.0):
        want = log_partition(field, 0.5, PathConstraint(weight_filter=filter_above(t)))
        assert want < log_partition(field, 0.5)
        assert log_partition(field, 0.5, PathConstraint(weight_filter=WeightFilter(lo=t))) == want


def test_weight_filter_refuses_nan_edges():
    # infinite edges are windows; a nan edge would keep no energy at all
    for lo, hi in ((math.nan, math.inf), (-math.inf, math.nan), (math.nan, math.nan),
                   (np.nan, 1.0)):
        with pytest.raises(ValueError, match="nan"):
            WeightFilter(lo, hi)
    with pytest.raises(ValueError):
        filter_above(math.nan)
    assert WeightFilter(lo=math.inf).apply(np.array([1e308])).tolist() == [0.0]
    assert filter_between(-math.inf, 3.0) == WeightFilter(-math.inf, 3.0)


def test_log_partition_centerings_match_enumeration():
    field = sample_field(8, 8, PARETO_15, 7)
    for centering in (CENTER_MEAN, CENTER_TRUNCATED):
        constraint = PathConstraint(centering=centering)
        want = enum_log_partition(field, 0.5, constraint)
        got = log_partition(field, 0.5, constraint)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_log_partition_beta_zero_is_zero():
    field = sample_field(12, 4, PARETO_12, 9)
    assert log_partition(field, 0.0) == pytest.approx(0.0, abs=1e-13)


def test_log_partition_negative_beta():
    field = sample_field(9, 9, PARETO_12, 21)
    with pytest.raises(ValueError):
        log_partition(field, -1.0)
    constraint = PathConstraint(weight_filter=filter_atmost_one())
    want = enum_log_partition(field, -2.0, constraint)
    got = log_partition(field, -2.0, constraint)
    assert got == pytest.approx(want, rel=1e-12)


def test_log_partition_empty_band_flags_neg_inf():
    field = sample_field(6, 6, PARETO_12, 30)
    assert log_partition(field, 1.0, PathConstraint(band=0)) == -np.inf


def test_log_partition_monotone_in_beta():
    field = sample_field(24, 10, PARETO_12, 44)
    values = [log_partition(field, b) for b in (0.0, 0.2, 0.5, 1.0, 2.5)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_holder_three_part_bound():
    # log Z at coupling b is at most the mean of the three filtered
    # log Z at coupling 3b, the filters cutting the 3b*w axis at 1 and T
    for seed in (1, 2, 3):
        field = sample_field(30, 12, PARETO_08, seed)
        for beta, thr in ((0.4, 2.0), (1.1, 3.5)):
            lhs = log_partition(field, beta)
            parts = [
                log_partition(field, 3 * beta, PathConstraint(weight_filter=filter_above(thr))),
                log_partition(field, 3 * beta, PathConstraint(weight_filter=filter_between(1.0, thr))),
                log_partition(field, 3 * beta, PathConstraint(weight_filter=filter_atmost_one())),
            ]
            assert lhs <= sum(parts) / 3.0 + 1e-10


# ---------------------------------------------------------------------------
# Band probabilities
# ---------------------------------------------------------------------------


def test_band_probability_partition_of_unity():
    field = sample_field(12, 12, PARETO_12, 55)
    cuts = [0, 2, 5, 9, 13]
    total = sum(
        gibbs_band_probability(field, 0.9, a, b) for a, b in zip(cuts, cuts[1:])
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_band_probability_trivial_cases():
    field = sample_field(2, 2, PARETO_12, 56)
    # the walk peak after 2 steps is 1 or 2, never below 1
    assert gibbs_band_probability(field, 1.3, 0, 1) == 0.0
    assert gibbs_band_probability(field, 1.3, 1, 3) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        gibbs_band_probability(field, 1.3, 2, 2)


def test_band_probability_matches_enumeration():
    field = sample_field(10, 10, PARETO_08, 57)
    for (a, b) in ((0, 3), (3, 7), (2, 11)):
        want = math.exp(
            enum_log_partition(field, 1.4, PathConstraint(band_window=(a, b)))
            - enum_log_partition(field, 1.4)
        )
        assert gibbs_band_probability(field, 1.4, a, b) == pytest.approx(want, rel=1e-11)


def test_band_probabilities_equal_separate_passes_bitwise():
    # the batched pass against one FREE and one window pass per window,
    # each at its own width; mixed upper ends need the per-window reset
    windows = [
        (0, 31), (0, 1), (4, 31), (4, 9), (11, 31), (2, 12), (30, 31), (7, 8),
    ]
    for h in (0, 6, 30, 45):  # band > h for every window reaching past h
        field = sample_field(30, h, PARETO_08, 58 + h)
        for beta in (0.05, 1.1, 3e4):
            log_free = log_partition(field, beta)
            # the whole range admits every path: the FREE pass, bit for bit
            assert log_partition(field, beta, PathConstraint(band_window=(0, 31))) == log_free
            want = []
            for a, b in windows:
                log_win = log_partition(field, beta, PathConstraint(band_window=(a, b)))
                want.append(0.0 if log_win == -np.inf else min(1.0, math.exp(log_win - log_free)))
            log_z, probs = gibbs_band_probabilities(field, beta, windows)
            assert probs == want
            assert log_z == log_free  # the batch's FREE log Z, bit for bit
            assert [gibbs_band_probability(field, beta, a, b) for a, b in windows] == want
    field = sample_field(30, 6, PARETO_08, 58)
    assert gibbs_band_probabilities(field, 0.5, []) == (log_partition(field, 0.5), [])
    for bad in ((31, 32), (3, 3), (0, 32)):  # lo > n, empty, past n + 1
        with pytest.raises(ValueError):
            gibbs_band_probabilities(field, 0.5, [(0, 31), bad])
        with pytest.raises(ValueError):
            gibbs_band_probability(field, 0.5, *bad)
    with pytest.raises(ValueError, match="need beta >= 0"):
        gibbs_band_probabilities(field, -0.5, [(0, 31)])


class _Recorder:
    """numpy for ``polymer``, recording the arguments of each call to ``name``."""

    def __init__(self, name):
        self.name, self.calls = name, []

    def __getattr__(self, attr):
        func = getattr(np, attr)
        if attr != self.name:
            return func

        def record(*args, **kwargs):
            self.calls.append((args, kwargs))
            return func(*args, **kwargs)

        return record


_LogaddexpRecorder = functools.partial(_Recorder, "logaddexp")


@pytest.mark.parametrize("count", [1, 3, 5])
def test_window_pass_steps_every_layer_as_one_block(count, monkeypatch):
    # site-major buffers: one logaddexp per step over a C-contiguous
    # block of all window layers, whatever the window count
    n = 40
    field = sample_field(n, n, PARETO_08, 59)
    windows = [(0, n), (4, n), (9, 20), (0, 7), (13, n)][:count]
    recorder = _LogaddexpRecorder()
    monkeypatch.setattr(polymer, "np", recorder)
    polymer._transfer(field.weights, n, 0.7, WeightFilter(), 0.0, n, windows)
    steps = [(args, kwargs["out"]) for args, kwargs in recorder.calls if "out" in kwargs]
    assert len(steps) == n
    for args, out in steps:
        assert all(a.flags.c_contiguous for a in (*args, out))


@pytest.mark.parametrize("case", ["band<h", "between", "negative", "backward"])
def test_transfer_across_energy_blocks_matches_full_rows(case):
    # n > 2 * _ENERGY_ROWS, so every step of a pass reads energies from
    # one of three row blocks, the last one partial: each step's sites
    # (backward: each stored log B_i) are the full-row recursion's bytes
    from test_properties import full_row_transfer  # the full-row oracle

    n = 2 * polymer._ENERGY_ROWS + 9
    h, half_width, beta, filt, windows = {
        "band<h": (n + 4, 7, 0.6, WeightFilter(), []),
        "between": (n, n, 0.6, filter_between(0.5, 3.0), [(0, n), (3, 9), (12, n)]),
        "negative": (12, n, -0.7, filter_atmost_one(), []),
        "backward": (12, n, 0.6, WeightFilter(), []),
    }[case]
    field = sample_field(n, h, PARETO_08, 61)
    if case == "backward":  # gibbs_site_marginals' pass
        want = full_row_transfer(field.weights, h, beta, filt, 0.0, half_width, [], backward=True)
        store = np.full((n, 2 * half_width + 1), -np.inf)
        polymer._transfer(field.weights, h, beta, filt, 0.0, half_width, store=store,
                          backward=True)
        assert store[: n - 1].tobytes() == want[:, 0].tobytes()
        return
    want = full_row_transfer(field.weights, h, beta, filt, 0.25, half_width, windows)
    reach = reaches(n, half_width).tolist()
    for i in range(1, n + 1):
        r = reach[i]
        sites = want[i - 1][..., half_width - r : half_width + r + 1 : 2]
        got_r, got = polymer._transfer(field.weights[:i], h, beta, filt, 0.25, half_width,
                                       windows)
        assert got_r == r and got.tobytes() == np.ascontiguousarray(sites).tobytes(), i


@pytest.mark.parametrize("n", [1, 16, 17, 40])
def test_forward_pass_forms_energies_once_per_row_block(n, monkeypatch):
    # beta * weights and the filter run once per block of _ENERGY_ROWS
    # field rows, never once per step
    field = sample_field(n, n, PARETO_08, 62)
    filt = filter_between(0.5, 3.0)
    applied, apply = [], WeightFilter.apply
    recorder = _Recorder("multiply")
    monkeypatch.setattr(polymer, "np", recorder)
    monkeypatch.setattr(WeightFilter, "apply", lambda self, e: applied.append(e) or apply(self, e))
    polymer._transfer(field.weights, n, 0.7, filt, 0.0, n)
    blocks = -(-n // polymer._ENERGY_ROWS)
    assert 1 <= len(recorder.calls) <= blocks and len(applied) == len(recorder.calls)
    assert all(args[0] == 0.7 and len(args[1]) <= polymer._ENERGY_ROWS
               for args, _ in recorder.calls)


def test_logsumexp_equals_scipy_bitwise():
    # the numpy log-sum against scipy's on seeded rows of wide scales,
    # -inf entries, ties at the max, single elements and all -inf, then
    # on the -inf rows _logsumexp pads a pass's sites into
    rng = np.random.default_rng(20260)
    rows = [np.array([3.5]), np.array([-np.inf]), np.full(7, -np.inf), np.full(6, 1e300),
            np.array([0.0, -np.inf, 0.0]), np.array([-745.0, -745.0, -1e308])]
    for _ in range(2000):
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), int(rng.integers(1, 200)))
        kind = rng.integers(4)
        if kind == 1:
            a[rng.random(a.size) < 0.5] = -np.inf
        elif kind == 2:
            a[rng.integers(0, a.size, 3)] = a.max()
        elif kind == 3:
            a = np.round(a)  # many ties, the max's among them
        rows.append(a)
    got = [polymer.logsumexp(a) for a in rows]
    assert got == [float(logsumexp(a)) for a in rows]
    assert all(type(v) is float for v in got)
    for half_width in (0, 1, 2, 9, 40):
        for r in range(min(half_width, 12) + 1):
            sites = rng.normal(0.0, 50.0, r + 1)
            sites[rng.random(r + 1) < 0.3] = -np.inf
            row = np.full(2 * half_width + 1, -np.inf)
            polymer._scatter(row, sites, r)
            assert polymer._logsumexp(sites, r, half_width) == float(logsumexp(row))


def test_kernel_grid_cache_is_bounded():
    kernel_grid.cache_clear()
    bound = kernel_grid.cache_info().maxsize
    assert bound == 4
    grids = [kernel_grid(9, w) for w in range(bound + 3)]
    assert kernel_grid.cache_info().currsize == bound
    hit = kernel_grid(9, bound + 2)
    assert hit is grids[-1]
    assert kernel_grid.cache_info().hits == 1
    assert not hit.flags.writeable
    # the least recently used entry went first: (9, 0) is built again
    again = kernel_grid(9, 0)
    assert again is not grids[0] and np.array_equal(again, grids[0])
    assert kernel_grid.cache_info() == (1, bound + 4, bound, bound)


# ---------------------------------------------------------------------------
# Gibbs marginals
# ---------------------------------------------------------------------------


def test_site_marginals_match_enumeration():
    field = sample_field(7, 7, PARETO_12, 60)
    want = enum_site_marginals(field, 1.1)
    got = gibbs_site_marginals(field, 1.1)
    assert np.allclose(got, want, atol=1e-13)
    assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Truncated-environment expansion
# ---------------------------------------------------------------------------


def test_log_mgf_truncated_pareto_oracle():
    # independent route: integrate the density alpha*x^(-alpha-1) directly
    tail = PARETO_12
    t, cut = 0.4, 9.0
    dens, _ = integrate.quad(
        lambda x: math.exp(t * x) * 1.2 * x**-2.2, 1.0, cut, epsabs=1e-13, epsrel=1e-12
    )
    want = math.log(dens + cut**-1.2)
    assert log_mgf_truncated(tail, t, cut) == pytest.approx(want, abs=1e-10)


def test_log_mgf_truncated_edges():
    assert log_mgf_truncated(PARETO_12, 0.0, 5.0) == 0.0
    # cutoff below the support edge truncates everything to zero
    assert log_mgf_truncated(PARETO_12, 1.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        log_mgf_truncated(PARETO_12, -0.3, 5.0)


def test_log_mgf_truncated_large_argument():
    # shifted form must agree with a direct high-precision density integral
    tail = PARETO_15
    t, cut = 2.0, 40.0
    dens, _ = integrate.quad(
        lambda x: math.exp(t * (x - cut)) * 1.5 * x**-2.5,
        1.0,
        cut,
        epsabs=1e-15,
        epsrel=1e-13,
        limit=400,
    )
    want = t * cut + math.log(dens + cut**-1.5 * math.exp(-t * cut))
    assert log_mgf_truncated(tail, t, cut) == pytest.approx(want, rel=1e-9)


def test_log_mgf_monotone_in_cutoff():
    vals = [log_mgf_truncated(PARETO_08, 0.3, c) for c in (2.0, 5.0, 20.0, 100.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_weight_density_integrates_to_survival_gap():
    from polymerlab.environment import survival
    from polymerlab.polymer import weight_density

    for tail in (PARETO_15, TailParams(alpha=0.9, law="logpower", b=1.5)):
        lo = max(2.0, tail.edge)  # density jumps at the support edge
        got, _ = integrate.quad(
            lambda x: float(weight_density(tail, x)), lo, 7.0, epsabs=1e-13
        )
        want = survival(tail, lo) - survival(tail, 7.0)
        assert got == pytest.approx(want, abs=1e-10)


def test_log_mgf_against_survival_parts_route():
    # independent formula: integrate t e^{tx} S(x) by parts, benign at
    # small t*cutoff where neither route is stressed
    from polymerlab.environment import survival

    for tail in (PARETO_12, TailParams(alpha=1.2, law="logpower", b=0.5)):
        t, cut = 0.25, 8.0
        assert tail.edge < cut
        s_cut = survival(tail, cut)
        body, _ = integrate.quad(
            lambda u: math.exp(t * u) * survival(tail, u),
            tail.edge,
            cut,
            epsabs=1e-14,
            epsrel=1e-13,
            limit=300,
        )
        want = math.log(
            math.exp(t * tail.edge) - math.exp(t * cut) * s_cut + t * body + s_cut
        )
        assert log_mgf_truncated(tail, t, cut) == pytest.approx(want, abs=1e-10)


def test_log_mgf_extreme_cutoff():
    # boundary-layer route survives t*cutoff ~ 1e12 without overflow
    val = log_mgf_truncated(PARETO_12, 0.7, 1e12)
    assert val > 0.69e12
    assert math.isfinite(val)


def test_log_mgf_tiny_coupling_redoes_the_body_in_pieces():
    # one quadrature over u in [1, 1.2e7] misses the density's peak at the
    # edge and its body came back <= 0; split by factors of 2 it is found
    tail = TailParams(0.201171875)
    t = 9.856652288117412e-17
    cut = quantile(tail, 6**1.5 * math.log(6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val = log_mgf_truncated(tail, t, cut)
    assert math.isfinite(val)
    assert val == pytest.approx(t * truncated_mean_weight(tail, cut), rel=1e-4)


def pareto_log_mgf(alpha, t, cutoff):
    """log E[exp(t w 1{w <= cutoff})] for P(w > u) = u^-alpha, u >= 1, by
    the power series 1 + sum_k t^k / k! E[w^k; w <= cutoff], where
    E[w^k; w <= c] = alpha (c^(k - alpha) - 1) / (k - alpha); t cutoff <= 1."""
    terms = []
    for k in range(1, 40):
        at_cutoff = math.exp(k * math.log(t) + (k - alpha) * math.log(cutoff) - math.lgamma(k + 1))
        at_edge = math.exp(k * math.log(t) - math.lgamma(k + 1))
        terms.append(alpha / (k - alpha) * (at_cutoff - at_edge))
    return math.log1p(math.fsum(terms))


@pytest.mark.parametrize("alpha, n, power", [
    (0.75, 512, 3), (0.75, 2048, 3), (0.75, 4096, 3), (0.3, 4096, 6),
])
def test_log_mgf_truncated_matches_the_pareto_series(alpha, n, power):
    # the chaos cutoff quantile(n^(3/2) log n) at t = n^-power: the mass at
    # the support edge sits decades below the cutoff, and J is about t * mean
    tail = TailParams(alpha)
    t, cut = float(n) ** -power, quantile(tail, n**1.5 * math.log(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        got = log_mgf_truncated(tail, t, cut)
    assert got > 0.0
    assert got == pytest.approx(pareto_log_mgf(alpha, t, cut), rel=1e-9)


def test_log_mgf_truncated_at_float_extremes():
    # a cutoff 2^53 times the edge once cancelled the start of its pieces
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        got = log_mgf_truncated(PARETO_12, 1e-300, 1e300)
    assert got == pytest.approx(pareto_log_mgf(1.2, 1e-300, 1e300), rel=1e-9)


def test_chaos_identity_against_enumeration():
    # coupling kept small against the default cutoff, the regime the
    # expansion is built for
    field = sample_field(10, 10, PARETO_08, 70)
    beta, band = 0.004, 6
    terms = chaos_terms(field, beta, band)
    trunc = np.where(field.weights <= terms.cutoff, field.weights, 0.0)
    capped = sample_field(10, 10, PARETO_08, 70)  # same draw, then truncate
    assert np.array_equal(np.where(capped.weights <= terms.cutoff, capped.weights, 0.0), trunc)
    # enumerate the banded truncated partition sum by hand
    pos = all_paths(10)
    inside = np.abs(pos) <= 10
    cols = np.clip(pos, -10, 10) + 10
    w = np.where(inside, trunc[np.arange(10)[None, :], cols], 0.0)
    keep = np.abs(pos).max(axis=1) <= band
    z_trunc = float(np.exp(logsumexp(beta * w[keep].sum(axis=1)) - 10 * math.log(2)))
    lhs = z_trunc * math.exp(-10 * terms.lam)
    rhs = 1.0 + centered_first_term(terms) + terms.r_n
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_chaos_centered_term_identity():
    field = sample_field(12, 12, PARETO_12, 71)
    beta = 0.02
    terms = chaos_terms(field, beta, 8)
    trunc = np.where(field.weights <= terms.cutoff, field.weights, 0.0)
    grid = kernel_grid(12, 8)
    box = trunc[:, 12 - 8 : 12 + 8 + 1]
    direct = float(np.sum(np.expm1(beta * box - terms.lam) * grid))
    assert centered_first_term(terms) == pytest.approx(direct, abs=1e-13)


def test_chaos_overflow_at_unreachable_site_is_ignored():
    # a weight of the wrong parity carries no kernel mass; its expm1
    # overflows at beta 20 and must not turn v_n into inf * 0 = nan
    weights = np.ones((6, 13))
    weights[0, 6] = 50.0  # (i=1, x=0)
    field = DisorderField(6, 6, PARETO_15, 0, weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and it is silent
        for beta in (10.0, 20.0):
            v_n = chaos_terms(field, beta, band=6, cutoff=100.0).v_n
            assert v_n == pytest.approx(6.0 * math.expm1(beta), rel=1e-12)


def test_chaos_overflow_at_reachable_site_warns():
    weights = np.ones((6, 13))
    weights[0, 7] = 50.0  # (i=1, x=1) carries kernel mass 1/2
    field = DisorderField(6, 6, PARETO_15, 0, weights)
    with pytest.warns(RuntimeWarning, match="overflow"):
        v_n = chaos_terms(field, 20.0, band=6, cutoff=100.0).v_n
    assert v_n == math.inf


def test_negative_band_and_half_width_rejected():
    field = sample_field(8, 8, PARETO_12, 72)
    with pytest.raises(ValueError, match="band must be >= 0"):
        chaos_terms(field, 0.5, -1)
    kernel_grid.cache_clear()
    for _ in range(2):  # the error is raised again, never cached
        with pytest.raises(ValueError, match="half_width must be >= 0"):
            kernel_grid(8, -1)
    assert kernel_grid.cache_info()[1:] == (2, 4, 0)


def test_chaos_beta_zero_full_band():
    field = sample_field(8, 8, PARETO_12, 72)
    terms = chaos_terms(field, 0.0, 8)
    assert terms.v_n == 0.0
    assert terms.w_n == 0.0
    assert terms.lam == 0.0
    assert terms.r_n == pytest.approx(0.0, abs=1e-12)


def test_chaos_single_step():
    field = sample_field(1, 1, PARETO_12, 73)
    beta = 0.7
    terms = chaos_terms(field, beta, 1, cutoff=1e12)
    w_left = field.weight_at(1, -1)
    w_right = field.weight_at(1, 1)
    want = 0.5 * (math.expm1(beta * w_left) + math.expm1(beta * w_right))
    assert terms.v_n == pytest.approx(want, rel=1e-14)


def test_chaos_band_exceeding_box_rejected():
    field = sample_field(6, 3, PARETO_12, 74)
    with pytest.raises(ValueError):
        chaos_terms(field, 0.5, 4)


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_chaos_v_n_alone_at_an_unreachable_overflow():
    # the overflow case above: v_n alone has the full terms' bits, silently
    weights = np.ones((6, 13))
    weights[0, 6] = 50.0  # (i=1, x=0), wrong parity
    field = DisorderField(6, 6, PARETO_15, 0, weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (10.0, 20.0):
            alone = chaos_v_n(field, beta, band=6, cutoff=100.0)
            assert bits(alone) == bits(chaos_terms(field, beta, band=6, cutoff=100.0).v_n)
            assert math.isfinite(alone)


@pytest.mark.parametrize("case", [
    (sample_field(8, 8, PARETO_12, 72), 0.5, -1),  # negative band
    (sample_field(6, 3, PARETO_12, 74), 0.5, 4),  # band beyond the box
    (sample_field(8, 8, PARETO_12, 72), -0.5, 4),  # negative coupling
    (sample_field(1, 1, PARETO_12, 73), 0.5, 1),  # no default cutoff at n = 1
])
def test_chaos_v_n_raises_as_chaos_terms_does(case):
    with pytest.raises(ValueError) as full:
        chaos_terms(*case)
    with pytest.raises(ValueError) as alone:
        chaos_v_n(*case)
    assert str(alone.value) == str(full.value)


def test_chaos_v_n_holds_one_box_sized_temporary():
    # the band box (here the whole box) is copied once and truncated,
    # multiplied by beta, passed through expm1 and multiplied by the
    # kernel grid in that copy: beyond it, only the truncation mask (an
    # eighth of it) is box-sized
    field = sample_field(256, 64, PARETO_12, 76)
    kernel_grid(256, 64)  # the cached grid is built once per process, not per call
    tracemalloc.start()
    try:
        chaos_v_n(field, 0.01, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * field.weights.nbytes


def test_chaos_v_n_runs_no_quadrature(monkeypatch):
    def refuse(*args):
        raise RuntimeError("log_mgf_truncated called")

    monkeypatch.setattr(polymer, "log_mgf_truncated", refuse)
    field = sample_field(32, 12, PARETO_08, 75)
    assert math.isfinite(chaos_v_n(field, 0.01, 12))
    with pytest.raises(RuntimeError, match="log_mgf_truncated called"):
        chaos_terms(field, 0.01, 12)


# ---------------------------------------------------------------------------
# Heavy-site decomposition
# ---------------------------------------------------------------------------


def test_heavy_sites_none():
    field = sample_field(8, 8, PARETO_12, 80)
    dec = heavy_site_decomposition(field, beta=1e-9)
    assert dec.sites == []
    assert not dec.capped
    assert dec.u.tolist() == [1.0]
    assert dec.u_minus.tolist() == [0.0]


def test_heavy_sites_single_site_oracle():
    field = sample_field(6, 6, PARETO_12, 81)
    (i1, x1, w1), (_, _, w2) = top_sites(field, 2).tolist()
    i1, x1 = int(i1), int(x1)
    beta = 2.0 / (w1 + w2)  # exactly one site has beta*w > 1
    dec = heavy_site_decomposition(field, beta)
    assert len(dec.sites) == 1
    assert dec.sites[0][:2] == (i1, x1)
    p = walk_kernel(i1, x1)
    assert dec.u[0] == pytest.approx(1.0 - p, rel=1e-13)
    assert dec.u[1] == pytest.approx(math.exp(beta * w1) * p, rel=1e-13)
    assert dec.u_minus[1] == pytest.approx(math.expm1(beta * w1) * p, rel=1e-13)


@pytest.mark.parametrize("k_heavy,seed", [(2, 82), (4, 83), (6, 84)])
def test_heavy_sites_sum_identities(k_heavy, seed):
    field = sample_field(9, 9, PARETO_08, seed)
    w_k, w_next = top_sites(field, k_heavy + 1)[k_heavy - 1 :, 2]
    assert w_k > w_next  # distinct weights, the coupling below is safe
    beta = 2.0 / (w_k + w_next)
    dec = heavy_site_decomposition(field, beta)
    assert len(dec.sites) == k_heavy
    assert not dec.capped
    z_above = math.exp(
        enum_log_partition(field, beta, PathConstraint(weight_filter=filter_above(1.0)))
    )
    assert dec.u.sum() == pytest.approx(z_above, rel=1e-9)
    assert dec.u_minus[1:].sum() == pytest.approx(z_above - 1.0, rel=1e-9, abs=1e-12)
    assert dec.u_minus[0] == 0.0


def test_heavy_sites_cap():
    field = sample_field(9, 9, PARETO_08, 85)
    full = heavy_site_decomposition(field, beta=5.0, ell=20)
    assert len(full.sites) >= 4
    capped = heavy_site_decomposition(field, beta=5.0, ell=2)
    assert capped.capped
    assert len(capped.sites) == 2
    top = sorted(w for _, _, w in full.sites)[-2:]
    assert sorted(w for _, _, w in capped.sites) == pytest.approx(top)


def test_heavy_sites_capped_at_ell_zero():
    # an empty selection still reports the heavy sites it left out
    field = sample_field(9, 9, PARETO_08, 85)
    dec = heavy_site_decomposition(field, beta=5.0, ell=0)
    assert dec.sites == [] and dec.capped
    assert heavy_site_decomposition(field, beta=5.0, ell=1).capped
    assert not heavy_site_decomposition(field, beta=1e-9, ell=0).capped


def test_heavy_sites_ell_limit():
    field = sample_field(6, 6, PARETO_12, 86)
    with pytest.raises(ValueError):
        heavy_site_decomposition(field, 1.0, ell=21)


def mask_heavy_sites(field, beta, band, ell):
    """Oracle: the selection heavy_site_decomposition made with a reach
    mask over the whole box and one lexsort of the heavy sites."""
    n, h = field.n, field.h
    cap = h if band is None else min(band, h)
    i_grid = np.arange(1, n + 1)[:, None]
    x_grid = np.arange(-h, h + 1)[None, :]
    reach = (
        (np.abs(x_grid) <= np.minimum(i_grid, cap))
        & ((i_grid + x_grid) % 2 == 0)
        & (beta * field.weights > 1.0)
    )
    ii, xx = np.nonzero(reach)
    ws = field.weights[ii, xx]
    capped = ws.size > ell
    order = np.lexsort((xx, ii, -ws))[:ell]
    sites = sorted(
        (int(i) + 1, int(x) - h, float(w)) for i, x, w in zip(ii[order], xx[order], ws[order])
    )
    return sites, capped


def test_heavy_sites_match_mask_selection():
    for n in range(1, 10):
        for h in sorted({0, 2, n}):
            sampled = sample_field(n, h, PARETO_08, 600 + 10 * n + h)
            ties = DisorderField(
                n=n, h=h, tail=PARETO_08, seed=0, weights=np.full((n, 2 * h + 1), 4.0)
            )
            for field in (sampled, ties):
                for beta in (0.0, 0.3, 1.0, 5.0):
                    for band in (None, 0, 1, h + 2):
                        for ell in (0, 1, 3, 6):
                            dec = heavy_site_decomposition(field, beta, band, ell)
                            assert (dec.sites, dec.capped) == mask_heavy_sites(
                                field, beta, band, ell
                            ), (n, h, beta, band, ell)


@pytest.mark.parametrize("band", [64, 17])
def test_chaos_v_n_sums_in_a_given_box(band):
    # the campaign's route: the band box held in a writable array (at
    # band = h the draw buffer itself) is summed in place and overwritten,
    # with the bits of the copying call and no box-sized temporary beside it
    field = sample_field(256, 64, PARETO_12, 77)
    h = field.h
    kernel_grid(256, band)
    box = field.weights[:, h - band : h + band + 1].copy()
    before = box.copy()
    tracemalloc.start()
    try:
        in_place = chaos_v_n(field, 0.01, band, box=box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits(in_place) == bits(chaos_v_n(field, 0.01, band))
    assert bits(in_place) == bits(chaos_terms(field, 0.01, band).v_n)
    assert not np.array_equal(box, before)
    assert peak <= 0.25 * box.nbytes  # the truncation mask, an eighth of it
