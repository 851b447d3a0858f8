"""Transfer recursion, kernels, sampling, expansion and heavy-site tests.

The main oracle enumerates all 2^n sign paths directly and reduces with
logsumexp, so every partition value is checked against an independent
route at n <= 11.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import logsumexp

from polymerlab import polymer
from polymerlab.environment import (
    TailParams,
    ordered_statistics,
    quantile,
    sample_field,
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
    sample_gibbs_path,
    walk_kernel,
)

PARETO_12 = TailParams(alpha=1.2)
PARETO_15 = TailParams(alpha=1.5)
PARETO_08 = TailParams(alpha=0.8)


# ---------------------------------------------------------------------------
# Enumeration oracle
# ---------------------------------------------------------------------------


def all_paths(n):
    """(2^n, n) matrix of walk positions S_1..S_n."""
    m = 1 << n
    bits = (np.arange(m)[:, None] >> np.arange(n)[None, :]) & 1
    return np.cumsum(2 * bits - 1, axis=1)


def enum_log_partition(field, beta, constraint=FREE):
    """Brute-force free-endpoint partition sum over every sign path."""
    n, h = field.n, field.h
    pos = all_paths(n)
    inside = np.abs(pos) <= h
    cols = np.clip(pos, -h, h) + h
    w = np.where(inside, field.weights[np.arange(n)[None, :], cols], 0.0)
    energies = constraint.weight_filter.apply(beta * w)
    peak = np.abs(pos).max(axis=1)
    keep = np.ones(pos.shape[0], dtype=bool)
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
    pos = all_paths(n)
    inside = np.abs(pos) <= h
    cols = np.clip(pos, -h, h) + h
    w = np.where(inside, field.weights[np.arange(n)[None, :], cols], 0.0)
    gibbs = np.exp(beta * w.sum(axis=1) - logsumexp(beta * w.sum(axis=1)))
    marg = np.zeros((n, 2 * n + 1))
    for i in range(n):
        np.add.at(marg[i], pos[:, i] + n, gibbs)
    return marg


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
    for i in (999, 1000, 1001, 1500):
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
    with pytest.raises(ValueError):
        gibbs_band_probabilities(field, -0.5, [(0, 31)])


def test_kernel_grid_cache_is_bounded():
    bound = polymer._KERNEL_GRID_CACHE_SIZE
    grids = [kernel_grid(9, w) for w in range(bound + 3)]
    assert len(polymer._KERNEL_GRID_CACHE) == bound
    hit = kernel_grid(9, bound + 2)
    assert hit is grids[-1]
    assert not hit.flags.writeable
    # the least recently used entry went first
    assert (9, 0) not in polymer._KERNEL_GRID_CACHE
    assert np.array_equal(kernel_grid(9, 0), grids[0])
    assert len(polymer._KERNEL_GRID_CACHE) == bound


# ---------------------------------------------------------------------------
# Gibbs sampling and marginals
# ---------------------------------------------------------------------------


def test_site_marginals_match_enumeration():
    field = sample_field(7, 7, PARETO_12, 60)
    want = enum_site_marginals(field, 1.1)
    got = gibbs_site_marginals(field, 1.1)
    assert np.allclose(got, want, atol=1e-13)
    assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)


def test_sample_gibbs_path_deterministic():
    field = sample_field(9, 9, PARETO_12, 61)
    a = sample_gibbs_path(field, 0.8, seed=5, count=4)
    b = sample_gibbs_path(field, 0.8, seed=5, count=4)
    assert np.array_equal(a, b)
    c = sample_gibbs_path(field, 0.8, seed=6, count=4)
    assert not np.array_equal(a, c)


def test_sample_gibbs_path_is_a_walk():
    field = sample_field(14, 6, PARETO_08, 62)
    paths = sample_gibbs_path(field, 1.5, seed=7, count=50)
    steps = np.diff(paths, axis=1)
    assert np.all(np.abs(steps) == 1)
    assert np.all(np.abs(paths[:, 0]) == 1)


def test_sample_gibbs_path_frequencies():
    field = sample_field(6, 6, PARETO_12, 63)
    beta = 1.2
    reps = 20000
    paths = sample_gibbs_path(field, beta, seed=8, count=reps)
    marg = gibbs_site_marginals(field, beta)
    n = field.n
    for i in (1, 3, 6):
        freq = np.bincount(paths[:, i - 1] + n, minlength=2 * n + 1) / reps
        p = marg[i - 1]
        bound = 4.0 * np.sqrt(p * (1 - p) / reps) + 1e-9
        assert np.all(np.abs(freq - p) <= bound)


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
    stats = ordered_statistics(field, 2, reachable_only=True)
    (w1, (i1, x1)), (w2, _) = stats.entries
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
    stats = ordered_statistics(field, k_heavy + 1, reachable_only=True)
    w_k = stats.weights[k_heavy - 1]
    w_next = stats.weights[k_heavy]
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


def test_heavy_sites_ell_limit():
    field = sample_field(6, 6, PARETO_12, 86)
    with pytest.raises(ValueError):
        heavy_site_decomposition(field, 1.0, ell=21)
