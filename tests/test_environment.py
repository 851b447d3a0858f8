"""Tests for the disorder environment: law, sampling, ordered statistics."""

import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

from polymerlab import environment as env
from polymerlab.polymer import heavy_site_decomposition

# Frozen oracle values, computed from the closed formulas independently of
# the module (see the inline derivations next to each use).
SURVIVAL_LOGPOWER_E2 = 0.8510014168875114  # log(e+e^2) * e^-1
EDGE_LOGPOWER_HALF = 3.10288452752663  # root of log(e+x) = sqrt(x)
TRUNC_MEAN_PARETO_15_T10 = 2.051316701949486  # 3 (1 - 10^-0.5)


def pareto(alpha, c=1.0):
    return env.TailParams(alpha=alpha, law=env.LAW_CONSTANT, c=c)


def logpow(alpha, b=1.0):
    return env.TailParams(alpha=alpha, law=env.LAW_LOGPOWER, b=b)


# ---------------------------------------------------------------------------
# Law
# ---------------------------------------------------------------------------


def test_survival_pareto_values():
    assert env.survival(pareto(2.0), 4.0) == pytest.approx(1.0 / 16.0, rel=1e-15)
    # left of support: clamped at 1
    assert env.survival(pareto(1.0), 0.5) == 1.0


def test_survival_domain():
    with pytest.raises(ValueError):
        env.survival(pareto(1.0), 0.0)
    with pytest.raises(ValueError):
        env.survival(pareto(1.0), -3.0)


def test_survival_logpower_frozen():
    s = env.survival(logpow(0.5, b=1.0), np.e**2)
    assert s == pytest.approx(SURVIVAL_LOGPOWER_E2, rel=1e-12)


def test_survival_logpower_empirical_cdf():
    # 1e6 samples; binomial sigma at p ~ 0.851 is ~3.6e-4.
    tail = logpow(0.5, b=1.0)
    f = env.sample_field(1000, 499, tail, seed=20260818)
    p_hat = np.mean(f.weights > np.e**2)
    sigma = np.sqrt(SURVIVAL_LOGPOWER_E2 * (1 - SURVIVAL_LOGPOWER_E2) / f.weights.size)
    assert abs(p_hat - SURVIVAL_LOGPOWER_E2) < 4 * sigma


def test_edge_logpower_frozen():
    assert logpow(0.5, b=1.0).edge == pytest.approx(EDGE_LOGPOWER_HALF, rel=1e-10)


def test_tailparams_validation():
    with pytest.raises(ValueError):
        env.TailParams(alpha=0.0)
    with pytest.raises(ValueError):
        env.TailParams(alpha=2.5)
    with pytest.raises(ValueError):
        env.TailParams(alpha=1.0, law="cauchy")
    # Large b pushes the support edge past the survival's hump, so the law
    # stays nonincreasing on its support and must construct fine.
    t = env.TailParams(alpha=0.3, law=env.LAW_LOGPOWER, b=4.0)
    assert t.edge > 1e3


def test_log_power_is_b_only_for_the_logpower_law():
    assert logpow(0.5, b=1.5).log_power == 1.5
    assert env.TailParams(alpha=1.2, b=1.5).log_power == 0.0  # b unused by a constant L
    with pytest.raises(AttributeError):
        env.TailParams(alpha=1.2).log_power = 1.0


def test_quantile_pareto_closed_form():
    assert env.quantile(pareto(2.0), 16.0) == pytest.approx(4.0, rel=1e-15)
    assert env.quantile(pareto(1.0), 1000.0) == pytest.approx(1000.0, rel=1e-15)


def test_quantile_survival_inverse_pareto():
    tail = pareto(0.7, c=2.0)
    for x in (1.5, 2.0, 10.0, 1e4, 1e8):
        assert env.survival(tail, env.quantile(tail, x)) == pytest.approx(
            1.0 / x, rel=5e-15
        )


def test_quantile_logpower_residual():
    tail = logpow(0.75, b=1.0)
    m = env.quantile(tail, 1e6)
    assert abs(env.survival(tail, m) * 1e6 - 1.0) <= 1e-9


def test_quantile_domain():
    with pytest.raises(ValueError):
        env.quantile(pareto(1.0), 1.0)


def test_monotonicity_grids():
    tail = logpow(1.2, b=2.0)
    xs = np.logspace(np.log10(tail.edge), 10, 200)
    s = env.survival(tail, xs)
    assert np.all(np.diff(s) <= 1e-12)
    qs = env.quantile(tail, np.logspace(0.01, 9, 120))
    assert np.all(np.diff(qs) >= 0.0)


def test_mean_weight():
    assert env.mean_weight(pareto(2.0)) == pytest.approx(2.0, rel=1e-12)
    assert env.mean_weight(pareto(1.5)) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        env.mean_weight(pareto(1.0))


def test_truncated_mean_pareto_frozen():
    tail = pareto(1.5)
    got = env.truncated_mean_weight(tail, 10.0)
    assert got == pytest.approx(TRUNC_MEAN_PARETO_15_T10, rel=1e-12)
    # cutoff below the support edge: nothing collected
    assert env.truncated_mean_weight(tail, 0.5) == 0.0
    # alpha = 1 log form: E[w 1{w<=T}] = log T for c = 1
    assert env.truncated_mean_weight(pareto(1.0), 50.0) == pytest.approx(
        np.log(50.0), rel=1e-12
    )


def test_truncated_mean_logpower_matches_quadrature_of_density():
    # Independent route: integrate u * (-dS/du) numerically via the
    # survival-parts identity on a fine grid.
    tail = logpow(1.1, b=1.0)
    T = 40.0
    grid = np.linspace(tail.edge, T, 400001)
    s = env.survival(tail, grid)
    body = np.trapezoid(s, grid)
    expected = tail.edge + body - T * env.survival(tail, T)
    assert env.truncated_mean_weight(tail, T) == pytest.approx(expected, rel=1e-7)


# ---------------------------------------------------------------------------
# Field sampling
# ---------------------------------------------------------------------------


def test_single_draw_matches_documented_stream():
    # Reconstruct the one weight of a 1 x {0} box straight from the
    # documented PRNG layout.
    seed, alpha = 42, 1.3
    f = env.sample_field(1, 0, pareto(alpha), seed)
    gen = Generator(Philox(key=(seed << 64) | 1))
    gen.bit_generator.advance((1 << 32) // 4)
    u = gen.random(1)[0]
    expected = (1.0 / (1.0 - u)) ** (1.0 / alpha)
    assert f.weight_at(1, 0) == expected


def test_field_rows_match_documented_stream():
    # every row rebuilt from its own generator, keyed and advanced as the
    # module docstring lays out; h mod 4 covers every offset within a
    # Philox block, and the seeds use the top bit of the key's high word
    alpha = 0.9
    for seed in (0, 3, (1 << 63) + 5, (1 << 64) - 1):
        for h in (0, 1, 2, 3, 4, 7):
            rows = []
            for i in range(1, 6):
                gen = Generator(Philox(key=(seed << 64) | i))
                start = (1 << 32) - h
                gen.bit_generator.advance(start // 4)
                gen.random(start % 4)
                rows.append(gen.random(2 * h + 1))
            expected = (1.0 / (1.0 - np.stack(rows))) ** (1.0 / alpha)
            got = env.sample_field(5, h, pareto(alpha), seed).weights
            assert np.array_equal(got, expected), (seed, h)


def test_draws_into_a_reused_buffer_equal_sample_field():
    # two seeds back to back into one buffer: the second draw is
    # sample_field's, so no re-keying state leaks between calls; h mod 4
    # covers every offset in a Philox block, one seed sets the top bit
    tail = pareto(0.9)
    for h in (4, 5, 6, 7):
        buf = np.empty((9, 2 * h + 1))
        for seed in ((1 << 63) + 11, 12):
            assert env._draw_field(buf, tail, seed).weights is buf
            assert buf.tobytes() == env.sample_field(9, h, tail, seed).weights.tobytes(), (h, seed)


def test_reachable_count_matches_mask():
    # independent oracle, the direct formula: step i holds the x of i's
    # parity with |x| <= i; h = 0, h = n and h > n all come up
    for n in range(1, 41):
        i = np.arange(1, n + 1)[:, None]
        for h in range(n + 4):
            x = np.arange(-h, h + 1)
            want = (i % 2 == x % 2) & (np.abs(x) <= i)
            assert np.array_equal(env.reachable_mask(n, h), want), (n, h)
            assert env.reachable_count(n, h) == int(want.sum()), (n, h)
            reach = env.reaches(n, h)
            assert reach.dtype == np.int64 and reach.tolist()[0] == 0, (n, h)
            for row, r in zip(want, reach[1:].tolist()):
                assert x[row].tolist() == list(range(-r, r + 1, 2)), (n, h)


def test_field_support_bound():
    for tail in (pareto(0.8), logpow(0.6, b=1.0)):
        f = env.sample_field(40, 12, tail, seed=7)
        assert np.all(f.weights >= tail.edge * (1 - 1e-15))
        assert np.all(np.isfinite(f.weights))


def test_field_deterministic():
    a = env.sample_field(30, 9, pareto(1.1), seed=303)
    b = env.sample_field(30, 9, pareto(1.1), seed=303)
    assert np.array_equal(a.weights, b.weights)
    c = env.sample_field(30, 9, pareto(1.1), seed=304)
    assert not np.array_equal(a.weights, c.weights)


def test_nested_fields_share_weights():
    small = env.sample_field(20, 5, pareto(0.9), seed=11)
    big = env.sample_field(35, 9, pareto(0.9), seed=11)
    # overlap: rows 1..20, columns -5..5 sit at offset 4 in the big box
    assert np.array_equal(big.weights[:20, 4:15], small.weights)


def test_field_binomial_tail_rate():
    tail = pareto(1.0)
    f = env.sample_field(500, 50, tail, seed=5150)
    thr = env.quantile(tail, 100.0)
    p_hat = np.mean(f.weights > thr)
    sigma = np.sqrt(0.01 * 0.99 / f.weights.size)
    assert abs(p_hat - 0.01) < 3 * sigma


def test_field_readonly_and_domain():
    f = env.sample_field(3, 2, pareto(1.0), seed=1)
    with pytest.raises(ValueError):
        f.weights[0, 0] = 5.0
    with pytest.raises(ValueError):
        env.sample_field(0, 2, pareto(1.0), seed=1)
    with pytest.raises(ValueError):
        env.sample_field(3, -1, pareto(1.0), seed=1)
    with pytest.raises(ValueError):
        env.sample_field(3, 2, pareto(1.0), seed=1 << 64)


@pytest.mark.parametrize("alpha", [0.75, 1.0, 2.0])
def test_closed_form_field_is_drawn_in_one_box(alpha):
    # the uniforms become the weights in place: 1 - u, c / p and the
    # power are never box-sized arrays of their own
    tracemalloc.start()
    try:
        f = env.sample_field(256, 256, pareto(alpha), seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * f.weights.nbytes


def test_logpower_field_is_bisected_in_blocks():
    # besides the field, the bisection of one block of B entries holds
    # target, lo and mid, at most three temporaries of _raw_survival (numpy
    # elides no temporary this small) and the previous step's bool mask:
    # 6 float and 1 bool arrays of B entries; 64 KiB covers everything
    # that is not an array (the Philox state, the generator, frames)
    block = env._BISECT_BLOCK
    tracemalloc.start()
    try:
        f = env.sample_field(256, 256, env.TailParams(1.0, law="logpower"), seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.weights.size > 4 * block
    assert peak <= f.weights.nbytes + (6 * 8 + 1) * block + 64 * 1024


# ---------------------------------------------------------------------------
# Ordered statistics
# ---------------------------------------------------------------------------


def test_ordered_statistics_full_sort_oracle():
    f = env.sample_field(25, 7, pareto(1.2), seed=99)
    st = env.ordered_statistics(f, 5)
    full = np.sort(f.weights.ravel())[::-1]
    assert np.array_equal(st[:, 2], full[:5])
    for i, x, w in st:
        assert f.weight_at(int(i), int(x)) == w


def test_ordered_statistics_prefix_property():
    f = env.sample_field(18, 6, pareto(0.7), seed=123)
    prev = env.ordered_statistics(f, 1)
    for ell in range(2, 12):
        cur = env.ordered_statistics(f, ell)
        assert np.array_equal(cur[: ell - 1], prev)
        prev = cur


def test_ordered_statistics_full_box():
    f = env.sample_field(6, 3, pareto(1.0), seed=8)
    st = env.ordered_statistics(f, f.weights.size)
    assert np.array_equal(st[:, 2], np.sort(f.weights.ravel())[::-1])
    assert st.shape == (f.weights.size, 3)


def test_ordered_statistics_tie_rule():
    tail = pareto(1.0)
    w = np.full((2, 3), 5.0)
    w[1, 1] = 1.0
    f = env.DisorderField(n=2, h=1, tail=tail, seed=0, weights=w)
    st = env.ordered_statistics(f, 3)
    # five sites tie at 5.0; lexicographic (i, x) picks row 1 first
    assert st.tolist() == [[1, -1, 5.0], [1, 0, 5.0], [1, 1, 5.0]]


def test_top_sites_skips_unreachable():
    tail = pareto(1.0)
    w = np.zeros((2, 5)) + 1.0
    w[0, 0] = 9.0  # (i=1, x=-2): |x| > i, unreachable
    w[0, 1] = 8.0  # (i=1, x=-1): reachable
    w[1, 2] = 7.0  # (i=2, x=0): reachable
    w[0, 2] = 6.5  # (i=1, x=0): wrong parity
    f = env.DisorderField(n=2, h=2, tail=tail, seed=0, weights=w)
    st = env.top_sites(f, 2)
    assert st.tolist() == [[1, -1, 8.0], [2, 0, 7.0]]


def test_ordered_statistics_domain():
    f = env.sample_field(3, 1, pareto(1.0), seed=2)
    with pytest.raises(ValueError):
        env.ordered_statistics(f, 0)
    with pytest.raises(ValueError):
        env.ordered_statistics(f, 10)


def mask_top_sites(field, ell, band=None):
    """Oracle: the reachable-mask selection top_sites replaced.  The sites
    of reachable_mask inside |x| <= band are ranked by (-w, i, x) with one
    lexsort over the candidates at or above the ell-th weight."""
    n, h = field.n, field.h
    cap = h if band is None else min(band, h)
    mask = env.reachable_mask(n, h) & (np.abs(np.arange(-h, h + 1)) <= cap)
    flat_idx = np.flatnonzero(mask.ravel())
    flat_w = field.weights.ravel()[flat_idx]
    total = flat_w.shape[0]
    if not 1 <= ell <= total:
        raise ValueError(f"ell must be in [1, {total}], got {ell}")
    if ell < total:
        part = np.argpartition(flat_w, total - ell)[total - ell :]
        cand = np.flatnonzero(flat_w >= flat_w[part].min())
    else:
        cand = np.arange(total)
    rows = flat_idx[cand] // (2 * h + 1) + 1
    cols = flat_idx[cand] % (2 * h + 1) - h
    order = np.lexsort((cols, rows, -flat_w[cand]))[:ell]
    return np.column_stack((rows[order], cols[order], flat_w[cand][order]))


def test_top_sites_equals_mask_selection_bitwise():
    checked = 0
    for n in range(1, 18):
        for h in sorted({0, 1, 2, n - 1, n, n + 2}):
            if h < 0:
                continue
            sampled = env.sample_field(n, h, pareto(0.9), seed=17 * n + h)
            ties = env.DisorderField(
                n=n, h=h, tail=pareto(1.0), seed=0, weights=np.full((n, 2 * h + 1), 3.0)
            )
            for band in (None, 0, 1, h + 3):
                count = env.reachable_count(n, h if band is None else min(band, h))
                for ell in sorted({1, 2, count}):
                    if not 1 <= ell <= count:
                        continue
                    for f in (sampled, ties):
                        got = env.top_sites(f, ell, band)
                        want = mask_top_sites(f, ell, band)
                        assert got.dtype == want.dtype == np.float64
                        assert got.shape == (ell, 3)
                        assert got.tobytes() == want.tobytes(), (n, h, band, ell)
                        checked += 1
    assert checked > 600


def test_top_sites_long_strided_blocks_equal_mask_selection_bitwise():
    # past step cap each parity's rows are one strided block of the
    # compact copy: long blocks at bands strictly between 1 and h, on a
    # sampled field and on one whose every weight ties at the boundary
    for n in (64, 65):
        for h in (5, 6):
            sampled = env.sample_field(n, h, pareto(0.9), seed=29 * n + h)
            ties = env.DisorderField(
                n=n, h=h, tail=pareto(1.0), seed=0, weights=np.full((n, 2 * h + 1), 3.0)
            )
            for band in (3, 4):
                count = env.reachable_count(n, band)
                for ell in (1, 7, count // 2, count):
                    for f in (sampled, ties):
                        got = env.top_sites(f, ell, band)
                        want = mask_top_sites(f, ell, band)
                        assert got.tobytes() == want.tobytes(), (n, h, band, ell)


class _NonzeroRecorder:
    """numpy for ``environment``, recording the ndim of each nonzero argument."""

    def __init__(self):
        self.dims = []

    def __getattr__(self, name):
        return getattr(np, name)

    def nonzero(self, a):
        self.dims.append(np.ndim(a))
        return np.nonzero(a)


def test_top_sites_takes_flat_candidates(monkeypatch):
    # the candidates come from one flatnonzero of the box, never from a
    # 2-D nonzero, whose index pair costs ten times as much
    field = env.sample_field(64, 6, pareto(0.9), seed=3)
    want = mask_top_sites(field, 9, 4)
    recorder = _NonzeroRecorder()
    monkeypatch.setattr(env, "np", recorder)
    assert env.top_sites(field, 9, 4).tobytes() == want.tobytes()
    assert 2 not in recorder.dims


def test_top_sites_domain():
    f = env.sample_field(3, 1, pareto(1.0), seed=2)
    count = env.reachable_count(3, 1)
    with pytest.raises(ValueError, match="ell must be in"):
        env.top_sites(f, 0)
    with pytest.raises(ValueError, match="ell must be in"):
        env.top_sites(f, count + 1)
    assert env.top_sites(f, count).shape == (count, 3)
    # one step, no room to move: the only site x = 0 has the wrong parity
    empty = env.sample_field(1, 0, pareto(1.0), seed=2)
    assert env.reachable_count(1, 0) == 0
    with pytest.raises(ValueError, match=r"\[1, 0\]"):
        env.top_sites(empty, 1)
    with pytest.raises(ValueError, match="band"):
        env.top_sites(f, 1, band=-1)
    # a negative cap holds no lattice: the rule, mask and count refuse it
    for h in (-1, -3):
        for refused in (env.reaches, env.reachable_mask, env.reachable_count):
            with pytest.raises(ValueError, match="band must be nonnegative"):
                refused(5, h)
    with pytest.raises(ValueError, match="band must be nonnegative"):
        heavy_site_decomposition(f, 1.0, band=-1)


def test_extreme_value_shape_smoke():
    # Scaled maxima against the heavy-tail limit exp(-u^-alpha); the full
    # pinned check at the contract scale lives in the acceptance suite.
    from scipy import stats

    tail = pareto(1.0)
    m1 = np.empty(300)
    norm = env.quantile(tail, 2 * 60 * 10)
    for r in range(300):
        f = env.sample_field(60, 10, tail, seed=60_000 + r)
        m1[r] = f.weights.max() / norm
    ks = stats.kstest(m1, lambda u: np.exp(-np.clip(u, 1e-12, None) ** -1.0))
    assert ks.statistic < 0.10
