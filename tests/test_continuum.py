"""Tests for Poisson point samples and continuum variational values."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from polymerlab import continuum, elpp
from polymerlab.continuum import (
    PointMax,
    chain_value,
    critical_coupling,
    heat_kernel_sum,
    lipschitz_chain_value,
    sample_heat_kernel_sum,
    sample_ppp,
    single_point_max,
)


def largest_weight_cdf(alpha, q):
    """Exact law of the largest weight: F(u) = exp(-q * u**-alpha)."""

    def cdf(u):
        u = np.asarray(u, dtype=float)
        return np.where(u > 0.0, np.exp(-q * np.maximum(u, 1e-300) ** -alpha), 0.0)

    return cdf


# ---------------------------------------------------------------------------
# sampling


def test_sample_ppp_validation():
    with pytest.raises(ValueError):
        sample_ppp(2.5, 1.0, eps=0.1)
    with pytest.raises(ValueError):
        sample_ppp(1.0, 0.0, eps=0.1)
    with pytest.raises(ValueError):
        sample_ppp(1.0, 1.0)
    with pytest.raises(ValueError):
        sample_ppp(1.0, 1.0, eps=0.1, top=5)
    with pytest.raises(ValueError):
        sample_ppp(1.0, 1.0, eps=-1.0)
    with pytest.raises(ValueError):
        sample_ppp(1.0, 1.0, top=True)
    with pytest.raises(ValueError):
        sample_ppp(1.0, 1.0, top=-2)


def test_sample_ppp_refuses_samples_over_the_cap_before_drawing():
    tracemalloc.start()
    try:
        cap = continuum.MAX_SAMPLE_POINTS
        with pytest.raises(ValueError, match="over"):
            sample_ppp(1.2, 8.0, eps=1e-300, seed=1)  # the mean overflows a float
        with pytest.raises(ValueError, match="over"):
            sample_ppp(0.75, 8.0, eps=1e-12, seed=1)  # 8e9 points
        with pytest.raises(ValueError, match="top exceeds"):
            sample_ppp(1.2, 1.0, top=cap + 1, seed=1)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # the largest floor mean a campaign default reaches stays under the cap
    assert 8.0 * 1e-3 ** -1.99 < continuum.MAX_SAMPLE_POINTS


def test_sample_ppp_refuses_weights_past_the_float_range():
    # at alpha 0.01, u**(-100) overflows in 3 of the samples at seeds 0..199 (130 first)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="alpha 0.01 draws weights past the float range"):
            sample_ppp(0.01, 8.0, eps=1.0, seed=130)
        with pytest.raises(ValueError, match="alpha 0.001"):
            sample_ppp(0.001, 8.0, top=3, seed=1)  # 8**1000 overflows on its own
        points = sample_ppp(0.01, 8.0, eps=1.0, seed=131)
    assert len(points) and np.all(np.isfinite(points))


def test_sample_ppp_infinite_floor_is_empty():
    points = sample_ppp(1.0, 1.0, eps=math.inf, seed=0)
    assert points.shape == (0, 3)


def test_sample_ppp_deterministic_per_seed():
    a = sample_ppp(0.8, 2.0, eps=0.05, seed=42)
    b = sample_ppp(0.8, 2.0, eps=0.05, seed=42)
    c = sample_ppp(0.8, 2.0, eps=0.05, seed=43)
    np.testing.assert_array_equal(a, b)
    assert a.shape != c.shape or not np.array_equal(a, c)


def test_sample_ppp_box_and_floor_respected():
    points = sample_ppp(0.9, 3.0, eps=0.2, seed=7)
    assert np.all((points[:, 0] > 0.0) & (points[:, 0] < 1.0))
    assert np.all(np.abs(points[:, 1]) <= 3.0)
    assert np.all(points[:, 2] >= 0.2)


def test_floor_count_matches_poisson_moments():
    # alpha=1, q=1, eps=0.1 has mean count 10.
    counts = np.array(
        [sample_ppp(1.0, 1.0, eps=0.1, seed=s).shape[0] for s in range(1000)]
    )
    mean_se = math.sqrt(10.0 / counts.size)
    assert abs(counts.mean() - 10.0) < 3.0 * mean_se
    # Poisson variance equals the mean; sample-variance SE is
    # sqrt((lam + 2 lam^2) / n).
    var_se = math.sqrt((10.0 + 200.0) / counts.size)
    assert abs(counts.var(ddof=1) - 10.0) < 4.0 * var_se


def test_floor_weights_follow_rescaled_pareto():
    alpha, eps = 0.8, 0.05
    rows = [sample_ppp(alpha, 1.0, eps=eps, seed=s) for s in range(250)]
    weights = np.concatenate([r[:, 2] for r in rows])
    assert weights.size > 2000
    # (eps/w)^alpha is uniform on (0, 1) under the rescaled tail.
    u = (eps / weights) ** alpha
    result = stats.kstest(u, "uniform")
    assert result.statistic < 0.03


def test_positions_uniform_on_box():
    q = 2.5
    rows = [sample_ppp(1.2, q, eps=0.05, seed=s) for s in range(30)]
    t = np.concatenate([r[:, 0] for r in rows])
    x = np.concatenate([r[:, 1] for r in rows])
    assert stats.kstest(t, "uniform").statistic < 0.03
    assert stats.kstest((x + q) / (2.0 * q), "uniform").statistic < 0.03


def test_top_mode_weights_descend():
    points = sample_ppp(0.7, 1.5, top=64, seed=3)
    assert points.shape == (64, 3)
    assert np.all(np.diff(points[:, 2]) < 0.0)


def test_top_mode_largest_weight_law():
    alpha, q = 1.0, 1.0
    tops = np.array(
        [sample_ppp(alpha, q, top=1, seed=s)[0, 2] for s in range(2000)]
    )
    result = stats.kstest(tops, largest_weight_cdf(alpha, q))
    assert result.statistic < 0.04


def test_floor_and_top_modes_agree_on_largest_weight():
    alpha, q, eps = 1.0, 1.0, 0.02
    floor_max = []
    for s in range(2000):
        pts = sample_ppp(alpha, q, eps=eps, seed=s)
        if pts.shape[0]:
            floor_max.append(pts[:, 2].max())
    floor_max = np.array(floor_max)
    exact = stats.kstest(floor_max, largest_weight_cdf(alpha, q))
    assert exact.statistic < 0.04
    tops = np.array(
        [sample_ppp(alpha, q, top=1, seed=10_000 + s)[0, 2] for s in range(2000)]
    )
    two_sample = stats.ks_2samp(floor_max, tops)
    assert two_sample.statistic < 0.06


# ---------------------------------------------------------------------------
# heat-kernel sums


def test_heat_kernel_single_injected_point():
    value = heat_kernel_sum([[1.0, 0.0, 2.0]])
    assert value == pytest.approx(2.0 / math.sqrt(2.0 * math.pi), abs=1e-15)


def test_heat_kernel_empty_and_validation():
    assert heat_kernel_sum(np.empty((0, 3))) == 0.0
    with pytest.raises(ValueError):
        heat_kernel_sum([[0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        heat_kernel_sum([[1.0, np.inf, 1.0]])


def test_point_functionals_take_no_solver_cap():
    # floor-mode samples reach millions of points: elpp's point check
    # carries no cap, only its chain solver does
    count = elpp._MAX_POINTS + 1
    pts = np.column_stack((np.full(count, 0.5), np.zeros(count), np.ones(count)))
    assert heat_kernel_sum(pts) == pytest.approx(count / math.sqrt(math.pi), rel=1e-12)
    assert single_point_max(pts, beta=1.0) == PointMax(1.0, 0)
    with pytest.raises(ValueError, match=f"more than {elpp._MAX_POINTS} points"):
        elpp.solve(pts, 1.0)


def test_heat_kernel_hand_sum():
    pts = np.array([[0.5, 0.3, 1.0], [0.25, -0.1, 2.0]])
    expected = math.exp(-0.09 / 1.0) / math.sqrt(math.pi) + 2.0 * math.exp(
        -0.01 / 0.5
    ) / math.sqrt(0.5 * math.pi)
    assert heat_kernel_sum(pts) == pytest.approx(expected, rel=1e-12)


def test_sample_heat_kernel_matches_manual_pipeline():
    value = sample_heat_kernel_sum(0.8, 0.1, half_width=2.0, seed=5)
    points = sample_ppp(0.8, 2.0, eps=0.1, seed=5)
    assert value == heat_kernel_sum(points)


def test_heat_kernel_grows_as_floor_halves():
    # Couple the floor levels by filtering one refined sample, so each
    # halving only adds nonnegative terms.
    levels = [0.16, 0.08, 0.04, 0.02]
    totals = np.zeros(len(levels))
    for s in range(300):
        pts = sample_ppp(0.8, 2.0, eps=levels[-1], seed=s)
        values = [heat_kernel_sum(pts[pts[:, 2] > lvl]) for lvl in levels]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        totals += values
    means = totals / 300.0
    assert all(a < b for a, b in zip(means, means[1:]))


# ---------------------------------------------------------------------------
# point scan and chain values


def test_single_point_max_examples():
    assert single_point_max([[1.0, 0.0, 3.0]], beta=0.4).value == 3.0
    result = single_point_max([[0.5, 1.0, 3.0]], beta=1.0)
    assert result == PointMax(2.0, 0)


def test_single_point_max_empty_and_errors():
    assert single_point_max(np.empty((0, 3)), beta=1.0) == PointMax(-np.inf, None)
    with pytest.raises(ValueError):
        single_point_max([[1.0, 0.0, 3.0]], beta=0.0)


def test_single_point_max_picks_argmax():
    pts = np.array([[0.5, 1.0, 4.0], [0.25, 0.1, 3.0], [0.9, 2.0, 5.0]])
    beta = 0.5
    scores = pts[:, 2] - pts[:, 1] ** 2 / (2.0 * beta * pts[:, 0])
    result = single_point_max(pts, beta)
    assert result.index == int(np.argmax(scores))
    assert result.value == pytest.approx(scores.max(), rel=1e-15)


def test_chain_value_single_point_formulas():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t, x, w = rng.uniform(0.1, 1.0), rng.uniform(-2, 2), rng.uniform(0, 5)
        nu, beta = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        pts = [[t, x, w]]
        plain = chain_value(pts, nu)
        assert plain == pytest.approx(max(0.0, nu * w - x * x / (2 * t)), abs=1e-12)
        pinned = chain_value(pts, nu, beta=beta, cardinality=elpp.exactly(1))
        assert pinned == pytest.approx(
            nu * w - x * x / (2 * t) - 1.0 / (2 * beta), abs=1e-12
        )


def test_chain_value_matches_brute_force_with_log_penalty():
    rng = np.random.default_rng(23)
    cards = [elpp.ANY, elpp.at_least(1), elpp.exactly(2)]
    for trial in range(20):
        pts = np.column_stack(
            [
                rng.uniform(0.05, 1.0, 8),
                rng.uniform(-2.0, 2.0, 8),
                rng.pareto(1.1, 8) + 0.1,
            ]
        )
        nu = rng.uniform(0.3, 2.0)
        beta = rng.uniform(0.3, 2.0)
        for card in cards:
            fast = chain_value(pts, nu, beta=beta, cardinality=card)
            slow = elpp.brute_force(
                pts, nu, kappa=1.0 / (2.0 * beta), cardinality=card
            )
            assert fast == pytest.approx(slow.value, abs=1e-10)


def test_chain_value_empty_sample():
    empty = np.empty((0, 3))
    assert chain_value(empty, 1.0) == 0.0
    assert chain_value(empty, 1.0, beta=2.0) == 0.0
    assert chain_value(empty, 1.0, beta=2.0, cardinality=elpp.at_least(1)) == -np.inf


def test_lipschitz_chain_value_scaling_identity():
    rng = np.random.default_rng(31)
    for _ in range(10):
        pts = np.column_stack(
            [
                rng.uniform(0.05, 1.0, 9),
                rng.uniform(-1.0, 1.0, 9),
                rng.pareto(1.5, 9) + 0.05,
            ]
        )
        beta = rng.uniform(0.2, 4.0)
        direct = elpp.brute_force(
            pts, beta, kappa=0.0, entropy_kind=elpp.ENTROPY_LIPSCHITZ
        )
        assert lipschitz_chain_value(pts, beta) == pytest.approx(
            direct.value / beta, rel=1e-12
        )


def test_lipschitz_chain_value_single_point():
    t, x, w, beta = 0.8, 0.3, 1.5, 2.0
    s = x / t
    ent = 0.5 * ((1 + s) * math.log(1 + s) + (1 - s) * math.log(1 - s)) * t
    expected = max(0.0, w - ent / beta)
    assert lipschitz_chain_value([[t, x, w]], beta) == pytest.approx(
        expected, rel=1e-12
    )
    # Outside the unit-slope cone only the empty chain remains.
    assert lipschitz_chain_value([[0.5, 0.9, 10.0]], beta) == 0.0


def test_chain_value_monotone_in_energy_box_and_truncation():
    full = sample_ppp(0.9, 4.0, top=32, seed=99)
    for beta in (0.5, 1.5):
        values = [chain_value(full, nu, beta=beta) for nu in (0.5, 1.0, 2.0, 4.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    narrow = full[np.abs(full[:, 1]) <= 2.0]
    assert chain_value(narrow, 1.0) <= chain_value(full, 1.0) + 1e-12
    by_top = [
        chain_value(elpp.select_top(full, ell), 1.0, beta=1.0) for ell in (4, 8, 16, 32)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(by_top, by_top[1:]))


def test_single_point_chain_never_exceeds_plain_value():
    # beta * (best point score) is itself a one-point chain value, so it
    # is dominated by the full chain problem at any beta.
    for s in range(30):
        pts = sample_ppp(1.1, 3.0, top=12, seed=s)
        for beta in (0.3, 1.0, 2.7):
            scan = single_point_max(pts, beta)
            assert beta * scan.value <= chain_value(pts, beta) + 1e-12


def test_sandwich_chain_per_sample():
    # W - 1/(2b) <= at-least-one value <= floored value <= max(0, T1 - 1/(2b))
    # holds exactly per sample for beta <= 1.
    for alpha in (0.8, 1.2):
        for s in range(50):
            pts = sample_ppp(alpha, 4.0, top=16, seed=1000 + s)
            plain_one = chain_value(pts, 1.0)
            for beta in (0.7, 1.0):
                scan = single_point_max(pts, beta).value
                at_least_one = chain_value(
                    pts, 1.0, beta=beta, cardinality=elpp.at_least(1)
                )
                floored = chain_value(pts, 1.0, beta=beta)
                half = 1.0 / (2.0 * beta)
                assert scan - half <= at_least_one + 1e-9
                assert at_least_one <= floored + 1e-12
                assert floored <= max(0.0, plain_one - half) + 1e-9
                assert floored == pytest.approx(max(0.0, at_least_one), abs=1e-12)


# ---------------------------------------------------------------------------
# critical coupling


def enumerate_quadratic_threshold(points):
    """Smallest beta with a chain where weight - entropy > N/(2 beta)."""
    pts = np.asarray(points, dtype=float)
    best = math.inf
    order = np.argsort(pts[:, 0])
    for r in range(1, len(pts) + 1):
        for combo in itertools.combinations(order, r):
            chain = pts[list(combo)]
            gain = chain[:, 2].sum() - elpp.entropy(chain[:, :2])
            if gain > 0.0:
                best = min(best, r / (2.0 * gain))
    return best


def enumerate_lipschitz_threshold(points):
    """Smallest beta with a chain where weight > entropy / beta."""
    pts = np.asarray(points, dtype=float)
    best = math.inf
    order = np.argsort(pts[:, 0])
    for r in range(1, len(pts) + 1):
        for combo in itertools.combinations(order, r):
            chain = pts[list(combo)]
            ent = elpp.entropy(chain[:, :2], elpp.ENTROPY_LIPSCHITZ)
            total = chain[:, 2].sum()
            if math.isfinite(ent) and total > 0.0:
                best = min(best, ent / total)
    return best


def exact_threshold(points, flavor):
    kind = elpp.ENTROPY_QUADRATIC if flavor == "tilde" else elpp.ENTROPY_LIPSCHITZ
    return continuum._threshold(elpp.prepare_geometry(points, kind))[0]


def random_point_sets(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, 9))
        yield np.column_stack(
            [
                rng.uniform(0.05, 1.0, m),
                rng.uniform(-1.0, 1.0, m),
                rng.pareto(1.2, m) + 0.05,
            ]
        )


def test_threshold_matches_quadratic_enumeration():
    pts = np.array([[0.3, 0.1, 0.4], [0.5, 0.4, 1.0], [0.8, -0.2, 0.6]])
    sets = [pts] + list(random_point_sets(41, 40))
    for points in sets:
        expected = enumerate_quadratic_threshold(points)
        found = exact_threshold(points, "tilde")
        if expected >= continuum.BRACKET_HIGH:
            assert math.isnan(found)
        else:
            assert found == pytest.approx(
                max(expected, continuum.BRACKET_LOW), rel=1e-12
            )


def test_threshold_matches_lipschitz_enumeration():
    pts = np.array([[0.5, 0.2, 2.0], [0.9, 0.1, 1.0]])
    sets = [pts] + list(random_point_sets(43, 40))
    for points in sets:
        expected = enumerate_lipschitz_threshold(points)
        found = exact_threshold(points, "hat")
        if expected >= continuum.BRACKET_HIGH:
            assert math.isnan(found)
        else:
            assert found == pytest.approx(
                max(expected, continuum.BRACKET_LOW), rel=1e-12
            )


def test_threshold_bracket_ends():
    # tilde: beta_c = 1 / (2 (w - x^2/(2t))) on one point
    assert math.isnan(exact_threshold([[1.0, 0.0, 1e-5]], "tilde"))
    assert math.isnan(exact_threshold([[1.0, 2.0, 1.0]], "tilde"))
    assert exact_threshold([[1.0, 0.0, 1e5]], "tilde") == continuum.BRACKET_LOW
    assert math.isnan(exact_threshold(np.empty((0, 3)), "tilde"))
    # hat: beta_c = t e(x/t) / w on one point; zero slope costs nothing
    assert math.isnan(exact_threshold([[1.0, 0.5, 1e-6]], "hat"))
    assert math.isnan(exact_threshold([[0.5, 0.9, 10.0]], "hat"))
    assert exact_threshold([[1.0, 0.0, 1.0]], "hat") == continuum.BRACKET_LOW
    assert exact_threshold([[1.0, 1e-4, 1.0]], "hat") == continuum.BRACKET_LOW


def test_threshold_inconsistent_chain_raises(monkeypatch):
    # the second point is heavier, so it survives the cut at the first
    # point's ratio 3, and far, so its own ratio 4 - 4/1.8 is lower
    pts = np.array([[0.5, 0.0, 3.0], [0.9, 2.0, 4.0]])
    geometry = elpp.prepare_geometry(pts, elpp.ENTROPY_QUADRATIC)
    # the first point, then a positive-value chain of lower ratio
    answers = iter([(0,), (1,)])

    def inconsistent(geom, beta, kappa=0.0, **kwargs):
        indices = next(answers)
        return elpp.ChainSolution(1.0, indices, tuple(map(tuple, pts[list(indices)])))

    monkeypatch.setattr(continuum, "solve", inconsistent)
    with pytest.raises(RuntimeError):
        continuum._threshold(geometry)


def test_threshold_step_cap_raises(monkeypatch):
    pts = np.array([[0.5, 0.0, 3.0], [0.9, 0.0, 0.5]])
    geometry = elpp.prepare_geometry(pts, elpp.ENTROPY_QUADRATIC)
    monkeypatch.setattr(continuum, "RATIO_STEP_CAP", 1)
    with pytest.raises(RuntimeError):
        continuum._threshold(geometry)


@pytest.mark.parametrize(
    "flavor, alpha, kind",
    [("tilde", 1.2, elpp.ENTROPY_QUADRATIC), ("hat", 0.3, elpp.ENTROPY_LIPSCHITZ)],
)
def test_threshold_brackets_sign_change(flavor, alpha, kind):
    replicas, top, seed = 6, 32, 101
    est = critical_coupling(alpha, replicas=replicas, top=top, seed=seed)
    assert est.flavor == flavor  # alpha sets the flavor
    assert np.all(np.isfinite(est.samples))
    assert np.all(est.doubled_samples <= est.samples)

    def value(points, beta):
        if flavor == "tilde":
            return elpp.solve(points, 1.0, kappa=1.0 / (2.0 * beta)).value
        return elpp.solve(points, beta, kappa=0.0, entropy_kind=kind).value

    seeds = np.random.SeedSequence(seed).spawn(replicas + 1)
    for r in range(replicas):
        full = sample_ppp(alpha, est.q, top=2 * top, seed=seeds[r])
        kept = elpp.select_top(full, top)
        for points, beta in ((kept, est.samples[r]), (full, est.doubled_samples[r])):
            if beta > continuum.BRACKET_LOW:
                assert value(points, beta * (1.0 - 1e-6)) <= 0.0
            assert value(points, beta * (1.0 + 1e-6)) > 0.0


@pytest.mark.parametrize("flavor, alpha", [("tilde", 1.2), ("hat", 0.3)])
def test_critical_coupling_solve_count(monkeypatch, flavor, alpha):
    # each threshold is a ratio iteration of a few solves, far below a
    # bisection's 42: over 400 replicas of the beta_c benchmark's config a
    # primary iteration made 1.09 solves, the tie check none, and the
    # doubled iteration (1 solve where it runs) was skipped on all 400,
    # so 0.55 solves per threshold
    calls = []
    inner = continuum.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(continuum, "solve", counted)
    replicas = 4
    critical_coupling(alpha, replicas=replicas, top=64, seed=3)
    assert len(calls) / (2 * replicas) <= 8


# the tilde doubled iteration runs on replicas 0 and 2 at seed 5 and top
# 16, moving replica 2's threshold, and at seed 0 and top 4, moving
# replica 0's; it runs on none at seed 1 and top 16
@pytest.mark.parametrize("flavor, alpha, top, seed", [
    pytest.param("tilde", 1.2, 16, 5, id="tilde-1.2"),
    pytest.param("hat", 0.3, 16, 5, id="hat-0.3"),
    pytest.param("tilde", 1.2, 4, 0, id="tilde-1.2-top4"),
    pytest.param("tilde", 1.2, 16, 1, id="tilde-1.2-skipped"),
])
def test_critical_coupling_geometries_per_replica(monkeypatch, flavor, alpha, top, seed):
    # one primary iteration per replica, on select_top's set, plus a
    # doubled one exactly where an added point clears the final cut (hat:
    # always); a skipped one leaves the primary's threshold
    q = 8.0 if flavor == "tilde" else 1.0
    seeds = np.random.SeedSequence(seed).spawn(4)
    replicas = []
    for r in range(3):
        sample = sample_ppp(alpha, q, top=2 * top, seed=seeds[r])
        kept = elpp.select_top(sample, top)
        left_out = np.sort(sample[:, 2])[-top - 1]
        runs = (flavor == "hat"
                or left_out > continuum._tilde_threshold(kept)[1] - continuum._margin(sample))
        replicas.append((kept, sample) if runs else (kept,))
    built, started = [], []
    inner_build, inner_threshold = continuum.prepare_geometry, continuum._threshold

    def build(points, *args, **kwargs):
        built.append(len(points))
        return inner_build(points, *args, **kwargs)

    def threshold(geometry, start=None):
        started.append((geometry, start))
        return inner_threshold(geometry, start)

    monkeypatch.setattr(continuum, "prepare_geometry", build)
    monkeypatch.setattr(continuum, "_threshold", threshold)
    est = critical_coupling(alpha, replicas=3, top=top, seed=seed)
    assert len(started) == len(built) == sum(map(len, replicas))  # one geometry per iteration
    for r, sets in enumerate(replicas):
        if len(sets) == 1:
            assert est.doubled_samples[r].tobytes() == est.samples[r].tobytes()
    iterations = iter(started)
    if flavor == "hat":
        # the in-cone rows of the primary truncation, then of the whole sample
        for points in (points for sets in replicas for points in sets):
            geometry, _ = next(iterations)
            points = elpp.select_top(points, len(points))  # time-sorted
            inside = np.abs(points[:, 1]) <= points[:, 0] * (1.0 + continuum.CUT_MARGIN)
            assert geometry.entropy_kind == elpp.ENTROPY_LIPSCHITZ
            assert geometry.points.tobytes() == points[inside].tobytes()
        return
    # tilde: the rows above start - 2 delta of each iteration's start, the
    # tie check reading the primary geometry
    for points in (points for sets in replicas for points in sets):
        geometry, start = next(iterations)
        points = elpp.select_top(points, len(points))
        rows = continuum._above(points, start - continuum._margin(points))
        assert geometry.points.tobytes() == points[rows].tobytes()


def test_doubled_iteration_runs_where_an_added_point_weighs_the_final_ratio(monkeypatch):
    # top 1 keeps (0.5, 0, 2), of ratio 2 (ties in weight go to the
    # smaller t); the added point weighs exactly 2, within delta of the
    # cut, so the doubled iteration runs, and it ends where the primary
    # did: the added point's chains have ratio 1.5
    sample = np.array([[1.0, 1.0, 2.0], [0.5, 0.0, 2.0]])
    monkeypatch.setattr(continuum, "sample_ppp", lambda *args, **kwargs: sample.copy())
    starts = []
    inner = continuum._threshold

    def threshold(geometry, start=None):
        starts.append((len(geometry.points), start))
        return inner(geometry, start)

    monkeypatch.setattr(continuum, "_threshold", threshold)
    est = critical_coupling(1.2, replicas=1, top=1, seed=0)
    assert starts == [(1, 2.0), (2, 2.0)]
    assert est.samples.tolist() == est.doubled_samples.tolist() == [0.25]


# (points, tied): two single points tied at ratio 1/3, and a point tied
# with a three-point chain at 4/3 (as in test_properties); a point just
# under the start that only the start - 2 delta cut keeps, whose chain
# with the best point lies within delta of the best ratio; and a clear
# best point
TIE_SETS = [
    ([[3.0, -2.0, 1.0], [3.0, 4.0, 3.0], [1.0, -1.0, 0.0]], True),
    ([[2.0, 4.0, 2.0], [4.0, 1.0, -1.0], [4.0, -2.0, -1.0], [3.0, 4.0, 4.0],
      [4.0, 3.0, 1.0], [2.0, 1.0, 1.0], [1.0, 3.0, 3.0]], True),
    ([[1.0, 0.0, 2.0], [0.5, 0.0, 2.0 - 3e-9]], True),
    ([[1.0, 0.0, 2.0], [0.5, 1.0, 2.5]], False),
]


@pytest.mark.parametrize("points, tied", TIE_SETS)
def test_tie_check_reads_its_iteration_geometry(monkeypatch, points, tied):
    points = np.array(points)
    checks = []
    inner_tied = continuum._tied

    def record(geometry, ratio):
        checks.append((geometry, ratio))
        return inner_tied(geometry, ratio)

    monkeypatch.setattr(continuum, "_tied", record)
    continuum._tilde_threshold(points)
    ((geometry, ratio),) = checks  # the redo from 0 checks nothing
    assert ratio == max(0.0, single_point_max(points, 1.0).value)  # the start's ratio

    def no_call(*args, **kwargs):
        raise AssertionError("the tie check solved, priced a leg or built a geometry")

    for module in (continuum, elpp):
        monkeypatch.setattr(module, "prepare_geometry", no_call)
        monkeypatch.setattr(module, "solve", no_call)
    monkeypatch.setattr(elpp, "_step_cost", no_call)
    assert inner_tied(geometry, ratio) is tied


def test_tie_check_needs_a_positive_second_chain():
    # at the check's price ratio - delta, a point of exactly that weight
    # standing on the time axis is a chain of value exactly 0; the empty
    # chain beats it in every solve of the three-solve check, so it ties
    # nothing, and it cannot follow the best point at the same time
    kappa = 1.0 - continuum._margin(np.array([[1.0, 1.0, 3.0]]))
    geometry = elpp.prepare_geometry([[1.0, 0.0, kappa], [1.0, 1.0, 3.0]])
    assert elpp.second_value(geometry, 1.0, kappa) == 0.0
    assert continuum._tied(geometry, 1.0) is False


def test_cone_cut_margin_covers_the_slope_slack():
    # every point of a finite Lipschitz chain has |x| <= t * _SLOPE_SLACK to
    # rounding, far inside the cone cut |x| <= t (1 + CUT_MARGIN)
    assert elpp._SLOPE_SLACK - 1.0 <= continuum.CUT_MARGIN / 100


def test_critical_coupling_geometry_cap_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before the geometry cap was checked")

    monkeypatch.setattr(continuum, "solve", no_solve)
    with pytest.raises(ValueError, match="capped"):
        critical_coupling(1.2, top=2049, replicas=1)


def test_critical_coupling_tilde():
    est = critical_coupling(
        1.2, replicas=8, top=32, q=4.0, seed=17
    )
    assert est.flavor == "tilde"
    assert est.failures == 0
    assert 0.0 < est.median < math.inf
    assert est.ci_low <= est.median <= est.ci_high
    # Doubling the truncation adds points, so per-replica thresholds
    # can only shrink.
    both = np.isfinite(est.samples) & np.isfinite(est.doubled_samples)
    assert np.all(est.doubled_samples[both] <= est.samples[both])
    assert est.relative_shift >= 0.0


def test_critical_coupling_hat():
    est = critical_coupling(
        0.3, replicas=6, top=32, seed=29
    )
    assert est.flavor == "hat"
    assert est.q == 1.0
    assert est.failures == 0
    assert 0.0 < est.median < math.inf
    assert est.ci_low <= est.median <= est.ci_high


def test_critical_coupling_deterministic():
    kwargs = dict(replicas=4, top=16, q=4.0, seed=5)
    a = critical_coupling(1.0, **kwargs)
    b = critical_coupling(1.0, **kwargs)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.median == b.median and a.ci_low == b.ci_low


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _interval(boot_medians):
    """The threshold interval by ``CI_RANKS`` and ``CI_GAMMAS``, as
    ``critical_coupling`` takes it from the bootstrap medians."""
    ordered = np.sort(boot_medians)
    below, above = ordered[continuum.CI_RANKS], ordered[continuum.CI_RANKS + 1]
    step = above - below
    gamma = continuum.CI_GAMMAS
    return np.where(gamma >= 0.5, above - step * (1 - gamma), below + step * gamma)


def test_summary_rule_gives_the_bits_of_numpy_median_and_percentile():
    # a numpy release that changes either rule fails here, not by drift
    rng = np.random.default_rng(32)
    for k in range(1, 65):
        spread = 10.0 ** rng.uniform(-4.0, 4.0, k)
        tied = rng.choice(spread[:3], size=k)
        constant = np.full(k, spread[0])
        for values in (spread, tied, constant, np.full(k, continuum.BRACKET_LOW)):
            assert _bits(continuum._median(np.sort(values))) == _bits(np.median(values)), k
            draws = rng.choice(values, size=(continuum.BOOTSTRAP, k))
            boot_medians = np.median(draws, axis=1)
            assert _bits(continuum._median(np.sort(draws, axis=1))) == _bits(boot_medians), k
            assert _bits(_interval(boot_medians)) == _bits(
                np.percentile(boot_medians, [2.5, 97.5])), k


@pytest.mark.parametrize("alpha, replicas", [(1.2, 1), (1.2, 6), (0.3, 7), (1.7, 12)])
def test_critical_coupling_summary_matches_numpy(alpha, replicas):
    # the bootstrap draws from the finite thresholds in replica order
    est = critical_coupling(alpha, replicas=replicas, top=16, seed=41)
    finite = est.samples[np.isfinite(est.samples)]
    boot_seed = np.random.SeedSequence(41).spawn(replicas + 1)[replicas]
    draws = np.random.default_rng(boot_seed).choice(
        finite, size=(continuum.BOOTSTRAP, finite.size), replace=True)
    ci = np.percentile(np.median(draws, axis=1), [2.5, 97.5])
    assert _bits([est.median, est.ci_low, est.ci_high]) == _bits([np.median(finite), *ci])
    doubled = est.doubled_samples[np.isfinite(est.doubled_samples)]
    assert _bits(est.doubled_median) == _bits(np.median(doubled))


@pytest.mark.parametrize("alpha, top", [(1.2, 1), (0.01, 2)])
def test_critical_coupling_with_no_threshold_in_the_bracket_is_an_input_error(alpha, top):
    with pytest.raises(ValueError, match="inside the bracket"):
        critical_coupling(alpha, replicas=1, top=top, seed=1)


def test_critical_coupling_flavor_domains():
    # alpha sets the flavor, so only alpha can fall outside both domains
    for alpha in (0.0, 0.5, 2.0):
        with pytest.raises(ValueError):
            critical_coupling(alpha)


@pytest.mark.parametrize("mode", [dict(top=5), dict(eps=1.0)])
def test_sample_ppp_refuses_a_box_width_past_the_float_range(mode):
    for q in (1e308, 0.9 * np.finfo(float).max, math.inf, math.nan):
        with pytest.raises(ValueError, match="the box width 2q is not finite"):
            sample_ppp(1.2, q, seed=1, **mode)
    # the widest box whose 2q is finite still draws
    q = np.finfo(float).max / 2.0
    points = sample_ppp(1.9, q, top=5, seed=1)
    assert np.all(np.isfinite(points)) and np.all(np.abs(points[:, 1]) <= q)
