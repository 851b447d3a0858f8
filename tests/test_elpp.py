"""Chain-solver tests: entropy oracles, solver vs brute force, tie rules.

Brute force itself runs two independent enumeration routes (per-subset
recomputation and the incremental mask table) which are cross-checked
here before being trusted as the solver oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymerlab.elpp import (
    ANY,
    ENTROPY_LIPSCHITZ,
    ENTROPY_QUADRATIC,
    ChainSolution,
    at_least,
    brute_force,
    entropy,
    exactly,
    lipschitz_entropy,
    prepare_geometry,
    select_top,
    solve,
    solve_field,
    zero_top,
)
from polymerlab.continuum import single_point_max
from polymerlab.environment import TailParams, ordered_statistics, sample_field

# frozen by hand: e(1/2) = (3/2 log(3/2) + 1/2 log(1/2)) / 2
HALF_RATE_AT_HALF = 0.0654060


def random_points(rng, m, t_hi=1.0, x_scale=1.0, w_scale=1.0):
    t = rng.uniform(0.01, t_hi, m)
    x = rng.normal(0.0, x_scale, m)
    w = rng.exponential(w_scale, m)
    return np.column_stack([t, x, w])


# ---------------------------------------------------------------------------
# Entropy functionals
# ---------------------------------------------------------------------------


def test_entropy_hand_values():
    assert entropy([(0.5, 1.0)]) == pytest.approx(1.0, abs=1e-15)
    assert entropy([(0.25, 0.5), (0.75, -0.5)]) == pytest.approx(1.5, abs=1e-14)
    assert entropy([]) == 0.0
    # order of the input rows is irrelevant
    assert entropy([(0.75, -0.5), (0.25, 0.5)]) == pytest.approx(1.5, abs=1e-14)


def test_entropy_equal_times_infinite():
    assert entropy([(0.5, 1.0), (0.5, -1.0)]) == math.inf
    with pytest.raises(ValueError):
        entropy([(0.5, 1.0), (0.5, 1.0)])


def test_lipschitz_entropy_frozen_value():
    got = lipschitz_entropy([(0.5, 0.25)])
    assert got == pytest.approx(HALF_RATE_AT_HALF, abs=5e-8)


def test_lipschitz_entropy_boundary_slope():
    # slope exactly 1 costs log 2 per unit time, steeper is forbidden
    assert lipschitz_entropy([(0.5, 0.5)]) == pytest.approx(0.5 * math.log(2), abs=1e-15)
    assert lipschitz_entropy([(0.5, 0.500001)]) == math.inf
    assert lipschitz_entropy([(0.4, -0.4)]) == pytest.approx(0.4 * math.log(2), abs=1e-15)


def test_lipschitz_dominates_quadratic():
    # e(s) >= s^2/2 on [-1, 1], so the rate entropy dominates on any
    # admissible chain
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = rng.integers(1, 6)
        t = np.sort(rng.uniform(0.05, 1.0, m))
        t += np.arange(m) * 1e-3  # distinct times
        x = np.cumsum(rng.uniform(-1.0, 1.0, m) * np.diff(np.concatenate(([0.0], t))))
        delta = np.column_stack([t, x])
        lip = lipschitz_entropy(delta)
        quad = entropy(delta)
        assert lip >= quad - 1e-12


def test_rate_slope_grid():
    # pointwise check of e(s) >= s^2/2 on a fine grid
    from polymerlab.elpp import _rate

    s = np.linspace(-1.0, 1.0, 2001)
    assert np.all(_rate(s) >= s * s / 2.0 - 1e-15)
    assert _rate(np.array([1.0]))[0] == pytest.approx(math.log(2), abs=1e-15)
    assert _rate(np.array([0.0]))[0] == 0.0


# ---------------------------------------------------------------------------
# Brute-force route agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", [ENTROPY_QUADRATIC, ENTROPY_LIPSCHITZ])
def test_brute_force_routes_agree(kind):
    rng = np.random.default_rng(11)
    for trial in range(25):
        m = int(rng.integers(1, 9))
        pts = random_points(rng, m, x_scale=0.4)
        beta = float(rng.uniform(0.1, 3.0))
        kappa = float(rng.uniform(0.0, 1.0))
        card = [ANY, exactly(min(2, m)), at_least(1)][trial % 3]
        a = brute_force(pts, beta, kappa, kind, card, method="loop")
        b = brute_force(pts, beta, kappa, kind, card, method="table")
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=1e-12)
        assert a.indices == b.indices


# ---------------------------------------------------------------------------
# Solver vs brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", [ENTROPY_QUADRATIC, ENTROPY_LIPSCHITZ])
def test_solve_matches_brute_force(kind):
    rng = np.random.default_rng(17)
    cards = [ANY, exactly(1), exactly(3), at_least(2), at_least(0)]
    for trial in range(40):
        m = int(rng.integers(1, 10))
        pts = random_points(rng, m, x_scale=0.5)
        beta = float(rng.uniform(0.05, 4.0))
        kappa = float(rng.uniform(0.0, 2.0))
        card = cards[trial % len(cards)]
        got = solve(pts, beta, kappa, kind, card)
        want = brute_force(pts, beta, kappa, kind, card)
        if want.value == -math.inf:
            assert got.value == -math.inf
            continue
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-12)
        assert got.indices == want.indices


def test_solve_with_geometry_matches_plain():
    rng = np.random.default_rng(23)
    pts = random_points(rng, 30, x_scale=0.4)
    geo = prepare_geometry(pts, ENTROPY_QUADRATIC)
    for beta in (0.2, 1.0, 5.0):
        a = solve(pts, beta, kappa=0.3)
        b = solve(geo, beta, kappa=0.3)
        assert a.value == b.value
        assert a.indices == b.indices
    with pytest.raises(ValueError):
        solve(geo, 1.0, entropy_kind=ENTROPY_LIPSCHITZ)


def test_solution_certificate():
    # the returned chain must reproduce the returned value when its
    # entropy is recomputed independently, at sizes far beyond brute force
    rng = np.random.default_rng(29)
    for kind in (ENTROPY_QUADRATIC, ENTROPY_LIPSCHITZ):
        pts = random_points(rng, 300, x_scale=0.3)
        beta, kappa = 2.0, 0.05
        got = solve(pts, beta, kappa, kind)
        chain = np.array(got.chain)
        path_entropy = entropy if kind == ENTROPY_QUADRATIC else lipschitz_entropy
        check = beta * chain[:, 2].sum() - kappa * len(chain) - path_entropy(chain[:, :2])
        assert got.value == pytest.approx(float(check), rel=1e-12)
        assert len(chain) >= 1


def test_solve_beats_sampled_chains():
    rng = np.random.default_rng(31)
    pts = random_points(rng, 60, x_scale=0.5)
    beta, kappa = 1.5, 0.1
    best = solve(pts, beta, kappa).value
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    spts = pts[order]
    for _ in range(200):
        size = int(rng.integers(1, 6))
        idx = np.sort(rng.choice(60, size=size, replace=False))
        sub = spts[idx]
        val = beta * sub[:, 2].sum() - kappa * size - entropy(sub[:, :2])
        assert val <= best + 1e-11


# ---------------------------------------------------------------------------
# Cardinality and tie behaviour
# ---------------------------------------------------------------------------


def test_empty_chain_floor_for_any():
    pts = [(0.5, 0.0, 1.0)]
    sol = solve(pts, beta=0.1, kappa=100.0)
    assert sol.value == 0.0
    assert sol.indices == ()
    # at_least(1) has no floor: the best nonempty chain is negative
    sol1 = solve(pts, beta=0.1, kappa=100.0, cardinality=at_least(1))
    assert sol1.value == pytest.approx(0.1 - 100.0)
    assert sol1.indices == (0,)


def test_at_least_zero_equals_any():
    rng = np.random.default_rng(37)
    pts = random_points(rng, 12, x_scale=0.5)
    a = solve(pts, 0.8, 0.2, cardinality=ANY)
    b = solve(pts, 0.8, 0.2, cardinality=at_least(0))
    assert a == b


def test_exactly_zero_and_infeasible():
    pts = [(0.5, 0.0, 3.0)]
    assert solve(pts, 1.0, cardinality=exactly(0)) == ChainSolution(0.0, (), ())
    assert solve(pts, 1.0, cardinality=exactly(2)).value == -math.inf
    assert solve([], 1.0, cardinality=at_least(1)).value == -math.inf
    assert solve([], 1.0).value == 0.0


def test_tie_prefers_smaller_index():
    # two mirror points with identical weight tie exactly; the winner is
    # the smaller index in the time-sorted order, here x = -0.3
    pts = [(0.5, 0.3, 2.0), (0.5, -0.3, 2.0)]
    for routine in (solve, brute_force):
        sol = routine(pts, beta=1.0, kappa=0.0)
        assert sol.indices == (0,)
        assert sol.chain[0][1] == -0.3


def test_tie_prefers_empty_chain():
    # a chain whose value is exactly zero ties the empty chain and loses
    pts = [(0.5, 0.0, 1.0)]
    sol = solve(pts, beta=1.0, kappa=1.0)
    assert sol.value == 0.0
    assert sol.indices == ()
    bf = brute_force(pts, beta=1.0, kappa=1.0)
    assert bf.indices == ()


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        solve([(0.5, 0.1, 1.0), (0.5, 0.1, 2.0)], 1.0)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0), st.integers(0, 2**31 - 1))
def test_diffusive_scaling_invariance(a, seed):
    # (t, x) -> (a t, sqrt(a) x) preserves quadratic entropy, so the
    # optimum value and chain are unchanged
    rng = np.random.default_rng(seed)
    pts = random_points(rng, 8, x_scale=0.5)
    scaled = pts.copy()
    scaled[:, 0] *= a
    scaled[:, 1] *= math.sqrt(a)
    orig = solve(pts, 1.2, 0.1)
    new = solve(scaled, 1.2, 0.1)
    assert new.value == pytest.approx(orig.value, rel=1e-9, abs=1e-12)
    assert new.indices == orig.indices


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_value_monotone_in_beta_and_kappa(seed):
    rng = np.random.default_rng(seed)
    pts = random_points(rng, 10, x_scale=0.5)
    betas = [0.1, 0.5, 1.0, 3.0]
    vals = [solve(pts, b, 0.2).value for b in betas]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
    kappas = [0.0, 0.3, 1.0, 5.0]
    vals_k = [solve(pts, 1.0, k).value for k in kappas]
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals_k, vals_k[1:]))


def test_unreachable_lipschitz_points():
    # a point above the light cone |x| <= t cannot be reached
    pts = [(0.2, 0.5, 100.0)]
    sol = solve(pts, 1.0, entropy_kind=ENTROPY_LIPSCHITZ)
    assert sol.value == 0.0
    assert sol.indices == ()
    assert solve(pts, 1.0, entropy_kind=ENTROPY_LIPSCHITZ, cardinality=at_least(1)).value == -math.inf


# ---------------------------------------------------------------------------
# Point-set restrictions
# ---------------------------------------------------------------------------


def test_select_top_and_zero_top():
    pts = [
        (0.2, 0.0, 5.0),
        (0.4, 1.0, 9.0),
        (0.6, -1.0, 9.0),
        (0.8, 0.5, 1.0),
    ]
    top2 = select_top(pts, 2)
    assert top2.shape == (2, 3)
    # rank ties on weight break toward the earlier (t, x)
    assert top2[:, 2].tolist() == [9.0, 9.0]
    assert top2[0, 0] == 0.4 and top2[1, 0] == 0.6
    rest = zero_top(pts, 2)
    assert rest.shape == (4, 3)
    assert sorted(rest[:, 2].tolist()) == [0.0, 0.0, 1.0, 5.0]
    # geometry is untouched
    assert set(map(tuple, rest[:, :2])) == set((t, x) for t, x, _ in pts)
    assert select_top(pts, 10).shape == (4, 3)


# ---------------------------------------------------------------------------
# Field-driven problems
# ---------------------------------------------------------------------------


def test_solve_field_matches_direct_points():
    field = sample_field(16, 8, TailParams(alpha=0.9), 91)
    stats = ordered_statistics(field, 6, reachable_only=True)
    pts = [(float(i), float(x), float(w)) for w, (i, x) in stats.entries]
    direct = solve(pts, 0.8, kappa=0.5 * math.log(16))
    via_field = solve_field(field, 0.8, ell=6)
    assert via_field.value == direct.value
    assert via_field.indices == direct.indices
    # explicit kappa overrides the log(n)/2 default
    assert solve_field(field, 0.8, ell=6, kappa=0.0).value >= via_field.value


def heavy_site_rows(field, beta, first_row=1, half_width=None):
    """(i, x, w) rows of the box sites with beta*w >= 1, in (i, x) order."""
    h = field.h
    cap = h if half_width is None else half_width
    i, x = np.meshgrid(
        np.arange(first_row, field.n + 1), np.arange(-cap, cap + 1), indexing="ij"
    )
    w = field.weights[first_row - 1 :, h - cap : h + cap + 1]
    heavy = beta * w >= 1.0
    return np.column_stack([i[heavy], x[heavy], w[heavy]]).astype(float)


def test_heavy_site_max_oracle():
    field = sample_field(12, 6, TailParams(alpha=0.7), 95)
    beta = 0.9
    best = -math.inf
    site = None
    for i in range(1, 13):
        for x in range(-6, 7):
            w = field.weight_at(i, x)
            if beta * w >= 1.0:
                score = w - x * x / (2.0 * beta * i)
                if score > best:
                    best, site = score, (i, x)
    rows = heavy_site_rows(field, beta)
    got = single_point_max(rows, beta)
    assert got.value == pytest.approx(best, rel=1e-14)
    assert tuple(int(v) for v in rows[got.index, :2]) == site


def test_heavy_site_max_floor_and_width():
    field = sample_field(12, 6, TailParams(alpha=0.7), 95)
    beta = 0.9
    rows = heavy_site_rows(field, beta, first_row=6, half_width=3)
    got = single_point_max(rows, beta)
    best = -math.inf
    for i in range(6, 13):
        for x in range(-3, 4):
            w = field.weight_at(i, x)
            if beta * w >= 1.0:
                best = max(best, w - x * x / (2.0 * beta * i))
    assert got.value == pytest.approx(best, rel=1e-14)
    assert rows[got.index, 0] >= 6 and abs(rows[got.index, 1]) <= 3


def test_heavy_site_max_empty_region():
    field = sample_field(8, 4, TailParams(alpha=1.5), 96)
    got = single_point_max(heavy_site_rows(field, 1e-9), beta=1e-9)
    assert got.value == -math.inf
    assert got.index is None
    with pytest.raises(ValueError):
        single_point_max(heavy_site_rows(field, 1.0), beta=0.0)
