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
from scipy.special import xlogy

from polymerlab import elpp

from polymerlab.elpp import (
    ANY,
    ENTROPY_LIPSCHITZ,
    ENTROPY_QUADRATIC,
    Cardinality,
    ChainSolution,
    at_least,
    brute_force,
    entropy,
    exactly,
    _SLOPE_SLACK,
    prepare_geometry,
    select_top,
    site_price,
    solve,
)
from polymerlab.continuum import single_point_max
from polymerlab.environment import TailParams, sample_field, top_sites

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


def test_cardinality_validation():
    assert ANY == at_least(0)
    assert exactly(3) == Cardinality("exactly", 3)
    assert at_least(0).count == 0
    for kind, count in (("any", 3), ("exactly", -1), ("atleast", -2), ("some", 1)):
        with pytest.raises(ValueError):
            Cardinality(kind, count)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_entropy_refuses_non_finite_rows(bad):
    # the solver's one point check: a nan or inf coordinate is refused,
    # with or without a weight column, instead of pricing a nan or inf leg
    with pytest.raises(ValueError, match="points must be finite"):
        entropy([(0.5, 0.25), (1.0, bad)])
    with pytest.raises(ValueError, match="points must be finite"):
        entropy([(bad, 0.25, 1.0)])


def test_entropy_takes_the_solver_point_cap():
    rows = np.column_stack((np.arange(1, elpp._MAX_POINTS + 2) / 8.0, np.zeros(elpp._MAX_POINTS + 1)))
    with pytest.raises(ValueError, match=f"more than {elpp._MAX_POINTS} points"):
        entropy(rows)


def test_lipschitz_entropy_frozen_value():
    got = entropy([(0.5, 0.25)], ENTROPY_LIPSCHITZ)
    assert got == pytest.approx(HALF_RATE_AT_HALF, abs=5e-8)


def test_lipschitz_entropy_boundary_slope():
    # slope exactly 1 costs log 2 per unit time, steeper is forbidden
    assert entropy([(0.5, 0.5)], ENTROPY_LIPSCHITZ) == pytest.approx(0.5 * math.log(2), abs=1e-15)
    assert entropy([(0.5, 0.500001)], ENTROPY_LIPSCHITZ) == math.inf
    assert entropy([(0.4, -0.4)], ENTROPY_LIPSCHITZ) == pytest.approx(0.4 * math.log(2), abs=1e-15)


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
        lip = entropy(delta, ENTROPY_LIPSCHITZ)
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


def test_brute_force_routes_reject_unknown_entropy():
    pts = random_points(np.random.default_rng(3), 3, x_scale=0.4)
    for method in ("loop", "table"):
        with pytest.raises(ValueError, match="unknown entropy kind"):
            brute_force(pts, 1.0, entropy_kind="bogus", method=method)


def test_every_route_rejects_unknown_entropy_on_an_empty_set():
    # the empty chain has no legs to cost, but its kind is still checked
    pts = np.empty((0, 3))
    for method in ("loop", "table"):
        with pytest.raises(ValueError, match="unknown entropy kind"):
            brute_force(pts, 1.0, entropy_kind="bogus", method=method)
    with pytest.raises(ValueError, match="unknown entropy kind"):
        solve(pts, 1.0, entropy_kind="bogus")
    assert brute_force(pts, 1.0, method="loop").value == 0.0


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


def full_matrix_legs(kind, dt, dx):
    """Leg costs priced on every leg, finite or not: the quadratic np.where
    formula and the masked Lipschitz formula, with e(s) written out."""
    still = (dt == 0.0) & (dx == 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind == ENTROPY_QUADRATIC:
            cost = np.where(dt > 0.0, dx * dx / (2.0 * dt), math.inf)
        else:
            ok = (dt > 0.0) & (np.abs(dx) <= dt * _SLOPE_SLACK)
            s = np.where(ok, np.clip(np.divide(dx, np.where(ok, dt, 1.0)), -1.0, 1.0), 0.0)
            rate = np.maximum(0.5 * (xlogy(1.0 + s, 1.0 + s) + xlogy(1.0 - s, 1.0 - s)), 0.0)
            cost = np.where(ok, dt * rate, math.inf)
    return np.where(still, 0.0, cost)


def legs_oracle(kind, pts):
    """The origin legs, and [i, j] the leg i -> j, every pair at once."""
    t, x = pts[:, 0], pts[:, 1]
    return full_matrix_legs(kind, t, x), full_matrix_legs(kind, t - t[:, None], x - x[:, None])


def legs_test_points(rng, m):
    """Time-sorted distinct rows with equal times, points at t <= 0, an
    exact origin copy, subnormal times (so subnormal dt) and legs of slope
    +-1 and at either side of the slope slack, so every branch of the leg
    cost shows up."""
    t = rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0], m)
    t += rng.integers(0, 2, m) * rng.uniform(0.0, 1.0, m)
    x = rng.normal(0.0, 0.5, m)
    tiny = rng.random(m) < 0.15
    t[tiny] = rng.integers(1, 1 << 20, tiny.sum()) * 5e-324
    x[tiny] *= rng.choice([1.0, 5e-324], tiny.sum())
    if rng.random() < 0.3:
        t[0], x[0] = 0.0, 0.0
    pts = np.column_stack([t, x, rng.exponential(1.0, m)])
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    slopes = [1.0, _SLOPE_SLACK, _SLOPE_SLACK * (1.0 + 2.0**-52), _SLOPE_SLACK * (1.0 - 2.0**-52)]
    for i in range(1, m):
        dt = pts[i, 0] - pts[i - 1, 0]
        if dt > 0.0 and rng.random() < 0.4:  # a steep leg from the previous point
            pts[i, 1] = pts[i - 1, 1] + rng.choice([-1.0, 1.0]) * dt * rng.choice(slopes)
    _, first = np.unique(pts[:, :2], axis=0, return_index=True)
    return pts[np.sort(first)]


def gathered_quadratic_legs(dt, dx):
    """The quadratic legs as a gather of the legs that can be finite, the
    quotient on those, and a scatter back."""
    cost = np.where((dt == 0.0) & (dx == 0.0), 0.0, math.inf)
    ok = dt > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        cost[ok] = dx[ok] * dx[ok] / (2.0 * dt[ok])
    return cost


@pytest.mark.parametrize("kind", [ENTROPY_QUADRATIC, ENTROPY_LIPSCHITZ])
def test_into_step_is_transposed_pair_legs(kind):
    rng = np.random.default_rng(37)
    for m in [*range(1, 41), 64, 512]:
        pts = legs_test_points(rng, m)
        geo = prepare_geometry(pts, kind)
        origin, legs = legs_oracle(kind, geo.points)
        assert geo.origin_step.tobytes() == origin.tobytes(), m
        assert geo.into_step.tobytes() == np.ascontiguousarray(legs.T).tobytes(), m
        assert not geo.into_step.flags.writeable
        if kind == ENTROPY_QUADRATIC:  # the in-place divide has the gathered form's bytes
            t, x = geo.points[:, 0], geo.points[:, 1]
            gathered = gathered_quadratic_legs(t - t[:, None], x - x[:, None])
            assert geo.into_step.tobytes() == np.ascontiguousarray(gathered.T).tobytes(), m
            assert geo.origin_step.tobytes() == gathered_quadratic_legs(t, x).tobytes(), m


def test_rate_prices_only_legs_that_can_be_finite(monkeypatch):
    priced = []
    rate = elpp._rate
    monkeypatch.setattr(elpp, "_rate", lambda s: priced.append(s.size) or rate(s))
    rng = np.random.default_rng(41)
    for m in range(1, 41):
        geo = prepare_geometry(legs_test_points(rng, m), ENTROPY_LIPSCHITZ)
        origin, legs = legs_oracle(ENTROPY_LIPSCHITZ, geo.points)
        t, x = geo.points[:, 0], geo.points[:, 1]
        dt = np.concatenate([t, (t - t[:, None]).ravel()])
        dx = np.concatenate([x, (x - x[:, None]).ravel()])
        can = (dt > 0.0) & (np.abs(dx) <= dt * _SLOPE_SLACK)
        assert sum(priced) == np.count_nonzero(can), m
        still = (dt == 0.0) & (dx == 0.0)
        assert np.all(np.isinf(np.concatenate([origin, legs.ravel()])[~can & ~still]))
        priced.clear()


def test_tie_scan_prefers_later_predecessor_with_smaller_prefix():
    # into point 2, chain (0, 1, 2) ties chain (0, 2) at value 3; the
    # later predecessor 1 carries the prefix (0, 1), smaller than (0,)
    pts = np.array([[1.0, 0.0, 2.0], [2.0, -1.0, 2.0], [3.0, 0.0, 3.0]])
    for target in (pts, prepare_geometry(pts)):
        got = solve(target, 1.0, kappa=1.0)
        assert got.value == 3.0 and got.indices == (0, 1, 2)
    for method in ("loop", "table"):
        want = brute_force(pts, 1.0, kappa=1.0, method=method)
        assert (want.value, want.indices) == (3.0, (0, 1, 2))


def test_solution_certificate():
    # the returned chain must reproduce the returned value when its
    # entropy is recomputed independently, at sizes far beyond brute force
    rng = np.random.default_rng(29)
    for kind in (ENTROPY_QUADRATIC, ENTROPY_LIPSCHITZ):
        pts = random_points(rng, 300, x_scale=0.3)
        beta, kappa = 2.0, 0.05
        got = solve(pts, beta, kappa, kind)
        chain = np.array(got.chain)
        check = beta * chain[:, 2].sum() - kappa * len(chain) - entropy(chain[:, :2], kind)
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


def test_lipschitz_slope_one_leg_survives_rescaling():
    # |dx| = dt = 2 on the lattice; divided by 48, dx rounds to
    # 0.04166666666666667 and dt to 0.04166666666666663, and the leg
    # must still be a slope-1 move, priced log 2 * dt
    lattice = np.array([(17.0, -3.0, 5.0), (19.0, -1.0, 5.0)])
    rescaled = lattice / (48, 48, 1)
    assert abs(rescaled[1, 1] - rescaled[0, 1]) > rescaled[1, 0] - rescaled[0, 0]
    want = solve(lattice, 1.0, 0.0, ENTROPY_LIPSCHITZ)
    assert want.indices == (0, 1)
    got = solve(rescaled, 1.0 / 48, 0.0, ENTROPY_LIPSCHITZ)
    assert got.indices == (0, 1)
    assert got.value == pytest.approx(want.value / 48, rel=1e-12)
    oracle = brute_force(rescaled, 1.0 / 48, 0.0, ENTROPY_LIPSCHITZ)
    assert oracle.indices == (0, 1) and oracle.value == pytest.approx(got.value, rel=1e-12)


# ---------------------------------------------------------------------------
# Point-set restrictions
# ---------------------------------------------------------------------------


def test_select_top():
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
    assert select_top(pts, 10).shape == (4, 3)


def test_negative_ell_is_rejected():
    # a slice [:ell] at ell < 0 would keep all but the lightest |ell| points
    pts = np.array([(0.1 * k, 0.0, float(k)) for k in range(1, 7)])
    for ell in (-1, -2):
        with pytest.raises(ValueError, match="ell must be >= 0"):
            select_top(pts, ell)
    assert select_top(pts, 0).shape == (0, 3)


# ---------------------------------------------------------------------------
# Field problems: the caller composes top_sites, solve and site_price
# ---------------------------------------------------------------------------


def test_site_price_is_half_log_n():
    assert site_price(16) == 0.5 * math.log(16)
    field = sample_field(16, 8, TailParams(alpha=0.9), 91)
    priced = solve(top_sites(field, 6), 0.8, kappa=site_price(16))
    # a free site can only raise the optimum over the priced one
    assert solve(top_sites(field, 6), 0.8, kappa=0.0).value >= priced.value


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
