"""Tests for schedule classification and the transversal scale."""

import math

import numpy as np
import pytest

from polymerlab import regimes
from polymerlab.environment import TailParams, quantile, truncated_mean_weight
from polymerlab.polymer import centering_value
from polymerlab.regimes import (
    ExplicitSchedule,
    PowerLawSchedule,
    classify,
    fluctuation_exponent,
    fluctuation_scale,
)


# ---------------------------------------------------------------------------
# fluctuation exponent


def test_exponent_known_values():
    assert fluctuation_exponent(1.0, 1.25) == pytest.approx(0.75)
    assert fluctuation_exponent(2.0, 0.0) == pytest.approx(1.0)
    assert fluctuation_exponent(0.75, 1.8) == pytest.approx(0.8)
    assert fluctuation_exponent(1.5, 0.6) == pytest.approx(0.8)
    assert fluctuation_exponent(0.3, 6.0) == 0.5
    assert fluctuation_exponent(0.3, 2.0) == 1.0


def test_exponent_saturates_outside_strip():
    assert fluctuation_exponent(1.5, 0.2) == 1.0
    assert fluctuation_exponent(1.5, 1.2) == 0.5
    assert fluctuation_exponent(1.0, 2.5) == 0.5


def test_exponent_continuous_at_strip_edges():
    for alpha in (0.75, 1.0, 1.3, 1.8, 2.0):
        low = 2.0 / alpha - 1.0
        high = 3.0 / (2.0 * alpha)
        assert fluctuation_exponent(alpha, low) == pytest.approx(1.0)
        assert fluctuation_exponent(alpha, high) == pytest.approx(0.5)


def test_exponent_light_tail_strip():
    # Steep tails with gamma near zero reproduce the 2(1-gamma)/3 law.
    assert fluctuation_exponent(5.0, 0.0) == pytest.approx(2.0 / 3.0)
    assert fluctuation_exponent(8.0, 0.25) == pytest.approx(0.5)


def test_exponent_none_on_transition_line():
    assert fluctuation_exponent(0.3, 2.0 / 0.3 - 1.0) is None
    assert fluctuation_exponent(0.5, 3.0) is None
    with pytest.raises(ValueError):
        fluctuation_exponent(0.0, 1.0)


# ---------------------------------------------------------------------------
# fluctuation scale


def test_scale_pure_pareto_fixed_point():
    # alpha=1, gamma=1.25, n=1e4: the balance solves to h = 1000 exactly.
    tail = TailParams(1.0)
    result = fluctuation_scale(10_000, 10_000.0 ** -1.25, tail)
    assert result.clamped is None
    assert result.h == pytest.approx(1000.0, rel=1e-8)


def test_scale_matches_closed_form_on_strip():
    n = 1_000_000
    for alpha in (0.75, 1.0, 1.5):
        tail = TailParams(alpha, c=1.0)
        low = 2.0 / alpha - 1.0
        high = 3.0 / (2.0 * alpha)
        for gamma in (0.6 * low + 0.4 * high, 0.2 * low + 0.8 * high):
            for beta_hat in (0.7, 1.0):
                beta_n = beta_hat * n ** -gamma
                result = fluctuation_scale(n, beta_n, tail)
                assert result.clamped is None
                xi = (1.0 + alpha * (1.0 - gamma)) / (2.0 * alpha - 1.0)
                expected = n ** xi * beta_hat ** (alpha / (2.0 * alpha - 1.0))
                assert result.h == pytest.approx(expected, rel=1e-6)


def test_scale_exponent_tracks_prediction():
    n = 1_000_000
    for alpha in (0.75, 1.0, 1.5):
        tail = TailParams(alpha)
        low, high = 2.0 / alpha - 1.0, 3.0 / (2.0 * alpha)
        for frac in (0.25, 0.5, 0.75):
            gamma = low + frac * (high - low)
            result = fluctuation_scale(n, n ** -gamma, tail)
            exponent = math.log(result.h) / math.log(n)
            predicted = fluctuation_exponent(alpha, gamma)
            assert abs(exponent - predicted) <= 0.005 * predicted


def test_scale_clamps():
    tail = TailParams(1.0)
    lower = fluctuation_scale(10_000, 0.0, tail)
    assert lower.clamped == "lower" and lower.h == pytest.approx(100.0)
    # gamma < 2/alpha - 1 pushes the balance past h = n.
    upper = fluctuation_scale(10_000, 10_000.0 ** -0.5, tail)
    assert upper.clamped == "upper" and upper.h == 10_000.0
    with pytest.raises(ValueError):
        fluctuation_scale(1, 0.1, tail)
    with pytest.raises(ValueError):
        fluctuation_scale(100, -0.1, tail)


def test_scale_residual_small_for_logpower():
    tail = TailParams(1.2, law="logpower", b=0.8)
    n = 100_000
    result = fluctuation_scale(n, n ** -1.0, tail)
    assert result.clamped is None
    assert abs(result.residual) <= 1e-9 * result.h ** 2 / n


# ---------------------------------------------------------------------------
# classification


def test_classify_power_law_examples():
    # alpha=1: the probe beta_n * quantile(n^2) / n is exactly beta_hat
    # at gamma=1, so the class sits on the finite-coupling branch.
    r1 = classify(1.0, PowerLawSchedule(1.0))
    assert r1.label == "R1"
    assert r1.beta_limit == pytest.approx(1.0)
    assert "lipschitz_chain_value" in r1.limit_object

    r5 = classify(1.0, PowerLawSchedule(2.0))
    assert r5.label == "R5"
    assert r5.beta_limit == 0.0
    assert "heat_kernel_sum" in r5.limit_object

    r2 = classify(1.0, PowerLawSchedule(1.25))
    assert r2.label == "R2"
    assert r2.xi == pytest.approx(0.75)
    assert "chain_value(nu=1)" in r2.limit_object


def test_classify_stable_under_probe_scaling():
    for gamma in (0.4, 1.0, 1.25, 1.5, 2.0):
        schedule = PowerLawSchedule(gamma)
        small = classify(1.0, schedule, n_probe=10_000)
        large = classify(1.0, schedule, n_probe=160_000)
        assert small.label == large.label


def test_classify_boundary_gammas():
    # gamma = 2/alpha - 1 keeps the first probe finite; gamma = 3/(2 alpha)
    # keeps the third finite.
    alpha = 1.25
    r1 = classify(alpha, PowerLawSchedule(2.0 / alpha - 1.0))
    assert r1.label == "R1"
    assert 0.0 < r1.beta_limit < math.inf
    r5 = classify(alpha, PowerLawSchedule(3.0 / (2.0 * alpha)))
    assert r5.label == "R5"
    assert 0.0 < r5.beta_limit < math.inf


def test_classify_log_window_regimes():
    # At gamma = 3/(2 alpha) the log-power factor decides between the
    # log-window classes: b in (0, alpha - 1/2) diverges the plain
    # probe while the log-corrected one vanishes.
    alpha = 1.2
    gamma = 3.0 / (2.0 * alpha)
    r4 = classify(
        alpha, PowerLawSchedule(gamma), tail=TailParams(alpha, law="logpower", b=0.35)
    )
    assert r4.label == "R4"
    assert "single_point_max" in r4.limit_object

    r3 = classify(
        alpha, PowerLawSchedule(gamma), tail=TailParams(alpha, law="logpower", b=0.7)
    )
    assert r3.label == "R3"
    assert "positive-value recipe" in r3.normalizer
    assert "at_least(1)" in r3.limit_object

    resolved = classify(
        alpha,
        PowerLawSchedule(gamma),
        tail=TailParams(alpha, law="logpower", b=0.7),
        seed=3,
    )
    assert resolved.label in ("R3a", "R3b")
    assert math.isfinite(resolved.split_threshold)


def test_classify_small_alpha():
    n_scale = classify(0.3, PowerLawSchedule(2.0))
    assert n_scale.label == "alpha-small-n-scale"
    sqrt_scale = classify(0.3, PowerLawSchedule(6.0))
    assert sqrt_scale.label == "alpha-small-sqrt-scale"

    line = 2.0 / 0.3 - 1.0
    unresolved = classify(0.3, PowerLawSchedule(line))
    assert unresolved.label == "alpha-small-transition"
    assert "order-n recipe" in unresolved.normalizer

    resolved = classify(0.3, PowerLawSchedule(line), seed=11)
    assert resolved.label in ("alpha-small-n-scale", "alpha-small-sqrt-scale")
    assert math.isfinite(resolved.split_threshold)


def test_resolved_small_alpha_split_couplings():
    # on the line gamma = 2/alpha - 1, q1 is finite and q3 -> 0; the split
    # still compares q1 with the threshold, and the diffusive branch it
    # resolves to reports that branch's coupling, 0
    diffusive = classify(0.4, PowerLawSchedule(4.0, 0.005), seed=3)
    assert diffusive.label == "alpha-small-sqrt-scale"
    assert diffusive.beta_limit == 0.0
    assert diffusive.limit_object == _DIFFUSIVE_LIMIT
    assert diffusive.probes[0] == pytest.approx(0.005)
    assert diffusive.probes[0] < diffusive.split_threshold
    order_n = classify(0.4, PowerLawSchedule(4.0), seed=3)
    assert order_n.label == "alpha-small-n-scale"
    assert order_n.beta_limit == order_n.probes[0] > order_n.split_threshold
    assert order_n.limit_object == f"lipschitz_chain_value at coupling {order_n.probes[0]:g}"


def test_classify_half_boundary():
    report = classify(0.5, PowerLawSchedule(3.0))
    assert report.label == "boundary"
    assert "probe ratio" in report.normalizer
    assert report.limit_object == "undecided"


_LINEAR = "prefactor 1/(beta_n * quantile(tail, n^2))"
_BALANCED = "prefactor 1/(beta_n * quantile(tail, n * h_n))"
_MEAN = "subtract n * beta_n * mean_weight(tail)"
_TRUNC = "subtract n * beta_n * truncated_mean_weight(tail, 1/beta_n)"
_DIFFUSIVE_NORM = (
    "prefactor sqrt(n)/(beta_n * quantile(tail, n^{3/2})); centering "
    "subtract n * beta_n * truncated_mean_weight(tail, quantile(n^{3/2})) "
    "when alpha >= 1; wrapper identity"
)
_DIFFUSIVE_LIMIT = (
    "2 * stable heat-kernel functional at coupling 0 (heat_kernel_sum limit)"
)
_R3A_NORM = f"{_BALANCED}; centering none; wrapper identity"
_R3B_NORM = f"{_BALANCED}; centering {_TRUNC}; wrapper log"

# (label, alpha, gamma, beta_hat, logpower b, seed, normalizer, limit object);
# each centering rule is pinned on both sides of its alpha threshold
PINNED_RECIPES = [
    ("R1", 1.2, 0.5, 1.0, None, None,
     f"{_LINEAR}; centering none; wrapper identity",
     "lipschitz_chain_value at coupling inf"),
    ("R2", 1.2, 1.0, 1.0, None, None,
     f"{_BALANCED}; centering none; wrapper identity", "chain_value(nu=1)"),
    ("R2", 1.6, 0.5, 1.0, None, None,
     f"{_BALANCED}; centering {_MEAN}; wrapper identity", "chain_value(nu=1)"),
    ("R3a", 1.2, 1.25, 1.0, 0.7, 5, _R3A_NORM,
     "chain_value(nu=1, beta=1.24498) (floored penalized value)"),
    ("R3b", 1.2, 1.25, 0.1, 0.7, 5, _R3B_NORM,
     "chain_value(nu=1, beta=0.124498, cardinality=at_least(1))"),
    ("R3", 1.2, 1.25, 1.0, 0.7, None,
     "unresolved random split, positive-value recipe: "
     f"[{_R3A_NORM}]; zero-value recipe: [{_R3B_NORM}]",
     "positive branch chain_value(nu=1, beta=1.24498) (floored penalized "
     "value); zero branch chain_value(nu=1, beta=1.24498, "
     "cardinality=at_least(1))"),
    ("R4", 1.2, 1.25, 1.0, 0.35, None,
     f"{_BALANCED}; centering {_TRUNC}; wrapper log(sqrt(n) * .)",
     "single_point_max at coupling 1"),
    ("R4", 0.8, 1.875, 1.0, 0.2, None,
     f"{_BALANCED}; centering none; wrapper log(sqrt(n) * .)",
     "single_point_max at coupling 1"),
    ("R5", 0.75, 3.0, 1.0, None, None, _DIFFUSIVE_NORM, _DIFFUSIVE_LIMIT),
    ("R5", 1.2, 1.5, 1.0, None, None, _DIFFUSIVE_NORM, _DIFFUSIVE_LIMIT),
    ("alpha-small-n-scale", 0.3, 2.0, 1.0, None, None,
     f"{_LINEAR}; centering none; wrapper identity",
     "lipschitz_chain_value at coupling inf"),
    ("alpha-small-sqrt-scale", 0.3, 6.0, 1.0, None, None,
     _DIFFUSIVE_NORM, _DIFFUSIVE_LIMIT),
    ("alpha-small-transition", 0.3, 2.0 / 0.3 - 1.0, 1.0, None, None,
     "unresolved random split, order-n recipe: "
     f"[{_LINEAR}; centering none; wrapper identity]; order-sqrt(n) recipe: "
     f"[{_DIFFUSIVE_NORM}]",
     "order-n branch lipschitz_chain_value at coupling 1; diffusive branch "
     f"{_DIFFUSIVE_LIMIT}"),
    ("boundary", 0.5, 2.0, 1.0, None, None,
     "undecided at alpha = 1/2: the scale comparison depends on the slowly "
     "varying factor; probe ratio quantile(n^2)/(n * quantile(n^(3/2))) = 1 "
     "at n_probe",
     "undecided"),
]


@pytest.mark.parametrize(
    "label,alpha,gamma,beta_hat,b,seed,normalizer,limit_object", PINNED_RECIPES
)
def test_classify_recipe_text_pinned(
    label, alpha, gamma, beta_hat, b, seed, normalizer, limit_object
):
    # the text is embedded in every observable.csv row, so it is pinned
    # whole rather than by substring
    tail = TailParams(alpha) if b is None else TailParams(alpha, law="logpower", b=b)
    report = classify(alpha, PowerLawSchedule(gamma, beta_hat), tail=tail, seed=seed)
    assert report.label == label
    assert report.normalizer == normalizer
    assert report.limit_object == limit_object


def test_classify_rejects_bad_alpha():
    with pytest.raises(ValueError):
        classify(2.0, PowerLawSchedule(1.0))
    with pytest.raises(ValueError):
        classify(0.0, PowerLawSchedule(1.0))
    with pytest.raises(ValueError):
        classify(1.0, PowerLawSchedule(1.0), tail=TailParams(1.5))


def test_classify_explicit_schedule():
    # A power law wrapped as a callable lands in the same class, with
    # no exponent prediction.
    explicit = ExplicitSchedule(lambda n: float(n) ** -1.25)
    report = classify(1.0, explicit, n_probe=100_000)
    assert report.label == "R2"
    assert report.xi is None

    # Barely decaying coupling keeps the energy dominant (order-n
    # fluctuations); a log-corrected power law still reads as R2.
    log_decay = ExplicitSchedule(lambda n: 1.0 / math.log(n))
    assert classify(1.0, log_decay, n_probe=100_000).label == "R1"
    corrected = ExplicitSchedule(lambda n: float(n) ** -1.25 * math.log(n))
    assert classify(1.0, corrected, n_probe=100_000).label == "R2"


def test_explicit_schedule_must_stay_positive():
    schedule = ExplicitSchedule(lambda n: -1.0)
    with pytest.raises(ValueError):
        schedule.at(10)
    with pytest.raises(ValueError):
        PowerLawSchedule(1.0, beta_hat=0.0)


def test_report_carries_scale_and_probes():
    report = classify(1.0, PowerLawSchedule(1.25), n_probe=10_000)
    direct = fluctuation_scale(10_000, 10_000.0 ** -1.25, TailParams(1.0))
    assert report.h_n == direct.h
    assert len(report.probes) == 3
    assert all(p >= 0.0 for p in report.probes)


# ---------------------------------------------------------------------------
# centering constants


def test_centering_mean_pure_pareto():
    assert centering_value(TailParams(2.0), 1.0, "mean") == pytest.approx(2.0)
    with pytest.raises(ValueError):
        centering_value(TailParams(1.0), 1.0, "mean")
    with pytest.raises(ValueError):
        centering_value(TailParams(1.5), 1.0, "median")


def test_centering_truncated_below_edge_is_zero():
    # Pure Pareto with c=1 has support edge 1; 1/beta below it truncates
    # everything away.
    assert centering_value(TailParams(1.0), 2.0, "truncated_mean") == 0.0
    # zero coupling collects nothing, so there is nothing to center
    assert centering_value(TailParams(1.0), 0.0, "truncated_mean") == 0.0


def test_centering_truncated_matches_monte_carlo():
    from polymerlab.environment import survival

    tail = TailParams(0.9, law="logpower", b=1.2)
    beta = 0.25
    cutoff = 1.0 / beta
    exact = centering_value(tail, beta, "truncated_mean") / beta
    # Inverse-transform sampling: w = survival^(-1)(u) clipped above the
    # cutoff, inverted by interpolation on a dense grid.
    rng = np.random.default_rng(2024)
    u = rng.random(10_000_000)
    grid = np.geomspace(tail.edge, cutoff, 200_001)
    sv = survival(tail, grid)
    clipped = np.zeros_like(u)
    keep = u >= sv[-1]
    clipped[keep] = np.interp(-u[keep], -sv, grid)
    mc = clipped.mean()
    se = clipped.std(ddof=1) / math.sqrt(clipped.size)
    assert abs(mc - exact) < 4.0 * se


def test_centering_truncated_closed_form_pareto():
    # E[w 1{w <= T}] for the unit Pareto with alpha=2: integrate
    # 2 u^-2 from 1 to T.
    tail = TailParams(2.0)
    value = centering_value(tail, 0.25, "truncated_mean") / 0.25
    expected = 2.0 * (1.0 - 1.0 / 4.0)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(truncated_mean_weight(tail, 4.0), rel=1e-15)


def test_r3b_companion_sign_is_the_floored_chain_value_sign():
    # campaigns flag an R3b replica on its companion's sign: the best
    # non-empty chain is positive exactly when the floored value is
    from polymerlab.continuum import chain_value, sample_ppp

    record = regimes.RECORDS[regimes.LABEL_R3B]
    signs = set()
    for seed in range(20):
        pts = sample_ppp(1.2, 1.0, top=8, seed=seed)
        for beta in np.geomspace(0.02, 50.0, 7):
            positive = record.companion(pts, beta, 1.0) > 0.0
            assert positive == (chain_value(pts, 1.0, beta=beta) > 0.0)
            signs.add(positive)
    assert signs == {True, False}


# ---------------------------------------------------------------------------
# pathway size constants


def _hand_constants(pathway, n, beta, tail, kernel_cutoff):
    """The campaigns' size constants as they were written out by hand,
    branching on the linear pathway, and the coupled pair's leg cost."""
    from polymerlab.elpp import ENTROPY_LIPSCHITZ, ENTROPY_QUADRATIC

    h = pathway.box(n, beta, tail, kernel_cutoff)
    if pathway is regimes.LINEAR:
        m_scale = quantile(tail, float(n) ** 2)
        units, nu, entropy = (n, n, m_scale), beta * m_scale / n, ENTROPY_LIPSCHITZ
    else:
        m_scale = quantile(tail, float(n) * h)
        units, nu, entropy = (n, h, m_scale), beta * m_scale * n / (h * h), ENTROPY_QUADRATIC
    constants = dict(h=h, prefactor=pathway.prefactor(n),
                     scale=beta * quantile(tail, pathway.scale_arg(n, h)), units=units, nu=nu)
    return constants, entropy


def _hand_unit(pathway, v, n, h):
    """A chain value in continuum units, as the regime replica wrote it."""
    return v / n if pathway is regimes.LINEAR else v * n / (h * h)


_PATHWAY_CASES = [
    # (alpha, tail keywords, n, beta); the first is the golden small_n size
    (0.3, {}, 48, PowerLawSchedule(2.0).at(48)),
    (0.3, {}, 96, PowerLawSchedule(2.0).at(96)),
    (1.2, {}, 64, PowerLawSchedule(0.5).at(64)),
    (1.2, {}, 257, 0.3),
    (1.0, {}, 1024, PowerLawSchedule(1.25, 0.22).at(1024)),
    (0.75, {}, 2048, PowerLawSchedule(3.0).at(2048)),
    (1.2, dict(law="logpower", b=0.7), 128, PowerLawSchedule(1.25).at(128)),
    (1.6, dict(law="logpower", b=0.35), 1000, 0.05),
    (0.4, dict(law="logpower", b=1.0), 33, PowerLawSchedule(4.0, 0.005).at(33)),
    (1.2, {}, 32, 0.0),  # the zero-coupling control
]


@pytest.mark.parametrize("pathway", [regimes.LINEAR, regimes.BALANCED, regimes.DIFFUSIVE],
                         ids=["linear", "balanced", "diffusive"])
@pytest.mark.parametrize("alpha, law, n, beta", _PATHWAY_CASES)
def test_pathway_constants_are_the_hand_formulas_bit_for_bit(pathway, alpha, law, n, beta):
    tail = TailParams(alpha, **law)
    want, entropy = _hand_constants(pathway, n, beta, tail, 8.0)
    got = pathway.constants(n, beta, tail, 8.0)
    assert got.keys() == want.keys()
    for key in want:
        assert repr(got[key]) == repr(want[key]), key
    assert pathway.entropy == entropy
    h = got["h"]
    for v in (beta * got["units"][2], 1.0, 1.0 / 3.0, 12.345678901234567, -0.7, 0.0):
        assert repr(pathway.unit(v, n, h)) == repr(_hand_unit(pathway, v, n, h)), v


def test_linear_unit_keeps_its_own_float_order():
    # at the golden small_n size the quadratic order gives another last
    # bit, so one shared unit rule would move the coupled pair's digests
    n, beta = 48, PowerLawSchedule(2.0).at(48)
    v = beta * quantile(TailParams(0.3), float(n) ** 2)
    assert v * n / (n * n) != v / n
    assert regimes.LINEAR.unit(v, n, n) == v / n
    assert regimes.LINEAR.constants(n, beta, TailParams(0.3), 8.0)["nu"] == v / n


# ---------------------------------------------------------------------------
# non-finite couplings


@pytest.mark.parametrize("gamma, beta_hat", [
    (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
])
def test_power_law_schedule_refuses_non_finite_parameters(gamma, beta_hat):
    with pytest.raises(ValueError, match="gamma and beta_hat must be finite"):
        PowerLawSchedule(gamma, beta_hat)


def test_power_law_schedule_keeps_the_positive_beta_hat_message():
    for beta_hat in (0.0, -1.0, -math.inf):
        with pytest.raises(ValueError, match="beta_hat must be positive"):
            PowerLawSchedule(1.0, beta_hat)


@pytest.mark.parametrize("gamma, beta_hat, n", [
    (-400.0, 1.0, 32),  # the power itself overflows (OverflowError in float pow)
    (-100.0, 1e300, 10),  # the power is finite, the product is not
])
def test_power_law_schedule_refuses_an_overflowing_coupling(gamma, beta_hat, n):
    with pytest.raises(ValueError, match=f"beta_n overflows the float range at n={n}"):
        PowerLawSchedule(gamma, beta_hat).at(n)


def test_classify_refuses_an_overflowing_coupling():
    with pytest.raises(ValueError, match="n=1000000"):
        classify(1.2, PowerLawSchedule(-200.0))


@pytest.mark.parametrize("schedule", [PowerLawSchedule(1.0), ExplicitSchedule(lambda n: 1.0)])
@pytest.mark.parametrize("n", [0, -4])
def test_schedule_refuses_a_size_below_one(schedule, n):
    with pytest.raises(ValueError, match=f"a schedule needs n >= 1, got n={n}"):
        schedule.at(n)


@pytest.mark.parametrize("schedule", [PowerLawSchedule(1.0), ExplicitSchedule(lambda n: 1.0)])
def test_classify_refuses_an_out_of_range_probe_size(schedule):
    for n_probe in (1, 0, -4):
        with pytest.raises(ValueError, match=f"n_probe must be at least 2, got {n_probe}"):
            classify(1.2, schedule, n_probe)
    for n_probe in (10**200, 10**400):  # (16 n_probe)^2 overflows, or n_probe itself
        with pytest.raises(ValueError, match=r"n_probe is too large: \(16 n_probe\)\^2"):
            classify(1.2, schedule, n_probe)
    assert classify(1.2, schedule, 2).probes == regimes._probe_values(
        schedule, TailParams(1.2), 2)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_explicit_schedule_must_stay_finite(value):
    with pytest.raises(ValueError, match=f"schedule must stay finite, got {value} at n=10"):
        ExplicitSchedule(lambda n: value).at(10)


def test_fluctuation_scale_refuses_a_nan_coupling():
    with pytest.raises(ValueError, match="beta must be nonnegative, got nan"):
        fluctuation_scale(100, math.nan, TailParams(1.2))
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        fluctuation_scale(100, -0.5, TailParams(1.2))
