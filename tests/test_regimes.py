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
        replicas=6,
        top=24,
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

    resolved = classify(
        0.3, PowerLawSchedule(line), seed=11, replicas=6, top=24
    )
    assert resolved.label in ("alpha-small-n-scale", "alpha-small-sqrt-scale")
    assert math.isfinite(resolved.split_threshold)


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
