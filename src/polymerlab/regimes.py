"""Coupling-schedule classification and the transversal scale.

The polymer's transversal scale h solves an energy-entropy balance:
beta_n times the (1 - 1/(n h))-quantile of the weight law matches
h^2/n.  Where h lands between sqrt(n) and n is governed by three
probe quantities built from the schedule beta_n and the quantile
growth, and each class comes with its own normalization recipe for
log Z and its own continuum limit object.

Power-law schedules beta_n = beta_hat * n^(-gamma) are classified
symbolically by comparing n-exponents and log-n orders, which makes
the labels exact and probe-size independent.  Explicit schedules are
probed numerically at n and 16n, with a local exponent fitted over that
16x span (a documented heuristic); limits of arbitrary sequences are
not decidable from finitely many values.

Two classes split on the sign of a random continuum quantity rather
than on the schedule itself.  For those, passing a seed runs a Monte
Carlo estimate of the critical coupling and resolves the split;
without a seed the report carries both recipes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .continuum import (
    chain_value,
    critical_coupling,
    lipschitz_chain_value,
    sample_heat_kernel_sum,
    sample_ppp,
    single_point_max,
)
from .elpp import ENTROPY_LIPSCHITZ, ENTROPY_QUADRATIC, at_least
from .environment import TailParams, quantile
from .polymer import CENTER_MEAN, CENTER_NONE, CENTER_TRUNCATED, centering_moment

LABEL_R1 = "R1"
LABEL_R2 = "R2"
LABEL_R3 = "R3"
LABEL_R3A = "R3a"
LABEL_R3B = "R3b"
LABEL_R4 = "R4"
LABEL_R5 = "R5"
LABEL_SMALL_N = "alpha-small-n-scale"
LABEL_SMALL_SQRT = "alpha-small-sqrt-scale"
LABEL_SMALL_SPLIT = "alpha-small-transition"
LABEL_BOUNDARY = "boundary"
LABEL_ZERO = "zero-coupling"

_EXPONENT_TOL = 1e-12
# cost of the Monte Carlo critical coupling that resolves a random split
SPLIT_ESTIMATE = dict(replicas=16, top=64)

__all__ = [
    "PowerLawSchedule",
    "ExplicitSchedule",
    "ScaleResult",
    "RegimeReport",
    "Pathway",
    "RegimeRecord",
    "RECORDS",
    "fluctuation_scale",
    "fluctuation_exponent",
    "classify",
]


@dataclass(frozen=True)
class PowerLawSchedule:
    """Coupling schedule beta_n = beta_hat * n**(-gamma)."""

    gamma: float
    beta_hat: float = 1.0

    def __post_init__(self):
        if self.beta_hat <= 0.0:
            raise ValueError("beta_hat must be positive")
        if not math.isfinite(self.gamma) or not math.isfinite(self.beta_hat):
            raise ValueError("gamma and beta_hat must be finite")

    def at(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"a schedule needs n >= 1, got n={n}")
        try:
            beta = self.beta_hat * float(n) ** (-self.gamma)
        except OverflowError:
            beta = math.inf
        if not math.isfinite(beta):
            raise ValueError(f"beta_n overflows the float range at n={n}")
        return beta


@dataclass(frozen=True)
class ExplicitSchedule:
    """Coupling schedule given by a callable n -> beta_n > 0."""

    values: Callable[[int], float]

    def at(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"a schedule needs n >= 1, got n={n}")
        beta = float(self.values(n))
        if beta <= 0.0:
            raise ValueError(f"schedule must stay positive, got {beta} at n={n}")
        if not math.isfinite(beta):
            raise ValueError(f"schedule must stay finite, got {beta} at n={n}")
        return beta


@dataclass(frozen=True)
class ScaleResult:
    """Resolved transversal scale with clamp flag and balance residual."""

    h: float
    clamped: str | None  # None, "lower" (sqrt(n)), or "upper" (n)
    residual: float  # beta * quantile(n h) - h^2 / n at the returned h


def fluctuation_scale(n: int, beta: float, tail: TailParams) -> ScaleResult:
    """Solve beta * quantile(n h) = h^2 / n for h in [sqrt(n), n].

    Bisection on the normalized balance beta * quantile(n h) / h^2 - 1/n,
    which decreases in h when alpha > 1/2; the root is located to
    relative 1e-9.  When the balance holds nowhere inside the bracket
    the matching endpoint is returned with a clamp flag (this covers
    beta = 0 and the alpha <= 1/2 schedules, where no interior scale
    exists).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not beta >= 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")

    def balance(h: float) -> float:
        return beta * quantile(tail, n * h) / (h * h) - 1.0 / n

    def residual(h: float) -> float:
        return beta * quantile(tail, n * h) - h * h / n

    lo, hi = math.sqrt(n), float(n)
    if beta == 0.0 or balance(lo) < 0.0:
        return ScaleResult(lo, "lower", residual(lo))
    if balance(hi) > 0.0:
        return ScaleResult(hi, "upper", residual(hi))
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if balance(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * lo:
            break
    h = 0.5 * (lo + hi)
    return ScaleResult(h, None, residual(h))


def fluctuation_exponent(alpha: float, gamma: float) -> float | None:
    """Predicted exponent of the transversal scale, h ~ n**xi.

    Two closed-form strips cover the intermediate scales; outside them
    the exponent saturates at 1 (small gamma, single-target strategy)
    or 1/2 (large gamma, diffusive).  On the alpha <= 1/2 transition
    line the scale is random and None is returned.  Region tests use
    the polynomial form alpha*(1-gamma) vs 5-2*gamma so no division by
    1-gamma occurs.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if -0.5 <= gamma <= 0.25 and alpha * (1.0 - gamma) >= 5.0 - 2.0 * gamma:
        return 2.0 * (1.0 - gamma) / 3.0
    if (
        alpha > 0.5
        and 2.0 / alpha - 1.0 <= gamma <= 3.0 / (2.0 * alpha)
        and alpha * (1.0 - gamma) <= 5.0 - 2.0 * gamma
    ):
        return (1.0 + alpha * (1.0 - gamma)) / (2.0 * alpha - 1.0)
    threshold = 2.0 / alpha - 1.0
    if gamma < threshold:
        return 1.0
    if alpha > 0.5 or gamma > threshold:
        return 0.5
    return None


@dataclass(frozen=True)
class RegimeReport:
    """Classification outcome with the matching normalization recipe.

    ``beta_limit`` is the limiting probe value for the class (0, inf,
    or the finite probe evaluated at n_probe; a split resolved to its
    diffusive branch reports 0).  ``probes`` holds the
    three probe quantities at n_probe.  ``split_threshold`` is the
    Monte Carlo critical-coupling median when a random split was
    resolved, else nan.
    """

    label: str
    h_n: float
    clamped: str | None
    xi: float | None
    beta_limit: float
    normalizer: str
    limit_object: str
    probes: Tuple[float, float, float]
    split_threshold: float = math.nan


# Limit of n**e * (log n)**l as a coarse symbol: inf, 0, or the finite
# probe value when both orders vanish.
def _symbolic_limit(exponent: float, log_order: float, probe_value: float) -> float:
    for order in (exponent, log_order):
        if order > _EXPONENT_TOL:
            return math.inf
        if order < -_EXPONENT_TOL:
            return 0.0
    return probe_value


def _numeric_limit(v1: float, v3: float) -> float:
    # Probe heuristic: fit a local exponent over the 16x span and call
    # the limit infinite above +0.05, zero below -0.05, else finite at
    # the outermost probe.  Drifts slower than n^0.05 (e.g. mild log
    # powers) are below this resolution and read as finite.
    if v1 <= 0.0 or v3 <= 0.0:
        return 0.0 if v3 <= 0.0 else math.inf
    local_exponent = math.log(v3 / v1) / math.log(16.0)
    if local_exponent > 0.05:
        return math.inf
    if local_exponent < -0.05:
        return 0.0
    return v3


def _probe_values(schedule, tail: TailParams, n: int) -> Tuple[float, float, float]:
    beta = schedule.at(n)
    log_n = math.log(n)
    q1 = beta * quantile(tail, float(n) ** 2) / n
    q2 = beta * quantile(tail, float(n) ** 1.5 * math.sqrt(log_n)) / log_n
    q3 = beta * quantile(tail, float(n) ** 1.5)
    return q1, q2, q3


def _probe_limits(schedule, tail: TailParams, n_probe: int):
    probes = _probe_values(schedule, tail, n_probe)
    if isinstance(schedule, PowerLawSchedule):
        alpha = tail.alpha
        log_b = tail.log_power
        gamma = schedule.gamma
        orders = [
            (2.0 / alpha - 1.0 - gamma, log_b / alpha),
            (1.5 / alpha - gamma, 0.5 / alpha + log_b / alpha - 1.0),
            (1.5 / alpha - gamma, log_b / alpha),
        ]
        limits = tuple(
            _symbolic_limit(e, l, p) for (e, l), p in zip(orders, probes)
        )
    else:
        far = _probe_values(schedule, tail, 16 * n_probe)
        limits = tuple(_numeric_limit(a, b) for a, b in zip(probes, far))
    return limits, probes


# ---------------------------------------------------------------------------
# Normalization record per resolved label
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pathway:
    """Field box, weight-scale argument, prefactor and coupled pair of a
    rescaling route.

    A label on this route rescales as prefactor(n) * (log Z - centering)
    / (beta_n * quantile(tail, scale_arg(n, h))) on a field of half-width
    h = box(n, beta_n, tail, kernel_cutoff).  ``cutoff`` is the level of a
    truncated-mean centering.  The coupled pair prices its chain legs with
    ``entropy``, and ``unit(v, n, h)`` puts a chain value or a weight
    coupling v into the continuum units (i/n, x/h, w/m(n h)).
    """

    prefactor_text: str
    box: Callable[[int, float, TailParams, float], int]
    scale_arg: Callable[[int, int], float]
    prefactor: Callable[[int], float] = lambda n: 1.0
    cutoff: Callable[[int, float, TailParams], float] | None = None
    cutoff_text: str = ""
    entropy: str = ENTROPY_QUADRATIC
    unit: Callable[[float, int, int], float] = lambda v, n, h: v * n / (h * h)

    def constants(self, n: int, beta: float, tail: TailParams, kernel_cutoff: float) -> dict:
        """A size's field box h, prefactor, weight scale beta_n *
        quantile(scale_arg(n, h)), and the coupled pair's units (n, h,
        m(n h)) and effective coupling nu = unit(beta_n m(n h), n, h)."""
        h = self.box(n, beta, tail, kernel_cutoff)
        m = quantile(tail, float(n) * h)
        return dict(h=h, prefactor=self.prefactor(n),
                    scale=beta * quantile(tail, self.scale_arg(n, h)),
                    units=(n, h, m), nu=self.unit(beta * m, n, h))


LINEAR = Pathway(
    "1/(beta_n * quantile(tail, n^2))",
    box=lambda n, beta, tail, k: n,
    scale_arg=lambda n, h: float(n) ** 2,
    entropy=ENTROPY_LIPSCHITZ,
    unit=lambda v, n, h: v / n,  # h = n; a float order of its own
)
BALANCED = Pathway(
    "1/(beta_n * quantile(tail, n * h_n))",
    box=lambda n, beta, tail, k: max(1, round(fluctuation_scale(n, beta, tail).h)),
    scale_arg=lambda n, h: float(n) * h,
    cutoff=lambda n, beta, tail: 1.0 / beta,
    cutoff_text="1/beta_n",
)
DIFFUSIVE = Pathway(
    "sqrt(n)/(beta_n * quantile(tail, n^{3/2}))",
    box=lambda n, beta, tail, k: min(n, math.ceil(k * math.sqrt(n))),
    scale_arg=lambda n, h: float(n) ** 1.5,
    prefactor=math.sqrt,
    cutoff=lambda n, beta, tail: quantile(tail, float(n) ** 1.5),
    cutoff_text="quantile(n^{3/2})",
)


@dataclass(frozen=True)
class RegimeRecord:
    """Normalization of one resolved label: pathway, centering rule
    (a ``polymer.CENTER_*`` kind applied for alpha >= center_from),
    wrapper, limit-object text and companion functional.

    ``companion(points, beta_limit, nu)`` evaluates the limit functional
    on a top-ell Poisson sample, nu being the replica's effective
    coupling; it is None on the diffusive pathway, whose companion is the
    doubled heat-kernel sum.  ``draw_companion`` draws every label's
    companion, the diffusive one included.
    """

    pathway: Pathway
    wrapper: str
    limit: Callable[[float], str]
    companion: Callable[[np.ndarray, float, float], float] | None
    centering: str = CENTER_NONE
    center_from: float = 0.0

    def centering_total(self, n: int, beta: float, tail: TailParams) -> float:
        """n * beta_n times the centering moment; 0 where the rule is off."""
        if beta == 0.0 or self.centering == CENTER_NONE or tail.alpha < self.center_from:
            return 0.0
        return n * beta * centering_moment(tail, self.centering, self.pathway.cutoff(n, beta, tail))

    def draw_companion(self, config, beta_limit: float, nu: float, seed) -> float:
        """A replica's companion on a limit sample drawn with ``seed``: the
        functional on a top-``config.ell`` sample or, on the diffusive
        pathway, twice the heat-kernel sum above ``config.eps`` at zero
        coupling (nan above it).  A term the centering rule sets goes here."""
        if self.companion is not None:
            pts = sample_ppp(config.alpha, 1.0, top=config.ell, seed=seed)
            return self.companion(pts, beta_limit, nu)
        if beta_limit == 0.0:
            return 2.0 * sample_heat_kernel_sum(
                config.alpha, config.eps, half_width=config.kernel_cutoff, seed=seed
            )
        return math.nan  # the stable functional at positive coupling is out of scope

    def recipe(self, beta_limit: float, alpha: float) -> Tuple[str, str]:
        """Normalizer description and limit object at the limiting coupling."""
        centering = "none"
        if self.centering != CENTER_NONE:
            moment = (
                "mean_weight(tail)" if self.centering == CENTER_MEAN
                else f"truncated_mean_weight(tail, {self.pathway.cutoff_text})"
            )
            rule = f"subtract n * beta_n * {moment}"
            if self.pathway is DIFFUSIVE:  # states the alpha condition, unresolved
                centering = f"{rule} when alpha >= {self.center_from:g}"
            elif alpha >= self.center_from:
                centering = rule
        normalizer = (
            f"prefactor {self.pathway.prefactor_text}; centering {centering}; "
            f"wrapper {self.wrapper}"
        )
        return normalizer, self.limit(beta_limit)


_LINEAR_RECORD = RegimeRecord(
    LINEAR, "identity",
    lambda b: f"lipschitz_chain_value at coupling {b:g}",
    lambda pts, b, nu: lipschitz_chain_value(pts, nu) if nu > 0 else 0.0,
)
_DIFFUSIVE_RECORD = RegimeRecord(
    DIFFUSIVE, "identity",
    lambda b: f"2 * stable heat-kernel functional at coupling {b:g}"
    + (" (heat_kernel_sum limit)" if b == 0.0 else ""),
    None, CENTER_TRUNCATED, 1.0,
)

RECORDS = {
    LABEL_R1: _LINEAR_RECORD,
    LABEL_SMALL_N: _LINEAR_RECORD,
    LABEL_R2: RegimeRecord(
        BALANCED, "identity", lambda b: "chain_value(nu=1)",
        lambda pts, b, nu: chain_value(pts, 1.0), CENTER_MEAN, 1.5,
    ),
    LABEL_R3A: RegimeRecord(
        BALANCED, "identity",
        lambda b: f"chain_value(nu=1, beta={b:g}) (floored penalized value)",
        lambda pts, b, nu: chain_value(pts, 1.0, beta=b), CENTER_MEAN, 1.5,
    ),
    LABEL_R3B: RegimeRecord(
        BALANCED, "log",
        lambda b: f"chain_value(nu=1, beta={b:g}, cardinality=at_least(1))",
        lambda pts, b, nu: chain_value(pts, 1.0, beta=b, cardinality=at_least(1)),
        CENTER_TRUNCATED, 1.0,
    ),
    LABEL_R4: RegimeRecord(
        BALANCED, "log(sqrt(n) * .)", lambda b: "single_point_max at coupling 1",
        lambda pts, b, nu: single_point_max(pts, 1.0).value, CENTER_TRUNCATED, 1.0,
    ),
    LABEL_R5: _DIFFUSIVE_RECORD,
    LABEL_SMALL_SQRT: _DIFFUSIVE_RECORD,
    LABEL_ZERO: _DIFFUSIVE_RECORD,  # the beta = 0 control of campaigns
}


# random split -> (label above the critical coupling, label below it,
# their recipe names, their branch names)
_SPLITS = {
    LABEL_R3: (LABEL_R3A, LABEL_R3B, "positive-value", "zero-value", "positive", "zero"),
    LABEL_SMALL_SPLIT: (LABEL_SMALL_N, LABEL_SMALL_SQRT,
                        "order-n", "order-sqrt(n)", "order-n", "diffusive"),
}


def _branch_coupling(label: str, beta_limit: float) -> float:
    """The coupling of a split's branch: 0 on a diffusive branch, whose
    record's coupling is the limit of q3.  Where q1 is finite at alpha <
    1/2, q3 has order n^(1 - 1/(2 alpha)) and tends to 0."""
    return 0.0 if RECORDS[label].pathway is DIFFUSIVE else beta_limit


def classify(
    alpha: float,
    schedule,
    n_probe: int = 1_000_000,
    *,
    tail: TailParams | None = None,
    seed=None,
) -> RegimeReport:
    """Classify a coupling schedule and return its normalization recipe.

    Power-law schedules are classified symbolically; explicit ones by
    numeric probing at n_probe and 16 n_probe.  Two outcomes
    depend on the sign of a random continuum value: the log-window
    class splits into R3a/R3b and the alpha < 1/2 transition line
    splits into the two scales.  With ``seed`` given, those splits are
    resolved by comparing the probe coupling to a Monte Carlo estimate
    of the critical coupling (``SPLIT_ESTIMATE`` sets its cost);
    without a seed the unsplit label is returned with both recipes.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("unsupported alpha: classification needs alpha in (0, 2)")
    if tail is None:
        tail = TailParams(alpha)
    elif tail.alpha != alpha:
        raise ValueError("tail.alpha must match alpha")
    if n_probe < 2:
        raise ValueError(f"n_probe must be at least 2, got {n_probe}")
    try:
        (16.0 * n_probe) ** 2  # the largest probe argument
    except OverflowError:
        raise ValueError("n_probe is too large: (16 n_probe)^2 leaves the float range") from None

    (q1, q2, q3), probes = _probe_limits(schedule, tail, n_probe)
    h = fluctuation_scale(n_probe, schedule.at(n_probe), tail)
    xi = (
        fluctuation_exponent(alpha, schedule.gamma)
        if isinstance(schedule, PowerLawSchedule)
        else None
    )
    split_threshold = math.nan

    if alpha == 0.5:
        label, beta_limit = LABEL_BOUNDARY, math.nan
    elif alpha < 0.5:
        if q1 == math.inf:
            label, beta_limit = LABEL_SMALL_N, math.inf
        elif q1 == 0.0:
            label, beta_limit = LABEL_SMALL_SQRT, 0.0
        else:
            label, beta_limit = LABEL_SMALL_SPLIT, q1
    elif q1 > 0.0:
        label, beta_limit = LABEL_R1, q1
    elif q2 == math.inf:
        label, beta_limit = LABEL_R2, 1.0
    elif q2 > 0.0:
        label, beta_limit = LABEL_R3, q2
    elif q3 == math.inf:
        label, beta_limit = LABEL_R4, 1.0
    else:
        label, beta_limit = LABEL_R5, q3

    if seed is not None and label in _SPLITS:
        above, below = _SPLITS[label][:2]
        split_threshold = critical_coupling(alpha, **SPLIT_ESTIMATE, seed=seed).median
        label = above if beta_limit > split_threshold else below
        beta_limit = _branch_coupling(label, beta_limit)

    if label == LABEL_BOUNDARY:
        ratio = quantile(tail, float(n_probe) ** 2) / (
            n_probe * quantile(tail, float(n_probe) ** 1.5)
        )
        normalizer = (
            "undecided at alpha = 1/2: the scale comparison depends on "
            "the slowly varying factor; probe ratio quantile(n^2)/"
            f"(n * quantile(n^(3/2))) = {ratio:.6g} at n_probe"
        )
        limit_object = "undecided"
    elif label in _SPLITS:
        above, below, recipe_a, recipe_b, branch_a, branch_b = _SPLITS[label]
        norm_a, lim_a = RECORDS[above].recipe(beta_limit, alpha)
        norm_b, lim_b = RECORDS[below].recipe(_branch_coupling(below, beta_limit), alpha)
        normalizer = (
            f"unresolved random split, {recipe_a} recipe: "
            f"[{norm_a}]; {recipe_b} recipe: [{norm_b}]"
        )
        limit_object = f"{branch_a} branch {lim_a}; {branch_b} branch {lim_b}"
    else:
        normalizer, limit_object = RECORDS[label].recipe(beta_limit, alpha)

    return RegimeReport(
        label=label,
        h_n=h.h,
        clamped=h.clamped,
        xi=xi,
        beta_limit=beta_limit,
        normalizer=normalizer,
        limit_object=limit_object,
        probes=probes,
        split_threshold=split_threshold,
    )
