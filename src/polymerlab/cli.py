"""Command-line front end.

Five subcommands: ``polymer`` (exact log partition function of one
sampled field), ``elpp`` (chain solver on a CSV point set or on the top
weights of a sampled field), ``ppp`` (truncated point-process samples
and their limit functionals), ``regime`` (schedule classification as
JSON), and ``experiment run`` (campaign from a config file).  All of
them print a single JSON record to stdout except ``experiment``, which
writes CSV files and a manifest to a directory.

Exit codes: 0 on success, 1 when an experiment invariant failed, 2 on
bad arguments or bad input files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from .continuum import (
    DEFAULT_TOP,
    chain_value,
    critical_coupling,
    heat_kernel_sum,
    lipschitz_chain_value,
    sample_ppp,
    single_point_max,
)
from .elpp import (
    ANY,
    ENTROPY_LIPSCHITZ,
    ENTROPY_QUADRATIC,
    at_least,
    exactly,
    site_price,
    solve,
)
from .environment import (
    LAW_CONSTANT,
    LAW_LOGPOWER,
    TailParams,
    quantile,
    sample_field,
    top_sites,
)
from .polymer import (
    CENTER_MEAN,
    CENTER_NONE,
    CENTER_TRUNCATED,
    PathConstraint,
    WeightFilter,
    centering_value,
    filter_above,
    filter_between,
    filter_atmost_one,
    log_partition,
)
from .regimes import PowerLawSchedule, classify, fluctuation_scale


def _finite(text: str) -> float:
    """A number flag's value: nan, inf and numbers past the float range exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tail_from_args(args) -> TailParams:
    return TailParams(args.alpha, law=args.law, c=args.c, b=args.b)


def _add_law_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--law", choices=(LAW_CONSTANT, LAW_LOGPOWER), default=LAW_CONSTANT,
        help="weight tail family (default constant L = c)",
    )
    parser.add_argument("--c", type=_finite, default=1.0, help="constant L value")
    parser.add_argument(
        "--b", type=_finite, default=1.0, help="logpower exponent of L"
    )


# spec grammars: (noun, field type, head -> (constructor, field count))
_FILTER_SPECS = ("filter", float, {
    "all": (WeightFilter, 0), "atmost1": (filter_atmost_one, 0),
    "above": (filter_above, 1), "between": (filter_between, 2),
})
_CARDINALITY_SPECS = ("cardinality", int, {
    "any": (lambda: ANY, 0), "exactly": (exactly, 1), "atleast": (at_least, 1),
})


def _parse_spec(text: str, grammar):
    """A ``head[:field...]`` spec: the head names a constructor of the
    grammar, which takes exactly its count of typed fields."""
    noun, kind, heads = grammar
    head, _, rest = text.partition(":")
    fields = rest.split(":") if rest else []
    if head not in heads or len(fields) != heads[head][1]:
        raise ValueError(f"bad {noun} spec {text!r}")
    return heads[head][0](*map(kind, fields))


def _emit(record: dict) -> int:
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# polymer


def _cmd_polymer(args) -> int:
    tail = _tail_from_args(args)
    if args.beta is not None:
        beta = args.beta
    else:
        beta = PowerLawSchedule(args.gamma, args.beta_hat).at(args.n)
    window = tuple(args.window) if args.window else None
    constraint = PathConstraint(
        band=args.band,
        band_window=window,
        weight_filter=_parse_spec(args.filter, _FILTER_SPECS),
        centering=args.centering,
    )

    t0 = time.perf_counter()
    field = sample_field(args.n, args.h, tail, args.seed)
    t1 = time.perf_counter()
    logz = log_partition(field, beta, constraint)
    t2 = time.perf_counter()

    # no transversal scale below zero coupling or at one step: its keys are null
    scale = fluctuation_scale(args.n, beta, tail) if beta >= 0.0 and args.n >= 2 else None
    return _emit({
        "logZ": float(logz),
        "normalizers": {
            "beta": beta,
            "h_n": scale and scale.h,
            "h_n_clamped": scale and scale.clamped,
            "weight_scale": scale and quantile(tail, args.n * scale.h),
            "centering_per_step": centering_value(tail, beta, args.centering),
        },
        "timings": {"sample_s": t1 - t0, "transfer_s": t2 - t1},
        "params": {
            "n": args.n, "h": args.h, "alpha": args.alpha, "law": args.law,
            "band": args.band, "window": window, "filter": args.filter,
            "centering": args.centering, "seed": args.seed,
        },
    })


# ---------------------------------------------------------------------------
# elpp


def _read_points_csv(path: str) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row[:3]])
            except ValueError:
                if lineno == 0:
                    continue  # header row
                raise ValueError(f"{path}:{lineno + 1}: non-numeric row")
            if len(row) < 3:
                raise ValueError(f"{path}:{lineno + 1}: need t,x,w columns")
    return np.asarray(rows, dtype=float).reshape(-1, 3)


def _cmd_elpp(args) -> int:
    if (args.points_file is None) == (args.from_field is None):
        raise ValueError("give a points file or --from-field, not both")
    if args.points_file is not None:
        points = _read_points_csv(args.points_file)
        kappa = args.kappa if args.kappa is not None else 0.0
        source = {"file": args.points_file}
    else:
        spec = args.from_field.split(",")
        if len(spec) != 5:
            raise ValueError("--from-field needs n,h,alpha,seed,ell")
        n, h, alpha, seed, ell = (
            int(spec[0]), int(spec[1]), float(spec[2]), int(spec[3]),
            int(spec[4]),
        )
        points = top_sites(sample_field(n, h, TailParams(alpha), seed), ell)
        kappa = args.kappa if args.kappa is not None else site_price(n)
        source = {"n": n, "h": h, "alpha": alpha, "seed": seed, "ell": ell}

    solution = solve(
        points, args.beta, kappa=kappa, entropy_kind=args.entropy,
        cardinality=_parse_spec(args.cardinality, _CARDINALITY_SPECS),
    )
    return _emit({
        "value": solution.value,
        "chain": [list(p) for p in solution.chain],
        "params": {
            "beta": args.beta, "kappa": kappa, "entropy": args.entropy,
            "cardinality": args.cardinality, "points": int(len(points)),
            "source": source,
        },
    })


# ---------------------------------------------------------------------------
# ppp

# op -> (functional of the points and args, whether it needs --beta, default
# q); W0 defaults to the wide box its kernel tail needs
_PPP_OPS = {
    "T": (lambda pts, args: chain_value(pts, args.nu), False, 1.0),
    "tildeT": (lambda pts, args: chain_value(pts, args.nu, beta=args.beta), True, 1.0),
    "hatT": (lambda pts, args: lipschitz_chain_value(pts, args.beta), True, 1.0),
    "W": (lambda pts, args: single_point_max(pts, args.beta).value, True, 1.0),
    "W0": (lambda pts, args: heat_kernel_sum(pts), False, 8.0),
}


def _cmd_ppp(args) -> int:
    if args.op == "beta_c":
        if args.eps is not None:
            raise ValueError("beta_c estimates run in top mode")
        top = args.top if args.top is not None else DEFAULT_TOP
        est = critical_coupling(
            args.alpha, replicas=args.replicas, top=top,
            q=args.q, seed=args.seed,
        )
        return _emit({
            "op": "beta_c",
            "value": est.median,
            "ci_low": est.ci_low,
            "ci_high": est.ci_high,
            "relative_shift": est.relative_shift,
            "failures": est.failures,
            "truncation": {"mode": "top", "top": est.top,
                           "doubled_top": 2 * est.top},
            "params": {"alpha": est.alpha, "q": est.q, "flavor": est.flavor,
                       "replicas": args.replicas, "seed": args.seed},
        })

    # default truncation: 256 heaviest points
    functional, needs_beta, default_q = _PPP_OPS[args.op]
    q = args.q if args.q is not None else default_q
    eps, top = args.eps, args.top
    if eps is None and top is None:
        top = DEFAULT_TOP
    if needs_beta and args.beta is None:
        raise ValueError(f"{args.op} needs --beta")
    points = sample_ppp(args.alpha, q, eps=eps, top=top, seed=args.seed)
    value = functional(points, args)

    return _emit({
        "op": args.op,
        "value": float(value),
        "truncation": {
            "mode": "eps" if eps is not None else "top",
            "eps": eps,
            "top": top,
            "points": int(len(points)),
        },
        "params": {"alpha": args.alpha, "q": q, "nu": args.nu,
                   "beta": args.beta, "seed": args.seed},
    })


# ---------------------------------------------------------------------------
# regime


def _cmd_regime(args) -> int:
    report = classify(
        args.alpha,
        PowerLawSchedule(args.gamma, args.beta_hat),
        args.n,
        tail=_tail_from_args(args),
        seed=args.seed,
    )
    return _emit(asdict(report))


# ---------------------------------------------------------------------------
# experiment


def _cmd_experiment(args) -> int:
    from .experiments import run_from_file  # the one command that runs campaigns
    return run_from_file(args.config, out_dir=args.out, threads=args.threads)


# ---------------------------------------------------------------------------
# parser


@functools.cache  # one parser per process, built on first use; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymerlab",
        description="heavy-tail polymer solvers and experiment campaigns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polymer", help="exact log partition of one field")
    p.add_argument("--n", type=int, required=True, help="number of steps")
    p.add_argument("--h", type=int, required=True, help="field half-width")
    p.add_argument("--alpha", type=_finite, required=True, help="tail exponent")
    coupling = p.add_mutually_exclusive_group(required=True)
    coupling.add_argument("--beta", type=_finite, help="coupling, fixed")
    coupling.add_argument(
        "--gamma", type=_finite, help="coupling exponent: beta_hat * n^(-gamma)"
    )
    p.add_argument("--beta-hat", type=_finite, default=1.0)
    p.add_argument("--band", type=int, default=None, help="max |S_i| <= band")
    p.add_argument(
        "--window", type=int, nargs=2, metavar=("H1", "H2"), default=None,
        help="max |S_i| in [H1, H2)",
    )
    p.add_argument(
        "--filter", default="all",
        help="energy filter: all | atmost1 | above:T | between:LO:HI",
    )
    p.add_argument(
        "--centering",
        choices=(CENTER_NONE, CENTER_MEAN, CENTER_TRUNCATED),
        default=CENTER_NONE,
    )
    p.add_argument("--seed", type=int, default=0)
    _add_law_flags(p)
    p.set_defaults(handler=_cmd_polymer)

    p = sub.add_parser("elpp", help="chain solver on a point set")
    p.add_argument(
        "points_file", nargs="?", default=None,
        help="CSV of t,x,w rows (header row allowed)",
    )
    p.add_argument(
        "--from-field", default=None, metavar="N,H,ALPHA,SEED,ELL",
        help="solve on the ELL heaviest reachable sites of a sampled field",
    )
    p.add_argument("--beta", type=_finite, required=True)
    p.add_argument(
        "--kappa", type=_finite, default=None,
        help="per-point price (default 0 for files, log(n)/2 for fields)",
    )
    p.add_argument(
        "--cardinality", default="any",
        help="chain size: any | exactly:K | atleast:R",
    )
    p.add_argument(
        "--entropy", choices=(ENTROPY_QUADRATIC, ENTROPY_LIPSCHITZ),
        default=ENTROPY_QUADRATIC,
    )
    p.set_defaults(handler=_cmd_elpp)

    p = sub.add_parser("ppp", help="point-process sample functionals")
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument(
        "--q", type=_finite, default=None,
        help="box half-width (default 1; 8 for W0; flavor default for beta_c)",
    )
    p.add_argument("--eps", type=_finite, default=None, help="weight floor")
    p.add_argument(
        "--top", type=int, default=None,
        help=f"keep this many heaviest points (default {DEFAULT_TOP})",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--op", required=True, choices=(*_PPP_OPS, "beta_c"))
    p.add_argument("--nu", type=_finite, default=1.0, help="weight prefactor")
    p.add_argument("--beta", type=_finite, default=None)
    p.add_argument(
        "--replicas", type=int, default=100, help="beta_c sample size"
    )
    p.set_defaults(handler=_cmd_ppp)

    p = sub.add_parser("regime", help="classify a coupling schedule")
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument("--gamma", type=_finite, required=True)
    p.add_argument("--beta-hat", type=_finite, default=1.0)
    p.add_argument(
        "--n", type=int, default=1_000_000, help="probe size for the scale"
    )
    p.add_argument("--seed", type=int, default=None)
    _add_law_flags(p)
    p.set_defaults(handler=_cmd_regime)

    p = sub.add_parser("experiment", help="run a campaign config")
    exp_sub = p.add_subparsers(dest="experiment_command", required=True)
    run_p = exp_sub.add_parser("run", help="run one config file")
    run_p.add_argument("config", help="JSON config file")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--threads", type=int, default=None)
    run_p.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
