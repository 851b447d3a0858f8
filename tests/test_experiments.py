"""Tests for the campaign runner: configs, the four kinds, emission."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import platform
import random
import statistics
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
from scipy.integrate import IntegrationWarning

from polymerlab.continuum import (
    chain_value,
    lipschitz_chain_value,
    sample_heat_kernel_sum,
    sample_ppp,
    single_point_max,
)
from polymerlab.environment import TailParams, quantile, sample_field
from polymerlab.regimes import LABEL_R1, LABEL_R5, fluctuation_scale
from polymerlab import experiments
from polymerlab.experiments import (
    KIND_FLUCTUATION,
    KIND_ORDERED,
    KIND_REGIME,
    KIND_SMALL_ALPHA,
    ExperimentConfig,
    Table,
    derive_seed,
    load_config,
    run_experiment,
    run_from_file,
    write_outputs,
)


def make_config(**overrides):
    base = dict(
        kind=KIND_REGIME,
        alpha=1.2,
        gamma=1.0,
        sizes=(16, 32),
        replicas=3,
        seed=7,
        ell=12,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config loading and validation


def test_config_round_trip_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "schema": 1,
        "kind": "fluctuation",
        "alpha": 1.0,
        "gamma": 1.25,
        "beta_hat": 0.3,
        "sizes": [16, 32],
        "replicas": 4,
        "seed": 11,
        "a_values": [1, 2, 4],
    }))
    cfg = load_config(path)
    assert cfg.kind == "fluctuation"
    assert cfg.sizes == (16, 32)
    assert cfg.a_values == (1.0, 2.0, 4.0)
    assert cfg.c1_values == (0.25, 0.5, 1.0)  # default filled
    assert cfg.threads == 1


def test_config_rejects_bad_input(tmp_path):
    good = {
        "schema": 1, "kind": "fluctuation", "alpha": 1.0, "gamma": 1.25,
        "sizes": [16], "replicas": 1, "seed": 0,
    }

    def load(drop=(), **patch):
        raw = {k: v for k, v in dict(good, **patch).items() if k not in drop}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        return load_config(path)

    with pytest.raises(ValueError, match="schema"):
        load(schema=2)
    with pytest.raises(ValueError, match="unknown config keys"):
        load(extra=1)
    with pytest.raises(ValueError, match="increasing"):
        load(sizes=[32, 16])
    with pytest.raises(ValueError, match="replicas"):
        load(replicas=0)
    with pytest.raises(ValueError, match="capped"):
        load(sizes=[8192])
    with pytest.raises(ValueError, match="kind"):
        load(kind="nope")
    with pytest.raises(ValueError, match=r"missing config keys: \['kind', 'seed'\]"):
        load(drop=("kind", "seed"))
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        load(seed=-1)


def test_config_rejects_non_integer_counts():
    for key, value in [("replicas", 1.5), ("replicas", True), ("seed", 7.0),
                       ("ell", 12.5), ("threads", False), ("half_width", 3.5),
                       ("sizes", (16.7,)), ("sizes", (16, 32.0))]:
        with pytest.raises(ValueError, match="integer"):
            make_config(**{key: value})
    # numpy integers are integers; they are stored as Python ints, lists
    # as tuples and float-list items as floats
    cfg = make_config(sizes=[np.int64(16)], replicas=np.int32(2), seed=np.uint64(7),
                      a_values=[1, 2.5])
    assert cfg.sizes == (16,) and cfg.replicas == 2 and cfg.seed == 7
    assert type(cfg.sizes[0]) is type(cfg.replicas) is type(cfg.seed) is int
    assert cfg.a_values == (1.0, 2.5) and type(cfg.a_values[0]) is float
    assert run_experiment(cfg).invariant_failures == 0


@pytest.mark.parametrize(
    "key, value",
    [("alpha", "1"), ("eps", "1e-3"), ("beta_hat", None), ("sizes", 5),
     ("a_values", (1, "2")), ("law", 3), ("out", 5), ("kind", 3)],
)
def test_config_rejects_mistyped_values(key, value):
    # the same annotation-derived check as load_config's, for configs built in Python
    with pytest.raises(ValueError, match="wrong type"):
        make_config(**{key: value})


TINY = {
    KIND_REGIME: dict(alpha=1.2, gamma=1.0),
    KIND_FLUCTUATION: dict(alpha=1.0, gamma=1.25, beta_hat=0.3),
    KIND_ORDERED: dict(alpha=1.0, gamma=0.0, ell=3, half_width=4),
    KIND_SMALL_ALPHA: dict(alpha=0.4, gamma=5.0),
}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_row_has_one_field_per_column(kind):
    res = run_experiment(make_config(kind=kind, sizes=(16,), replicas=2, **TINY[kind]))
    assert res.tables
    for name, table in res.tables.items():
        assert table.rows, name
        assert {len(row) for row in table.rows} == {len(table.columns)}, name


# ---------------------------------------------------------------------------
# the draw buffer: one per size and campaign call


def _recording(monkeypatch, kind, record):
    """Swap ``kind``'s replica for one that passes (field, bundle) to ``record``."""
    spec = experiments._KINDS[kind]

    def replica(t, field):
        bundle = spec.replica(t, field)
        record(field, bundle)
        return bundle

    monkeypatch.setitem(experiments._KINDS, kind, spec._replace(replica=replica))


def test_sample_field_keeps_its_bytes_through_a_campaign_draw():
    # a campaign of the same box shape (fluctuation: h = n) draws into its
    # own buffer, never into an array that sample_field handed out
    field = sample_field(16, 16, TailParams(1.0), 5)
    before = field.weights.tobytes()
    cfg = make_config(kind=KIND_FLUCTUATION, sizes=(16,), replicas=2, **TINY[KIND_FLUCTUATION])
    run_experiment(cfg)
    assert field.weights.tobytes() == before
    assert field.weights.flags.owndata and not field.weights.flags.writeable


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@pytest.mark.parametrize("kind", sorted(TINY))
def test_no_replica_bundle_shares_the_draw_buffer(monkeypatch, kind):
    seen = []
    _recording(monkeypatch, kind, lambda field, bundle: seen.append((field.weights, bundle)))
    run_experiment(make_config(kind=kind, sizes=(16, 24), replicas=2, **TINY[kind]))
    buffers = [weights for weights, _ in seen]
    # one buffer per size, reused by every replica of it
    assert [b is buffers[0] for b in buffers] == [True, True, False, False]
    assert buffers[2] is buffers[3]
    for weights, bundle in seen:
        leaves = list(_leaves(bundle))
        assert leaves
        assert not [v for v in leaves
                    if isinstance(v, (np.ndarray, np.generic)) and np.shares_memory(v, weights)]


# weak references to the draw buffers the replicas of this process saw
_DRAWN = []


def _raising_replica(t, field):
    _DRAWN.append(weakref.ref(field.weights))
    raise RuntimeError(f"replica {t.replica} stops")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("raises", [False, True])
def test_draw_buffer_released_when_the_call_ends(monkeypatch, threads, raises):
    # in-process, no reference to the buffer outlives the call, a raising
    # replica's traceback included; on a pool the buffers live in the
    # workers, none of which outlives the call
    _DRAWN.clear()
    kind = KIND_FLUCTUATION
    if raises:
        monkeypatch.setitem(experiments._KINDS, kind,
                            experiments._KINDS[kind]._replace(replica=_raising_replica))
    elif threads == 1:  # a pool's replica must pickle, and the workers' buffers are theirs
        _recording(monkeypatch, kind,
                   lambda field, bundle: _DRAWN.append(weakref.ref(field.weights)))
    cfg = make_config(kind=kind, sizes=(16,), replicas=2, threads=threads, **TINY[kind])
    if raises:
        # the exception, and the frames of its traceback, are still held here
        with pytest.raises(RuntimeError, match="stops") as caught:
            run_experiment(cfg)
        assert caught.tb is not None
    else:
        run_experiment(cfg)
    assert len(_DRAWN) == (0 if threads > 1 else 1 if raises else 2)
    assert [ref() for ref in _DRAWN] == [None] * len(_DRAWN)
    assert multiprocessing.active_children() == []
    assert experiments._worker_buffers == {}


def test_diffusive_campaign_holds_one_field_beyond_the_grid():
    # criterion 9's kind, after a warm-up replica that caches the kernel
    # grid: the replicas draw into the one buffer and sum the first chaos
    # term in it, so the traced peak stays under the field, room for the
    # grid's bytes (which hold top_sites' compact copy, half a field, and
    # the truncation mask, an eighth) and a slack of a quarter field for
    # the transfer rows, the tables and the companion's points.  A fresh
    # field per replica, chaos_v_n's copy and expm1's output took 3 fields
    cfg = make_config(alpha=0.75, gamma=3.0, sizes=(256,), replicas=4, ell=32)
    run_experiment(dataclasses.replace(cfg, replicas=1))
    field_bytes = grid_bytes = 256 * (2 * 128 + 1) * 8  # the diffusive box h = 8 sqrt(n)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= field_bytes + grid_bytes + 0.25 * field_bytes


# ---------------------------------------------------------------------------
# fluctuation decay


def test_fluctuation_out_of_range_band_is_zero():
    # h_n >= sqrt(16) = 4, so A = 64 puts the band past the walk range
    cfg = make_config(
        kind=KIND_FLUCTUATION, alpha=1.0, gamma=1.25, beta_hat=0.3,
        sizes=(16,), replicas=2, a_values=(1.0, 64.0),
    )
    res = run_experiment(cfg)
    far = [r for r in res.tables["gibbs_tail"].rows if r[3] == 64.0]
    assert far and all(r[5] == 0.0 for r in far)
    assert res.invariant_failures == 0


def test_fluctuation_zero_coupling_matches_walk_enumeration():
    n = 12
    cfg = make_config(
        kind=KIND_FLUCTUATION, alpha=1.0, gamma=1.25, beta_hat=0.0,
        sizes=(n,), replicas=1, a_values=(1.0, 2.0),
    )
    res = run_experiment(cfg)
    # all 2^n walks, exact rational tail of max |S_i|
    steps = np.array(list(product((-1, 1), repeat=n)))
    peaks = np.abs(np.cumsum(steps, axis=1)).max(axis=1)
    h_n = math.sqrt(n)  # beta = 0 clamps the scale to sqrt(n)
    for row in res.tables["gibbs_tail"].rows:
        a, prob = row[3], row[5]
        want = np.mean(peaks >= math.ceil(a * h_n))
        assert prob == pytest.approx(want, abs=1e-12)


def test_fluctuation_tail_nonincreasing_in_a():
    cfg = make_config(
        kind=KIND_FLUCTUATION, alpha=1.2, gamma=1.0, beta_hat=0.5,
        sizes=(48,), replicas=20,
    )
    res = run_experiment(cfg)
    assert res.invariant_failures == 0
    rows = res.tables["gibbs_tail"].rows
    for rep in range(20):
        probs = [r[5] for r in rows if r[1] == rep]
        assert probs == sorted(probs, reverse=True)
    # paired replicas: fractions above any fixed cut inherit monotonicity
    for cut in (1e-6, 1e-3, 0.1):
        fracs = [
            np.mean([r[5] > cut for r in rows if r[3] == a])
            for a in cfg.a_values
        ]
        assert all(b <= a + 1e-12 for a, b in zip(fracs, fracs[1:]))
    decay = res.tables["decay"].rows
    assert len(decay) == len(cfg.a_values) * len(cfg.c1_values)
    assert all(0.0 <= r[4] <= 1.0 and r[3] > 0.0 for r in decay)


def test_fluctuation_rejects_wrong_regime():
    with pytest.raises(ValueError, match="strip"):
        run_experiment(make_config(
            kind=KIND_FLUCTUATION, alpha=1.0, gamma=0.25, sizes=(16,),
            replicas=1,
        ))
    with pytest.raises(ValueError, match="alpha"):
        run_experiment(make_config(
            kind=KIND_FLUCTUATION, alpha=0.4, gamma=4.0, sizes=(16,),
            replicas=1,
        ))


def test_fluctuation_csv_bytes_identical_across_threads(tmp_path):
    outs = []
    for threads, name in ((1, "one"), (2, "two")):
        cfg = make_config(
            kind=KIND_FLUCTUATION, alpha=1.2, gamma=1.0, beta_hat=0.5,
            sizes=(16, 24), replicas=4, threads=threads,
        )
        out = tmp_path / name
        write_outputs(run_experiment(cfg), out)
        outs.append(out)
    for csv_name in ("gibbs_tail.csv", "decay.csv"):
        a = (outs[0] / csv_name).read_bytes()
        b = (outs[1] / csv_name).read_bytes()
        assert a == b and len(a) > 0


# ---------------------------------------------------------------------------
# regime convergence


def test_regime_coupled_identity_exact_per_replica():
    cfg = make_config(alpha=1.2, gamma=1.0, sizes=(24, 48), replicas=6)
    res = run_experiment(cfg)
    assert res.meta["label"] == "R2"
    assert res.invariant_failures == 0
    for row in res.tables["coupling"].rows:
        assert row[6] <= 1e-9 * max(1.0, abs(row[5]))


def test_regime_linear_scale_pathway():
    # gamma below 2/alpha - 1 keeps the linear-scale mechanism
    cfg = make_config(alpha=1.2, gamma=0.5, sizes=(16, 32), replicas=4)
    res = run_experiment(cfg)
    assert res.meta["label"] == "R1"
    rows = res.tables["observable"].rows
    assert all(r[4] == r[0] for r in rows)  # full-width field box
    assert all(np.isfinite(r[7]) for r in rows)
    assert all(r[9] >= 0.0 for r in rows)  # Lipschitz companion
    assert "lipschitz_chain_value" in res.meta["limit_object"]
    assert res.invariant_failures == 0


@pytest.mark.parametrize(
    "alpha, gamma, label", [(1.2, 0.5, "R1"), (0.3, 2.0, "alpha-small-n-scale")]
)
def test_regime_linear_pathway_slope_one_legs(alpha, gamma, label):
    # at n 48 the lattice chains use slope-1 legs whose rescaled |dx|
    # rounds above dt; both solvers must still price them, so the coupled
    # pair agrees on every replica
    cfg = make_config(alpha=alpha, gamma=gamma, sizes=(24, 48), replicas=4, seed=77)
    res = run_experiment(cfg)
    assert res.meta["label"] == label
    assert res.invariant_failures == 0


def test_regime_zero_coupling_observable_zero():
    cfg = make_config(beta_hat=0.0, sizes=(16,), replicas=3)
    res = run_experiment(cfg)
    assert res.meta["label"] == "zero-coupling"
    for row in res.tables["observable"].rows:
        assert row[7] == 0.0 and row[8] == 0.0
        assert row[9] > 0.0  # diagnostic heat-kernel companion
    assert res.invariant_failures == 0


def test_regime_diffusive_emits_vn_and_companion():
    cfg = make_config(alpha=0.75, gamma=3.0, sizes=(32, 64), replicas=4)
    res = run_experiment(cfg)
    assert res.meta["label"] == "R5"
    assert res.meta["beta_limit"] == 0.0
    for row in res.tables["observable"].rows:
        assert np.isfinite(row[8]) and row[8] >= 0.0  # rescaled v_n
        assert row[9] > 0.0
    ks = res.tables["ks_summary"].rows
    assert [(r[0], r[1]) for r in ks] == [
        (32, "rescaled"), (32, "rescaled_vn"),
        (64, "rescaled"), (64, "rescaled_vn"),
    ]
    assert all(0.0 <= r[2] <= 1.0 for r in ks)


def _nan_ks_warnings(cfg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_experiment(cfg)
    return res, [str(w.message) for w in caught
                 if w.category is RuntimeWarning and "companion is not finite" in str(w.message)]


def test_regime_ks_warns_once_per_size_when_a_companion_is_nan():
    # alpha 0.75, gamma 2 is R5 at beta_limit 1, where every companion is
    # nan: the KS rows are nan, and each size warns once, by n and label
    res, caught = _nan_ks_warnings(make_config(alpha=0.75, gamma=2.0, sizes=(32, 64), seed=3))
    assert res.meta["label"] == "R5" and res.invariant_failures == 0
    assert all(math.isnan(r[2]) for r in res.tables["ks_summary"].rows)
    assert caught == [f"n {n}, label R5: a companion is not finite, so the KS distances are nan"
                      for n in (32, 64)]
    # criterion 9's config compares finite companions and stays silent
    res, caught = _nan_ks_warnings(make_config(
        alpha=0.75, gamma=3.0, sizes=(64,), seed=909, ell=32, eps=1e-3, kernel_cutoff=8.0))
    assert caught == [] and all(math.isfinite(r[2]) for r in res.tables["ks_summary"].rows)


def test_resolved_diffusive_split_compares_finite_companions():
    # alpha 0.4, gamma 4 is the alpha < 1/2 split line; at beta_hat 0.005
    # the seed resolves it to the diffusive branch, which sits at coupling 0
    cfg = make_config(alpha=0.4, gamma=4.0, beta_hat=0.005, sizes=(24, 48), replicas=4, seed=77)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_experiment(cfg)
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
    assert res.meta["label"] == "alpha-small-sqrt-scale" and res.meta["beta_limit"] == 0.0
    companions = _column(res.tables["observable"], "companion")
    assert len(companions) == 8 and all(math.isfinite(c) and c > 0.0 for c in companions)
    assert all(math.isfinite(r[2]) for r in res.tables["ks_summary"].rows)
    assert res.invariant_failures == 0


def test_regime_log_window_flagging():
    # log-corrected tail on the window line; tiny beta_hat forces the
    # zero-value branch, huge forces the positive one
    common = dict(
        alpha=1.2, gamma=1.25, law="logpower", b=0.7, sizes=(16,),
        replicas=4, ell=10,
    )
    low = run_experiment(make_config(beta_hat=1e-4, **common))
    assert low.meta["label"] == "R3b"
    assert low.meta["wrapper"] == "log"
    for row in low.tables["observable"].rows:
        pts = sample_ppp(1.2, 1.0, top=10, seed=derive_seed(7, row[0], row[1], 1))
        recheck = chain_value(pts, 1.0, beta=low.meta["beta_limit"]) > 0.0
        assert row[10] == int(recheck)
    high = run_experiment(make_config(beta_hat=1e4, **common))
    assert high.meta["label"] == "R3a"
    assert high.flagged == 0


def _companion_seed(row):
    return derive_seed(7, row[0], row[1], 1)


def test_regime_single_point_pathway():
    cfg = make_config(
        alpha=1.2, gamma=1.25, law="logpower", b=0.35, sizes=(16,),
        replicas=2, ell=10,
    )
    res = run_experiment(cfg)
    assert res.meta["label"] == "R4"
    assert res.meta["wrapper"] == "log(sqrt(n) * .)"
    for row in res.tables["observable"].rows:
        n, beta = row[0], row[3]
        assert row[4] == max(1, round(fluctuation_scale(n, beta, cfg.tail()).h))
        pts = sample_ppp(1.2, 1.0, top=10, seed=_companion_seed(row))
        assert row[9] == single_point_max(pts, 1.0).value
    assert res.invariant_failures == 0


def test_regime_small_alpha_linear_pathway():
    cfg = make_config(alpha=0.3, gamma=2.0, sizes=(16,), replicas=2)
    res = run_experiment(cfg)
    assert res.meta["label"] == "alpha-small-n-scale"
    assert res.meta["wrapper"] == "identity"
    for row in res.tables["observable"].rows:
        n, beta = row[0], row[3]
        assert row[4] == n
        nu = beta * quantile(cfg.tail(), float(n) ** 2) / n
        pts = sample_ppp(0.3, 1.0, top=12, seed=_companion_seed(row))
        assert row[9] == lipschitz_chain_value(pts, nu)
    assert res.invariant_failures == 0


def test_regime_small_alpha_diffusive_pathway():
    cfg = make_config(alpha=0.3, gamma=6.0, sizes=(16,), replicas=2)
    res = run_experiment(cfg)
    assert res.meta["label"] == "alpha-small-sqrt-scale"
    assert res.meta["wrapper"] == "identity"
    for row in res.tables["observable"].rows:
        assert row[4] == min(row[0], math.ceil(8.0 * math.sqrt(row[0])))
        direct = 2.0 * sample_heat_kernel_sum(
            0.3, cfg.eps, half_width=8.0, seed=_companion_seed(row)
        )
        assert row[9] == direct
    assert res.invariant_failures == 0


def test_regime_companion_over_the_point_cap_is_refused():
    # 8e9 points above eps 1e-12 on [-8, 8]: refused before any is drawn
    cfg = make_config(alpha=0.75, gamma=3.0, sizes=(4,), replicas=1, eps=1e-12)
    with pytest.raises(ValueError, match="over"):
        run_experiment(cfg)


def test_regime_boundary_alpha_rejected():
    with pytest.raises(ValueError, match="undecided"):
        run_experiment(make_config(alpha=0.5, gamma=2.0, sizes=(16,)))


# ---------------------------------------------------------------------------
# ordered-statistics coupling


def test_ordered_positions_uniform_and_weights_decreasing():
    cfg = make_config(
        kind=KIND_ORDERED, alpha=1.0, gamma=0.0, sizes=(96,), replicas=150,
        ell=4, half_width=8,
    )
    res = run_experiment(cfg)
    assert res.invariant_failures == 0
    rows = res.tables["order_stats"].rows
    for source in ("field", "ppp"):
        t_vals = np.array([r[6] for r in rows if r[2] == source])
        se = math.sqrt(1.0 / 12.0 / t_vals.size)
        assert abs(t_vals.mean() - 0.5) < 3.0 * se + 0.01
    for rep, source in product(range(150), ("field", "ppp")):
        w = [r[5] for r in rows if r[1] == rep and r[2] == source]
        assert w == sorted(w, reverse=True)


def test_ordered_top_weight_frechet_both_sources():
    cfg = make_config(
        kind=KIND_ORDERED, alpha=0.8, gamma=0.0, sizes=(256,), replicas=300,
        ell=2, half_width=16,
    )
    res = run_experiment(cfg)
    rows = res.tables["order_stats"].rows
    for source, bound in (("ppp", 0.08), ("field", 0.1)):
        top = np.sort([r[5] for r in rows if r[2] == source and r[3] == 1])
        cdf = np.exp(-top ** -0.8)
        grid = np.arange(1, top.size + 1) / top.size
        ks = np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - grid + 1.0 / top.size)))
        assert ks < bound


def test_ordered_ks_table_shape():
    cfg = make_config(
        kind=KIND_ORDERED, alpha=1.0, gamma=0.0, sizes=(32, 64), replicas=20,
        ell=3, half_width=5,
    )
    res = run_experiment(cfg)
    ks = res.tables["marginal_ks"].rows
    assert len(ks) == 2 * 3
    assert all(0.0 <= r[2] <= 1.0 and r[3] == 20 for r in ks)


def test_ordered_ell_cap():
    with pytest.raises(ValueError, match="capped"):
        run_experiment(make_config(
            kind=KIND_ORDERED, alpha=1.0, gamma=0.0, sizes=(64,),
            replicas=1, ell=65,
        ))


# ---------------------------------------------------------------------------
# small tail index


def test_small_alpha_band_bounded_and_tail_monotone():
    cfg = make_config(
        kind=KIND_SMALL_ALPHA, alpha=0.4, gamma=5.0, sizes=(24, 48),
        replicas=5, c_values=(1.0, 2.0, 4.0), band_fraction=0.5,
    )
    res = run_experiment(cfg)
    assert res.invariant_failures == 0
    for row in res.tables["bands"].rows:
        assert row[5] <= row[4] + 1e-12
    for n, rep in product(cfg.sizes, range(5)):
        tails = [r[4] for r in res.tables["bands"].rows
                 if r[0] == n and r[1] == rep]
        assert tails == sorted(tails, reverse=True)


def test_small_alpha_zero_coupling_trivially_conditioned():
    cfg = make_config(
        kind=KIND_SMALL_ALPHA, alpha=0.3, gamma=0.0, beta_hat=0.0,
        sizes=(16,), replicas=4,
    )
    res = run_experiment(cfg)
    rows = res.tables["conditioned"].rows
    assert all(r[4] == 0.0 and r[5] == 1 for r in rows)  # proxy, flag
    assert all(r[7] == 0.0 for r in rows)  # rescaled log Z
    assert all(r[8] > 0.0 for r in rows)  # heat-kernel companion
    ks = res.tables["ks_summary"].rows
    assert ks[0][2] == 4 and ks[0][3] == 4


def test_small_alpha_ks_reported_when_conditioned():
    cfg = make_config(
        kind=KIND_SMALL_ALPHA, alpha=0.4, gamma=6.0, sizes=(64,),
        replicas=12,
    )
    res = run_experiment(cfg)
    (n, ks, kept, total), = res.tables["ks_summary"].rows
    assert n == 64 and total == 12 and 0 <= kept <= 12
    assert math.isnan(ks) if kept < 2 else 0.0 <= ks <= 1.0


def test_small_alpha_domain_errors():
    with pytest.raises(ValueError, match="alpha"):
        run_experiment(make_config(
            kind=KIND_SMALL_ALPHA, alpha=0.8, gamma=2.0, sizes=(16,),
        ))
    with pytest.raises(ValueError, match="diverges"):
        run_experiment(make_config(
            kind=KIND_SMALL_ALPHA, alpha=0.4, gamma=1.0, sizes=(16,),
        ))


# ---------------------------------------------------------------------------
# summary tables


def _column(table, name, **where):
    """Column ``name`` of the rows whose columns equal ``where``'s values:
    the per-cell filter the summaries read before ``Table.groups``."""
    at = table.columns.index
    keep = [(at(key), value) for key, value in where.items()]
    return [row[at(name)] for row in table.rows if all(row[i] == v for i, v in keep)]


def _table(kind, name, rows, seed):
    """Replica table ``name`` of ``kind`` holding ``rows``, shuffled."""
    rows = list(rows)
    random.Random(seed).shuffle(rows)
    return Table(experiments._KINDS[kind].tables[name], rows)


def _grid(rng):
    """A value on a coarse grid, so that samples tie."""
    return rng.randrange(8) / 4.0


def _order_stats(sizes, replicas, ell, seed):
    rng = random.Random(seed)
    return _table(KIND_ORDERED, "order_stats", [
        (n, rep, source, rank, 5, _grid(rng), _grid(rng), _grid(rng))
        for n, rep, source, rank in product(sizes, range(replicas), ("field", "ppp"),
                                            range(1, ell + 1))
    ], seed)


def _same_rows(got, expected):
    # repr tells every double apart and reads nan as nan
    assert repr(got.rows) == repr(expected)


def test_table_groups_match_per_cell_filter():
    rng = random.Random(3)
    sizes, a_values = (16, 32, 64), (0.5, 1.0, 2.0)
    table = _table(KIND_FLUCTUATION, "gibbs_tail", [
        (n, rep, 7, a, rng.choice((1.5, 2.25)), _grid(rng))
        for n, rep, a in product(sizes, range(5), a_values) if (n, a) != (64, 2.0)
    ], 3)
    groups = table.groups("tail_prob", "n", "a")
    assert (64, 2.0) not in groups and sum(map(len, groups.values())) == len(table.rows)
    for n, a in product(sizes, a_values):
        assert groups.get((n, a), []) == _column(table, "tail_prob", n=n, a=a)
    assert table.groups("h_n", "n") == {(n,): _column(table, "h_n", n=n) for n in sizes}

    # each summary's rows, against the same rows built on the per-cell filter
    config = SimpleNamespace(sizes=(16, 32), a_values=(0.5, 1.0), c1_values=(0.25, 1.0),
                             ell=4)
    tail = _table(KIND_FLUCTUATION, "gibbs_tail", [
        (n, rep, 7, a, 1.5 + n / 64, _grid(rng) / 10.0)
        for n, rep, a in product(config.sizes, range(6), config.a_values)
    ], 5)
    expected = []
    for n, a, c1 in product(config.sizes, config.a_values, config.c1_values):
        probs, h_n = _column(tail, "tail_prob", n=n, a=a), _column(tail, "h_n", n=n)[0]
        thr = n * math.exp(-c1 * a * a * h_n * h_n / n)
        expected.append((n, a, c1, thr, sum(p > thr for p in probs) / len(probs),
                         statistics.median(probs), len(probs)))
    _same_rows(experiments._decay(config, {"gibbs_tail": tail}, {})[1], expected)

    order_stats = _order_stats(config.sizes, 5, config.ell, 7)
    expected = [(n, r, experiments._ks(*(
        _column(order_stats, "weight_over_scale", n=n, source=s, rank=r) for s in ("field", "ppp")
    )), 5) for n, r in product(config.sizes, range(1, config.ell + 1))]
    _same_rows(experiments._marginal_ks(config, {"order_stats": order_stats}, {})[1], expected)

    for label, targets in ((LABEL_R1, ["rescaled"]), (LABEL_R5, ["rescaled", "rescaled_vn"])):
        observable = _table(KIND_REGIME, "observable", [
            (n, rep, 9, 0.1, 4, 0.0, 0.0, _grid(rng), _grid(rng), _grid(rng), 0, label,
             "identity", "norm")
            for n, rep in product(config.sizes, range(6))
        ], 11)
        expected = [(n, name, experiments._ks(_column(observable, name, n=n),
                                              _column(observable, "companion", n=n)), 6)
                    for n in config.sizes for name in targets]
        _same_rows(experiments._regime_ks(config, {"observable": observable},
                                          {"label": label})[1], expected)

    # no replica is conditioned at n 16, four of six at n 32
    conditioned = _table(KIND_SMALL_ALPHA, "conditioned", [
        (n, rep, 9, 0.1, 0.0, int(n == 32 and rep % 3 > 0), 0.0, _grid(rng), _grid(rng))
        for n, rep in product(config.sizes, range(6))
    ], 13)
    expected = []
    for n in config.sizes:
        kept = _column(conditioned, "rescaled", n=n, conditioned=1)
        companions = _column(conditioned, "companion", n=n)
        expected.append((n, experiments._ks(kept, companions), len(kept), len(companions)))
    got = experiments._conditioned_ks(config, {"conditioned": conditioned}, {})[1]
    _same_rows(got, expected)
    assert repr(got.rows[0]) == repr((16, math.nan, 0, 6)) and got.rows[1][2] == 4


class _CountedRows(list):
    """A row list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_marginal_ks_reads_its_table_once():
    # the per-cell filter made 2 * len(sizes) * ell passes, 256 here
    config = SimpleNamespace(sizes=(16, 32), ell=experiments.ORDERED_ELL_CAP)
    table = _order_stats(config.sizes, 3, config.ell, 17)
    rows = _CountedRows(table.rows)
    ks = experiments._marginal_ks(config, {"order_stats": Table(table.columns, rows)}, {})[1]
    assert len(ks.rows) == 2 * config.ell and rows.passes <= 1


# ---------------------------------------------------------------------------
# emission and exit codes


def test_write_outputs_layout(tmp_path):
    cfg = make_config(sizes=(16,), replicas=2)
    res = run_experiment(cfg)
    paths = write_outputs(res, tmp_path / "out")
    names = sorted(p.name for p in paths)
    assert names == ["coupling.csv", "ks_summary.csv", "observable.csv"]
    header = (tmp_path / "out" / "observable.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["n", "replica", "seed"]
    assert "normalizer" in header
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["schema"] == 1
    assert manifest["config"]["alpha"] == 1.2
    assert manifest["invariant_failures"] == 0
    assert manifest["meta"]["wall_time_s"] > 0.0
    assert manifest["tables"]["observable"] == 2


def test_manifest_provenance(tmp_path):
    # one task runs in-process whatever threads says; meta stays as it was
    cfg = make_config(sizes=(16,), replicas=1, threads=2)
    res = run_experiment(cfg)
    write_outputs(res, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["provenance"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cpu_count": os.cpu_count(), "processes": 1,
    }
    assert "provenance" not in res.meta
    assert experiments._processes(dataclasses.replace(cfg, replicas=2)) == 2
    assert experiments._processes(dataclasses.replace(cfg, threads=1, replicas=2)) == 1


def test_manifest_git_describes_the_package_tree(tmp_path, monkeypatch):
    # a campaign started from a directory outside any repository records
    # the code's commit, as one started from the repository root does,
    # and asks git once per process
    res = run_experiment(make_config(sizes=(16,), replicas=1))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    recorded = []
    for cwd in (Path(experiments.__file__).parents[2], tmp_path):
        experiments._git_describe.cache_clear()
        monkeypatch.chdir(cwd)
        write_outputs(res, tmp_path / "out")
        recorded.append(json.loads((tmp_path / "out" / "manifest.json").read_text())["git"])
    monkeypatch.setattr(experiments.subprocess, "run", None)  # a second call would fail
    write_outputs(res, tmp_path / "again")
    recorded.append(json.loads((tmp_path / "again" / "manifest.json").read_text())["git"])
    assert recorded[0] == recorded[1] == recorded[2]


def test_manifest_is_strict_json(tmp_path):
    # R1's beta_limit is infinite: the manifest holds it as the string
    # "inf", which float() reads back, and the result's meta keeps the float
    res = run_experiment(make_config(alpha=1.2, gamma=0.5, sizes=(8,), replicas=2))
    write_outputs(res, tmp_path)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    manifest = json.loads((tmp_path / "manifest.json").read_text(), parse_constant=refuse)
    assert float(manifest["meta"]["beta_limit"]) == math.inf == res.meta["beta_limit"]


def test_numpy_float_config_writes_its_manifest(tmp_path):
    # scalar float keys are stored as Python floats, so the manifest's
    # JSON echo takes numpy scalars, and integer-valued floats echo as 1.0
    cfg = make_config(sizes=(16,), replicas=2, alpha=np.float32(1.2), gamma=1)
    write_outputs(run_experiment(cfg), tmp_path)
    assert type(cfg.alpha) is type(cfg.gamma) is float
    assert cfg.alpha == float(np.float32(1.2)) and cfg.gamma == 1.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["alpha"] == float(np.float32(1.2))
    assert '"gamma": 1.0,' in (tmp_path / "manifest.json").read_text()


def test_quadrature_warnings_counted_in_manifest(tmp_path, recwarn):
    # the small-alpha diffusive campaign's replicas take the first chaos
    # term alone and integrate nothing, and its size steps meet no hard
    # quadrature, so nothing is counted
    cfg = make_config(alpha=0.3, gamma=6.0, sizes=(24, 48), replicas=4, seed=77)
    write_outputs(run_experiment(cfg), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["meta"]["quadrature_warnings"] == 0
    assert not [w for w in recwarn if "integral" in str(w.message)]
    # the count stays out of the CSVs: their bytes are those of the
    # campaign whose replicas counted warnings of the full chaos terms
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.glob("*.csv")
    }
    assert digests == {
        "coupling.csv":
            "7e786823a334905e8aae7ca723f29480ba14ea38191d79b00f735274c6cfc562",
        "ks_summary.csv":
            "c6b90ec9e4b535e29313f7ec1d08b2f2051e7fbaab653e16ed369f6915c31b37",
        "observable.csv":
            "a39c713b006675d8d24630eb4632abcac3336ee58919e1b918febbc46b280aa4",
    }


def test_size_step_quadrature_warnings_counted_once_per_size(monkeypatch, recwarn):
    # no shipped config warns in a size step, so each size's fluctuation
    # scale is made to raise one quadrature warning and one other warning
    inner = experiments.fluctuation_scale

    def warning_scale(*args):
        warnings.warn("forced quadrature warning", IntegrationWarning)
        warnings.warn("forced other warning", UserWarning)
        return inner(*args)

    monkeypatch.setattr(experiments, "fluctuation_scale", warning_scale)
    cfg = make_config(kind=KIND_FLUCTUATION, alpha=1.0, gamma=1.25, beta_hat=0.22,
                      sizes=(16, 32), replicas=3, a_values=(1.0, 2.0))
    counts = [run_experiment(dataclasses.replace(cfg, threads=threads)).meta
              ["quadrature_warnings"] for threads in (1, 2)]
    # one per size, not per replica, and the same on a pool
    assert counts == [2, 2]
    assert not [w for w in recwarn if issubclass(w.category, IntegrationWarning)]
    # the other warning is shown as usual, under the active filters
    shown = [w for w in recwarn if str(w.message) == "forced other warning"]
    assert shown and all(w.category is UserWarning for w in shown)


def test_size_step_other_warnings_show_as_the_filters_say(monkeypatch):
    # under a "default" filter a warning raised from one line in every
    # size step shows once, and a filter naming the warning's module
    # applies, as they would outside the count
    inner = experiments.fluctuation_scale

    def warning_scale(*args):
        warnings.warn("forced other warning", UserWarning)
        warnings.warn("ignored in this module", UserWarning)
        return inner(*args)

    monkeypatch.setattr(experiments, "fluctuation_scale", warning_scale)
    cfg = make_config(kind=KIND_FLUCTUATION, alpha=1.0, gamma=1.25, beta_hat=0.22,
                      sizes=(16, 32), replicas=1, a_values=(1.0,))
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("default")
        warnings.filterwarnings("ignore", "ignored in this module", module=f"{__name__}$")
        run_experiment(cfg)
    assert [str(w.message) for w in shown] == ["forced other warning"]


def test_campaigns_load_neither_scipy_stats_nor_scipy_integrate(tmp_path):
    # the KS distance is numpy's, and the quadrature-warning class is
    # looked up only after the size steps, which import scipy.integrate
    # only where they integrate; a log-power size step does, and its
    # count is the one the eager import gave (one warning per size).
    # No campaign loads scipy.special itself: the kernel grid a diffusive
    # (R5) campaign builds reads a log-factorial table, and the log-power
    # campaign prices no Lipschitz leg; scipy.integrate imports it
    src = str(Path(experiments.__file__).parent.parent)
    probe = f"""
import sys
sys.path.insert(0, {src!r})
import polymerlab.cli
from polymerlab.experiments import ExperimentConfig, run_experiment, write_outputs
loaded = lambda: [m for m in ("scipy.stats", "scipy.integrate", "scipy.special") if m in sys.modules]
print(loaded())
for kind in (dict(kind="fluctuation", alpha=1.0, gamma=1.25, beta_hat=0.22, a_values=(2.0,)),
             dict(kind="regime_convergence", alpha=1.2, gamma=1.0),
             dict(kind="regime_convergence", alpha=0.75, gamma=3.0)):
    result = run_experiment(ExperimentConfig(sizes=(16,), replicas=2, seed=7, ell=4, **kind))
    write_outputs(result, {str(tmp_path)!r})
    print(loaded())
result = run_experiment(ExperimentConfig(kind="regime_convergence", law="logpower", b=0.35,
                                         alpha=1.5, gamma=0.5, sizes=(16, 32, 64), replicas=2,
                                         seed=3, ell=4))
print(result.meta["quadrature_warnings"], loaded())
"""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.splitlines() == [
        "[]", "[]", "[]", "[]", "3 ['scipy.integrate', 'scipy.special']"]


def test_first_jobs_import_nothing():
    # every module a beta_c estimate, a fluctuation campaign or a
    # diffusive (R5) campaign reads is loaded with the package, so no
    # first job pays an import
    src = str(Path(experiments.__file__).parent.parent)
    probe = f"""
import sys
sys.path.insert(0, {src!r})
import polymerlab.cli, polymerlab.experiments
from polymerlab.continuum import critical_coupling
from polymerlab.experiments import ExperimentConfig, run_experiment
before = set(sys.modules)
critical_coupling(1.2, replicas=2, top=16, seed=1)
print(sorted(set(sys.modules) - before))
run_experiment(ExperimentConfig(kind="fluctuation", alpha=1.0, gamma=1.25, beta_hat=0.22,
                                a_values=(2.0,), sizes=(16,), replicas=2, seed=7))
print(sorted(set(sys.modules) - before))
run_experiment(ExperimentConfig(kind="regime_convergence", alpha=0.75, gamma=3.0, sizes=(16,),
                                replicas=2, seed=7, ell=4))
print(sorted(set(sys.modules) - before))
"""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.splitlines() == ["[]", "[]", "[]"]


def test_run_from_file_exit_code(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema": 1, "kind": "ordered_stats_coupling", "alpha": 1.0,
        "gamma": 0.0, "sizes": [24], "replicas": 2, "seed": 1, "ell": 3,
        "half_width": 4, "out": str(tmp_path / "res"),
    }))
    assert run_from_file(path) == 0
    assert (tmp_path / "res" / "order_stats.csv").exists()
    assert (tmp_path / "res" / "manifest.json").exists()


def test_rerun_is_byte_identical(tmp_path):
    cfg = make_config(
        kind=KIND_SMALL_ALPHA, alpha=0.4, gamma=5.0, sizes=(16,), replicas=3,
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    write_outputs(a, tmp_path / "a")
    write_outputs(b, tmp_path / "b")
    for name in ("conditioned", "bands", "ks_summary"):
        assert (tmp_path / "a" / f"{name}.csv").read_bytes() == \
            (tmp_path / "b" / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("alpha, gamma, beta_hat, n", [
    (0.3, 6.0, 1.0, 48), (0.3, 6.0, 0.0, 48), (0.4, 5.0, 1.0, 16), (0.4, 4.0, 0.005, 1000),
])
def test_small_alpha_size_is_the_hand_formulas_bit_for_bit(alpha, gamma, beta_hat, n):
    # the proxy's units and coupling come from the linear record and the
    # rescaling from the diffusive one, with the bits written out by hand
    config = make_config(kind=KIND_SMALL_ALPHA, alpha=alpha, gamma=gamma, beta_hat=beta_hat,
                         sizes=(n,))
    beta, tail = config.beta_at(n), config.tail()
    m_lin = quantile(tail, float(n) ** 2)
    got = experiments._small_alpha_size(config, {}, n, beta)
    want = dict(units=(n, n, m_lin), beta_run=beta * m_lin / n, prefactor=math.sqrt(n),
                scale=beta * quantile(tail, float(n) ** 1.5))
    assert got["h"] == n
    for key, value in want.items():
        assert repr(got[key]) == repr(value), key


def test_config_caps_half_width_at_the_size_cap():
    cap = experiments.SIZE_CAP
    assert make_config(kind=KIND_ORDERED, gamma=0.0, ell=3, half_width=cap).half_width == cap
    for half_width in (cap + 1, 10**6):
        with pytest.raises(ValueError, match=rf"half_width must lie in \[1, {cap}\]"):
            make_config(kind=KIND_ORDERED, gamma=0.0, ell=3, half_width=half_width)
