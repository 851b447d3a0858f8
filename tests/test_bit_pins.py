"""Bit pins: the exact float bytes of the transfer passes and of the
walk-kernel grid, and the float and stdout bytes of the
critical-coupling estimate and of chain solves on tied point sets.
Campaign CSV bytes are pinned in tests/golden/campaign_digests.json
(tests/test_golden.py).

The transfer digests were taken before the transfer passes were folded
into one light-cone kernel, and the threshold and chain digests before
the chain geometry was cut per replica and the DP's tie scan made
conditional, so any change of summation order, of the per-step
arithmetic or of the tie rule shows here as a changed digest, not as a
tolerance miss.
"""

import hashlib
import itertools

import numpy as np
import pytest

from polymerlab import cli
from polymerlab.continuum import _threshold, critical_coupling
from polymerlab.elpp import at_least, exactly, prepare_geometry, solve
from polymerlab.environment import TailParams, sample_field
from polymerlab.polymer import (
    CENTER_TRUNCATED,
    FREE,
    PathConstraint,
    chaos_terms,
    filter_above,
    filter_atmost_one,
    filter_between,
    gibbs_band_probability,
    gibbs_site_marginals,
    kernel_grid,
    log_partition,
)
from polymerlab.regimes import PowerLawSchedule, classify

N = 40
BOXES = (0, 20, 60)
BETAS = (0.05, 0.7, 3e4)
CONSTRAINTS = (
    FREE,
    PathConstraint(band=0),
    PathConstraint(band=7),
    PathConstraint(band=25),
    PathConstraint(band=7, centering=CENTER_TRUNCATED),
    PathConstraint(weight_filter=filter_above(1.0)),
    PathConstraint(weight_filter=filter_between(0.5, 20.0)),
    PathConstraint(weight_filter=filter_atmost_one()),
    PathConstraint(band_window=(0, 1)),
    PathConstraint(band_window=(3, 9)),
    PathConstraint(band_window=(5, 41)),
    PathConstraint(band_window=(0, 41), centering=CENTER_TRUNCATED),
    PathConstraint(band=12, band_window=(4, 30)),
)
WINDOWS = ((0, 41), (0, 1), (1, 2), (3, 9), (6, 41), (12, 30), (40, 41))


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def _fields():
    tail = TailParams(alpha=0.9)
    return [sample_field(N, h, tail, seed=2024 + h) for h in BOXES]


def pass_digests() -> dict:
    """sha256 of the float bytes of every pass kind over the pinned grid."""
    fields = _fields()
    grid = [(f, b) for f in fields for b in BETAS]
    chaos = []
    for f, b in grid:
        if f.h > 0:  # the cutoff keeps beta * weight below expm1's overflow
            chaos += list(chaos_terms(f, b, band=f.h // 2, cutoff=min(50.0, 700.0 / b)))
    return {
        "log_partition": _digest(
            [log_partition(f, b, c) for f, b in grid for c in CONSTRAINTS]
        ),
        "marginals": _digest(np.stack([gibbs_site_marginals(f, b) for f, b in grid])),
        "chaos_terms": _digest(chaos),
        "band_probability": _digest(
            [gibbs_band_probability(f, b, lo, hi) for f, b in grid for lo, hi in WINDOWS]
        ),
    }


PASS_DIGESTS = {
    "log_partition":
        "8a066de44a77030781d2859374660acfe71731b8b39e1425013a1273d2536587",
    "marginals":
        "034366444579cc96a1449354a272e3d274d7e78e0b43d5b9d1fc9807809ce81c",
    # re-taken when log_mgf_truncated became log1p of its pieced body: lam
    # at beta 0.05 moved 3 ulps, from 4 ulps to 1 ulp off a 40-digit value
    "chaos_terms":
        "d3815c92ffce85f73037f0f36529872f140d439bc739d2584c73823f8c6b4d87",
    "band_probability":
        "e79bfef170e3ee3e1a6c26ed0441a48199dfa9a23770e21816d67847380a89ee",
}


@pytest.fixture(scope="module")
def digests():
    return pass_digests()


@pytest.mark.parametrize("name", sorted(PASS_DIGESTS))
def test_pass_bits_pinned(name, digests):
    assert digests[name] == PASS_DIGESTS[name]


THRESHOLDS = {
    ("tilde", 0.8, 11):
        "bb611d488644516ed5832cb7dde1dd78eeea89779a84d05286bfda7b903fb54c",
    ("tilde", 0.8, 12):
        "eb278cf24cdec13af1be9c391dfef8378cf245798ca0e15cd28c416d8413a41f",
    ("tilde", 1.2, 11):
        "3bb61f06edaa965a9be854ba56970699cbb68f197c8d2ba9ca2eb000d9acb525",
    ("tilde", 1.2, 12):
        "83c5824ec1a44dca9a5bd303952c3b1c169e8bc0b7ef5848a734bf2ab9a40623",
    ("hat", 0.3, 11):
        "96e2e0167dbbbfeb1bf7567bf4630b7ebfe89e5636a1b2a051d14c642196cbd4",
    ("hat", 0.3, 12):
        "679e0e1e116426f987000bfda57fbb2e7c54bf3e5a150d898e975ac656067111",
}


def threshold_digest(flavor, alpha, seed, replicas=4) -> str:
    est = critical_coupling(alpha, replicas=replicas, top=64, seed=seed)
    assert est.flavor == flavor  # alpha sets the flavor
    return _digest(np.concatenate([
        est.samples, est.doubled_samples,
        [est.median, est.ci_low, est.ci_high, est.relative_shift],
    ]))


@pytest.mark.parametrize("case", sorted(THRESHOLDS))
def test_threshold_bits_pinned(case):
    assert threshold_digest(*case) == THRESHOLDS[case]


# odd and even replica counts at seed 13: the odd median is one order
# statistic, and one replica makes every bootstrap resample that replica
REPLICA_THRESHOLDS = {
    ("tilde", 1.2, 1):
        "03d3243554471d570c1f289bf55e03b6dcc19fc19da886d8ed1e0227ff68d2ba",
    ("tilde", 1.2, 2):
        "69cc8418ed7dc6f59d30b0c00f4c8ef0e4ef93c0995ef00c2355a815ba52612d",
    ("tilde", 1.2, 3):
        "ad8377a6ac915a7f7104412bb0ec7f8a09abbcb2a5567a15ca64ef6c5b94e646",
    ("tilde", 1.2, 5):
        "ca34abdd1ae6001a641db3abd7f547edcbe51dd045235bdee1087bd645f0bac4",
    ("hat", 0.3, 1):
        "bdffcde4aa57af7f08bb9d5f7b4007027e4f6d5f0febd8acdf909c9abccedf36",
    ("hat", 0.3, 2):
        "031f74aa51e1153e37cc6f82035214a8151cae78f2dbb8c2e7c4e9c7354bd166",
    ("hat", 0.3, 3):
        "60311508be90e4540cd4ac05d8342dad911dac30f081da3a09c605e2bf5ccee0",
    ("hat", 0.3, 5):
        "9d00bf808629c4fadf1fc1f1bd98aefd73c3a5a968733c9ca92dcf6aa57e3512",
}


@pytest.mark.parametrize("case", sorted(REPLICA_THRESHOLDS))
def test_replica_count_threshold_bits_pinned(case):
    flavor, alpha, replicas = case
    assert threshold_digest(flavor, alpha, 13, replicas) == REPLICA_THRESHOLDS[case]


def test_split_threshold_bits_pinned():
    # the Monte Carlo median that resolves a small-alpha split (SPLIT_ESTIMATE)
    report = classify(0.4, PowerLawSchedule(4.0), seed=3)
    assert report.split_threshold.hex() == "0x1.05f0d2df5bba7p-5"


def tied_lattice_digest() -> str:
    """Chains and thresholds on small lattice sets, where equal-value
    predecessors are common and the tie rule picks the chain."""
    rng = np.random.default_rng(8)
    rows = []
    for _ in range(60):
        t, x = np.divmod(rng.choice(40, size=int(rng.integers(3, 12)), replace=False), 5)
        pts = np.column_stack([t + 1.0, x - 2.0, rng.integers(1, 4, t.size)])
        geo = prepare_geometry(pts)
        for kappa in (0.5, 1.0, 2.0):
            found = solve(geo, 1.0, kappa=kappa)
            rows += [found.value, len(found.indices), *found.indices]
        rows += list(_threshold(geo))
    return _digest(rows)


TIED_LATTICE = "ce267a13994f2954b61a3f0ed974e4ea2f11c85b00aad8f183655ee58272fa0f"


def test_tied_lattice_bits_pinned():
    assert tied_lattice_digest() == TIED_LATTICE


def signed_zero_digest() -> str:
    """Chain values on zero-weight sets, where equal candidates of
    opposite zero sign meet and the chosen sign shows in the bytes."""
    rows = []
    for ws in itertools.product((-0.0, 0.0), repeat=3):
        pts = np.column_stack([[1.0, 2.0, 3.0], np.zeros(3), ws])
        for beta in (1.0, -1.0):
            for card in (exactly(2), at_least(2)):
                rows.append(solve(pts, beta, cardinality=card).value)
    return _digest(rows)


SIGNED_ZERO = "2204107bbc20cce9f71436085c598002d41624187af8417a33ed0b8fccb801a9"


def test_signed_zero_bits_pinned():
    assert signed_zero_digest() == SIGNED_ZERO


BETA_C_ARGV = ["ppp", "--alpha", "1.2", "--op", "beta_c", "--top", "64",
               "--replicas", "3", "--seed", "5"]
BETA_C_STDOUT = "8a26cbd267d60ca16721b94b25c90e056d5c355f94acfbb473eb40e7e609e3e1"


def test_beta_c_stdout_bytes_pinned(capsys):
    assert cli.main(BETA_C_ARGV) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == BETA_C_STDOUT


KERNEL_GRID = "c94b218fe050b31ea870514a307ff7971dfe1a486ce4374459f8c56b4d343eec"


def test_kernel_grid_bits_pinned():
    # rows past the half width, both parities and the unreachable zeros
    grid = kernel_grid.__wrapped__(257, 40)
    assert hashlib.sha256(grid.tobytes()).hexdigest() == KERNEL_GRID
