"""CLI smoke tests: each subcommand against the library it fronts."""

import json

import pytest

from polymerlab.cli import main
from polymerlab.continuum import chain_value, sample_ppp
from polymerlab.elpp import at_least, solve_field
from polymerlab.environment import TailParams, sample_field
from polymerlab.polymer import FREE, PathConstraint, log_partition


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_polymer_matches_library(capsys):
    code, rec = run_cli(
        capsys, "polymer", "--n", "48", "--h", "12", "--alpha", "1.0",
        "--beta", "0.4", "--band", "9", "--seed", "21",
    )
    assert code == 0
    field = sample_field(48, 12, TailParams(1.0), 21)
    want = log_partition(field, 0.4, PathConstraint(band=9))
    assert rec["logZ"] == pytest.approx(want, rel=1e-12)
    assert rec["normalizers"]["beta"] == 0.4
    assert rec["timings"]["transfer_s"] > 0.0


def test_polymer_gamma_schedule(capsys):
    code, rec = run_cli(
        capsys, "polymer", "--n", "64", "--h", "8", "--alpha", "1.2",
        "--gamma", "1.0", "--beta-hat", "2.0", "--seed", "5",
    )
    assert code == 0
    assert rec["normalizers"]["beta"] == pytest.approx(2.0 / 64.0)
    field = sample_field(64, 8, TailParams(1.2), 5)
    assert rec["logZ"] == pytest.approx(
        log_partition(field, 2.0 / 64.0, FREE), rel=1e-12
    )


def test_polymer_rejects_bad_filter(capsys):
    code = main([
        "polymer", "--n", "16", "--h", "4", "--alpha", "1.0",
        "--beta", "0.1", "--filter", "bogus",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_elpp_points_file(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("t,x,w\n0.25,0.0,4.0\n0.75,0.5,1.5\n")
    code, rec = run_cli(capsys, "elpp", str(path), "--beta", "2.0")
    assert code == 0
    # by hand: both points collected, entropy 0 + (0.5)^2/(2*0.5)
    assert rec["value"] == pytest.approx(2.0 * 5.5 - 0.25 / (2.0 * 0.5))
    assert len(rec["chain"]) == 2
    assert rec["params"]["kappa"] == 0.0


def test_elpp_from_field_matches_solver(capsys):
    code, rec = run_cli(
        capsys, "elpp", "--from-field", "40,10,1.1,3,12", "--beta", "0.6",
        "--cardinality", "atleast:1",
    )
    assert code == 0
    field = sample_field(40, 10, TailParams(1.1), 3)
    want = solve_field(field, 0.6, 12, cardinality=at_least(1))
    assert rec["value"] == pytest.approx(want.value, rel=1e-12)
    assert rec["params"]["points"] == 12


def test_elpp_needs_one_source(capsys):
    assert main(["elpp", "--beta", "1.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_ppp_value_matches_sample(capsys):
    code, rec = run_cli(
        capsys, "ppp", "--alpha", "1.3", "--op", "T", "--nu", "0.8",
        "--top", "40", "--seed", "17",
    )
    assert code == 0
    pts = sample_ppp(1.3, 1.0, top=40, seed=17)
    assert rec["value"] == pytest.approx(chain_value(pts, 0.8), rel=1e-12)
    assert rec["truncation"] == {
        "mode": "top", "top": 40, "eps": None, "points": 40,
    }


def test_ppp_beta_required_for_penalized_ops(capsys):
    for op in ("tildeT", "hatT", "W"):
        assert main(["ppp", "--alpha", "1.0", "--op", op]) == 2
        assert "error:" in capsys.readouterr().err


def test_ppp_beta_c_record(capsys):
    code, rec = run_cli(
        capsys, "ppp", "--alpha", "1.1", "--op", "beta_c",
        "--replicas", "6", "--top", "24", "--seed", "1",
    )
    assert code == 0
    assert rec["ci_low"] <= rec["value"] <= rec["ci_high"]
    assert rec["params"]["flavor"] == "tilde"
    assert rec["truncation"]["doubled_top"] == 48


def test_regime_report_fields(capsys):
    code, rec = run_cli(capsys, "regime", "--alpha", "1.0", "--gamma", "1.25")
    assert code == 0
    assert rec["label"] == "R2"
    assert rec["xi"] == pytest.approx(0.75)
    assert len(rec["probes"]) == 3


def test_experiment_run(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "kind": "small_alpha", "alpha": 0.4, "gamma": 5.0,
        "sizes": [16], "replicas": 2, "seed": 9,
    }))
    code = main([
        "experiment", "run", str(cfg), "--out", str(tmp_path / "res"),
    ])
    assert code == 0
    assert (tmp_path / "res" / "conditioned.csv").exists()
    assert (tmp_path / "res" / "manifest.json").exists()


@pytest.mark.parametrize(
    "patch", [{"sizes": 5}, {"alpha": "1"}, {"replicas": 1.5}, {"seed": True},
              {"a_values": [1, "2"]}, {"kind": 3}],
)
def test_experiment_run_rejects_mistyped_config(capsys, tmp_path, patch):
    raw = {
        "schema": 1, "kind": "small_alpha", "alpha": 0.4, "gamma": 5.0,
        "sizes": [16], "replicas": 2, "seed": 9,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(raw, **patch)))
    code = main(["experiment", "run", str(cfg), "--out", str(tmp_path / "res")])
    assert code == 2
    assert "wrong type" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()
