"""CLI smoke tests: each subcommand against the library it fronts."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import polymerlab
from polymerlab import cli
from polymerlab import experiments
from polymerlab.cli import main
from polymerlab.continuum import chain_value, sample_ppp
from polymerlab.elpp import ANY, at_least, exactly, site_price, solve
from polymerlab.environment import TailParams, sample_field, top_sites
from polymerlab.polymer import (
    FREE,
    PathConstraint,
    WeightFilter,
    filter_above,
    filter_atmost_one,
    filter_between,
    log_partition,
)


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


def test_polymer_schedule_needs_a_positive_beta_hat(capsys):
    # --gamma takes beta from the library's schedule, so polymer refuses
    # beta_hat 0 as regime does; a fixed --beta 0 still runs
    for command in ("polymer --n 8 --h 4", "regime"):
        argv = [*command.split(), "--alpha", "1.2", "--gamma", "1.0", "--beta-hat", "0"]
        assert main(argv) == 2
        assert "beta_hat must be positive" in capsys.readouterr().err
    code, rec = run_cli(capsys, "polymer", "--n", "8", "--h", "4", "--alpha", "1.2",
                        "--beta", "0")
    assert code == 0 and rec["normalizers"]["beta"] == 0.0


def test_polymer_negative_beta_has_no_scale(capsys):
    # the atmost1 filter admits beta < 0; there is no transversal scale there
    code, rec = run_cli(
        capsys, "polymer", "--n", "32", "--h", "8", "--alpha", "1.2",
        "--beta", "-0.3", "--filter", "atmost1", "--seed", "4",
    )
    assert code == 0
    field = sample_field(32, 8, TailParams(1.2), 4)
    want = log_partition(field, -0.3, PathConstraint(weight_filter=filter_atmost_one()))
    assert rec["logZ"] == want
    assert rec["normalizers"]["beta"] == -0.3
    for key in ("h_n", "h_n_clamped", "weight_scale"):
        assert rec["normalizers"][key] is None
    # without the filter a negative coupling is still refused
    assert main(["polymer", "--n", "32", "--h", "8", "--alpha", "1.2", "--beta", "-0.3"]) == 2


def test_polymer_one_step_has_no_scale(capsys):
    # fluctuation_scale needs n >= 2; a one-step walk still gets its log Z
    code, rec = run_cli(
        capsys, "polymer", "--n", "1", "--h", "0", "--alpha", "1.2", "--beta", "0.3",
    )
    assert code == 0
    assert rec["logZ"] == log_partition(sample_field(1, 0, TailParams(1.2), 0), 0.3)
    for key in ("h_n", "h_n_clamped", "weight_scale"):
        assert rec["normalizers"][key] is None


def test_polymer_rejects_bad_filter(capsys):
    code = main([
        "polymer", "--n", "16", "--h", "4", "--alpha", "1.0",
        "--beta", "0.1", "--filter", "bogus",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("spec, want", [
    ("above:nan", None), ("between:nan:3", None), ("between:-1:nan", None),
    ("above:inf", filter_above(math.inf)), ("between:-inf:3", filter_between(-math.inf, 3.0)),
])
def test_polymer_rejects_nan_filter_edge(capsys, spec, want):
    # no energy exceeds nan, so a nan edge would keep nothing and report a
    # log Z of about 0: the library refuses it and the CLI exits 2; an
    # infinite edge is a window
    argv = ["polymer", "--n", "8", "--h", "4", "--alpha", "1.2", "--beta", "0.5", "--filter", spec]
    if want is None:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err
    else:
        code, rec = run_cli(capsys, *argv)
        field = sample_field(8, 4, TailParams(1.2), 0)
        assert code == 0
        assert rec["logZ"] == log_partition(field, 0.5, PathConstraint(weight_filter=want))


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
    want = solve(top_sites(field, 12), 0.6, kappa=site_price(40), cardinality=at_least(1))
    assert rec["value"] == pytest.approx(want.value, rel=1e-12)
    assert rec["params"]["points"] == 12
    assert rec["params"]["kappa"] == site_price(40)


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
    assert [op for op, (_, needs_beta, _) in cli._PPP_OPS.items() if needs_beta] == [
        "tildeT", "hatT", "W",
    ]
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


@pytest.mark.parametrize("alpha, top", [("1.2", "1"), ("0.01", "2")])
def test_ppp_beta_c_with_no_threshold_in_the_bracket_exits_2(capsys, alpha, top):
    # the outcome depends on the inputs alone, so it is an input error
    argv = ["ppp", "--alpha", alpha, "--op", "beta_c", "--top", top, "--replicas", "1",
            "--seed", "1"]
    assert main(argv) == 2
    assert "error: no replica produced a threshold" in capsys.readouterr().err


@pytest.mark.parametrize("argv", ["ppp --alpha 0.01 --op beta_c --top 2 --seed 1",
                                  "ppp --alpha 0.01 --op W0 --eps 1.0 --seed 130"])
def test_ppp_weights_past_the_float_range_exit_2(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        assert main(argv.split()) == 2
    assert capsys.readouterr().err == "error: alpha 0.01 draws weights past the float range\n"


@pytest.mark.parametrize("flags", [("--eps", "1e-300"), ("--top", "10000001")])
def test_ppp_sample_over_the_point_cap_exits_2(capsys, flags):
    assert main(["ppp", "--alpha", "1.2", "--op", "T", *flags, "--seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "polymer --n 32 --h 8 --alpha 1.2 --gamma -400",
    "regime --alpha 1.2 --gamma -200",
    "ppp --alpha 1.2 --q 1e308 --top 5 --op T",
    "ppp --alpha 1.2 --q 1e308 --top 5 --op beta_c",
])
def test_overflowing_input_exits_2_with_one_error_line(capsys, argv):
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    ("polymer --n 0 --h 1 --alpha 1.2 --gamma 1.0", "a schedule needs n >= 1, got n=0"),
    ("polymer --n -4 --h 1 --alpha 1.2 --gamma 1.0", "a schedule needs n >= 1, got n=-4"),
    ("regime --alpha 1.2 --gamma 1.0 --n 0", "n_probe must be at least 2, got 0"),
    ("regime --alpha 1.2 --gamma 1.0 --n -4", "n_probe must be at least 2, got -4"),
    ("regime --alpha 1.2 --gamma 1.0 --n 1", "n_probe must be at least 2, got 1"),
    (f"regime --alpha 1.2 --gamma 1.0 --n {10**200}",
     "n_probe is too large: (16 n_probe)^2 leaves the float range"),
], ids=["polymer-n0", "polymer-n-4", "regime-n0", "regime-n-4", "regime-n1", "regime-n1e200"])
def test_size_out_of_range_exits_2_naming_it(capsys, argv, message):
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_regime_smallest_probe_size_answers(capsys):
    code, rec = run_cli(capsys, "regime", "--alpha", "1.2", "--gamma", "1.0", "--n", "2")
    assert code == 0 and rec["label"] == "R2" and rec["beta_limit"] == 1.0
    assert rec["clamped"] is None and 1.0 < rec["h_n"] < 2.0


@pytest.mark.parametrize("patch, message", [
    ({"kind": "regime_convergence", "alpha": 1.2, "gamma": -60},
     "error: beta_n overflows the float range at n=1000000\n"),
    ({"kind": "ordered_stats_coupling", "alpha": 1.0, "gamma": 0.0, "ell": 3,
      "half_width": 10**6}, "error: half_width must lie in [1, 4096]\n"),
])
def test_experiment_run_refuses_overflowing_configs_before_any_replica(
        capsys, tmp_path, monkeypatch, patch, message):
    # no replica runs, so no field box is built
    def refuse(*args):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(experiments, "_run_replica", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "sizes": [16], "replicas": 2, "seed": 9, **patch}))
    assert main(["experiment", "run", str(cfg), "--out", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "res").exists()


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


def test_experiment_run_names_missing_config_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "alpha": 0.4, "gamma": 5.0, "sizes": [16], "replicas": 2, "seed": 9,
    }))
    code = main(["experiment", "run", str(cfg), "--out", str(tmp_path / "res")])
    assert code == 2
    assert "missing config keys: ['kind']" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_in_process_calls_share_one_parser_and_no_state(capsys):
    # main() reuses one parser; no parsed value carries into the next call
    cli._build_parser.cache_clear()
    assert main(["ppp", "--alpha", "1.0", "--op", "W", "--beta", "0.5"]) == 0
    assert main(["ppp", "--alpha", "1.0", "--op", "W"]) == 2
    assert "W needs --beta" in capsys.readouterr().err
    polymer = ["polymer", "--n", "8", "--h", "4", "--alpha", "1.2"]
    code, rec = run_cli(capsys, *polymer, "--beta", "0.3")
    assert code == 0 and rec["normalizers"]["beta"] == 0.3
    code, rec = run_cli(capsys, *polymer, "--gamma", "1.0")
    assert code == 0 and rec["normalizers"]["beta"] == 1.0 / 8.0
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    "polymer --n 8 --h 4 --alpha 1.2 --beta nan",
    "polymer --n 8 --h 4 --alpha 1.2 --gamma 1 --beta-hat inf",
    "elpp --from-field 16,4,1.2,3,8 --beta nan",
    "ppp --alpha 1.2 --op T --nu nan",
    "ppp --alpha 1.2 --op W0 --q inf",
    "ppp --alpha 1.2 --op W --beta 1e400",
    "regime --alpha 1.2 --gamma nan",
    "regime --alpha 1.2 --gamma 1 --c=-inf",
])
def test_non_finite_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(argv.split())
    assert exited.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '"beta_hat": NaN',
    pytest.param('"alpha": 1' + "0" * 400, id="alpha-401-digits"),  # past the float range
    '"kernel_cutoff": Infinity',
    '"a_values": [1, Infinity]',
])
def test_experiment_run_rejects_non_finite_config(capsys, tmp_path, text):
    raw = json.dumps({"schema": 1, "kind": "small_alpha", "alpha": 0.4, "gamma": 5.0,
                      "sizes": [16], "replicas": 2, "seed": 9})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(raw[:-1] + ", " + text + "}")
    code = main(["experiment", "run", str(cfg), "--out", str(tmp_path / "res")])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


# each spec parses to the object it parsed to before the one spec grammar,
# or is still rejected; None marks a ValueError
SPECS = {
    "all": (WeightFilter(), None),
    "all:": (WeightFilter(), None),
    "atmost1": (filter_atmost_one(), None),
    "above:1": (filter_above(1.0), None),
    "between:0.5:20": (filter_between(0.5, 20.0), None),
    "any": (None, ANY),
    "any:": (None, ANY),
    "exactly:0": (None, exactly(0)),
    "atleast:2": (None, at_least(2)),
    "above:": (None, None),
    "between:1:": (None, None),
    "between:1:2:3": (None, None),
    "exactly:": (None, None),
    "bogus": (None, None),
    "": (None, None),
}


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_spec_grammar_parity(spec):
    for grammar, want in zip((cli._FILTER_SPECS, cli._CARDINALITY_SPECS), SPECS[spec]):
        if want is None:
            with pytest.raises(ValueError):
                cli._parse_spec(spec, grammar)
        else:
            got = cli._parse_spec(spec, grammar)
            assert got == want and type(got) is type(want)


def test_cli_import_loads_no_scipy_stats():
    # no command needs scipy.stats, and `experiment run` imports
    # experiments itself; scipy.integrate loads only where a quadrature
    # runs, which `ppp` and `elpp` never reach; scipy.special only where a
    # Lipschitz leg is priced (xlogy; a kernel grid reads a log-factorial
    # table), which the hat beta_c does and the tilde one does not; nor
    # does import build the parser
    src = str(Path(polymerlab.__file__).parent.parent)
    probe = (f"import sys; sys.path.insert(0, {src!r}); import polymerlab.cli as cli; "
             "loaded = lambda: [m in sys.modules for m in "
             "('scipy.stats', 'scipy.integrate', 'scipy.special')]; "
             "print('loaded', loaded(), cli._build_parser.cache_info().misses); "
             "cli.main(['ppp', '--alpha', '1.2', '--op', 'beta_c', '--top', '16', '--replicas', '2']); "
             "cli.main(['ppp', '--alpha', '1.2', '--op', 'W0', '--top', '16']); "
             "cli.main(['elpp', '--from-field', '16,4,1.2,3,8', '--beta', '1']); "
             "print('loaded', loaded(), cli._build_parser.cache_info().misses); "
             "cli.main(['ppp', '--alpha', '0.3', '--op', 'beta_c', '--top', '16', '--replicas', '2']); "
             "print('loaded', loaded())")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120)
    lines = [line for line in done.stdout.splitlines() if line.startswith("loaded ")]
    # the parser is built by the first call, not at import, and only once
    assert lines == ["loaded [False, False, False] 0", "loaded [False, False, False] 1",
                     "loaded [False, False, True]"]
