"""Rewrite campaign_digests.json and cli_digests.json, the golden digests
of small campaigns and of CLI calls.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each named config below is run with one thread; the campaign file stores
its full config, the sha256 of every CSV, the sha256 of the canonical
JSON of the manifest ``meta`` without ``wall_time_s``, and the invariant
failure and flag counts.  Each CLI argv is run in-process, in a scratch
directory holding the files it names; the CLI file maps the argv to its
exit code and the sha256 of its stdout, a JSON record's ``timings``
block dropped.  ``tests/test_golden.py`` reruns every stored config and
argv and compares.  A change that moves a digest on purpose (a new
column, a corrected statistic) regenerates the files and says in
CHANGES.md which digests moved and why.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from polymerlab import cli
from polymerlab.experiments import ExperimentConfig, run_experiment, write_outputs

GOLDEN = Path(__file__).with_name("campaign_digests.json")
CLI_GOLDEN = Path(__file__).with_name("cli_digests.json")

# sizes (24, 48), 4 replicas, seed 77, ell 12 unless a config says otherwise
COMMON = dict(sizes=(24, 48), replicas=4, seed=77, ell=12)
REGIME = dict(kind="regime_convergence")
CONFIGS = {
    "R1": dict(REGIME, alpha=1.2, gamma=0.5),
    "R2a": dict(REGIME, alpha=1.2, gamma=1.0),
    "R2b": dict(REGIME, alpha=1.6, gamma=0.5),
    "R3a": dict(REGIME, law="logpower", b=0.7, alpha=1.2, gamma=1.25),
    "R3b": dict(REGIME, law="logpower", b=0.7, alpha=1.2, gamma=1.25, beta_hat=0.1),
    "R4": dict(REGIME, law="logpower", b=0.35, alpha=1.2, gamma=1.25),
    "R5a": dict(REGIME, alpha=0.75, gamma=3.0),
    "R5b": dict(REGIME, alpha=1.2, gamma=1.5),
    "small_n": dict(REGIME, alpha=0.3, gamma=2.0),
    "small_sqrt": dict(REGIME, alpha=0.3, gamma=6.0),
    "small_split_n": dict(REGIME, alpha=0.4, gamma=4.0),
    "small_split_sqrt": dict(REGIME, alpha=0.4, gamma=4.0, beta_hat=0.005),
    "zero": dict(REGIME, alpha=1.2, gamma=1.0, beta_hat=0.0),
    "small_alpha": dict(kind="small_alpha", alpha=0.3, gamma=6.0),
    # A = 8 puts the tail band past the walk range at both sizes
    "fluctuation": dict(kind="fluctuation", alpha=1.0, gamma=1.25, beta_hat=0.22,
                        a_values=(0.5, 1.0, 2.0, 8.0)),
    "ordered_stats": dict(kind="ordered_stats_coupling", alpha=1.0, gamma=0.0, ell=5,
                          half_width=6),
    # the acceptance criteria's configs at fewer replicas
    "c9": dict(REGIME, alpha=0.75, gamma=3.0, sizes=(2048,), replicas=8, seed=909, ell=32,
               eps=1e-3, kernel_cutoff=8.0),
    "c10": dict(kind="fluctuation", alpha=1.0, gamma=1.25, beta_hat=0.22, sizes=(1024,),
                seed=1010, a_values=(2.0, 8.0)),
    "c11": dict(REGIME, alpha=1.2, gamma=1.0, replicas=6, seed=1111),
    "small_alpha_zero": dict(kind="small_alpha", alpha=0.3, gamma=6.0, beta_hat=0.0),
}

# files the CLI argvs name, written into their scratch directory
CLI_FILES = {
    "points.csv": "t,x,w\n0.25,0.0,4.0\n0.75,0.5,1.5\n0.5,-0.25,2.5\n",
    "campaign.json": json.dumps({
        "schema": 1, "kind": "ordered_stats_coupling", "alpha": 1.0, "gamma": 0.0,
        "sizes": [24], "replicas": 2, "seed": 1, "ell": 3, "half_width": 4,
    }),
}
POLYMER = "polymer --n 32 --h 8 --alpha 1.2 --seed 3"
ELPP = "elpp --from-field 64,8,1.2,5,12 --beta 1.0"
PPP = "ppp --alpha 1.2 --seed 3"
CLI_ARGVS = [
    *(f"{POLYMER} --beta 0.5 {extra}".strip() for extra in (
        "", "--centering mean", "--centering truncated_mean", "--filter atmost1",
        "--filter above:2.0", "--filter between:0.5:4.0", "--filter above", "--filter bogus",
        "--band 3", "--window 2 6", "--law logpower --b 0.7",
    )),
    f"{POLYMER} --gamma 1.0 --beta-hat 2.0",
    f"{POLYMER} --beta -0.3 --filter atmost1",
    "polymer --n 1 --h 1 --alpha 1.2 --beta 0.5",
    "polymer --n 32 --h 8 --alpha 0.8 --beta 0.5 --centering mean",
    *(f"{ELPP} {extra}".strip() for extra in (
        "", "--cardinality exactly:3", "--cardinality atleast:2", "--cardinality exactly",
        "--cardinality bogus:1", "--entropy lipschitz", "--kappa 0.5",
    )),
    "elpp points.csv --beta 2.0",
    "elpp --beta 1.0",
    *(f"{PPP} --op {op}{mode}{beta}"
      for op in ("T", "tildeT", "hatT", "W", "W0")
      for mode in ("", " --eps 0.05")
      for beta in ("", " --beta 0.5")),
    "ppp --alpha 1.2 --op beta_c --top 64 --replicas 3 --seed 5",
    "ppp --alpha 0.3 --op beta_c --top 64 --replicas 3 --seed 5",
    "ppp --alpha 1.2 --op beta_c --eps 0.05 --seed 5",
    "ppp --alpha 0.01 --op beta_c --top 2 --seed 1",
    "ppp --alpha 0.01 --op W0 --eps 1.0 --seed 130",
    "regime --alpha 1.2 --gamma 1.0",
    "regime --alpha 0.4 --gamma 4.0 --seed 3",
    "regime --alpha 1.2 --gamma 1.25 --law logpower --b 0.7 --seed 3",
    "regime --alpha 0.5 --gamma 1.0",
    "experiment run campaign.json --out out",
    "experiment run missing.json --out out",
]


def campaign_digests(config: ExperimentConfig) -> dict:
    """The digests of one campaign run, as stored per config."""
    result = run_experiment(config)
    meta = {k: v for k, v in result.meta.items() if k != "wall_time_s"}
    with tempfile.TemporaryDirectory() as out:
        csv = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in write_outputs(result, out)
        }
    return {
        "csv": dict(sorted(csv.items())),
        "meta": hashlib.sha256(json.dumps(meta, sort_keys=True).encode()).hexdigest(),
        "invariant_failures": result.invariant_failures,
        "flagged": result.flagged,
    }


def cli_call(argv: str):
    """Exit code and stdout of one CLI call, run in-process in a scratch
    directory holding ``CLI_FILES``."""
    out = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in CLI_FILES.items():
            Path(scratch, name).write_text(text)
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv.split())
        except SystemExit as exc:  # argparse refusals
            code = exc.code
        finally:
            os.chdir(cwd)
    return code, out.getvalue()


def cli_digest(argv: str) -> dict:
    """Exit code and stdout sha256 of one CLI call, as stored per argv."""
    code, text = cli_call(argv)
    if text:
        record = json.loads(text)
        record.pop("timings", None)
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    return {"exit": code, "stdout": hashlib.sha256(text.encode()).hexdigest()}


def main():
    golden = {}
    for name, kwargs in CONFIGS.items():
        config = ExperimentConfig(**dict(COMMON, **kwargs))
        golden[name] = {"config": dataclasses.asdict(config), **campaign_digests(config)}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    digests = {argv: cli_digest(argv) for argv in CLI_ARGVS}
    CLI_GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
