"""Rewrite campaign_digests.json, the golden digests of small campaigns.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each named config below is run with one thread; the file stores its
full config, the sha256 of every CSV, the sha256 of the canonical JSON
of the manifest ``meta`` without ``wall_time_s``, and the invariant
failure and flag counts.  ``tests/test_golden.py`` reruns every stored
config and compares.  A change that moves a digest on purpose (a new
column, a corrected statistic) regenerates the file and says in
CHANGES.md which digests moved and why.
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

from polymerlab.experiments import ExperimentConfig, run_experiment, write_outputs

GOLDEN = Path(__file__).with_name("campaign_digests.json")

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
}


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


def main():
    golden = {}
    for name, kwargs in CONFIGS.items():
        config = ExperimentConfig(**dict(COMMON, **kwargs))
        golden[name] = {"config": dataclasses.asdict(config), **campaign_digests(config)}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
