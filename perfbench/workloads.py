"""The three benchmark workloads.

A job is one user-level invocation: a campaign through the entry
``polymerlab experiment run`` uses (``experiments.run_experiment`` then
``experiments.write_outputs``), or one ``cli.main(["ppp", "--op",
"beta_c", ...])`` call.  Every workload has the same four parts:

* ``setup()`` validates the config, classifies the schedule and fills
  first-call caches; with the import of this module it is ``setup_s``;
* ``run(seed, out_dir)`` is the timed job;
* ``check(seed, raw, out_dir)`` verifies the job's outputs on checks that
  do not depend on the code path an optimisation would change, and
  digests the outputs so runs with equal seeds compare byte for byte;
* ``replicas`` per job and ``nominal_job_s``, the rough cost of one job
  and its checks at the commit that defined the benchmark, which fixes
  the traced job count.

Importing this module imports polymerlab, which is part of set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from polymerlab import cli, continuum, elpp, environment, experiments, polymer, regimes

# gibbs_band_probability over the whole range [0, n + 1) must be 1
FULL_BAND_TOL = 1e-12
# relative offset around a threshold at which the chain value is probed
THRESHOLD_PROBE = 1e-6


@dataclass
class JobCheck:
    """What the checks found for one job."""

    replicas: int
    failed: int
    digest: str
    problems: List[str]


def _digest_dir(out_dir: Path) -> str:
    """sha256 over every CSV of a campaign, by file name; the manifest
    holds wall time and is left out, as the program documents."""
    sha = hashlib.sha256()
    for path in sorted(Path(out_dir).glob("*.csv")):
        sha.update(path.name.encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


class Campaign:
    """A seeded replica campaign with a fixed config apart from its seed."""

    def __init__(self, name, label, replicas, nominal_job_s, **config):
        self.name = name
        self.label = label
        self.replicas = replicas
        self.nominal_job_s = nominal_job_s
        self.kwargs = config
        self.config = None

    def setup(self) -> None:
        config = experiments.ExperimentConfig(
            replicas=self.replicas, seed=0, threads=1, **self.kwargs
        )
        report = regimes.classify(config.alpha, config.schedule(), tail=config.tail())
        if report.label != self.label:
            raise ValueError(f"{self.name}: schedule classifies as {report.label}")
        n = config.sizes[-1]
        regimes.fluctuation_scale(n, config.beta_at(n), config.tail())
        if config.kind == experiments.KIND_REGIME:
            # the diffusive field box, which chaos_terms uses as its band
            band = min(n, math.ceil(config.kernel_cutoff * math.sqrt(n)))
            polymer.kernel_grid(n, band)
        self.config = config

    def run(self, seed: int, out_dir: Path):
        config = dataclasses.replace(self.config, seed=seed)
        result = experiments.run_experiment(config)
        experiments.write_outputs(result, out_dir)
        return result

    def check(self, seed: int, result, out_dir: Path) -> JobCheck:
        problems = []
        failed = min(result.invariant_failures, self.replicas)
        if result.invariant_failures:
            problems.append(f"invariant_failures = {result.invariant_failures}")
        if result.meta.get("label") != self.label:
            problems.append(f"label {result.meta.get('label')!r}")
            failed = self.replicas
        if self.config.kind == experiments.KIND_FLUCTUATION and not problems:
            problem = self._check_full_band(result)
            if problem:
                problems.append(problem)
                failed = max(failed, 1)
        return JobCheck(self.replicas, failed, _digest_dir(out_dir), problems)

    def _check_full_band(self, result) -> str:
        """The window pass over [0, n + 1) admits every path, so it must
        reproduce the FREE pass: probability 1 on the first replica."""
        table = result.tables["gibbs_tail"]
        row = dict(zip(table.columns, table.rows[0]))
        n = row["n"]
        field = environment.sample_field(n, n, self.config.tail(), row["seed"])
        prob = polymer.gibbs_band_probability(field, self.config.beta_at(n), 0, n + 1)
        if abs(prob - 1.0) > FULL_BAND_TOL:
            return f"full-band probability {prob!r} on replica {row['replica']}"
        return ""


class BetaC:
    """``polymerlab ppp --op beta_c``: critical couplings by bisection."""

    def __init__(self, name, alpha, top, replicas, nominal_job_s):
        self.name = name
        self.alpha = alpha
        self.top = top
        self.replicas = replicas
        self.nominal_job_s = nominal_job_s

    def setup(self) -> None:
        """Nothing to classify or cache: set-up is the import alone."""

    def argv(self, seed: int) -> List[str]:
        return [
            "ppp", "--alpha", repr(self.alpha), "--op", "beta_c",
            "--top", str(self.top), "--replicas", str(self.replicas),
            "--seed", str(seed),
        ]

    def run(self, seed: int, out_dir: Path):
        # the CLI prints only the median and interval; the per-replica
        # thresholds the checks need are taken from the estimate it builds
        estimates = []
        inner = cli.critical_coupling

        def keep(*args, **kwargs):
            est = inner(*args, **kwargs)
            estimates.append(est)
            return est

        stdout = io.StringIO()
        cli.critical_coupling = keep
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(self.argv(seed))
        finally:
            cli.critical_coupling = inner
        return code, stdout.getvalue(), estimates

    def check(self, seed: int, raw, out_dir: Path) -> JobCheck:
        code, text, estimates = raw
        digest = hashlib.sha256(text.encode()).hexdigest()
        if code != 0 or len(estimates) != 1:
            return JobCheck(self.replicas, self.replicas, digest,
                            [f"exit code {code}, {len(estimates)} estimates"])
        est = estimates[0]
        if json.loads(text)["value"] != est.median:
            return JobCheck(self.replicas, self.replicas, digest,
                            ["printed median differs from the estimate"])
        # the replica point sets, drawn the way critical_coupling documents:
        # one top-mode sample of 2 * top weights per spawned seed
        seeds = np.random.SeedSequence(seed).spawn(self.replicas + 1)
        problems = []
        failed = 0
        for r in range(self.replicas):
            full = continuum.sample_ppp(self.alpha, est.q, top=2 * self.top,
                                        seed=seeds[r])
            kept = elpp.select_top(full, self.top)
            found = [_threshold_problem(kept, est.samples[r]),
                     _threshold_problem(full, est.doubled_samples[r])]
            found = [f"replica {r}: {msg}" for msg in found if msg]
            failed += bool(found)
            problems.extend(found)
        return JobCheck(self.replicas, failed, digest, problems)


def _threshold_problem(points, beta: float) -> str:
    """The tilde chain value must be <= 0 just below the threshold and
    > 0 just above it; the lower side is skipped at the bracket end."""
    if not math.isfinite(beta):
        return "threshold is nan (bracket failure)"

    def value(b):
        return elpp.solve(points, 1.0, kappa=1.0 / (2.0 * b)).value

    if beta > continuum.BRACKET_LOW and value(beta * (1 - THRESHOLD_PROBE)) > 0.0:
        return f"value positive below threshold {beta!r}"
    if value(beta * (1 + THRESHOLD_PROBE)) <= 0.0:
        return f"value not positive above threshold {beta!r}"
    return ""


def workloads(smoke: bool = False) -> dict:
    """Workload name -> definition; ``smoke`` shrinks every size."""
    r5_n, gibbs_n, top = (64, 64, 16) if smoke else (2048, 1024, 256)
    # why each workload exists: perfbench/README.md
    defs = [
        # criterion 9's config; KS needs at least two replicas a job
        Campaign(
            "r5_campaign", regimes.LABEL_R5, replicas=2, nominal_job_s=0.8,
            kind=experiments.KIND_REGIME, alpha=0.75, gamma=3.0, beta_hat=1.0,
            sizes=(r5_n,), ell=32, eps=1e-3, kernel_cutoff=8.0,
        ),
        # criterion 10's config; its check costs about as much as the job
        Campaign(
            "gibbs_tail", regimes.LABEL_R2, replicas=1, nominal_job_s=0.7,
            kind=experiments.KIND_FLUCTUATION, alpha=1.0, gamma=1.25,
            beta_hat=0.22, sizes=(gibbs_n,), a_values=(2.0, 8.0),
        ),
        BetaC("beta_c", alpha=1.2, top=top, replicas=2, nominal_job_s=0.6),
    ]
    return {w.name: w for w in defs}
