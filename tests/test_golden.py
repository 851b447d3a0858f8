"""Golden digests: every config of tests/golden/campaign_digests.json
is rerun with one thread, and the sha256 of each CSV, of the manifest
meta without its wall time, and the failure and flag counts must equal
the stored ones; every argv of tests/golden/cli_digests.json is rerun
and its exit code and stdout sha256 (``timings`` dropped) must equal the
stored ones, and that stdout must be strict JSON.  The files are
rewritten only by tests/golden/regenerate.py, on a deliberate and
logged output change.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from polymerlab.experiments import ExperimentConfig

# a golden campaign or CLI call that warns (a nan companion, an overflow) fails
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_spec = importlib.util.spec_from_file_location(
    "regenerate", Path(__file__).parent / "golden" / "regenerate.py"
)
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

GOLDEN = json.loads(regenerate.GOLDEN.read_text())
CLI_GOLDEN = json.loads(regenerate.CLI_GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_campaign_digests(name):
    want = dict(GOLDEN[name])
    config = ExperimentConfig(**want.pop("config"))
    assert config.threads == 1
    assert regenerate.campaign_digests(config) == want


def test_golden_file_covers_every_kind_and_config():
    assert set(GOLDEN) == set(regenerate.CONFIGS)
    kinds = {entry["config"]["kind"] for entry in GOLDEN.values()}
    assert kinds == {"regime_convergence", "fluctuation", "ordered_stats_coupling",
                     "small_alpha"}


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_digests(argv):
    assert regenerate.cli_digest(argv) == CLI_GOLDEN[argv]


def _refuse(constant):
    raise ValueError(f"{constant} is not RFC 8259 JSON")


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_stdout_is_strict_json(argv):
    # a non-finite float is printed as a string, never as Infinity or NaN
    code, text = regenerate.cli_call(argv)
    if text:
        json.loads(text, parse_constant=_refuse)


def test_cli_golden_file_covers_every_argv_and_subcommand():
    assert set(CLI_GOLDEN) == set(regenerate.CLI_ARGVS)
    assert {argv.split()[0] for argv in CLI_GOLDEN} == {
        "polymer", "elpp", "ppp", "regime", "experiment"}
