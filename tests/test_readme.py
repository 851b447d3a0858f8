"""The README's kinds and their tables, config example, command lines and
quick start run as written, at tiny sizes."""

import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from polymerlab.cli import main
from polymerlab.experiments import KINDS, ExperimentConfig, load_config, run_experiment

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.DOTALL)


(CONFIG_TEXT,) = _blocks("json")
(QUICK_START,) = _blocks("python")
CLI_LINES = [
    line for block in _blocks("sh") for line in block.splitlines()
    if line.startswith("polymerlab ")
]


def test_readme_kinds_are_known():
    listed = re.search(r"Kinds: (.*?)\. A run", README, flags=re.DOTALL).group(1)
    kinds = re.findall(r"`([^`]+)`", listed)
    assert kinds
    assert set(kinds) <= set(KINDS)


@pytest.mark.parametrize("kind, overrides", [
    ("regime_convergence", dict(alpha=1.2, gamma=1.0)),
    ("fluctuation", dict(alpha=1.0, gamma=1.25, beta_hat=0.3)),
    ("ordered_stats_coupling", dict(alpha=1.0, gamma=0.0, ell=3, half_width=4)),
    ("small_alpha", dict(alpha=0.4, gamma=5.0)),
])
def test_readme_names_the_tables_of_each_kind(kind, overrides):
    listed = {
        name: re.findall(r"`(\w+)\.csv`", tables)
        for name, tables in re.findall(r"`(\w+)`:\s+((?:`\w+\.csv`,?\s*)+)", README)
    }
    assert sorted(listed) == sorted(KINDS)
    config = ExperimentConfig(kind=kind, sizes=(16,), replicas=2, seed=1, **overrides)
    assert list(run_experiment(config).tables) == listed[kind]


def test_readme_config_loads_and_runs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(CONFIG_TEXT)
    config = load_config(path)
    result = run_experiment(dataclasses.replace(config, sizes=(16,), replicas=2))
    assert result.invariant_failures == 0


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_runs(line, tmp_path, capsys):
    points = tmp_path / "pts.csv"
    points.write_text("t,x,w\n0.25,0.0,4.0\n0.75,0.5,1.5\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(json.loads(CONFIG_TEXT), sizes=[16], replicas=2)))
    paths = {"pts.csv": points, "config.json": config, "results/": tmp_path / "results"}
    argv = [str(paths.get(arg, arg)) for arg in shlex.split(line)[1:]]
    if "beta_c" in argv:
        argv += ["--top", "16"]
    assert main(argv) == 0
    capsys.readouterr()


def test_readme_cli_lines_found():
    assert len(CLI_LINES) == 8


def test_readme_quick_start_runs():
    scope = {}
    exec(compile(QUICK_START, "README.md", "exec"), scope)
    assert scope["limit"] >= 0.0
