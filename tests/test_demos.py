"""Smoke run of every script under demos/, and of `layerfmm lab run` on
every demos/experiment_*.json: each must exit with status 0 against the
package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CONFIGS = sorted((ROOT / "demos").glob("experiment_*.json"))


def _run(args):
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_demos_are_found():
    assert DEMOS
    assert CONFIGS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    done = _run([str(script)])
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.name)
def test_demo_config_lab_run(config):
    done = _run(["-m", "layerfmm.cli", "lab", "run", "--config", str(config)])
    assert done.returncode == 0, done.stderr[-2000:]
