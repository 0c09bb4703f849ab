"""Smoke runs of the scan scripts under ``scripts/`` at tiny sizes, and the
fault list of ``scripts/plant_faults.py`` against the checkout."""

from __future__ import annotations

import importlib.util
import subprocess
import sys

import pytest

from conftest import REPO, cli_env


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("mitigation_sweep.py", ["--n", "2", "--points", "2", "--trials", "2"], "# n=2"),
        ("brickwork_budget_scan.py", ["--budgets", "0", "1", "--trials", "5"], "# grid 2x5"),
        ("collision_rate_scan.py", ["--bits", "2", "--trials", "5"], "# toy 2-regular"),
    ],
)
def test_script_runs(script, args, header):
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=cli_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(header)


def test_every_planted_fault_has_one_anchor():
    # checks the fault list of scripts/plant_faults.py against this checkout;
    # it never runs the suite on a planted copy
    path = REPO / "scripts" / "plant_faults.py"
    spec = importlib.util.spec_from_file_location("plant_faults", path)
    plant_faults = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plant_faults)
    assert len(plant_faults.FAULTS) >= 7
    assert plant_faults.stale(REPO) == []
    name = plant_faults.ANCHOR_TEST.rpartition("::")[2]
    assert name == test_every_planted_fault_has_one_anchor.__name__
