"""Smoke runs of the scan scripts under ``scripts/`` at tiny sizes."""

from __future__ import annotations

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
