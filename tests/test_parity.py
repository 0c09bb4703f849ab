"""Golden-report parity: pinned seeded commands must keep their reports.

Every command in ``COMMANDS`` runs in-process through ``rwsim.cli.main`` from
the checkout root, and its report, minus the ``duration_s`` line, is compared
with ``tests/golden/<name>.txt``.  Lines must match byte for byte, except that
a value that is a non-integer float (``p_accept=0.5``) may move by a relative
1e-12, so an exact oracle may reorder its floating-point sums.

To record the goldens of commands that have none yet::

    PYTHONPATH=src python tests/test_parity.py --record

and to re-record named goldens after an intended change of their reports::

    PYTHONPATH=src python tests/test_parity.py --record NAME...

No golden that already exists is rewritten unless it is named.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
from pathlib import Path

import pytest

from conftest import REPO
from rwsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12


def _sim(path: str, backend: str, *extra: str) -> list[str]:
    return ["simulate", f"circuits/{path}", "--backend", backend, *extra]


# name -> argv; every circuits/*.qc with each backend that runs it, then
# every demo at a size that takes well under a second
COMMANDS = {
    "bell-sv": _sim("bell.qc", "sv", "--trials", "50", "--seed", "1"),
    "bell-stab": _sim("bell.qc", "stab", "--trials", "50", "--seed", "1"),
    "bell-pathsum": _sim("bell.qc", "pathsum"),
    "postselect-sv": _sim("postselect_demo.qc", "sv", "--trials", "30", "--seed", "2"),
    "postselect-stab": _sim("postselect_demo.qc", "stab", "--trials", "30", "--seed", "2"),
    "postselect-sv-minprob": _sim(
        "postselect_demo.qc", "sv", "--trials", "10", "--seed", "2",
        "--min-postselect-prob", "0.4",
    ),
    "postselect-pathsum": _sim("postselect_demo.qc", "pathsum"),
    "retry-sv": _sim("rewind_retry.qc", "sv", "--trials", "60", "--seed", "3"),
    "retry-sv-permissive": _sim(
        "rewind_retry.qc", "sv", "--trials", "20", "--seed", "3", "--mode", "permissive"
    ),
    "retry-stab": _sim("rewind_retry.qc", "stab", "--trials", "60", "--seed", "3"),
    "wide-stab": _sim("wide_retry.qc", "stab", "--trials", "4", "--seed", "12"),
    "clone-sv": _sim("clone_retry.qc", "sv", "--trials", "40", "--seed", "13"),
    "feedforward-sv": _sim("feedforward.qc", "sv", "--trials", "40", "--seed", "15"),
    "tgate-sv": _sim("t-gate.qc", "sv", "--trials", "40", "--seed", "4"),
    "tgate-pathsum": _sim("t-gate.qc", "pathsum"),
    "phase-sv": _sim("phase_permute.qc", "sv", "--trials", "40", "--seed", "14"),
    "phase-pathsum": _sim("phase_permute_body.qc", "pathsum"),
    "pp": ["demo", "pp", "--n", "2", "--trials", "3", "--seed", "5"],
    "collision-toy": [
        "demo", "collision", "--family", "toy", "--bits", "4", "--trials", "20", "--seed", "6",
    ],
    "collision-toy-norewind": [
        "demo", "collision", "--family", "toy", "--bits", "4", "--trials", "20",
        "--seed", "6", "--no-rewind",
    ],
    "collision-lwe": ["demo", "collision", "--family", "lwe", "--trials", "4", "--seed", "7"],
    "sd": [
        "demo", "sd", "--c0", "demos/sd_c0.txt", "--c1", "demos/sd_c1.txt",
        "--trials", "40", "--seed", "8",
    ],
    "mbqc": ["demo", "mbqc", "--rows", "2", "--cols", "5", "--trials", "4", "--seed", "9"],
    "mbqc-pattern": [
        "demo", "mbqc", "--rows", "2", "--cols", "5", "--pattern",
        "demos/identity_2x5.pattern", "--trials", "2", "--seed", "10",
    ],
    "mitigate-rewind": ["demo", "mitigate", "--p", "0.3", "--n", "2", "--seed", "11"],
    "mitigate-postselect": [
        "demo", "mitigate", "--p", "0.3", "--n", "2", "--seed", "11",
        "--variant", "postselect", "--q", "0.5",
    ],
}


def report(argv: list[str]) -> str:
    """The command's report without its ``duration_s`` line, run from the checkout."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{argv} exited {code}"
    return "".join(
        line for line in buf.getvalue().splitlines(keepends=True)
        if not line.startswith("duration_s=")
    )


def _float_value(value: str) -> float | None:
    """The value as a float if it is a non-integer float literal, else None."""
    try:
        int(value)
        return None
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return None


def differences(golden: str, got: str) -> list[str]:
    want_lines, got_lines = golden.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        return [f"{len(got_lines)} lines, golden has {len(want_lines)}"]
    out = []
    for want, line in zip(want_lines, got_lines):
        if want == line:
            continue
        key, _, want_value = want.rpartition("=")
        got_key, _, got_value = line.rpartition("=")
        a, b = _float_value(want_value), _float_value(got_value)
        if key == got_key and a is not None and b is not None and math.isclose(
            a, b, rel_tol=REL_TOL, abs_tol=0.0
        ):
            continue
        out.append(f"golden {want!r}, got {line!r}")
    return out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    golden = (GOLDEN / f"{name}.txt").read_text()
    assert differences(golden, report(COMMANDS[name])) == []


def test_float_lines_compare_at_relative_tolerance():
    assert differences("p=0.5\n", "p=0.5000000000000001\n") == []
    assert differences("p=0.5\n", "p=0.50000001\n") != []
    assert differences("qubits=2\n", "qubits=3\n") != []
    assert differences("trial.0=m:0\n", "trial.0=m:1\n") != []


def record(names: list[str]) -> None:
    """Write the goldens of ``names``, or, if none are named, of every
    command that has no golden yet."""
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        sys.exit(f"no such command: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names or [n for n in COMMANDS if not (GOLDEN / f"{n}.txt").exists()]:
        (GOLDEN / f"{name}.txt").write_text(report(COMMANDS[name]))
        print(f"recorded {name}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit(__doc__)
    record(sys.argv[2:])
