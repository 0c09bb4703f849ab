"""Plant one-line faults in a copy of the checkout and see which ones Tier-1 catches.

Each fault is (file, exact old text, new text).  For each one, the working
tree is copied to a temporary directory, the old text is replaced there, and
the Tier-1 suite runs in the copy with ``-x -q``.  A fault is ``caught`` when
the suite fails and ``missed`` when it passes.  The checkout itself is never
changed.

    python3 scripts/plant_faults.py          # every fault
    python3 scripts/plant_faults.py 2 5      # faults 2 and 5 only

Exit status: 0 if every fault run was caught, 1 if one was missed, and 2,
before any suite runs, if some old text does not occur exactly once in its
file (the list has gone stale).  Stdlib only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# (what goes wrong, file, old text, new text)
FAULTS = [
    (
        "the path sum's strict rewind accepts every state",
        "src/rwsim/pathsum.py",
        "        full = (1 << state.n) - 1\n",
        "        return True\n",
    ),
    (
        "the dense strict rewind accepts every state",
        "src/rwsim/statevector.py",
        "    s, p = _parts(stored), _parts(post)\n",
        "    return True\n",
    ),
    (
        "forked branches share one snapshot dict",
        "src/rwsim/circuit.py",
        "dict(self.snapshots),",
        "self.snapshots,",
    ),
    (
        "forked branches share one record",
        "src/rwsim/circuit.py",
        "dict(self.record),",
        "self.record,",
    ),
    (
        "strong_probability reads its projector without collapsing",
        "src/rwsim/circuit.py",
        "            state = kernel.collapse(state, qubit, bit, p)\n",
        "",
    ),
    (
        "strict rewind's tolerance loosened from 1e-9 to 1e-3",
        "src/rwsim/circuit.py",
        "REWIND_TOL = 1e-9",
        "REWIND_TOL = 1e-3",
    ),
    (
        "the oracles drop branches of weight up to 1e-12",
        "src/rwsim/circuit.py",
        "EMPTY_PROB = 1e-30",
        "EMPTY_PROB = 1e-12",
    ),
    (
        "a postselection at exactly min_postselect_prob is refused",
        "src/rwsim/circuit.py",
        "if prob < min_postselect_prob:",
        "if prob <= min_postselect_prob:",
    ),
    (
        "the interpreter runs a step whose guard fails",
        "src/rwsim/circuit.py",
        "if instr.when and not predicate_holds(instr.when, b.record):",
        "if False:",
    ),
    (
        "a guard on a label its branch never measured holds",
        "src/rwsim/circuit.py",
        "record.get(label, _UNMEASURED)[0]",
        "record.get(label, (bit,))[0]",
    ),
    (
        "serialize_circuit drops a step's guard",
        "src/rwsim/circuit.py",
        "    if instr.when:\n",
        "    if False:\n",
    ),
    (
        "value equality ignores the class",
        "src/rwsim/value.py",
        "        if other.__class__ is self.__class__:\n",
        "        if isinstance(other, Value):\n",
    ),
    (
        "a value class without __reduce__",
        "src/rwsim/value.py",
        "    def __reduce__(self):\n",
        "    def _reduce(self):\n",
    ),
    (
        "pp_decide skips the width cap on a cached chain",
        "src/rwsim/mitigation.py",
        '    check_width(fs.state.n + 1, "state")\n',
        "",
    ),
    (
        "pp_decide keeps the previous k's level chain",
        "src/rwsim/applications.py",
        "    for k in range(-n, n + 1):\n        plus = 0\n        first = flag = x_reading = None\n",
        "    first = None\n    for k in range(-n, n + 1):\n        plus = 0\n        flag = x_reading = None\n",
    ),
]

# The test that checks this list against the checkout fails in every planted
# copy by design, so it says nothing about the fault and is left out there.
ANCHOR_TEST = "tests/test_scripts.py::test_every_planted_fault_has_one_anchor"
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", ".bench_run",
)


def stale(root: Path = REPO) -> list[str]:
    """The faults whose old text does not occur exactly once in ``root``."""
    problems = []
    for i, (what, path, old, _) in enumerate(FAULTS, 1):
        count = (root / path).read_text().count(old)
        if count != 1:
            problems.append(f"fault {i} ({what}): {path} holds its old text {count} times")
    return problems


def caught(i: int) -> bool:
    """Plant fault ``i`` (from 1) in a copy of the checkout; did Tier-1 fail?"""
    _, path, old, new = FAULTS[i - 1]
    with tempfile.TemporaryDirectory(prefix="rwsim-fault-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=IGNORE)
        target = copy / path
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--deselect", ANCHOR_TEST],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        return result.returncode != 0


def main(argv: list[str]) -> int:
    problems = stale()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    chosen = [int(a) for a in argv] or range(1, len(FAULTS) + 1)
    missed = 0
    for i in chosen:
        verdict = "caught" if caught(i) else "missed"
        missed += verdict == "missed"
        print(f"{i}. {verdict}: {FAULTS[i - 1][0]}", flush=True)
    print(f"# {len(chosen) - missed} of {len(chosen)} faults caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
