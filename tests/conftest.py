"""Shared generators for randomised backend-equivalence tests, and the
checkout paths and environment for tests that start ``python -m rwsim``.

Circuits are generated as source text so every comparison also exercises the
parser.  Rewinds are only emitted in self-consistent retry blocks (snapshot,
one measurement, conditional rewind, conditional re-measurement) so that
strict rewinding always succeeds and the exact enumerators agree with
sampling semantics.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

from rwsim.rng import SplitMix64

# Data files and child processes are resolved against the checkout, so the
# suite passes whatever directory pytest is started from.
REPO = Path(__file__).resolve().parent.parent


def cli_env() -> dict[str, str]:
    """The current environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), inherited]))
    return env


CLIFFORD_POOL = ("h", "s", "cz", "x")
GENERAL_POOL = ("x", "h", "s", "cz", "ch", "ccz", "swap", "hk", "rz")


def _gate_line(rng: SplitMix64, n: int, pool, h_left: int | None) -> tuple[str, int | None]:
    while True:
        name = pool[rng.randrange(len(pool))]
        if name == "ccz" and n < 3:
            continue
        if name in ("cz", "ch", "swap") and n < 2:
            continue
        if h_left is not None and name in ("h", "hk", "ch") and h_left <= 0:
            continue
        break
    if h_left is not None and name in ("h", "hk", "ch"):
        h_left -= 1
    arity = 3 if name == "ccz" else 2 if name in ("cz", "ch", "swap") else 1
    targets = []
    while len(targets) < arity:
        q = rng.randrange(n)
        if q not in targets:
            targets.append(q)
    spot = " ".join(str(q) for q in targets)
    if name == "hk":
        return f"gate hk {rng.randrange(7) - 3} {spot}", h_left
    if name == "rz":
        theta = (rng.uniform() - 0.5) * 2.0 * math.pi
        return f"gate rz {theta!r} {spot}", h_left
    return f"gate {name} {spot}", h_left


def random_clifford_circuit(
    rng: SplitMix64,
    n_max: int = 8,
    gate_max: int = 40,
    measure_max: int = 5,
    rewind_max: int = 3,
    allow_rewinds: bool = True,
    h_max: int | None = None,
) -> str:
    """Random Clifford-gate circuit text, optionally with retry blocks."""
    n = 2 + rng.randrange(n_max - 1)
    n_rewinds = rng.randrange(rewind_max + 1) if allow_rewinds else 0
    n_measures = n_rewinds + rng.randrange(measure_max - n_rewinds + 1)
    gate_budget = 1 + rng.randrange(gate_max)
    segments = n_measures + 1
    lines = [f"qubits {n}"]
    h_left = h_max
    labels: list[str] = []

    def emit_gates(count: int) -> None:
        nonlocal h_left
        for _ in range(count):
            line, h_left = _gate_line(rng, n, CLIFFORD_POOL, h_left)
            if labels and rng.bernoulli(0.25):
                picked = labels[rng.randrange(len(labels))]
                line += f" if {picked} == {rng.randrange(2)}"
            lines.append(line)

    per_segment = max(1, gate_budget // segments)
    for i in range(n_measures):
        emit_gates(per_segment)
        qubit = rng.randrange(n)
        label = f"m{i}"
        if i < n_rewinds:
            bit = rng.randrange(2)
            lines.append(f"snapshot s{i}")
            lines.append(f"measure {qubit} -> {label}")
            lines.append(f"rewind s{i} if {label} == {bit}")
            # the re-measurement label is recorded only on the retry branch,
            # so conditions never reference it
            lines.append(f"measure {qubit} -> {label}r if {label} == {bit}")
        else:
            lines.append(f"measure {qubit} -> {label}")
        labels.append(label)
    emit_gates(per_segment)
    return "\n".join(lines) + "\n"


def random_general_circuit(
    rng: SplitMix64,
    n_max: int = 5,
    gate_max: int = 15,
    postselect_max: int = 2,
    measure_max: int = 3,
    h_max: int | None = None,
) -> str:
    """Random full-gate-set circuit text with postselections and an accept.

    ``h_max`` caps the number of branching gates (h, hk, ch); None leaves
    them uncapped.  The path-sum oracle holds at most 2^min(b, n) amplitudes
    for b branching gates on n qubits, so no cap is needed to keep it cheap
    at small widths.
    """
    n = 1 + rng.randrange(n_max)
    gate_budget = 1 + rng.randrange(gate_max)
    n_measures = rng.randrange(measure_max + 1)
    n_postselects = rng.randrange(postselect_max + 1)
    events = ["m"] * n_measures + ["p"] * n_postselects
    for i in range(len(events) - 1, 0, -1):
        j = rng.randrange(i + 1)
        events[i], events[j] = events[j], events[i]
    segments = len(events) + 1
    lines = [f"qubits {n}"]
    h_left = h_max
    labels: list[str] = []

    def emit_gates(count: int) -> None:
        nonlocal h_left
        for _ in range(count):
            line, h_left = _gate_line(rng, n, GENERAL_POOL, h_left)
            if labels and rng.bernoulli(0.25):
                picked = labels[rng.randrange(len(labels))]
                line += f" if {picked} == {rng.randrange(2)}"
            lines.append(line)

    per_segment = max(1, gate_budget // segments)
    measure_count = 0
    for event in events:
        emit_gates(per_segment)
        qubit = rng.randrange(n)
        if event == "m":
            label = f"m{measure_count}"
            measure_count += 1
            lines.append(f"measure {qubit} -> {label}")
            labels.append(label)
        else:
            lines.append(f"postselect {qubit} = {rng.randrange(2)}")
    emit_gates(per_segment)
    lines.append(f"accept {rng.randrange(n)}")
    return "\n".join(lines) + "\n"
