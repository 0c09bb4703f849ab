"""The sampler: trials share the deterministic prefix of a circuit.

A sampler runs the instructions before the first measurement or conditional
once and starts every trial from a copy of the branch they leave.  These
tests pin that each trial still equals a run from |0...0>, that the prefix's
errors fire on every trial, and what is cached and what is not.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO, cli_env
from rwsim import circuit, stabilizer, statevector
from rwsim.circuit import (
    InvalidPostselectionError,
    parse_circuit,
    sampler,
)
from rwsim.rng import SplitMix64, stream_seed

KERNELS = {"sv": statevector.KERNEL, "stab": stabilizer.KERNEL}

# Clifford circuits, so that both sampling backends run them.
NO_MEASUREMENT = """
qubits 2
gate h 0
gate cz 0 1
gate h 1
accept 1
"""

MEASURE_FIRST = """
qubits 2
measure 0 -> m
gate h 1
measure 1 -> a
gate x 0 if a == 1
accept 0
"""

# snapshot, rewind and clone before the first measurement: qubit 2 stays
# |0>, so rewinding the unchanged snapshot is certified
PREFIX_OPS = """
qubits 3
gate h 0
gate h 1
snapshot s
rewind s
gate cz 0 1
gate s 1
clone s
gate cz 0 1
measure 0 -> m
snapshot t
measure 1 -> r
rewind t if r == 1
measure 1 -> r2 if r == 1
gate x 2 if m == 1
accept 2
"""

CIRCUITS = {"no-measurement": NO_MEASUREMENT, "measure-first": MEASURE_FIRST,
            "prefix-ops": PREFIX_OPS}


def _rng(i: int) -> SplitMix64:
    return SplitMix64(stream_seed(11, i))


def _same_state(a, b) -> bool:
    if isinstance(a, statevector.PureState):
        return np.array_equal(a.amps, b.amps)
    return a == b


@pytest.mark.parametrize("backend", sorted(KERNELS))
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_each_trial_equals_a_fresh_run(backend, name):
    c, kernel = parse_circuit(CIRCUITS[name]), KERNELS[backend]
    trial = sampler(c, kernel)
    for i in range(24):
        got, want = trial(_rng(i)), sampler(c, kernel)(_rng(i))
        assert got.record.entries == want.record.entries
        assert got.accept_bit == want.accept_bit
        assert _same_state(got.final_state, want.final_state)


def _raises_every_call(trial, error, message):
    for i in range(3):
        with pytest.raises(error) as info:
            trial(_rng(i))
        assert str(info.value) == message


def test_an_empty_prefix_postselection_raises_on_every_call():
    c = parse_circuit("qubits 2\ngate h 0\npostselect 1 = 1\nmeasure 0 -> m\n")
    _raises_every_call(
        sampler(c, statevector.KERNEL), InvalidPostselectionError,
        "outcome 1 on qubit 1 has probability 0.000e+00",
    )


def _simulate(path, *flags):
    argv = [sys.executable, "-m", "rwsim", "simulate", str(path), *flags]
    done = subprocess.run(argv, capture_output=True, text=True, env=cli_env(), cwd=REPO)
    body = [line for line in done.stdout.splitlines() if not line.startswith("duration_s=")]
    return done.returncode, body, done.stderr


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_prefix_postselection_under_the_floor_fails_the_run(tmp_path, jobs):
    path = tmp_path / "floor.qc"
    path.write_text("qubits 2\ngate h 0\npostselect 0 = 1\nmeasure 1 -> m\n")
    code, body, err = _simulate(path, "--trials", "3", "--min-postselect-prob", "0.9",
                                "--jobs", jobs)
    assert (code, body) == (1, [])
    assert err == (
        "error: PostselectThresholdError: postselection probability 0.5 below required 0.9\n"
    )
    trial = sampler(parse_circuit(path.read_text()), statevector.KERNEL, min_postselect_prob=0.9)
    _raises_every_call(
        trial, circuit.PostselectThresholdError,
        "postselection probability 0.5 below required 0.9",
    )


@pytest.mark.parametrize("backend", sorted(KERNELS))
def test_jobs_do_not_change_a_report_with_prefix_operations(tmp_path, backend):
    path = tmp_path / "prefix.qc"
    path.write_text(PREFIX_OPS)
    flags = ["--backend", backend, "--trials", "40", "--seed", "3"]
    one, two = _simulate(path, *flags, "--jobs", "1"), _simulate(path, *flags, "--jobs", "2")
    assert one[0] == 0 and one == two


class _Counting(type(statevector.KERNEL)):
    """The dense kernel, counting the calls the interpreter makes."""

    def __init__(self):
        self.calls = {"init": 0, "apply": 0, "measure": 0, "check_width": 0}

    def init(self, n):
        self.calls["init"] += 1
        return super().init(n)

    def apply(self, state, op):
        self.calls["apply"] += 1
        return super().apply(state, op)

    def measure(self, state, qubit, rng):
        self.calls["measure"] += 1
        return super().measure(state, qubit, rng)

    def check_width(self, n):
        self.calls["check_width"] += 1
        return super().check_width(n)


def test_the_prefix_and_the_checks_run_once(monkeypatch):
    # four prefix gates; after the first measurement two gates and two
    # measurements run on every trial, then the accept readout
    c = parse_circuit(
        "qubits 3\ngate h 0\ngate h 1\ngate cz 0 1\ngate h 2\n"
        "measure 0 -> m\ngate h 0\ngate x 2\nmeasure 1 -> n\naccept 2\n"
    )
    validated = []
    real = circuit.validate
    monkeypatch.setattr(circuit, "validate", lambda c: validated.append(c) or real(c))
    kernel = _Counting()
    trial = sampler(c, kernel)
    trials = 7
    runs = [trial(_rng(i)) for i in range(trials)]
    assert len(validated) == 0  # the circuit checked itself when it was built
    assert kernel.calls == {"init": 1, "apply": 4 + 2 * trials, "measure": 3 * trials,
                            "check_width": 1}
    monkeypatch.undo()
    for i, got in enumerate(runs):
        assert got.record.entries == sampler(c, statevector.KERNEL)(_rng(i)).record.entries


def test_the_shared_final_state_is_read_only():
    c = parse_circuit("qubits 2\ngate h 0\ngate cz 0 1\ngate h 1\n")
    trial = sampler(c, statevector.KERNEL)
    first = trial(_rng(0))
    want = first.final_state.amps.copy()
    with pytest.raises(ValueError):
        first.final_state.amps[0] = 0.0
    assert np.array_equal(trial(_rng(1)).final_state.amps, want)
