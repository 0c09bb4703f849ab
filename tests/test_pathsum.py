"""Path-sum oracle: worked values, scope and size guards, backend agreement."""

from __future__ import annotations

import pytest

from conftest import random_general_circuit
from rwsim import pathsum, statevector
from rwsim.circuit import accept_qubit, outcome_distribution, parse_circuit, strong_probability
from rwsim.pathsum import KERNEL, SizeLimitError, acceptance_probability
from rwsim.rng import SplitMix64, stream_seed

BELL = """
qubits 2
gate h 0
gate h 1
gate cz 0 1
gate h 1
measure 0 -> m0
measure 1 -> m1
accept 0
"""

POSTSELECT = """
qubits 2
gate h 0
gate h 1
gate cz 0 1
gate h 1
postselect 1 = 0
gate x 0
measure 0 -> m
accept 0
"""


def test_bell_acceptance_is_half():
    assert acceptance_probability(parse_circuit(BELL)) == pytest.approx(0.5, abs=1e-12)


def test_bell_outcome_distribution():
    dist = outcome_distribution(parse_circuit(BELL), KERNEL)
    assert set(dist) == {"m0=0,m1=0", "m0=1,m1=1"}
    assert dist["m0=0,m1=0"] == pytest.approx(0.5, abs=1e-12)
    assert dist["m0=1,m1=1"] == pytest.approx(0.5, abs=1e-12)


def test_postselect_renormalises_branch():
    assert acceptance_probability(parse_circuit(POSTSELECT)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_missing_accept_rejected():
    circuit = parse_circuit("qubits 1\ngate h 0\nmeasure 0 -> m\n")
    with pytest.raises(ValueError):
        acceptance_probability(circuit)


def test_an_acceptance_out_of_range_is_refused(monkeypatch):
    # a kernel fault that weighs the accept outcome 2 is named, not returned
    monkeypatch.setattr(KERNEL, "prob", lambda state, qubit, bit: 2.0)
    circuit = parse_circuit("qubits 1\ngate h 0\naccept 0\n")
    with pytest.raises(RuntimeError, match=r"acceptance probability 2\.0 outside \[0, 1\]"):
        acceptance_probability(circuit)


def _dense_acceptance(circuit) -> float:
    return strong_probability(circuit, statevector.KERNEL, {accept_qubit(circuit): 1})


def _matches_the_dense_oracle(text: str) -> None:
    circuit = parse_circuit(text)
    assert abs(acceptance_probability(circuit) - _dense_acceptance(circuit)) <= 1e-12


def test_snapshot_matches_the_dense_oracle():
    _matches_the_dense_oracle("qubits 1\ngate h 0\nsnapshot s\naccept 0\n")


def test_clone_matches_the_dense_oracle():
    _matches_the_dense_oracle(
        "qubits 1\ngate h 0\nsnapshot s\ngate s 0\nclone s\ngate h 0\naccept 0\n"
    )


def test_rewind_matches_the_dense_oracle():
    _matches_the_dense_oracle(
        "qubits 1\ngate h 0\nsnapshot s\nmeasure 0 -> m\nrewind s if m == 1\n"
        "measure 0 -> r if m == 1\naccept 0\n"
    )


def _hadamards(k: int) -> str:
    return f"qubits {k}\n" + "".join(f"gate h {q}\n" for q in range(k)) + "accept 0\n"


@pytest.mark.parametrize("k", [3, 5])
def test_amplitude_cap_boundary_is_exact(monkeypatch, k):
    monkeypatch.setattr(pathsum, "MAX_AMPLITUDES", 1 << k)
    # h on k qubits leaves exactly 2^k live amplitudes: at the cap, admitted
    assert acceptance_probability(parse_circuit(_hadamards(k))) == pytest.approx(
        0.5, abs=1e-12
    )
    with pytest.raises(SizeLimitError, match=f"^{1 << (k + 1)} live amplitudes"):
        acceptance_probability(parse_circuit(_hadamards(k + 1)))


def test_repeated_branching_on_one_qubit_stays_small():
    # 31 branching gates, but the state never holds more than 2 amplitudes
    circuit = parse_circuit("qubits 2\n" + "gate h 0\n" * 31 + "accept 0\n")
    assert acceptance_probability(circuit) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_acceptance_matches_dense_oracle(seed):
    rng = SplitMix64(stream_seed(0x9A, seed))
    text = random_general_circuit(rng, n_max=4, gate_max=12, h_max=6)
    circuit = parse_circuit(text)
    assert acceptance_probability(circuit) == pytest.approx(
        _dense_acceptance(circuit), abs=1e-9
    ), text


@pytest.mark.parametrize("seed", range(25))
def test_distribution_matches_dense_oracle(seed):
    rng = SplitMix64(stream_seed(0x9B, seed))
    text = random_general_circuit(rng, n_max=4, gate_max=12, h_max=6)
    circuit = parse_circuit(text)
    ours = outcome_distribution(circuit, KERNEL)
    dense = outcome_distribution(circuit, statevector.KERNEL)
    assert set(ours) == set(dense), text
    for key, value in ours.items():
        assert value == pytest.approx(dense[key], abs=1e-9), (text, key)


@pytest.mark.parametrize("seed", range(200))
def test_unbounded_branching_matches_dense_oracle(seed):
    # no cap on branching gates: up to 30 of them, on at most 6 qubits
    rng = SplitMix64(stream_seed(0x9C, seed))
    text = random_general_circuit(rng, n_max=6, gate_max=30, h_max=None)
    circuit = parse_circuit(text)
    ours = outcome_distribution(circuit, KERNEL)
    dense = outcome_distribution(circuit, statevector.KERNEL)
    assert set(ours) == set(dense), text
    for key, value in ours.items():
        assert value == pytest.approx(dense[key], abs=1e-9), (text, key)
    assert acceptance_probability(circuit) == pytest.approx(
        _dense_acceptance(circuit), abs=1e-9
    ), text


def test_each_gate_builds_its_moves_once():
    """A gate's key table is built once per op, not once per apply: the h
    and ch after the measurement run on both branches."""
    pathsum._moves.cache_clear()
    circuit = parse_circuit("qubits 2\ngate h 0\nmeasure 0 -> m\ngate h 1\ngate ch 0 1\naccept 1\n")
    assert acceptance_probability(circuit) == pytest.approx(_dense_acceptance(circuit), abs=1e-12)
    info = pathsum._moves.cache_info()
    assert (info.misses, info.hits) == (3, 2)
