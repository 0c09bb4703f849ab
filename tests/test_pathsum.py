"""Path-sum oracle: worked values, scope and size guards, backend agreement."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_general_circuit
from rwsim import pathsum, statevector
from rwsim.circuit import (
    RewindConsistencyError,
    outcome_distribution,
    parse_circuit,
    sampler,
    strong_probability,
)
from rwsim.pathsum import KERNEL, AmplitudeMap, SizeLimitError, acceptance_probability
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
    return strong_probability(circuit, statevector.KERNEL, {circuit.accept: 1})


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


@pytest.mark.parametrize(
    "body, certified",
    [
        ("gate h 1\nsnapshot s\nmeasure 0 -> a\nmeasure 1 -> b\nrewind s", False),
        ("gate h 1\nsnapshot s\nmeasure 1 -> b\nrewind s", True),
        ("gate h 1\nsnapshot s\nrewind s", True),  # certified on a qubit no key varies on
    ],
)
def test_a_rewind_on_a_million_qubits_tries_few_of_them(monkeypatch, body, certified):
    # the keys use qubits 0 and 1 only: qubits 2 and up all answer as qubit 2 does
    tried = []
    real = pathsum._collapse_matches

    def counted(stored, post, qubit):
        tried.append(qubit)
        return real(stored, post, qubit)

    monkeypatch.setattr(pathsum, "_collapse_matches", counted)
    trial = sampler(parse_circuit(f"qubits 1000000\ngate h 0\n{body}\naccept 0\n"), KERNEL)
    if certified:
        trial(SplitMix64(1))
    else:
        with pytest.raises(RewindConsistencyError):
            trial(SplitMix64(1))
    assert 1 <= len(tried) <= 3 and set(tried) <= {0, 1, 2}


def _normalised(n: int, amps: dict) -> AmplitudeMap:
    norm = sum(abs(a) ** 2 for a in amps.values()) ** 0.5
    return AmplitudeMap(n, {key: a / norm for key, a in amps.items()})


@given(st.data())
def test_a_rewind_tries_fewer_qubits_but_answers_as_trying_all(data):
    n = data.draw(st.integers(1, 5))
    keys, amps = st.integers(0, (1 << n) - 1), st.sampled_from([1, -1, 1j, 0.5, 2, 1e-7])
    stored = _normalised(n, data.draw(st.dictionaries(keys, amps, min_size=1, max_size=8)))
    q, bit = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 1))
    kept = {k: a * 1j for k, a in stored.items() if k >> q & 1 == bit}
    if not kept or data.draw(st.booleans()):  # not a collapse of ``stored``, mostly
        kept = data.draw(st.dictionaries(keys, amps, min_size=1, max_size=8))
    if data.draw(st.booleans()):  # moved by 1e-12 (within tolerance) up to 1e-4
        key = data.draw(keys)
        kept[key] = kept.get(key, 0) + data.draw(st.sampled_from([1e-12, 1e-8, 1e-4]))
    post = _normalised(n, kept)
    every = any(pathsum._collapse_matches(stored, post, qubit) for qubit in range(n))
    assert KERNEL.is_collapse(stored, post) == every


def test_each_gate_builds_its_moves_once():
    """A gate's key table is built once per op, not once per apply: the h
    and ch after the measurement run on both branches."""
    pathsum._moves.cache_clear()
    circuit = parse_circuit("qubits 2\ngate h 0\nmeasure 0 -> m\ngate h 1\ngate ch 0 1\naccept 1\n")
    assert acceptance_probability(circuit) == pytest.approx(_dense_acceptance(circuit), abs=1e-12)
    info = pathsum._moves.cache_info()
    assert (info.misses, info.hits) == (3, 2)
