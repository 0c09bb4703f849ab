"""The one circuit interpreter: guards that samplers and exact oracles share."""

from __future__ import annotations

import pytest

from rwsim import circuit, pathsum, stabilizer, statevector
from rwsim.circuit import (
    outcome_distribution,
    parse_circuit,
    sampler,
    strong_probability,
)
from rwsim.gates import H, X
from rwsim.pathsum import SizeLimitError, acceptance_probability
from rwsim.rng import SplitMix64, stream_seed
from rwsim.stabilizer import stab_init

KERNELS = {"sv": statevector.KERNEL, "stab": stabilizer.KERNEL, "pathsum": pathsum.KERNEL}

# The entries of the interpreter a backend is reached through: a sampled run
# and the two exact oracles.
ENTRIES = {
    "sampler": lambda c, kernel: sampler(c, kernel)(SplitMix64(stream_seed(1, 0))),
    "outcome_distribution": outcome_distribution,
    "strong_probability": lambda c, kernel: strong_probability(c, kernel, {0: 1}),
}

# The post-measurement state is rotated before the rewind, so it is no
# one-outcome collapse of the snapshot on either branch.
ROTATED_REWIND = """
qubits 1
gate h 0
snapshot a
measure 0 -> m
gate h 0
rewind a
"""


def test_shared_error_and_registry_names_are_one_object_everywhere():
    shared = {
        statevector: ("RewindConsistencyError", "UnknownSnapshotError"),
        stabilizer: (
            "RewindConsistencyError", "UnknownSnapshotError", "GateSetError", "DepthLimitError",
        ),
    }
    for module, names in shared.items():
        for name in names:
            assert getattr(module, name) is getattr(circuit, name), (module.__name__, name)
    assert issubclass(circuit.GateSetError, circuit.InputError)


def test_statevector_rewind_error_catches_the_tableau_refusal():
    stored = stabilizer.stab_apply(stab_init(1), H, (0,))
    foreign = stabilizer.stab_apply(stab_init(1), X, (0,))
    foreign = stabilizer.stab_apply(foreign, H, (0,))
    assert not stabilizer.KERNEL.is_collapse(stored, foreign)
    with pytest.raises(statevector.RewindConsistencyError):
        sampler(parse_circuit(ROTATED_REWIND), stabilizer.KERNEL)(SplitMix64(0))


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("backend", sorted(KERNELS))
def test_uncertifiable_rewind_is_refused_by_samplers_and_oracles(backend, entry):
    with pytest.raises(circuit.RewindConsistencyError):
        ENTRIES[entry](parse_circuit(ROTATED_REWIND), KERNELS[backend])


# m is always 0, so the snapshot on line 3 is never taken on any branch.
NEVER_TAKEN = "qubits 1\nmeasure 0 -> m\nsnapshot s if m == 1\n{op} s\naccept 0\n"


@pytest.mark.parametrize("op", ["rewind", "clone"])
@pytest.mark.parametrize("entry", ["sampler", "outcome_distribution"])
@pytest.mark.parametrize("backend", sorted(KERNELS))
def test_a_snapshot_never_taken_is_refused_by_its_line(backend, entry, op):
    c = parse_circuit(NEVER_TAKEN.format(op=op), "never.qc")
    with pytest.raises(circuit.UnknownSnapshotError) as info:
        ENTRIES[entry](c, KERNELS[backend])
    assert str(info.value) == "never.qc: line 4: no snapshot 's' on this branch"
    assert isinstance(info.value, ValueError)
    assert not isinstance(info.value, circuit.InputError)


@pytest.mark.parametrize("oracle", [acceptance_probability], ids=["pathsum"])
def test_acceptance_oracles_refuse_a_circuit_without_accept(oracle):
    with pytest.raises(ValueError, match="circuit declares no accept qubit"):
        oracle(parse_circuit("qubits 1\ngate h 0\nmeasure 0 -> m\n"))


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_pathsum_runs_a_snapshot_on_a_branch_never_taken(entry):
    # m is always 0, so the snapshot never executes
    c = parse_circuit("qubits 1\nmeasure 0 -> m\nsnapshot s if m == 1\naccept 0\n")
    assert outcome_distribution(c, statevector.KERNEL) == {"m=0": 1.0}
    dense, paths = (ENTRIES[entry](c, kernel) for kernel in (statevector.KERNEL, pathsum.KERNEL))
    if entry == "sampler":
        dense, paths = ((r.record.entries, r.accept_bit) for r in (dense, paths))
    assert paths == dense
    dense_accept = strong_probability(c, statevector.KERNEL, {0: 1})
    assert abs(acceptance_probability(c) - dense_accept) <= 1e-12


def test_a_pathsum_sampler_measures():
    # it once raised AttributeError: the path sum had no measure
    c = parse_circuit("qubits 1\ngate h 0\nmeasure 0 -> m\n")
    trial, seen = sampler(c, pathsum.KERNEL), set()
    for i in range(16):
        ((label, bit, prob),) = trial(SplitMix64(stream_seed(4, i))).record.entries
        assert (label, prob) == ("m", pytest.approx(0.5, abs=1e-12))
        seen.add(bit)
    assert seen == {0, 1}


@pytest.mark.parametrize("backend", sorted(KERNELS))
def test_a_rewind_right_after_its_snapshot_needs_a_fixed_qubit(backend):
    # on 2 qubits, qubit 1 is 0 over the whole support, so the unchanged state
    # is its collapse and the rewind is certified; on 1 qubit nothing is fixed
    kernel = KERNELS[backend]
    certified = parse_circuit("qubits 2\ngate h 0\nsnapshot s\nrewind s\n")
    for entry in ENTRIES.values():
        entry(certified, kernel)
    refused = parse_circuit("qubits 1\ngate h 0\nsnapshot s\nrewind s\n")
    for entry in ENTRIES.values():
        with pytest.raises(circuit.RewindConsistencyError):
            entry(refused, kernel)


def test_amplitude_cap_counts_one_branch(monkeypatch):
    monkeypatch.setattr(pathsum, "MAX_AMPLITUDES", 2)
    # the measurement forks two branches of one amplitude each, so h 1 leaves
    # two per branch; without it the one branch would hold four
    forked = parse_circuit("qubits 2\ngate h 0\nmeasure 0 -> m\ngate h 1\naccept 1\n")
    assert outcome_distribution(forked, pathsum.KERNEL) == pytest.approx(
        {"m=0": 0.5, "m=1": 0.5}, abs=1e-12
    )
    assert acceptance_probability(forked) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(SizeLimitError, match="^4 live amplitudes"):
        acceptance_probability(parse_circuit("qubits 2\ngate h 0\ngate h 1\naccept 1\n"))


def test_a_measurement_with_no_live_outcome_drops_the_branch():
    class Empty(type(statevector.KERNEL)):
        def prob(self, state, qubit, bit):
            return 0.0

    c = parse_circuit("qubits 1\ngate h 0\nmeasure 0 -> m\naccept 0\n")
    assert circuit.enumerate_branches(c, Empty()) == []
