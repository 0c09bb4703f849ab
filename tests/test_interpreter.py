"""The one circuit interpreter: guards that samplers and exact oracles share."""

from __future__ import annotations

import pytest

from rwsim import circuit, pathsum, stabilizer, statevector
from rwsim.circuit import (
    SnapshotRegistry,
    outcome_distribution,
    parse_circuit,
    sampler,
    strong_probability,
)
from rwsim.gates import H, X
from rwsim.pathsum import SizeLimitError, acceptance_probability
from rwsim.rng import SplitMix64, stream_seed
from rwsim.stabilizer import stab_init, stab_rewind
from rwsim.statevector import RewindBudgetError

KERNELS = {"sv": statevector.KERNEL, "stab": stabilizer.KERNEL}

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

TWO_REWINDS = """
qubits 1
gate h 0
snapshot a
measure 0 -> m1
rewind a
measure 0 -> m2
rewind a
accept 0
"""


def test_shared_error_and_registry_names_are_one_object_everywhere():
    shared = {
        statevector: ("RewindConsistencyError", "UnknownSnapshotError", "SnapshotRegistry"),
        stabilizer: (
            "RewindConsistencyError", "UnknownSnapshotError", "UnsupportedInstructionError",
            "GateSetError", "DepthLimitError",
        ),
        pathsum: ("UnsupportedInstructionError",),
    }
    for module, names in shared.items():
        for name in names:
            assert getattr(module, name) is getattr(circuit, name), (module.__name__, name)
    assert issubclass(circuit.GateSetError, circuit.UnsupportedInstructionError)


def test_statevector_rewind_error_catches_the_tableau_refusal():
    registry = SnapshotRegistry()
    registry.store("s", stabilizer.stab_apply(stab_init(1), H, (0,)))
    foreign = stabilizer.stab_apply(stab_init(1), X, (0,))
    foreign = stabilizer.stab_apply(foreign, H, (0,))
    with pytest.raises(statevector.RewindConsistencyError):
        stab_rewind(foreign, registry, "s", "strict")


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("backend", sorted(KERNELS))
def test_uncertifiable_rewind_is_refused_by_samplers_and_oracles(backend, entry):
    with pytest.raises(circuit.RewindConsistencyError):
        ENTRIES[entry](parse_circuit(ROTATED_REWIND), KERNELS[backend])


@pytest.mark.parametrize("oracle", [acceptance_probability], ids=["pathsum"])
def test_acceptance_oracles_refuse_a_circuit_without_accept(oracle):
    with pytest.raises(ValueError, match="circuit declares no accept qubit"):
        oracle(parse_circuit("qubits 1\ngate h 0\nmeasure 0 -> m\n"))


def test_max_rewinds_budget():
    c = parse_circuit(TWO_REWINDS)
    with pytest.raises(RewindBudgetError):
        sampler(c, statevector.KERNEL, max_rewinds=1)(SplitMix64(3))
    assert sampler(c, statevector.KERNEL, max_rewinds=2)(SplitMix64(3)).rewinds_used == 2


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_tableau_refuses_postselect_on_a_branch_never_taken(entry):
    # m is always 0, so the postselection never executes
    c = parse_circuit("qubits 1\nmeasure 0 -> m\npostselect 0 = 1 if m == 1\n")
    assert outcome_distribution(c, statevector.KERNEL) == {"m=0": 1.0}
    with pytest.raises(circuit.UnsupportedInstructionError):
        ENTRIES[entry](c, stabilizer.KERNEL)


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
