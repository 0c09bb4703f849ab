"""Tableau backend: gate rules, measurement, rewinding, exact enumeration."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from conftest import random_clifford_circuit
from rwsim.circuit import parse_circuit
from rwsim.gates import CZ, H, S, X, hk
from rwsim import stabilizer, statevector
from rwsim.rng import SplitMix64, stream_seed
from rwsim.stabilizer import (
    DepthLimitError,
    GateSetError,
    RewindConsistencyError,
    StabilizerTableau,
    TableauRegistry,
    UnknownSnapshotError,
    stab_apply,
    stab_init,
    stab_measure,
    stab_outcome_distribution,
    stab_rewind,
    stab_run,
    stab_snapshot,
    stab_strong_probability,
)
from rwsim.statevector import (
    apply_gate,
    exact_outcome_distribution,
    init,
    prob_of_bit,
)


def sv_probability(gates, n, qubit, bit) -> float:
    state = init(n)
    for g, targets in gates:
        state = apply_gate(state, g, targets)
    return prob_of_bit(state, qubit, bit)


def stab_probability(gates, n, qubit, bit) -> float:
    tab = stab_init(n)
    for g, targets in gates:
        tab = stab_apply(tab, g, targets)
    outcome, prob, _ = stab_measure(tab, qubit, None, force=bit)
    if prob == 1.0:
        return 1.0 if outcome == bit else 0.0
    return 0.5


def test_single_gate_probabilities_match_dense_backend():
    cases = [
        ([(H, (0,))], 1),
        ([(H, (0,)), (S, (0,)), (H, (0,))], 1),
        ([(X, (0,))], 1),
        ([(H, (0,)), (CZ, (0, 1)), (H, (1,))], 2),
        ([(H, (1,)), (CZ, (0, 1)), (H, (0,)), (S, (1,))], 2),
    ]
    for gates, n in cases:
        for qubit in range(n):
            for bit in (0, 1):
                assert stab_probability(gates, n, qubit, bit) == pytest.approx(
                    sv_probability(gates, n, qubit, bit), abs=1e-12
                )


def test_cz_phase_rule_on_stabilizer_xy():
    # CZ maps X(x)Y(y) -> -Y(x)X(y): check via measurement statistics of the
    # dense backend on a state stabilised by those operators.
    tab = stab_init(2)
    for g, targets in [(H, (0,)), (H, (1,)), (S, (1,)), (CZ, (0, 1))]:
        tab = stab_apply(tab, g, targets)
    state = init(2)
    for g, targets in [(H, (0,)), (H, (1,)), (S, (1,)), (CZ, (0, 1))]:
        state = apply_gate(state, g, targets)
    for qubit in (0, 1):
        outcome, prob, _ = stab_measure(tab.copy(), qubit, None, force=0)
        dense = prob_of_bit(state, qubit, 0)
        assert (prob == 1.0 and dense == pytest.approx(float(outcome == 0))) or (
            prob == 0.5 and dense == pytest.approx(0.5)
        )


def test_gate_set_rejections():
    tab = stab_init(1)
    with pytest.raises(GateSetError):
        stab_apply(tab, hk(2), (0,))


def test_deterministic_measurement_after_preparation():
    tab = stab_apply(stab_init(1), X, (0,))
    outcome, prob, _ = stab_measure(tab, 0, None, force=None)
    assert (outcome, prob) == (1, 1.0)


def test_random_measurement_collapses_to_deterministic():
    rng = SplitMix64(4)
    tab = stab_apply(stab_init(1), H, (0,))
    outcome, prob, tab = stab_measure(tab, 0, rng)
    assert prob == 0.5
    again, prob2, _ = stab_measure(tab, 0, rng)
    assert (again, prob2) == (outcome, 1.0)


def test_snapshot_rewind_strict_accepts_collapse():
    registry = TableauRegistry()
    tab = stab_apply(stab_init(2), H, (0,))
    tab = stab_apply(tab, CZ, (0, 1))
    tab = stab_apply(tab, H, (1,))
    stab_snapshot(tab, registry, "s")
    _, _, collapsed = stab_measure(tab.copy(), 0, SplitMix64(8))
    restored = stab_rewind(collapsed, registry, "s", "strict")
    dist_a = {}
    dist_b = {}
    for qubit in (0, 1):
        dist_a[qubit] = stab_measure(restored.copy(), qubit, None, force=0)[1]
        dist_b[qubit] = stab_measure(tab.copy(), qubit, None, force=0)[1]
    assert dist_a == dist_b


def test_snapshot_rewind_strict_refuses_foreign_state():
    # |11> is not a one-outcome collapse of |+>|0>, so strict mode must refuse.
    registry = TableauRegistry()
    tab = stab_apply(stab_init(2), H, (0,))
    stab_snapshot(tab, registry, "s")
    foreign = stab_apply(stab_apply(stab_init(2), X, (0,)), X, (1,))
    with pytest.raises(RewindConsistencyError):
        stab_rewind(foreign, registry, "s", "strict")
    # permissive mode restores anyway
    stab_rewind(foreign, registry, "s", "permissive")


def test_rewind_unknown_label():
    with pytest.raises(UnknownSnapshotError):
        stab_rewind(stab_init(1), TableauRegistry(), "nope", "strict")


RETRY = """
qubits 1
gate h 0
snapshot fresh
measure 0 -> t1
rewind fresh if t1 == 1
measure 0 -> t2 if t1 == 1
rewind fresh if t1 == 1 && t2 == 1
measure 0 -> t3 if t1 == 1 && t2 == 1
accept 0
"""


def test_retry_chain_exact_accept_probability():
    circuit = parse_circuit(RETRY)
    assert stab_strong_probability(circuit, {0: 1}) == Fraction(1, 8)
    assert stab_strong_probability(circuit, {0: 0}) == Fraction(7, 8)


def test_retry_chain_distribution():
    dist = stab_outcome_distribution(parse_circuit(RETRY))
    assert dist == {
        "t1=0": Fraction(1, 2),
        "t1=1,t2=0": Fraction(1, 4),
        "t1=1,t2=1,t3=0": Fraction(1, 8),
        "t1=1,t2=1,t3=1": Fraction(1, 8),
    }


def test_run_sampling_matches_exact_distribution():
    circuit = parse_circuit(RETRY)
    counts: dict[str, int] = {}
    trials = 2000
    for i in range(trials):
        result = stab_run(circuit, SplitMix64(stream_seed(14, i)))
        key = ",".join(f"{l}={b}" for l, b, _ in result.record.entries)
        counts[key] = counts.get(key, 0) + 1
    for key, expected in stab_outcome_distribution(circuit).items():
        freq = counts.get(key, 0) / trials
        mean = float(expected)
        sigma = (mean * (1 - mean) / trials) ** 0.5
        assert abs(freq - mean) <= 4 * sigma + 1e-9


def test_postselect_is_rejected_by_backend():
    circuit = parse_circuit("qubits 1\ngate h 0\npostselect 0 = 0\n")
    from rwsim.stabilizer import UnsupportedInstructionError

    with pytest.raises(UnsupportedInstructionError):
        stab_run(circuit, SplitMix64(1))


def test_depth_limit_guards_enumeration():
    lines = ["qubits 1"]
    for i in range(25):
        lines.append("gate h 0")
        lines.append(f"measure 0 -> m{i}")
    circuit = parse_circuit("\n".join(lines) + "\n")
    with pytest.raises(DepthLimitError):
        stab_outcome_distribution(circuit, max_depth=20)


@pytest.mark.parametrize("seed", range(40))
def test_random_circuits_match_dense_distribution(seed):
    rng = SplitMix64(stream_seed(0xC1, seed))
    text = random_clifford_circuit(rng, n_max=6, gate_max=24)
    circuit = parse_circuit(text)
    stab_dist = stab_outcome_distribution(circuit)
    sv_dist = exact_outcome_distribution(circuit)
    assert set(stab_dist) == set(sv_dist), text
    for key, weight in stab_dist.items():
        assert abs(float(weight) - sv_dist[key]) <= 1e-12, (text, key)


def test_clone_restores_snapshot_exactly():
    circuit = parse_circuit(
        "qubits 2\ngate h 0\ngate h 1\ngate cz 0 1\ngate h 1\nmeasure 0 -> m\n"
        "snapshot here\nclone here\nmeasure 1 -> check\n"
    )
    for i in range(24):
        result = stab_run(circuit, SplitMix64(stream_seed(31, i)))
        assert result.record.bit("check") == result.record.bit("m")


# ---------------------------------------------------------------------------
# strict rewind against the dense backend, and tableaux wider than one word


KERNELS = (stabilizer.KERNEL, statevector.KERNEL)


def _accepts(kernel, post, stored) -> bool:
    registry = TableauRegistry()
    registry.store("s", stored)
    try:
        kernel.rewind(post, registry, "s", "strict")
    except RewindConsistencyError:
        return False
    return True


def _collapse(kernel, state, qubit, bit):
    """``state`` collapsed onto ``bit`` of ``qubit``, or onto the other bit if
    ``bit`` has probability 0."""
    prob = kernel.prob(state, qubit, bit)
    if not prob:
        bit = 1 - bit
        prob = kernel.prob(state, qubit, bit)
    return kernel.collapse(state, qubit, bit, prob)


def test_strict_rewind_decisions_match_dense_backend():
    pool = (H, S, X, CZ)
    accepted = refused = 0
    for case in range(1000):
        rng = SplitMix64(stream_seed(0x5EED, case))
        n = 1 + rng.randrange(8)

        def gate():
            g = pool[rng.randrange(4 if n > 1 else 3)]
            a = rng.randrange(n)
            return g, ((a, (a + 1 + rng.randrange(n - 1)) % n) if g is CZ else (a,))

        stored = [stab_init(n), init(n)]
        for _ in range(rng.randrange(4 * n + 1)):
            g, targets = gate()
            stored = [stab_apply(stored[0].copy(), g, targets), apply_gate(stored[1], g, targets)]
        kind = rng.randrange(4)  # one collapse, two collapses, collapse + gate, no change
        post = list(stored)
        for _ in range({0: 1, 1: 2, 2: 1, 3: 0}[kind]):
            qubit, bit = rng.randrange(n), rng.randrange(2)
            post = [_collapse(k, s, qubit, bit) for k, s in zip(KERNELS, post)]
        if kind == 2:
            g, targets = gate()
            post = [stab_apply(post[0].copy(), g, targets), apply_gate(post[1], g, targets)]
        decisions = [_accepts(k, p, s) for k, p, s in zip(KERNELS, post, stored)]
        assert decisions[0] == decisions[1], (case, kind)
        accepted += decisions[0]
        refused += not decisions[0]
    assert accepted > 500 and refused > 100, (accepted, refused)


def _wide(n: int, gates) -> StabilizerTableau:
    tab = stab_init(n)
    for g, targets in gates:
        tab = stab_apply(tab, g, targets)
    return tab


WIDE = 130
GHZ = [(H, (0,))] + [
    step for t in range(1, WIDE) for step in ((H, (t,)), (CZ, (0, t)), (H, (t,)))
]
PLUS = [(H, (q,)) for q in range(WIDE)]


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_init_spans_word_boundaries(n):
    tab = stab_init(n)
    words = (n + 63) // 64
    assert tab.X.shape == tab.Z.shape == (2 * n, words) and tab.r.shape == (2 * n,)
    bits = lambda rows: np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")[:, :n]
    eye = np.eye(n, dtype=np.uint8)
    assert (bits(tab.X[:n]) == eye).all() and not bits(tab.Z[:n]).any()
    assert (bits(tab.Z[n:]) == eye).all() and not bits(tab.X[n:]).any()
    for qubit in (0, n - 1, min(n - 1, 63), min(n - 1, 64)):
        assert stab_measure(tab.copy(), qubit, None)[:2] == (0, 1.0)


@pytest.mark.parametrize("first", [0, 63, 64, 129])
def test_wide_ghz_remeasurements_are_deterministic(first):
    tab = _wide(WIDE, GHZ)
    outcome, prob, tab = stab_measure(tab, first, SplitMix64(first))
    assert prob == 0.5
    for qubit in (63, 64, 129):
        assert stab_measure(tab, qubit, None)[:2] == (outcome, 1.0)


@pytest.mark.parametrize("qubit", [63, 64, 129])
def test_wide_product_remeasurement_is_deterministic(qubit):
    tab = _wide(WIDE, PLUS)
    for bit in (0, 1):
        _, prob, collapsed = stab_measure(tab.copy(), qubit, None, force=bit)
        assert prob == 0.5
        assert stab_measure(collapsed, qubit, None)[:2] == (bit, 1.0)
        assert stab_measure(collapsed, qubit ^ 1, None, force=0)[1] == 0.5


@pytest.mark.parametrize("gates", [GHZ, PLUS], ids=["ghz", "plus"])
@pytest.mark.parametrize("qubit", [0, 63, 64, 129])
def test_wide_strict_rewind_accepts_one_collapse(gates, qubit):
    stored = _wide(WIDE, gates)
    for bit in (0, 1):
        post = stab_measure(stored.copy(), qubit, None, force=bit)[2]
        assert _accepts(stabilizer.KERNEL, post, stored)


@pytest.mark.parametrize("pair", [(62, 63), (63, 64), (64, 65), (0, 129)])
def test_wide_strict_rewind_refuses_two_collapses(pair):
    stored = _wide(WIDE, PLUS)
    post = stored.copy()
    for qubit in pair:
        post = stab_measure(post, qubit, None, force=1)[2]
    assert not _accepts(stabilizer.KERNEL, post, stored)
    # on the GHZ state the second reading is implied by the first, so it is
    # still a one-qubit collapse
    ghz = _wide(WIDE, GHZ)
    post = ghz.copy()
    for qubit in pair:
        post = stab_measure(post, qubit, None, force=1)[2]
    assert _accepts(stabilizer.KERNEL, post, ghz)
