"""Tableau backend: gate rules, measurement, rewinding, exact enumeration."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from conftest import random_clifford_circuit
from rwsim.circuit import (
    GateOp,
    InvalidPostselectionError,
    PostselectThresholdError,
    outcome_distribution,
    parse_circuit,
    sampler,
    strong_probability,
)
from rwsim.gates import CZ, H, S, X, hk
from rwsim import stabilizer, statevector
from rwsim.rng import SplitMix64, stream_seed
from rwsim.stabilizer import (
    DepthLimitError,
    GateSetError,
    RewindConsistencyError,
    KERNEL,
    StabilizerTableau,
    UnknownSnapshotError,
    stab_apply,
    stab_init,
    stab_measure,
)
from rwsim.statevector import apply_gate, init, prob_of_bit


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
        # stabilizers Y0 and Y0 Z1: Z1 is their product, with a pair of Y factors
        ([(H, (1,)), (CZ, (1, 0)), (H, (0,)), (H, (1,)), (S, (0,))], 2),
        ([(H, (1,)), (CZ, (1, 0)), (H, (0,)), (H, (1,)), (S, (0,)), (X, (1,))], 2),
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
    tab = stab_apply(stab_init(2), H, (0,))
    tab = stab_apply(tab, CZ, (0, 1))
    tab = stab_apply(tab, H, (1,))
    stored = tab.copy()
    _, _, collapsed = stab_measure(tab.copy(), 0, SplitMix64(8))
    assert KERNEL.is_collapse(stored, collapsed)
    restored = KERNEL.keep(stored)
    dist_a = {}
    dist_b = {}
    for qubit in (0, 1):
        dist_a[qubit] = stab_measure(restored.copy(), qubit, None, force=0)[1]
        dist_b[qubit] = stab_measure(tab.copy(), qubit, None, force=0)[1]
    assert dist_a == dist_b


def test_snapshot_rewind_strict_refuses_foreign_state():
    # |11> is not a one-outcome collapse of |+>|0>, so a rewind must be refused.
    tab = stab_apply(stab_init(2), H, (0,))
    foreign = stab_apply(stab_apply(stab_init(2), X, (0,)), X, (1,))
    assert not KERNEL.is_collapse(tab, foreign)
    c = parse_circuit("qubits 2\ngate h 0\nsnapshot s\ngate h 0\ngate x 0\ngate x 1\nrewind s\n")
    with pytest.raises(RewindConsistencyError, match="^state is not a one-outcome collapse"):
        sampler(c, KERNEL)(SplitMix64(0))


def test_rewind_unknown_label():
    # m is always 0, so the snapshot is never stored
    c = parse_circuit("qubits 1\nmeasure 0 -> m\nsnapshot s if m == 1\nrewind s\n")
    with pytest.raises(UnknownSnapshotError):
        sampler(c, KERNEL)(SplitMix64(0))


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
    assert strong_probability(circuit, KERNEL, {0: 1}) == Fraction(1, 8)
    assert strong_probability(circuit, KERNEL, {0: 0}) == Fraction(7, 8)


def test_retry_chain_distribution():
    dist = outcome_distribution(parse_circuit(RETRY), KERNEL)
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
    trial = sampler(circuit, KERNEL)
    for i in range(trials):
        result = trial(SplitMix64(stream_seed(14, i)))
        key = ",".join(f"{l}={b}" for l, (b, _) in result.record.items())
        counts[key] = counts.get(key, 0) + 1
    for key, expected in outcome_distribution(circuit, KERNEL).items():
        freq = counts.get(key, 0) / trials
        mean = float(expected)
        sigma = (mean * (1 - mean) / trials) ** 0.5
        assert abs(freq - mean) <= 4 * sigma + 1e-9


def test_postselect_runs_on_the_tableau():
    # a Bell pair postselected on qubit 1: qubit 0 then reads the same bit
    text = "qubits 2\ngate h 0\ngate h 1\ngate cz 0 1\ngate h 1\npostselect 1 = {}\n"
    for bit in (0, 1):
        circuit = parse_circuit(text.format(bit) + "measure 0 -> m\n")
        assert outcome_distribution(circuit, KERNEL) == {f"m={bit}": 1}
        assert strong_probability(circuit, KERNEL, {1: bit}) == 1
        trial = sampler(circuit, KERNEL)
        assert {trial(SplitMix64(i)).record["m"][0] for i in range(8)} == {bit}
    # the weights are exact: 1/2 on a coin, 1 or 0 on a fixed qubit
    plus = KERNEL.apply(KERNEL.init(1), GateOp(H, (0,)))
    assert [KERNEL.prob(plus, 0, bit) for bit in (0, 1)] == [Fraction(1, 2)] * 2
    assert [KERNEL.prob(KERNEL.init(1), 0, bit) for bit in (0, 1)] == [1, 0]


def test_tableau_postselection_refusals_match_the_dense_kernel():
    cases = [
        ("qubits 2\ngate h 1\npostselect 0 = 1\n", 0.0, InvalidPostselectionError,
         "outcome 1 on qubit 0 has probability 0.000e+00"),
        ("qubits 2\ngate h 1\npostselect 1 = 0\n", 0.6, PostselectThresholdError,
         "postselection probability 0.5 below required 0.6"),
    ]
    for text, floor, error, message in cases:
        circuit = parse_circuit(text)
        for kernel in (KERNEL, statevector.KERNEL):
            trial = sampler(circuit, kernel, min_postselect_prob=floor)
            with pytest.raises(error) as caught:
                trial(SplitMix64(1))
            assert str(caught.value) == message
    # the oracles drop a branch whose postselection cannot pass
    circuit = parse_circuit("qubits 1\ngate h 0\nmeasure 0 -> m\npostselect 0 = 0\n")
    assert outcome_distribution(circuit, KERNEL) == {"m=0": Fraction(1, 2)}
    assert outcome_distribution(circuit, statevector.KERNEL) == {"m=0": pytest.approx(0.5)}


def test_depth_limit_guards_enumeration():
    """The tableau enumerates at most 20 random measurements deep: the 21st
    on one path raises, with no argument given.  Each coin after the first
    is tossed only while every earlier one read 0, so k coins leave k + 1
    branches."""

    def coins(k: int):
        lines = ["qubits 1"]
        for i in range(k):
            guard = " if " + " && ".join(f"m{j} == 0" for j in range(i)) if i else ""
            lines += [f"gate h 0{guard}", f"measure 0 -> m{i}{guard}"]
        return parse_circuit("\n".join(lines) + "\n")

    assert KERNEL.max_depth == 20
    dist = outcome_distribution(coins(20), KERNEL)
    assert (len(dist), sum(dist.values())) == (21, 1)
    with pytest.raises(DepthLimitError, match="exceeded 20"):
        outcome_distribution(coins(21), KERNEL)


def _with_postselections(rng: SplitMix64, text: str, count: int = 2) -> str:
    """``text`` with ``count`` postselections on random qubits, half of them
    after an ``h`` on that qubit, which makes a Z-fixed qubit a coin.  Each
    goes to a random place after the header or, half the time if there is
    one, right after a snapshot, where it may make the retry block's rewind
    uncertifiable."""
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    for _ in range(count):
        after = [i + 1 for i, line in enumerate(lines) if line.startswith("snapshot")]
        if after and rng.randrange(2):
            at = after[rng.randrange(len(after))]
        else:
            at = 1 + rng.randrange(len(lines))
        qubit = rng.randrange(n)
        inserted = [f"gate h {qubit}"] if rng.randrange(2) else []
        lines[at:at] = inserted + [f"postselect {qubit} = {rng.randrange(2)}"]
    return "\n".join(lines) + "\n"


def _exact(circuit, kernel, projector):
    """The kernel's outcome distribution and strong probability, or the
    class and message of the refusal the enumeration raises."""
    try:
        return outcome_distribution(circuit, kernel), strong_probability(circuit, kernel, projector)
    except RewindConsistencyError as exc:
        return type(exc), str(exc)


def test_random_postselections_match_the_dense_oracles():
    seen = {"refused": 0, "dropped": 0, "kept": 0}  # circuits by what the oracles did
    for case in range(300):
        rng = SplitMix64(stream_seed(0x9057, case))
        text = _with_postselections(rng, random_clifford_circuit(rng, n_max=6, gate_max=24))
        circuit = parse_circuit(text)
        projector = {q: rng.randrange(2) for q in range(circuit.n_qubits) if rng.randrange(2)}
        got = _exact(circuit, KERNEL, projector)
        want = _exact(circuit, statevector.KERNEL, projector)
        if isinstance(want[0], type):
            assert got == want, text
            seen["refused"] += 1
            continue
        (stab_dist, stab_strong), (sv_dist, sv_strong) = got, want
        assert set(stab_dist) == set(sv_dist), text
        for key, weight in stab_dist.items():
            assert abs(float(weight) - sv_dist[key]) <= 1e-12, (text, key)
        assert abs(float(stab_strong) - sv_strong) <= 1e-12, text
        seen["dropped" if sum(stab_dist.values()) < 1 else "kept"] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("seed", range(40))
def test_random_circuits_match_dense_distribution(seed):
    rng = SplitMix64(stream_seed(0xC1, seed))
    text = random_clifford_circuit(rng, n_max=6, gate_max=24)
    circuit = parse_circuit(text)
    stab_dist = outcome_distribution(circuit, KERNEL)
    sv_dist = outcome_distribution(circuit, statevector.KERNEL)
    assert set(stab_dist) == set(sv_dist), text
    for key, weight in stab_dist.items():
        assert abs(float(weight) - sv_dist[key]) <= 1e-12, (text, key)


def test_clone_restores_snapshot_exactly():
    circuit = parse_circuit(
        "qubits 2\ngate h 0\ngate h 1\ngate cz 0 1\ngate h 1\nmeasure 0 -> m\n"
        "snapshot here\nclone here\nmeasure 1 -> check\n"
    )
    trial = sampler(circuit, KERNEL)
    for i in range(24):
        result = trial(SplitMix64(stream_seed(31, i)))
        assert result.record["check"][0] == result.record["m"][0]


# ---------------------------------------------------------------------------
# the column tableau against a row-by-row reference (Aaronson & Gottesman)


def _g(x1, z1, x2, z2) -> int:
    """Exponent of i in the product of one-qubit factors (x1, z1) * (x2, z2)."""
    if x1 and z1:
        return z2 - x2
    if x1:
        return z2 * (2 * x2 - 1)
    if z1:
        return x2 * (1 - 2 * z2)
    return 0


def _rowsum(h, i) -> None:
    """Row h := row i * row h, each row a [xs, zs, sign] list."""
    e = 2 * h[2] + 2 * i[2] + sum(map(_g, i[0], i[1], h[0], h[1]))
    assert e % 2 == 0
    h[0] = [a ^ b for a, b in zip(h[0], i[0])]
    h[1] = [a ^ b for a, b in zip(h[1], i[1])]
    h[2] = e // 2 % 2


def _reference_rows(tab: StabilizerTableau) -> list:
    return [
        [[x >> i & 1 for x in tab.X], [z >> i & 1 for z in tab.Z], tab.r >> i & 1]
        for i in range(2 * tab.n)
    ]


def _reference_measure(rows, n: int, qubit: int, bit: int) -> int:
    pivot = next((p for p in range(n, 2 * n) if rows[p][0][qubit]), None)
    if pivot is None:
        product = [[0] * n, [0] * n, 0]
        for i in range(n):
            if rows[i][0][qubit]:
                _rowsum(product, rows[n + i])
        return product[2]
    for i in range(2 * n):
        if i not in (pivot, pivot - n) and rows[i][0][qubit]:
            _rowsum(rows[i], rows[pivot])
    rows[pivot - n] = rows[pivot]
    rows[pivot] = [[0] * n, [int(q == qubit) for q in range(n)], bit]
    return bit


@pytest.mark.parametrize("width", [5, 66])
def test_tableau_matches_a_row_by_row_reference(width):
    pool = (H, S, X, CZ)
    for case in range(12):
        rng = SplitMix64(stream_seed(0x7AB, 100 * width + case))
        n = 1 + rng.randrange(width)
        tab, rows = stab_init(n), None
        for _ in range(6 * n):
            if rng.randrange(4):
                g = pool[rng.randrange(4 if n > 1 else 3)]
                a = rng.randrange(n)
                stab_apply(tab, g, (a, (a + 1 + rng.randrange(n - 1)) % n) if g is CZ else (a,))
                continue
            qubit, bit = rng.randrange(n), rng.randrange(2)
            rows = _reference_rows(tab)
            outcome = stab_measure(tab, qubit, None, force=bit)[0]
            assert outcome == _reference_measure(rows, n, qubit, bit)
            assert rows == _reference_rows(tab), (case, qubit)
        assert rows is not None


# ---------------------------------------------------------------------------
# strict rewind against the dense backend, and tableaux wider than one word


KERNELS = (stabilizer.KERNEL, statevector.KERNEL)


def _accepts(kernel, post, stored) -> bool:
    return kernel.is_collapse(stored, post)


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

        stored = [k.init(n) for k in KERNELS]
        for _ in range(rng.randrange(4 * n + 1)):
            op = GateOp(*gate())
            stored = [k.apply(k.keep(s), op) for k, s in zip(KERNELS, stored)]
        kind = rng.randrange(4)  # one collapse, two collapses, collapse + gate, no change
        post = list(stored)
        for _ in range({0: 1, 1: 2, 2: 1, 3: 0}[kind]):
            qubit, bit = rng.randrange(n), rng.randrange(2)
            post = [_collapse(k, s, qubit, bit) for k, s in zip(KERNELS, post)]
        if kind == 2:
            op = GateOp(*gate())
            post = [k.apply(k.keep(s), op) for k, s in zip(KERNELS, post)]
        decisions = [_accepts(k, p, s) for k, p, s in zip(KERNELS, post, stored)]
        assert decisions[0] == decisions[1], (case, kind)
        accepted += decisions[0]
        refused += not decisions[0]
    assert accepted > 500 and refused > 100, (accepted, refused)


def _final_states(text: str) -> list:
    """The state a gates-only circuit leaves, on the tableau and on the dense backend."""
    circuit = parse_circuit(text)
    states = []
    for kernel in KERNELS:
        state = kernel.init(circuit.n_qubits)
        for op in circuit.instructions:
            state = kernel.apply(state, op)
        states.append(state)
    return states


def _with_x(kernel, state, qubit):
    return kernel.apply(kernel.keep(state), GateOp(X, (qubit,)))


def _generators(tab: StabilizerTableau) -> tuple[list[int], list[int], int]:
    """The stabilizer half of ``tab``: its X and Z columns and its signs."""
    n = tab.n
    return [x >> n for x in tab.X], [z >> n for z in tab.Z], tab.r >> n


def _verdicts(posts, stored) -> list[bool]:
    return [_accepts(k, p, s) for k, p, s in zip(KERNELS, posts, stored)]


def test_strict_rewind_verdicts_match_dense_on_random_clifford_circuits():
    """Every qubit and outcome of random Clifford states: one collapse, two
    collapses, and one collapse followed by an ``x`` (a sign change only)."""
    seen = {}
    for case in range(30):
        rng = SplitMix64(stream_seed(0xBE11, case))
        stored = _final_states(random_clifford_circuit(rng, measure_max=0, allow_rewinds=False))
        n = stored[0].n
        for qubit in range(n):
            for bit in (0, 1):
                one = [_collapse(k, s, qubit, bit) for k, s in zip(KERNELS, stored)]
                flip = rng.randrange(n)
                posts = {("one",): one, ("x",): [_with_x(k, p, flip) for k, p in zip(KERNELS, one)]}
                for second in range(n):
                    if second != qubit:
                        b2 = rng.randrange(2)
                        posts["two", second] = [
                            _collapse(k, p, second, b2) for k, p in zip(KERNELS, one)
                        ]
                for key, post in posts.items():
                    got = _verdicts(post, stored)
                    assert got[0] == got[1], (case, qubit, bit, key)
                    seen[key[0], got[0]] = seen.get((key[0], got[0]), 0) + 1
    assert set(seen) == {
        ("one", True), ("two", True), ("two", False), ("x", True), ("x", False)
    }, seen


@pytest.mark.parametrize("measured", [0, 1])
def test_bell_pair_rewind_compares_states_not_generators(measured):
    """Measuring either qubit of a Bell pair leaves the same state with other
    generators, so certifying one against the other takes the group check."""
    stored = _final_states("qubits 2\ngate h 0\ngate h 1\ngate cz 0 1\ngate h 1\n")
    for bit in (0, 1):
        post = [_collapse(k, s, measured, bit) for k, s in zip(KERNELS, stored)]
        other = _collapse(KERNELS[0], stored[0], 1 - measured, bit)
        assert _generators(post[0]) != _generators(other)
        assert _accepts(KERNELS[0], post[0], other) and _accepts(KERNELS[0], other, post[0])
        assert _verdicts(post, stored) == [True, True]
        apart = [_with_x(k, p, 0) for k, p in zip(KERNELS, post)]  # |b'b>, b' = 1 - b
        assert _verdicts(apart, stored) == [False, False]
        flipped = [_with_x(k, p, 1) for k, p in zip(KERNELS, apart)]  # |b'b'>, the other outcome
        assert _verdicts(flipped, stored) == [True, True]


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
    # column j holds qubit j's bit of every row: destabilizer j is X_j, stabilizer j is Z_j
    assert tab.X == [1 << j for j in range(n)]
    assert tab.Z == [1 << (n + j) for j in range(n)]
    assert tab.r == 0
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


# ---------------------------------------------------------------------------
# the group check on int columns against an independent reference: the
# row-by-row products above, and for small n the dense state


def _from_rows(n: int, rows) -> StabilizerTableau:
    return StabilizerTableau(
        n,
        [sum(row[0][j] << i for i, row in enumerate(rows)) for j in range(n)],
        [sum(row[1][j] << i for i, row in enumerate(rows)) for j in range(n)],
        sum(row[2] << i for i, row in enumerate(rows)),
    )


def _scrambled(n: int, rows, rng: SplitMix64) -> list:
    """The same stabilizer group with other generators: stabilizer k is
    multiplied into stabilizer i, and destabilizer i into destabilizer k, so
    every destabilizer still anticommutes with its own stabilizer only."""
    rows = [[xs[:], zs[:], sign] for xs, zs, sign in rows]
    for _ in range(2 * n):
        i = rng.randrange(n)
        k = (i + 1 + rng.randrange(n - 1)) % n
        _rowsum(rows[n + i], rows[n + k])
        _rowsum(rows[k], rows[i])
    return rows


def _apply_pauli(amps, n: int, row):
    """(-1)^sign prod_j i^{x_j z_j} X^{x_j} Z^{z_j} applied to a dense state."""
    xs, zs, sign = row
    psi = amps.reshape([2] * n)
    for j in range(n):
        if zs[j]:
            psi = psi * np.array([1, -1]).reshape([2 if a == j else 1 for a in range(n)])
    for j in range(n):
        if xs[j]:
            psi = np.flip(psi, axis=j)
    return (-1) ** sign * 1j ** sum(x & z for x, z in zip(xs, zs)) * psi.reshape(-1)


def _dense_same(amps, n: int, rows) -> bool:
    """Does every stabilizer in ``rows`` fix the dense state?"""
    return all(np.allclose(_apply_pauli(amps, n, row), amps, atol=1e-9) for row in rows[n:])


@pytest.mark.parametrize("n", [3, 8, 63, 64, 65, 70])
def test_group_check_matches_an_independent_reference(n, monkeypatch):
    calls = []
    product_sign = stabilizer._product_sign
    monkeypatch.setattr(
        stabilizer, "_product_sign", lambda *args: calls.append(args) or product_sign(*args)
    )
    pool = (H, S, X, CZ)
    for case in range(4):
        rng = SplitMix64(stream_seed(0x6E0, 100 * n + case))
        gates = []
        for _ in range(6 * n):
            g = pool[rng.randrange(4)]
            a = rng.randrange(n)
            gates.append((g, (a, (a + 1 + rng.randrange(n - 1)) % n) if g is CZ else (a,)))
        a = _wide(n, gates)
        rows = _reference_rows(a)
        same = _scrambled(n, rows, rng)
        flipped = [[xs, zs, sign] for xs, zs, sign in same]
        flipped[n + rng.randrange(n)][2] ^= 1
        i = rng.randrange(n)  # a's destabilizer i replaces its stabilizer i
        swapped = rows[:]
        swapped[i], swapped[n + i] = rows[n + i], rows[i]
        replaced = _scrambled(n, swapped, rng)
        cases = [(same, True), (flipped, False), (replaced, False)]
        if n <= 8:
            amps = init(n)
            for g, targets in gates:
                amps = apply_gate(amps, g, targets)
            assert _dense_same(amps.amps, n, rows)
        for b_rows, want in cases:
            b = _from_rows(n, b_rows)
            assert _generators(b) != _generators(a)
            del calls[:]
            assert stabilizer._same_state(a, b) is want, (case, want)
            assert stabilizer._same_state(b, a) is want, (case, want)
            assert calls or not want, "the equal-rows shortcut decided"
            if n <= 8:
                assert _dense_same(amps.amps, n, b_rows) is want


# ---------------------------------------------------------------------------
# the strict-rewind certificate and the one-row sign against their definitions


def _random_tableau(rng: SplitMix64, n: int) -> StabilizerTableau:
    """Random Clifford gates with a few forced measurements between them, so
    some qubits of the result are deterministic and some random."""
    pool = (H, S, X, CZ)
    tab = stab_init(n)
    for _ in range(4 * n + 2):
        if rng.randrange(5):
            g = pool[rng.randrange(4 if n > 1 else 3)]
            a = rng.randrange(n)
            stab_apply(tab, g, (a, (a + 1 + rng.randrange(n - 1)) % n) if g is CZ else (a,))
        else:
            stab_measure(tab, rng.randrange(n), None, force=rng.randrange(2))
    return tab


def _measured(tab: StabilizerTableau, qubit: int, bit: int) -> StabilizerTableau:
    return stab_measure(tab.copy(), qubit, None, force=bit)[2]


def _reference_is_collapse(stored: StabilizerTableau, post: StabilizerTableau) -> bool:
    """The certificate by its definition: some qubit of ``stored``, measured
    onto some outcome it can read, leaves ``post``'s state."""
    return any(
        stabilizer._same_state(_measured(stored, qubit, bit), post)
        for qubit in range(stored.n)
        for bit in (0, 1)
    )


def _reference_product_sign(tab: StabilizerTableau, chosen: int) -> int:
    """``_product_sign``'s general loop over the columns, for any ``chosen``."""
    n = tab.n
    width = chosen.bit_length()
    e = 2 * (tab.r >> n & chosen).bit_count()
    for x, z in zip(tab.X, tab.Z):
        x = x >> n & chosen
        z = z >> n & chosen
        if x and z:
            below = z
            shift = 1
            while shift < width:
                below ^= below << shift
                shift <<= 1
            e += (x & z).bit_count() + 2 * (x & below << 1).bit_count()
            e -= x.bit_count() & z.bit_count() & 1
    assert e % 2 == 0
    return e >> 1 & 1


@pytest.mark.parametrize("n", range(1, 13))
def test_rewind_certificate_matches_its_definition(n):
    """Every qubit and outcome of seeded random tableaux: the collapse itself,
    the collapse with one stabilizer sign flipped other than the pivot's
    (the same generators as the collapse), the collapse measured again on
    another qubit, and an unrelated state."""
    seen = {}
    for case in range(6):
        rng = SplitMix64(stream_seed(0xCE57, 100 * n + case))
        stored = _random_tableau(rng, n)
        unrelated = _random_tableau(rng, n)
        for qubit in range(n):
            for bit in (0, 1):
                one = _measured(stored, qubit, bit)
                posts = {"one": one, "unrelated": unrelated}
                anti = stored.X[qubit] >> n
                pivot = (anti & -anti).bit_length() - 1  # -1: a deterministic qubit
                others = [i for i in range(n) if i != pivot]
                if others:
                    flipped = one.copy()
                    flipped.r ^= 1 << n + others[rng.randrange(len(others))]
                    posts["flipped"] = flipped
                rest = [q for q in range(n) if q != qubit]
                random_rest = [q for q in rest if one.X[q] >> n]  # a second collapse
                if rest:
                    pick = random_rest or rest
                    second = pick[rng.randrange(len(pick))]
                    posts["twice"] = _measured(one, second, rng.randrange(2))
                for key, post in posts.items():
                    got = stabilizer._is_collapse_of(stored, post)
                    assert got == _reference_is_collapse(stored, post), (case, qubit, bit, key)
                    seen[key, got] = seen.get((key, got), 0) + 1
    assert seen.get(("one", True)) == 12 * n  # every collapse is certified
    assert ("one", False) not in seen
    if n >= 4:
        want = {("flipped", False), ("twice", False), ("twice", True), ("unrelated", False)}
        assert want <= set(seen)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 64, 65])
def test_one_row_product_sign_is_the_rows_own_sign(n):
    """``_product_sign`` on one stabilizer, on none, and on random sets of
    them (stabilizers commute) equals the general loop."""
    signs = set()
    for case in range(4):
        rng = SplitMix64(stream_seed(0x5165, 100 * n + case))
        tab = _random_tableau(rng, n)
        for i in range(n):
            got = stabilizer._product_sign(tab, 1 << i)
            assert got == _reference_product_sign(tab, 1 << i) == tab.r >> n + i & 1
            signs.add(got)
            chosen = sum(rng.next_u64() << 64 * k for k in range(2)) & ((1 << n) - 1)
            assert stabilizer._product_sign(tab, chosen) == _reference_product_sign(tab, chosen)
        assert stabilizer._product_sign(tab, 0) == 0
    assert signs == {0, 1} or n < 5
