"""Dense-amplitude backend: kernels, collapse, rewinding, cloning, oracles."""

from __future__ import annotations

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_env
from rwsim.circuit import (
    outcome_distribution,
    parse_circuit,
    sampler,
    strong_probability,
)
from rwsim.gates import CCZ, CH, CZ, GATE_NAMES, H, S, SWAP, X, hk, rz
from rwsim.rng import SplitMix64, stream_seed
from rwsim import statevector
from rwsim.statevector import (
    InvalidPostselectionError,
    KERNEL,
    PostselectThresholdError,
    PureState,
    QubitBudgetError,
    Reading,
    RewindConsistencyError,
    UnknownSnapshotError,
    apply_gate,
    apply_matrix,
    attach_zero,
    fidelity,
    from_amplitudes,
    init,
    measure,
    measure_register,
    postselect,
    prob_of_bit,
    rewind,
    slice_qubit,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def same_up_to_phase(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """1 - |<a|b>| <= tol, read through ``fidelity``: |<a|b>|^2 >= (1 - tol)^2."""
    return a.n == b.n and fidelity(a, b) >= (1.0 - tol) ** 2


def plus_state(n: int) -> PureState:
    state = init(n)
    for q in range(n):
        state = apply_gate(state, H, (q,))
    return state


def test_init_is_all_zeros():
    state = init(3)
    assert state.n == 3
    assert state.amps[0] == 1.0
    assert np.allclose(state.amps[1:], 0.0)


def test_init_rejects_bad_sizes(monkeypatch):
    with pytest.raises(ValueError):
        init(0)
    monkeypatch.setenv("RWSIM_MAX_QUBITS", "4")
    with pytest.raises(QubitBudgetError):
        init(5)


def test_from_amplitudes_normalises_and_validates():
    state = from_amplitudes([1.0, 1.0])
    assert state.n == 1
    assert np.linalg.norm(state.amps) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        from_amplitudes([0.0, 0.0])
    with pytest.raises(ValueError):
        from_amplitudes([1.0, 0.0, 0.0])
    for empty in ([1.0], []):  # a 0-qubit state, which init refuses too
        with pytest.raises(ValueError, match="need at least one qubit"):
            from_amplitudes(empty)


def test_qubit_zero_is_most_significant():
    # X on qubit 0 of two qubits must set amplitude index 2 (binary 10).
    state = apply_gate(init(2), X, (0,))
    assert state.amps[2] == pytest.approx(1.0)
    state = apply_gate(init(2), X, (1,))
    assert state.amps[1] == pytest.approx(1.0)


def test_hadamard_on_second_qubit_worked_example():
    state = apply_gate(init(2), H, (1,))
    assert np.allclose(state.amps, [INV_SQRT2, INV_SQRT2, 0.0, 0.0], atol=1e-15)


def test_cz_on_plus_plus_worked_example():
    state = apply_gate(plus_state(2), CZ, (0, 1))
    assert np.allclose(state.amps, [0.5, 0.5, 0.5, -0.5], atol=1e-15)


def test_swap_reverses_target_order_effect():
    a = apply_gate(apply_gate(init(2), X, (1,)), SWAP, (0, 1))
    assert a.amps[2] == pytest.approx(1.0)


def test_ch_only_acts_when_control_is_one():
    idle = apply_gate(init(2), CH, (0, 1))
    assert idle.amps[0] == pytest.approx(1.0)
    active = apply_gate(apply_gate(init(2), X, (0,)), CH, (0, 1))
    assert np.allclose(active.amps, [0, 0, INV_SQRT2, INV_SQRT2], atol=1e-15)


@given(st.integers(min_value=-8, max_value=8))
def test_hk_amplitudes_match_closed_form(k):
    state = apply_gate(init(1), hk(k), (0,))
    w = 2.0**k
    norm = math.sqrt(1.0 + w * w)
    assert state.amps[0] == pytest.approx(1.0 / norm)
    assert state.amps[1] == pytest.approx(w / norm)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_two_qubit_matrix_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    unitary, _ = np.linalg.qr(block)
    state = apply_matrix(plus_state(3), unitary, (2, 0))
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


def test_apply_gate_is_functional_not_in_place():
    state = init(1)
    before = state.amps.copy()
    apply_gate(state, X, (0,))
    assert np.array_equal(state.amps, before)


def _random_state(n: int, rng) -> PureState:
    return from_amplitudes(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))


def test_slice_kernel_matches_the_matrix_product():
    """apply_gate takes the slice kernel for monomial gates; apply_matrix with
    the gate's unitary is the reference, on every ordered target tuple."""
    rng = np.random.default_rng(8)
    gates = [X, H, S, CZ, CH, CCZ, SWAP] + [hk(k) for k in (-3, 0, 2)]
    gates += [rz(t) for t in rng.uniform(-2 * math.pi, 2 * math.pi, size=3)]
    assert {g.name for g in gates} == GATE_NAMES
    for n in range(1, 7):
        for g in gates:
            for targets in itertools.permutations(range(n), g.arity):
                state = _random_state(n, rng)
                before = state.amps.tobytes()
                got = apply_gate(state, g, targets).amps
                want = apply_matrix(state, g.unitary(), targets).amps
                assert state.amps.tobytes() == before
                if g.name == "rz":
                    assert np.max(np.abs(got - want)) <= 1e-15, (g, targets)
                else:  # exact, signed zeros aside (-0.0 == 0.0)
                    assert np.array_equal(got, want), (g, targets)


def test_slice_kernel_on_asymmetric_monomials():
    """Every monomial gate of the set is its own transpose up to phases, so
    random permutations with phases check that rows and columns are not swapped."""
    rng = np.random.default_rng(9)
    for n in range(1, 6):
        for k in range(1, min(n, 3) + 1):
            for targets in itertools.permutations(range(n), k):
                perm = rng.permutation(1 << k)
                coeffs = np.exp(1j * rng.uniform(0, 2 * math.pi, size=1 << k))
                rows = tuple((int(perm[r]), complex(coeffs[r])) for r in range(1 << k))
                mat = np.zeros((1 << k, 1 << k), dtype=complex)
                mat[np.arange(1 << k), perm] = coeffs
                state = _random_state(n, rng)
                got = statevector._apply_monomial(state, rows, targets).amps
                want = apply_matrix(state, mat, targets).amps
                assert np.max(np.abs(got - want)) <= 1e-15, (perm, targets)


@pytest.mark.parametrize(
    "g, targets",
    [
        (X, (-1,)), (X, (2,)), (X, (0.0,)), (CZ, (1, 1)), (CZ, (0, 2)),
        (H, (-1,)), (H, (2,)), (CH, (0, 0)),
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_bad_targets_are_refused_on_both_gate_paths(g, targets):
    """Refused before and after a valid call at the same width, including
    the float target (0.0,), which equals the valid call's (0,)."""
    valid = tuple(range(g.arity))
    for call in (
        lambda t: apply_gate(init(2), g, t),
        lambda t: apply_matrix(init(2), g.unitary(), t),
    ):
        with pytest.raises(ValueError, match="targets"):
            call(targets)
        assert call(valid).n == 2
        with pytest.raises(ValueError, match="targets"):
            call(targets)


@pytest.mark.parametrize("qubits", [(0, 0), (2,), (-1,), (1, 0, 1), [1, 1]])
def test_measure_register_refuses_bad_qubits(qubits):
    with pytest.raises(ValueError, match="targets"):
        measure_register(init(2), qubits, SplitMix64(1))


def test_prob_of_bit_sums_amplitudes_directly():
    state = apply_gate(init(1), hk(-20), (0,))
    tiny = prob_of_bit(state, 0, 1)
    # p1 = 4^-20 / (1 + 4^-20): relative precision survives
    expected = 4.0**-20 / (1.0 + 4.0**-20)
    assert tiny == pytest.approx(expected, rel=1e-12)


def test_measure_collapses_and_reports_branch_probability():
    rng = SplitMix64(5)
    bits = {measure(plus_state(1), 0, rng)[0] for _ in range(64)}
    assert bits == {0, 1}
    bit, prob, post = measure(plus_state(1), 0, SplitMix64(1))
    assert prob == pytest.approx(0.5)
    assert post.amps[bit] == pytest.approx(1.0)


def test_measure_register_matches_sequential_collapse():
    base = apply_gate(apply_gate(plus_state(3), CZ, (0, 1)), CH, (1, 2))
    value, prob, joint = measure_register(base, [0, 2], SplitMix64(77))
    bits = ((value >> 1) & 1, value & 1)
    seq = base
    seq_prob = 1.0
    for qubit, bit in zip((0, 2), bits):
        p = prob_of_bit(seq, qubit, bit)
        seq_prob *= p
        _, seq = postselect(seq, qubit, bit)
    assert prob == pytest.approx(seq_prob, rel=1e-12)
    assert same_up_to_phase(joint, seq, tol=1e-12)


def test_measure_register_frequencies_match_probabilities():
    base = apply_gate(apply_gate(plus_state(3), CZ, (0, 1)), CH, (1, 2))
    tensor = np.abs(base.amps.reshape(2, 2, 2)) ** 2
    exact = tensor.sum(axis=1).reshape(-1)  # joint over qubits (0, 2)
    counts = np.zeros(4)
    trials = 4000
    for i in range(trials):
        value, _, _ = measure_register(base, [0, 2], SplitMix64(stream_seed(3, i)))
        counts[value] += 1
    for v in range(4):
        sigma = math.sqrt(exact[v] * (1 - exact[v]) / trials)
        assert abs(counts[v] / trials - exact[v]) <= 4 * sigma + 1e-9


def test_postselect_renormalises_and_validates():
    state = apply_gate(plus_state(2), CZ, (0, 1))
    prob, kept = postselect(state, 0, 1)
    assert prob == pytest.approx(0.5)
    assert np.linalg.norm(kept.amps) == pytest.approx(1.0)
    with pytest.raises(InvalidPostselectionError):
        postselect(init(1), 0, 1)  # zero-probability branch
    with pytest.raises(PostselectThresholdError):
        postselect(plus_state(1), 0, 0, min_prob=0.9)


def test_snapshot_rewind_round_trip():
    state = plus_state(2)
    bit, _, collapsed = measure(state, 0, SplitMix64(2))
    assert rewind(state, collapsed) is state


def test_strict_rewind_refuses_non_collapse():
    state = apply_gate(plus_state(2), CZ, (0, 1))  # entangled
    stranger = apply_gate(apply_gate(init(2), X, (0,)), X, (1,))
    with pytest.raises(RewindConsistencyError, match="not a one-outcome collapse"):
        rewind(state, stranger)


def test_strict_rewind_refuses_a_width_mismatch():
    state = plus_state(2)
    _, collapsed = postselect(plus_state(1), 0, 1)
    with pytest.raises(RewindConsistencyError, match="qubit count differs"):
        rewind(state, collapsed)
    with pytest.raises(RewindConsistencyError, match="qubit count differs"):
        rewind(collapsed, state)


def test_strict_rewind_accepts_any_single_qubit_collapse():
    state = apply_gate(plus_state(2), CH, (0, 1))
    for qubit in (0, 1):
        for bit in (0, 1):
            _, collapsed = postselect(state, qubit, bit)
            assert rewind(state, collapsed) is state


def test_strict_rewind_ignores_global_phase():
    state = plus_state(1)
    _, collapsed = postselect(state, 0, 1)
    rotated = PureState(1, collapsed.amps * np.exp(0.75j))
    assert rewind(state, rotated) is state


def test_rewind_unknown_label():
    # m is always 0, so the snapshot is never stored
    c = parse_circuit("qubits 1\nmeasure 0 -> m\nsnapshot s if m == 1\nrewind s\n")
    with pytest.raises(UnknownSnapshotError):
        sampler(c, KERNEL)(SplitMix64(0))


def _full_scan(stored, post, tol):
    """Strict-rewind certification as every (qubit, bit) slice in order, the
    check before candidates were ordered first; kept as its reference."""
    for qubit in range(stored.n):
        stored_view = stored.amps.reshape(1 << qubit, 2, -1)
        post_view = post.amps.reshape(1 << qubit, 2, -1)
        for bit in (0, 1):
            norm_sq = float(np.sum(np.abs(stored_view[:, bit, :]) ** 2))
            if norm_sq <= 1e-30:
                continue
            other = float(np.sum(np.abs(post_view[:, 1 - bit, :]) ** 2))
            if other > tol:
                continue
            overlap = abs(np.vdot(post_view[:, bit, :], stored_view[:, bit, :]))
            if 1.0 - overlap / math.sqrt(norm_sq) <= tol:
                return True
    return False


def _snapshots(rng, n):
    """Dense random states and sparse ones: a basis state, GHZ and a uniform
    superposition with random phases over a random subset."""
    dense = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    yield from_amplitudes(dense), True
    basis = np.zeros(1 << n, dtype=complex)
    basis[rng.integers(1 << n)] = 1.0
    yield PureState(n, basis), False
    ghz = np.zeros(1 << n, dtype=complex)
    ghz[0] = ghz[-1] = INV_SQRT2
    yield PureState(n, ghz), False
    subset = rng.choice(1 << n, size=int(rng.integers(1, (1 << n) + 1)), replace=False)
    sparse = np.zeros(1 << n, dtype=complex)
    sparse[subset] = np.exp(2j * np.pi * rng.random(subset.size))
    yield from_amplitudes(sparse), False


def _leak(rng, collapsed, qubit, bit, weight):
    """``collapsed`` with ``weight`` moved onto one index of the slice the
    collapse emptied, so ``qubit`` is no longer fixed over the support."""
    view = collapsed.amps.reshape(1 << qubit, 2, -1)
    leak = np.zeros_like(view)
    leak[rng.integers(view.shape[0]), 1 - bit, rng.integers(view.shape[2])] = 1.0
    amps = math.sqrt(1.0 - weight) * view + math.sqrt(weight) * leak
    return PureState(collapsed.n, amps.reshape(-1))


def _certification_cases(rng, n, tol):
    """(stored, post, expected) triples at width ``n``; ``expected`` is None
    where only agreement with the full scan is asserted."""
    for stored, dense in _snapshots(rng, n):
        fixed = [q for q in range(n) if min(prob_of_bit(stored, q, b) for b in (0, 1)) == 0]
        yield stored, stored, bool(fixed)  # a deterministic qubit leaves post = snapshot
        for qubit in range(n):
            for bit in (0, 1):
                if prob_of_bit(stored, qubit, bit) == 0:
                    continue
                _, collapsed = postselect(stored, qubit, bit)
                yield stored, collapsed, True
                phase = np.exp(2j * np.pi * rng.random())
                yield stored, PureState(n, collapsed.amps * phase), True
                if qubit in fixed:
                    continue
                yield stored, _leak(rng, collapsed, qubit, bit, 0.5 * tol), True
                yield stored, _leak(rng, collapsed, qubit, bit, 2.0 * tol), None
                if n > 1:
                    second = (qubit + 1 + int(rng.integers(n - 1))) % n
                    b2 = int(rng.integers(2))
                    if prob_of_bit(collapsed, second, b2) > 0:
                        _, twice = postselect(collapsed, second, b2)
                        yield stored, twice, False if dense else None


def test_candidate_certification_matches_the_full_scan():
    rng = np.random.default_rng(0x5EED7)
    decisions = []
    for n in range(1, 11):
        for tol in (1e-9, 1e-6):
            for stored, post, expected in _certification_cases(rng, n, tol):
                got = statevector._is_collapse_of(stored, post, tol)
                assert got == _full_scan(stored, post, tol)
                if expected is not None:
                    assert got == expected
                decisions.append(got)
    assert len(decisions) >= 1000
    assert 0 < sum(decisions) < len(decisions)


def test_rewind_result_shares_the_snapshot_safely():
    state = apply_gate(apply_gate(plus_state(3), CH, (0, 2)), S, (1,))
    stored = state.amps.tobytes()
    _, _, collapsed = measure(state, 1, SplitMix64(3))
    restored = rewind(state, collapsed)
    apply_gate(restored, H, (0,))
    measure(restored, 0, SplitMix64(4))
    measure_register(restored, [0, 1, 2], SplitMix64(5))
    measure_register(restored, [2, 0], SplitMix64(6))
    postselect(restored, 2, 0)
    assert state.amps.tobytes() == stored
    assert restored.amps.tobytes() == stored
    _, _, collapsed = measure(restored, 2, SplitMix64(7))
    assert rewind(state, collapsed) is state


# Reading.retry: measure one qubit until it reads a wanted bit, at most
# ``tries`` times, undoing each miss with a strict rewind.


def _hand_written_retry(state, qubit, want, tries, rng):
    """The measure / strict-rewind loop the protocol modules wrote out by
    hand before ``Reading.retry`` held it, kept as its reference."""
    entry, bits = state, []
    for attempt in range(1, tries + 1):
        bit, _, state = measure(state, qubit, rng)
        bits.append(bit)
        if bit == want or attempt == tries:
            return bits, state
        state = rewind(entry, state)


@pytest.mark.parametrize("want", [0, 1])
@pytest.mark.parametrize("seed", range(8))
def test_measure_until_matches_the_hand_written_loop(seed, want):
    state = apply_gate(plus_state(3), CH, (0, 2))
    rng_a = SplitMix64(stream_seed(0x3EA, seed))
    rng_b = SplitMix64(stream_seed(0x3EA, seed))
    reading = Reading(state, 2)
    draws, bit = reading.retry(want, 4, rng_a)
    ref_bits, ref_out = _hand_written_retry(state, 2, want, 4, rng_b)
    assert (draws, bit) == (len(ref_bits), ref_bits[-1])
    assert ref_bits[:-1] == [1 - want] * (draws - 1)  # each earlier draw missed
    assert np.array_equal(reading.collapsed(bit).amps, ref_out.amps)
    assert rng_a.next_u64() == rng_b.next_u64()  # same number of draws


def test_measure_until_with_one_try_never_rewinds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rewind called")

    monkeypatch.setattr(statevector, "rewind", refuse)
    for seed in range(8):
        reading = Reading(plus_state(1), 0)
        draws, bit = reading.retry(0, 1, SplitMix64(seed))
        assert draws == 1
        assert prob_of_bit(reading.collapsed(bit), 0, bit) == pytest.approx(1.0)


def test_retry_returns_every_miss_of_an_unreachable_outcome(monkeypatch):
    calls = []

    def counted(stored, post_state):
        calls.append((stored, post_state))
        return rewind(stored, post_state)

    monkeypatch.setattr(statevector, "rewind", counted)
    one = apply_gate(init(2), X, (1,))
    reading = Reading(one, 1)
    assert reading.retry(0, 5, SplitMix64(1)) == (5, 1)
    # the same rewind is certified once, at the first miss
    ((stored, post),) = calls
    assert stored is one and post is reading.collapsed(1)
    assert reading.retry(0, 5, SplitMix64(2)) == (5, 1)
    assert len(calls) == 1
    assert same_up_to_phase(reading.collapsed(1), one, tol=1e-12)


def test_measure_until_needs_a_try():
    with pytest.raises(ValueError):
        Reading(plus_state(1), 0).retry(0, 0, SplitMix64(1))


def test_attach_and_slice_are_inverse():
    state = apply_gate(plus_state(2), CZ, (0, 1))
    grown = attach_zero(state)
    assert grown.n == 3
    assert prob_of_bit(grown, 2, 0) == pytest.approx(1.0)
    back = slice_qubit(grown, 2, 0)
    assert same_up_to_phase(back, state, tol=1e-12)


def test_slice_rejects_undetermined_qubit():
    with pytest.raises(ValueError, match=r"qubit 0 is not in the definite state \|0>"):
        slice_qubit(plus_state(1), 0, 0)


def test_slice_refuses_under_python_optimize():
    # python -O strips assert statements; the refusal must not be one
    code = (
        "from rwsim.gates import H\n"
        "from rwsim.statevector import apply_gate, init, slice_qubit\n"
        "try:\n"
        "    slice_qubit(apply_gate(init(1), H, (0,)), 0, 0)\n"
        "except ValueError as exc:\n"
        "    print('refused:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: qubit 0 is not in the definite state"), proc.stdout


def test_fidelity_on_known_pair():
    assert fidelity(plus_state(1), init(1)) == pytest.approx(0.5)
    assert fidelity(plus_state(2), plus_state(2)) == pytest.approx(1.0)


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


def test_exact_distribution_of_retry_chain():
    circuit = parse_circuit(RETRY)
    dist = outcome_distribution(circuit, KERNEL)
    assert dist["t1=0"] == pytest.approx(0.5, abs=1e-12)
    assert dist["t1=1,t2=0"] == pytest.approx(0.25, abs=1e-12)
    assert dist["t1=1,t2=1,t3=0"] == pytest.approx(0.125, abs=1e-12)
    assert dist["t1=1,t2=1,t3=1"] == pytest.approx(0.125, abs=1e-12)
    accepts = strong_probability(circuit, KERNEL, {circuit.accept: 1})
    assert accepts == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_run_samples_match_exact_distribution():
    circuit = parse_circuit(RETRY)
    trials = 2000
    ones = 0
    trial = sampler(circuit, KERNEL)
    for i in range(trials):
        result = trial(SplitMix64(stream_seed(11, i)))
        ones += result.accept_bit
    freq = ones / trials
    sigma = math.sqrt(0.125 * 0.875 / trials)
    assert abs(freq - 0.125) <= 4 * sigma


def test_run_respects_min_postselect_prob():
    circuit = parse_circuit("qubits 1\ngate h 0\npostselect 0 = 0\naccept 0\n")
    sampler(circuit, KERNEL, min_postselect_prob=0.4)(SplitMix64(1))
    with pytest.raises(PostselectThresholdError):
        sampler(circuit, KERNEL, min_postselect_prob=0.9)(SplitMix64(1))


def test_clone_rebuilds_state_from_description():
    circuit = parse_circuit(
        "qubits 2\ngate h 0\ngate h 1\ngate cz 0 1\ngate h 1\nmeasure 0 -> m\n"
        "snapshot here\nclone here\nmeasure 1 -> check\n"
    )
    trial = sampler(circuit, KERNEL)
    for i in range(24):
        result = trial(SplitMix64(stream_seed(21, i)))
        # after the entangler, qubit 1 mirrors qubit 0 exactly
        assert result.record["check"][0] == result.record["m"][0]


def test_exact_distribution_weights_sum_to_one():
    circuit = parse_circuit(
        "qubits 3\ngate h 0\ngate ch 0 1\ngate ccz 0 1 2\ngate hk 2 2\n"
        "measure 0 -> a\nmeasure 2 -> b\n"
    )
    dist = outcome_distribution(circuit, KERNEL)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
