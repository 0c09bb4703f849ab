"""Brickwork grids, retried pattern measurement, and the fan-out gadget."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from rwsim.circuit import GateOp, InputError, sampler, serialize_circuit
from rwsim.gates import CZ, H, rz
from rwsim.mbqc import (
    BrickworkSpec,
    MeasurementPattern,
    grid_qubits,
    iqp_fanout_amplify,
    pattern_circuit,
    pattern_oracle,
    postselect_pattern_zero,
    reads_all_zero,
    target_odds,
)
from rwsim.rng import SplitMix64, stream_seed
from rwsim.statevector import (
    KERNEL,
    PureState,
    QubitBudgetError,
    apply_gate,
    fidelity,
    init,
    measure,
    postselect,
    prob_of_bit,
    rewind,
    slice_qubit,
)


def _expected_edges(n_rows: int, m_cols: int) -> set:
    """Anchor-stride enumeration, independent of the module's modulo test."""
    edges = set()
    for i in range(1, n_rows + 1):
        for j in range(1, m_cols):
            edges.add(((i, j), (i, j + 1)))
    for i in range(1, n_rows):
        col = 3 if i % 2 == 1 else 7
        while col <= m_cols:
            edges.add(((i, col), (i + 1, col)))
            if col + 2 <= m_cols:
                edges.add(((i, col + 2), (i + 1, col + 2)))
            col += 8
    return edges


def _brickwork(spec: BrickworkSpec) -> PureState:
    """|+> on every vertex, then CZ along the edges, on full vectors."""
    state = init(spec.n_rows * spec.m_cols)
    for q in range(state.n):
        state = apply_gate(state, H, (q,))
    for a, b in spec.edges():
        state = apply_gate(state, CZ, (spec.qubit_index(*a), spec.qubit_index(*b)))
    return state


def _reference_walk(spec, pattern, budget, rng):
    """The retried pattern step by step with the module-level dense functions:
    per entry a fresh rz(-theta) and h, then measure, and on outcome 1 rewind
    strictly and measure again, at most budget + 1 tries.  Returns the output
    state and the all-zeros flag."""
    state, last = _brickwork(spec), {}
    for qubit, theta in pattern.entries:
        if theta:
            state = apply_gate(state, rz(-theta), (qubit,))
        state = apply_gate(state, H, (qubit,))
        entry = state
        for attempt in range(budget + 1):
            if attempt:
                state = rewind(entry, state)
            bit, _, state = measure(state, qubit, rng)
            if bit == 0:
                break
        last[qubit] = bit
    for qubit in sorted(last, reverse=True):
        state = slice_qubit(state, qubit, last[qubit])
    return state, not any(last.values())


def _runs(spec, pattern, budget):
    """The pattern circuit's sampler, as ``rng -> (output state, all_zero)``."""
    trial = sampler(pattern_circuit(spec, pattern, budget), KERNEL)

    measured = {q for q, _ in pattern.entries}

    def run(rng):
        result = trial(rng)
        # the core is the output: no unmeasured qubit is left fixed
        assert result.final_state.fixed.keys() == measured
        return result.final_state.core, reads_all_zero(result.record)

    return run


def test_spec_validation():
    with pytest.raises(ValueError):
        BrickworkSpec(2, 8)
    with pytest.raises(ValueError):
        BrickworkSpec(2, 12)
    with pytest.raises(ValueError):
        BrickworkSpec(0, 5)
    BrickworkSpec(1, 5)
    BrickworkSpec(3, 21)


def test_qubit_index_layout_and_bounds():
    spec = BrickworkSpec(2, 5)
    assert spec.qubit_index(1, 1) == 0
    assert spec.qubit_index(1, 5) == 4
    assert spec.qubit_index(2, 1) == 5
    for bad in [(0, 1), (1, 0), (3, 1), (1, 6)]:
        with pytest.raises(ValueError):
            spec.qubit_index(*bad)


@pytest.mark.parametrize("n,m", [(1, 5), (2, 5), (2, 13), (4, 13), (3, 21)])
def test_edges_match_independent_enumeration(n, m):
    got = BrickworkSpec(n, m).edges()
    assert len(got) == len(set(got))  # no duplicates
    assert set(got) == _expected_edges(n, m)


def test_even_row_verticals_use_the_shifted_anchor():
    edges = set(BrickworkSpec(4, 13).edges())
    # rows 2-3 connect at columns 7 and 9; rows 1-2 and 3-4 at 3, 5, 11, 13
    assert ((2, 7), (3, 7)) in edges and ((2, 9), (3, 9)) in edges
    assert not any(((2, j), (3, j)) in edges for j in (3, 5, 11, 13))
    for i in (1, 3):
        assert all(((i, j), (i + 1, j)) in edges for j in (3, 5, 11, 13))
        assert not any(((i, j), (i + 1, j)) in edges for j in (7, 9))


def test_measured_and_output_sets_partition_the_grid():
    spec = BrickworkSpec(2, 5)
    measured = spec.measured_qubits()
    assert measured == [0, 5, 1, 6, 2, 7, 3, 8]  # column-major
    assert spec.output_qubits() == [4, 9]
    assert sorted(measured + spec.output_qubits()) == list(range(10))


def test_pattern_from_grid_sorts_column_major():
    spec = BrickworkSpec(2, 5)
    pattern = MeasurementPattern.from_grid(
        spec, [(2, 2, 0.3), (1, 1, 0.1), (2, 1, 0.2), (1, 2, 0.4)]
    )
    assert pattern.entries == ((0, 0.1), (5, 0.2), (1, 0.4), (6, 0.3))
    with pytest.raises(InputError, match=r"vertex \(3, 1\) outside the 2x5 grid"):
        MeasurementPattern.from_grid(spec, [(3, 1, 0.0)])


def test_identity_pattern_covers_measured_set():
    spec = BrickworkSpec(2, 5)
    pattern = MeasurementPattern.identity(spec)
    assert [q for q, _ in pattern.entries] == spec.measured_qubits()
    assert all(theta == 0.0 for _, theta in pattern.entries)


def test_build_respects_width_caps(monkeypatch):
    spec = BrickworkSpec(3, 13)
    with pytest.raises(QubitBudgetError):
        grid_qubits(spec)
    with pytest.raises(QubitBudgetError):
        pattern_circuit(spec, MeasurementPattern.identity(spec), 1)
    with pytest.raises(QubitBudgetError):
        pattern_oracle(spec, MeasurementPattern.identity(spec))
    monkeypatch.setenv("RWSIM_MAX_QUBITS", "9")
    with pytest.raises(QubitBudgetError, match="2x5 grid needs 10 qubits, cap is 9"):
        grid_qubits(BrickworkSpec(2, 5))
    monkeypatch.setenv("RWSIM_MAX_QUBITS", "10")
    assert grid_qubits(BrickworkSpec(2, 5)) == 10


def test_pattern_validation_errors():
    spec = BrickworkSpec(1, 5)
    for entries, message in [
        (((0, 0.0), (0, 0.0)), "twice"),
        (((5, 0.0),), "outside the grid"),
        (((-1, 0.0),), "outside the grid"),
        (tuple((q, 0.0) for q in range(5)), "output qubit"),
    ]:
        with pytest.raises(ValueError, match=message):
            pattern_circuit(spec, MeasurementPattern(entries), 1)
        with pytest.raises(ValueError, match=message):
            pattern_oracle(spec, MeasurementPattern(entries))


def test_pattern_circuit_layout():
    """The grid, then each entry's retry block in the form of rewind_retry.qc."""
    spec = BrickworkSpec(1, 5)
    lines = serialize_circuit(
        pattern_circuit(spec, MeasurementPattern(((0, 0.5), (1, 0.0))), 2)
    ).splitlines()
    assert lines[:10] == ["qubits 5", *(f"gate h {q}" for q in range(5)),
                          *(f"gate cz {q} {q + 1}" for q in range(4))]
    assert lines[10:] == [
        "gate rz -0.5 0", "gate h 0", "snapshot s0", "measure 0 -> m0.0",
        "rewind s0 if m0.0 == 1", "measure 0 -> m0.1 if m0.0 == 1",
        "rewind s0 if m0.0 == 1 && m0.1 == 1", "measure 0 -> m0.2 if m0.0 == 1 && m0.1 == 1",
        "gate h 1", "snapshot s1", "measure 1 -> m1.0",
        "rewind s1 if m1.0 == 1", "measure 1 -> m1.1 if m1.0 == 1",
        "rewind s1 if m1.0 == 1 && m1.1 == 1", "measure 1 -> m1.2 if m1.0 == 1 && m1.1 == 1",
    ]


def test_every_pattern_measurement_is_a_fair_coin():
    spec = BrickworkSpec(2, 5)
    state = _brickwork(spec)
    rng = SplitMix64(3)
    for qubit in spec.measured_qubits():
        theta = (rng.uniform() - 0.5) * 2.0 * math.pi
        state = apply_gate(state, rz(-theta), (qubit,))
        state = apply_gate(state, H, (qubit,))
        assert prob_of_bit(state, qubit, 0) == pytest.approx(0.5, abs=1e-12)
        _, state = postselect(state, qubit, 0)


def test_all_zero_branch_probability_is_uniform():
    spec = BrickworkSpec(2, 5)
    rotated = _brickwork(spec)
    for qubit in spec.measured_qubits():
        rotated = apply_gate(rotated, H, (qubit,))
    prob, out = postselect_pattern_zero(rotated, spec.measured_qubits())
    assert prob == pytest.approx(2.0**-8, abs=1e-12)
    assert out.n == 2


def test_one_shot_oracle_matches_sequential_postselection():
    spec = BrickworkSpec(2, 5)
    rng = SplitMix64(9)
    angles = [(rng.uniform() - 0.5) * 2.0 * math.pi for _ in spec.measured_qubits()]
    pattern = MeasurementPattern(tuple(zip(spec.measured_qubits(), angles)))
    rotated = _brickwork(spec)
    for qubit, theta in pattern.entries:
        rotated = apply_gate(rotated, rz(-theta), (qubit,))
        rotated = apply_gate(rotated, H, (qubit,))
    prob_a, out_a = postselect_pattern_zero(rotated, spec.measured_qubits())
    assert np.allclose(pattern_oracle(spec, pattern).amps, out_a.amps, rtol=0, atol=1e-12)
    prob_b = 1.0
    seq = rotated
    for qubit in spec.measured_qubits():
        p = prob_of_bit(seq, qubit, 0)
        prob_b *= p
        _, seq = postselect(seq, qubit, 0)
    for qubit in sorted(spec.measured_qubits(), reverse=True):
        seq = slice_qubit(seq, qubit, 0)
    assert prob_a == pytest.approx(prob_b, rel=1e-12)
    assert fidelity(out_a, seq) == pytest.approx(1.0, abs=1e-12)


def test_postselect_oracle_rejects_dead_branch():
    state = PureState(1, np.array([0.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        postselect_pattern_zero(state, [0])


def test_budget_exhaustion_records_one_and_continues():
    spec = BrickworkSpec(2, 5)
    pattern = MeasurementPattern.identity(spec)
    out, all_zero = _runs(spec, pattern, 0)(SplitMix64(stream_seed(0xB0, 0)))
    assert not all_zero
    assert out.n == 2  # the run still finishes and leaves the output column


def test_retry_budget_drives_all_zero_frequency():
    spec = BrickworkSpec(1, 5)
    run = _runs(spec, MeasurementPattern.identity(spec), 2)
    trials = 400
    rng = SplitMix64(stream_seed(0xB1, 4))
    hits = sum(run(rng)[1] for _ in range(trials))
    expected = (1 - 2.0**-3) ** 4
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(hits / trials - expected) <= 4 * sigma


def test_all_zero_runs_match_the_oracle_state():
    spec = BrickworkSpec(2, 5)
    pattern = MeasurementPattern.identity(spec)
    oracle = pattern_oracle(spec, pattern)
    run = _runs(spec, pattern, 3)
    rng = SplitMix64(stream_seed(0xB2, 0))
    checked = 0
    for _ in range(40):
        out, all_zero = run(rng)
        if all_zero:
            checked += 1
            assert fidelity(out, oracle) == pytest.approx(1.0, abs=1e-9)
    assert checked > 0


def test_one_rotation_per_distinct_angle_gives_bit_identical_states():
    spec = BrickworkSpec(2, 5)
    angles = (0.3, -1.25, 0.0, 0.3, 2.5, -1.25, 0.0, 0.7)
    pattern = MeasurementPattern(tuple(zip(spec.measured_qubits(), angles)))
    assert sorted(pattern.rotations) == [-1.25, 0.3, 0.7, 2.5]
    assert pattern.rotations is pattern.rotations  # built once per pattern
    circuit = pattern_circuit(spec, pattern, 1)
    # the same circuit with a fresh rz gate built for every measured qubit
    fresh = replace(circuit, instructions=tuple(
        GateOp(rz(op.gate.param), op.targets)
        if isinstance(op, GateOp) and op.gate.name == "rz" else op
        for op in circuit.instructions
    ))
    assert sum(a is not b for a, b in zip(circuit, fresh)) == 6
    got, want = sampler(circuit, KERNEL), sampler(fresh, KERNEL)
    for trial in range(6):
        a = got(SplitMix64(stream_seed(0xB3, trial)))
        b = want(SplitMix64(stream_seed(0xB3, trial)))
        assert list(a.record.items()) == list(b.record.items())
        assert np.array_equal(a.final_state.core.amps, b.final_state.core.amps)


@pytest.mark.parametrize("budget", [0, 1, 2, 3])
@pytest.mark.parametrize("rows,cols", [(2, 5), (1, 13)])
def test_sampler_runs_match_the_dense_reference_walk(rows, cols, budget):
    spec = BrickworkSpec(rows, cols)
    angle_rng = SplitMix64(stream_seed(0xB5, rows * 100 + budget))
    angles = [(angle_rng.uniform() - 0.5) * 2.0 * math.pi for _ in spec.measured_qubits()]
    angles[1] = 0.0  # a zero angle skips its rotation on both routes
    pattern = MeasurementPattern(tuple(zip(spec.measured_qubits(), angles)))
    run = _runs(spec, pattern, budget)
    outcomes = set()
    for trial in range(50):
        rng, ref_rng = (SplitMix64(stream_seed(0xB6, trial)) for _ in range(2))
        out, all_zero = run(rng)
        want, want_zero = _reference_walk(spec, pattern, budget, ref_rng)
        assert all_zero == want_zero, trial
        assert np.allclose(out.amps, want.amps, rtol=0, atol=1e-12), trial
        assert rng.state == ref_rng.state, trial  # the same draws
        outcomes.add(all_zero)
    if budget >= 2:
        assert outcomes == {False, True}


# ---------------------------------------------------------------------------
# fan-out amplification


def _tilted_pair() -> PureState:
    state = init(2)
    state = apply_gate(state, H, (0,))
    state = apply_gate(state, H, (1,))
    state = apply_gate(state, rz(0.9), (1,))
    state = apply_gate(state, H, (1,))
    return state


@pytest.mark.parametrize("q", [1, 3, 6])
def test_fanout_doubles_odds_per_round(q):
    base = _tilted_pair()
    before = target_odds(base, 1)
    out = iqp_fanout_amplify(base, q, rng=SplitMix64(stream_seed(0xF0, q)))
    assert out.n == base.n
    assert target_odds(out, 1) == pytest.approx(2.0**q * before, rel=1e-12)


def test_fanout_zero_rounds_is_identity():
    base = _tilted_pair()
    out = iqp_fanout_amplify(base, 0, rng=SplitMix64(1))
    assert fidelity(out, base) == pytest.approx(1.0, abs=1e-12)


def test_fanout_requires_rng_and_valid_control():
    base = _tilted_pair()
    with pytest.raises(TypeError):
        iqp_fanout_amplify(base, 1)
    with pytest.raises(ValueError):
        iqp_fanout_amplify(base, 1, rng=SplitMix64(1), control_qubit=7)


def test_target_odds_reads_amplitudes():
    state = PureState(1, np.array([1.0, math.sqrt(2.0)], dtype=complex) / math.sqrt(3.0))
    assert target_odds(state, 0) == pytest.approx(2.0, rel=1e-12)
