"""Brickwork grids, retried pattern measurement, and the fan-out gadget."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rwsim.gates import H, rz
from rwsim.mbqc import (
    BrickworkSpec,
    MeasurementPattern,
    build_brickwork,
    iqp_fanout_amplify,
    mbqc_run_rewind,
    postselect_pattern_zero,
    target_odds,
)
from rwsim.rng import SplitMix64, stream_seed
from rwsim.statevector import (
    PureState,
    QubitBudgetError,
    apply_gate,
    fidelity,
    init,
    measure_until,
    postselect,
    prob_of_bit,
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


def test_identity_pattern_covers_measured_set():
    spec = BrickworkSpec(2, 5)
    pattern = MeasurementPattern.identity(spec)
    assert [q for q, _ in pattern.entries] == spec.measured_qubits()
    assert all(theta == 0.0 for _, theta in pattern.entries)


def test_build_respects_width_caps():
    with pytest.raises(QubitBudgetError):
        build_brickwork(BrickworkSpec(3, 13))
    with pytest.raises(QubitBudgetError):
        build_brickwork(BrickworkSpec(2, 5), max_width=9)
    assert build_brickwork(BrickworkSpec(2, 5), max_width=10).n == 10


def test_pattern_validation_errors():
    state = init(2)
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        mbqc_run_rewind(state, MeasurementPattern(((0, 0.0), (0, 0.0))), 1, rng)
    with pytest.raises(ValueError):
        mbqc_run_rewind(state, MeasurementPattern(((5, 0.0),)), 1, rng)
    with pytest.raises(ValueError):
        mbqc_run_rewind(state, MeasurementPattern(((0, 0.0), (1, 0.0))), 1, rng)


def test_every_pattern_measurement_is_a_fair_coin():
    spec = BrickworkSpec(2, 5)
    state = build_brickwork(spec)
    rng = SplitMix64(3)
    for qubit in spec.measured_qubits():
        theta = (rng.uniform() - 0.5) * 2.0 * math.pi
        state = apply_gate(state, rz(-theta), (qubit,))
        state = apply_gate(state, H, (qubit,))
        assert prob_of_bit(state, qubit, 0) == pytest.approx(0.5, abs=1e-12)
        _, state = postselect(state, qubit, 0)


def test_all_zero_branch_probability_is_uniform():
    spec = BrickworkSpec(2, 5)
    rotated = build_brickwork(spec)
    for qubit in spec.measured_qubits():
        rotated = apply_gate(rotated, H, (qubit,))
    prob, out = postselect_pattern_zero(rotated, spec.measured_qubits())
    assert prob == pytest.approx(2.0**-8, abs=1e-12)
    assert out.n == 2


def test_one_shot_oracle_matches_sequential_postselection():
    spec = BrickworkSpec(2, 5)
    base = build_brickwork(spec)
    rng = SplitMix64(9)
    rotated = base
    for qubit in spec.measured_qubits():
        theta = (rng.uniform() - 0.5) * 2.0 * math.pi
        rotated = apply_gate(rotated, rz(-theta), (qubit,))
        rotated = apply_gate(rotated, H, (qubit,))
    prob_a, out_a = postselect_pattern_zero(rotated, spec.measured_qubits())
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
    state = build_brickwork(spec)
    pattern = MeasurementPattern.identity(spec)
    out, all_zero = mbqc_run_rewind(state, pattern, 0, SplitMix64(stream_seed(0xB0, 0)))
    assert not all_zero
    assert out.n == 2  # the run still finishes and leaves the output column


def test_retry_budget_drives_all_zero_frequency():
    spec = BrickworkSpec(1, 5)
    base = build_brickwork(spec)
    pattern = MeasurementPattern.identity(spec)
    trials = 400
    rng = SplitMix64(stream_seed(0xB1, 4))
    hits = sum(mbqc_run_rewind(base.copy(), pattern, 2, rng)[1] for _ in range(trials))
    expected = (1 - 2.0**-3) ** 4
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(hits / trials - expected) <= 4 * sigma


def test_all_zero_runs_match_the_oracle_state():
    spec = BrickworkSpec(2, 5)
    base = build_brickwork(spec)
    pattern = MeasurementPattern.identity(spec)
    rotated = base
    for qubit in spec.measured_qubits():
        rotated = apply_gate(rotated, H, (qubit,))
    _, oracle = postselect_pattern_zero(rotated, spec.measured_qubits())
    rng = SplitMix64(stream_seed(0xB2, 0))
    checked = 0
    for _ in range(40):
        out, all_zero = mbqc_run_rewind(base.copy(), pattern, 3, rng)
        if all_zero:
            checked += 1
            assert fidelity(out, oracle) == pytest.approx(1.0, abs=1e-9)
    assert checked > 0


def test_one_rotation_per_distinct_angle_gives_bit_identical_states():
    spec = BrickworkSpec(2, 5)
    base = build_brickwork(spec)
    angles = (0.3, -1.25, 0.0, 0.3, 2.5, -1.25, 0.0, 0.7)
    pattern = MeasurementPattern(tuple(zip(spec.measured_qubits(), angles)))
    assert sorted(pattern.rotations) == [-1.25, 0.3, 0.7, 2.5]
    assert pattern.rotations is pattern.rotations  # built once per pattern
    for trial in range(6):
        got = mbqc_run_rewind(base, pattern, 1, SplitMix64(stream_seed(0xB3, trial)))
        # the same run with a fresh rz gate built for every measured qubit
        state, rng, outcomes = base, SplitMix64(stream_seed(0xB3, trial)), {}
        for qubit, theta in pattern.entries:
            if theta:
                state = apply_gate(state, rz(-theta), (qubit,))
            state = apply_gate(state, H, (qubit,))
            bits, state = measure_until(state, qubit, 0, 2, rng)
            outcomes[qubit] = bits[-1]
        for qubit in sorted(outcomes, reverse=True):
            state = slice_qubit(state, qubit, outcomes[qubit])
        assert got[1] == (not any(outcomes.values()))
        assert np.array_equal(got[0].amps, state.amps)


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
    with pytest.raises(ValueError):
        iqp_fanout_amplify(base, 1)
    with pytest.raises(ValueError):
        iqp_fanout_amplify(base, 1, rng=SplitMix64(1), control_qubit=7)


def test_target_odds_reads_amplitudes():
    state = PureState(1, np.array([1.0, math.sqrt(2.0)], dtype=complex) / math.sqrt(3.0))
    assert target_odds(state, 0) == pytest.approx(2.0, rel=1e-12)
