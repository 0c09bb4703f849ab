"""Amplitude mitigation: closed forms, schedules, preparation, both variants."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwsim.gates import CH, X, hk
from rwsim.mitigation import (
    _ROUND,
    RANDOM_FALLBACK,
    SUCCESS,
    FlaggedState,
    advance_nontarget,
    extract_target,
    flag_odds,
    level_success_probability,
    make_flagged,
    mitigate,
    mitigate_postselect,
    nontarget_at_level,
    nontarget_probability,
    p_max,
    postselect_rounds,
    prep_success_probability,
    preparation_state,
    prepare_psi,
    rounds_needed,
    success_probability_exact,
    success_probability_lower_bound,
    synthetic_flagged,
    _coin_round,
)
from rwsim.rng import SplitMix64, stream_seed
from rwsim.statevector import PureState, apply_gate, apply_matrix, init, prob_of_bit

fractions_01 = st.fractions(
    min_value=0, max_value=Fraction(999, 1000), max_denominator=1000
)


@given(p=fractions_01)
def test_advance_is_one_round_of_odds_doubling(p):
    p_next = advance_nontarget(p)
    assert p_next == p / (2 - p)
    if 0 < p:
        # target odds (1-p)/p exactly double each time z = 0 is read
        assert (1 - p_next) / p_next == 2 * (1 - p) / p


@given(p=fractions_01, i=st.integers(min_value=0, max_value=12))
def test_level_closed_form_matches_iteration(p, i):
    iterated = p
    for _ in range(i):
        iterated = advance_nontarget(iterated)
    assert nontarget_at_level(p, i) == iterated


@given(p=fractions_01, i=st.integers(min_value=0, max_value=12))
def test_attempt_success_probability_identity(p, i):
    # an attempt at level i reads z = 0 unless the nontarget branch's coin
    # comes up 1, so q_i = 1 - p_i / 2
    assert level_success_probability(p, i) == 1 - nontarget_at_level(p, i) / 2


def test_rounds_needed_values():
    assert rounds_needed(0.3) == 0
    assert rounds_needed(0.5) == 0
    assert rounds_needed(0.75) == 2
    assert rounds_needed(0.9) == 4


def test_admissibility_edge_values():
    assert p_max(1) == Fraction(9, 10)
    assert p_max(2) == Fraction(33, 34)
    assert p_max(3) == Fraction(129, 130)


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_success_beats_floor_at_the_edge(n):
    # hardest admissible p: the exact product still clears 1 - 5n/8^n
    exact = success_probability_exact(p_max(n), n)
    assert isinstance(exact, Fraction)
    assert exact >= success_probability_lower_bound(n)


@given(p=fractions_01)
@settings(max_examples=30, deadline=None)
def test_exact_success_monotone_in_p(p):
    n = 3
    if p > p_max(n):
        p = p_max(n)
    easier = p / 2
    assert success_probability_exact(easier, n) >= success_probability_exact(p, n)


# ---------------------------------------------------------------------------
# preparation


def test_preparation_probability_closed_form_all_two_bit_tables():
    for table in product((0, 1), repeat=4):
        s = sum(table)
        expected = ((4 - s) ** 2 + s**2) / 16
        assert prep_success_probability(list(table)) == pytest.approx(
            expected, abs=1e-12
        )
        assert prep_success_probability(list(table)) >= 0.5 - 1e-12


def test_preparation_state_shape_and_norm():
    state = preparation_state([0, 1, 1, 0])
    assert state.n == 3
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)
    # balanced table: output qubit is uniform regardless of the input register
    assert prob_of_bit(state, 2, 1) == pytest.approx(0.5, abs=1e-12)


def test_preparation_rejects_bad_tables():
    with pytest.raises(ValueError):
        preparation_state([0, 1, 1])
    with pytest.raises(ValueError):
        preparation_state([0, 2, 0, 0])


@pytest.mark.parametrize("table", [[0, 0, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]])
def test_prepared_state_amplitudes(table):
    s = sum(table)
    psi, attempts = prepare_psi(table, SplitMix64(stream_seed(0xBAD, 0)))
    assert psi is not None and psi.n == 1
    assert 1 <= attempts <= 2
    norm = math.sqrt((4 - s) ** 2 + s**2)
    assert psi.amps[0] == pytest.approx((4 - s) / norm, abs=1e-12)
    assert psi.amps[1] == pytest.approx(s / norm, abs=1e-12)


def test_preparation_can_exhaust_its_attempts():
    # weight-2 table: each attempt succeeds with probability exactly 1/2
    psi, attempts = prepare_psi([1, 1, 0, 0], SplitMix64(stream_seed(0xBAD, 7)))
    assert psi is None
    assert attempts == 2


# ---------------------------------------------------------------------------
# flag attachment


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_make_flagged_amplitudes_and_weight(k):
    a, b = 0.6, 0.8
    psi = PureState(1, np.array([a, b], dtype=complex))
    fs = make_flagged(psi, k, n=4)
    assert fs.flag_qubit == 1
    # scalar reconstruction: coin hk(k)|0> = (1, 2^k)/sqrt(1+4^k); the coin=1
    # branch carries H psi
    scale = 1.0 / math.sqrt(1.0 + 4.0**k)
    expected = np.array(
        [
            a,
            b,
            2.0**k * (a + b) / math.sqrt(2),
            2.0**k * (a - b) / math.sqrt(2),
        ]
    ) * scale
    assert np.allclose(fs.state.amps, expected, atol=1e-12)
    p0 = a**2 + (4.0**k) * (a + b) ** 2 / 2
    assert fs.p == pytest.approx(p0 * scale**2, rel=1e-12)


def test_make_flagged_coin_column_matches_gate():
    column = hk(3).unitary()[:, 0]
    assert column[0] == pytest.approx(1 / math.sqrt(1 + 4.0**3))
    assert column[1] == pytest.approx(2.0**3 / math.sqrt(1 + 4.0**3))


def test_make_flagged_validation():
    with pytest.raises(ValueError):
        make_flagged(init(2), 0, n=4)
    with pytest.raises(ValueError):
        make_flagged(init(1), 5, n=4)


def test_synthetic_flagged_weights():
    fs = synthetic_flagged(0.25)
    assert fs.p == pytest.approx(0.25)
    assert nontarget_probability(fs) == pytest.approx(0.25, abs=1e-12)
    assert flag_odds(fs) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        synthetic_flagged(1.0)


# ---------------------------------------------------------------------------
# the rewinding schedule


def _states_with_zeros(rng):
    """Seeded 2-5-qubit states; every other one has a random third of its
    amplitudes zeroed (left unnormalised: the gates do not care)."""
    for n in (2, 3, 4, 5):
        for i in range(6):
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            if i % 2:
                amps[rng.random(1 << n) < 1 / 3] = 0.0
            yield PureState(n, amps)


def _controlled_coin(q):
    """The controlled coin rotation of one postselect round, before fusion."""
    mat = np.eye(4, dtype=complex)
    mat[2:, 2:] = [[math.sqrt(q), -math.sqrt(1 - q)], [math.sqrt(1 - q), math.sqrt(q)]]
    return mat


@pytest.mark.parametrize("q", [None, 0.25, 0.7], ids=["round", "coin-0.25", "coin-0.7"])
def test_fused_round_equals_the_three_gates_bit_for_bit(q):
    """One matrix for X(flag), the controlled gate, X(flag): the same
    amplitudes as applying the three in turn, on every ordered target pair."""
    fused = _ROUND if q is None else _coin_round(q)
    middle = CH.unitary() if q is None else _controlled_coin(q)
    rng = np.random.default_rng(0x9F)
    for state in _states_with_zeros(rng):
        for flag, ancilla in permutations(range(state.n), 2):
            want = apply_gate(state, X, (flag,))
            want = apply_matrix(want, middle, (flag, ancilla))
            want = apply_gate(want, X, (flag,))
            got = apply_matrix(state, fused, (flag, ancilla))
            assert np.array_equal(got.amps, want.amps), (state.n, flag, ancilla)


def _check_trace_shape(trace, n):
    level = 0
    attempt = 0
    for i, c, z in trace.events:
        assert i == level
        attempt += 1
        assert c == attempt
        assert c <= 3 * n
        if z == 0:
            level += 1
            attempt = 0
    return level


@pytest.mark.parametrize("seed", range(6))
def test_mitigate_success_trace_and_final_weight(seed):
    n = 2
    p = 0.9
    fs = synthetic_flagged(p)
    final, trace = mitigate(fs, n, rng=SplitMix64(stream_seed(0x517, seed)))
    assert trace.outcome == SUCCESS
    levels_done = _check_trace_shape(trace, n)
    assert levels_done == 2 * n + 3
    expected = float(nontarget_at_level(Fraction(9, 10), 2 * n + 3))
    assert final.p == pytest.approx(expected, rel=1e-9)
    assert flag_odds(final) >= 1.0


def test_mitigate_fallback_keeps_trace_consistent():
    n = 2
    fs = synthetic_flagged(1.0 - 1e-9)
    final, trace = mitigate(fs, n, rng=SplitMix64(stream_seed(0xFA11, 5)))
    assert trace.outcome == RANDOM_FALLBACK
    # the halting level burned all 3n attempts on z = 1
    last_level = trace.events[-1][0]
    tail = [e for e in trace.events if e[0] == last_level]
    assert len(tail) == 3 * n
    assert all(z == 1 for _, _, z in tail)
    assert final.state.n == fs.state.n


def test_mitigate_requires_rng():
    with pytest.raises(ValueError):
        mitigate(synthetic_flagged(0.5), 2)


def test_extract_target_returns_target_branch():
    fs = synthetic_flagged(0.2)
    out = extract_target(fs, 3, rng=SplitMix64(stream_seed(0xE7, 0)))
    assert out is not None and out.n == 1
    assert abs(out.amps[1]) == pytest.approx(1.0, abs=1e-12)


def test_extract_target_can_fail():
    fs = synthetic_flagged(0.999)
    out = extract_target(fs, 3, rng=SplitMix64(stream_seed(0xE8, 0)))
    assert out is None


# ---------------------------------------------------------------------------
# adaptive-postselection variant


@pytest.mark.parametrize("p,q,m", [(0.9, 0.25, 3), (0.75, 0.5, 2), (0.6, 0.1, 1)])
def test_postselect_variant_closed_form(p, q, m):
    fs = synthetic_flagged(p)
    out = mitigate_postselect(fs, q, m)
    expected_p = q**m * p / (q**m * p + (1 - p))
    assert out.p == pytest.approx(expected_p, rel=1e-12)
    # amplitude shape: nontarget scaled by q^(m/2), then renormalised
    norm = math.sqrt(q**m * p + (1 - p))
    assert abs(out.state.amps[0b00]) == pytest.approx(
        math.sqrt(q**m * p) / norm, rel=1e-12
    )
    assert abs(out.state.amps[0b11]) == pytest.approx(
        math.sqrt(1 - p) / norm, rel=1e-12
    )
    # odds multiply by exactly 1/q per round
    assert flag_odds(out) == pytest.approx(flag_odds(fs) / q**m, rel=1e-9)


def test_postselect_rounds_boundary():
    assert postselect_rounds(0.3, 0.5) == 0
    assert postselect_rounds(0.5, 0.5) == 0
    assert postselect_rounds(0.75, 0.5) == 2
    assert postselect_rounds(0.9, 0.25) == 2


@given(
    p=st.floats(min_value=0.51, max_value=0.99),
    q=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=60, deadline=None)
def test_round_count_reaches_majority_target(p, q):
    m = postselect_rounds(p, q)
    out = mitigate_postselect(synthetic_flagged(p), q, m)
    assert 1.0 - out.p >= 0.5 - 1e-9


def test_postselect_variant_validates_q():
    with pytest.raises(ValueError):
        mitigate_postselect(synthetic_flagged(0.5), 0.0, 1)
    with pytest.raises(ValueError):
        mitigate_postselect(synthetic_flagged(0.5), 1.0, 1)
