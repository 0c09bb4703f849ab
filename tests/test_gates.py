"""Gate-set algebra: unitarity, parameter validation, and closed forms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwsim.gates import (
    CCZ,
    CH,
    CLIFFORD_NAMES,
    CZ,
    GATE_NAMES,
    H,
    S,
    SWAP,
    X,
    Gate,
    gate,
    hk,
    rz,
)

FIXED = [X, H, S, CZ, CH, CCZ, SWAP]


@pytest.mark.parametrize("g", FIXED, ids=lambda g: g.name)
def test_fixed_gates_are_unitary(g):
    u = g.unitary()
    assert u.shape == (2**g.arity, 2**g.arity)
    assert np.allclose(u @ u.conj().T, np.eye(2**g.arity), atol=1e-12)


@given(st.integers(min_value=-64, max_value=64))
def test_hk_is_unitary(k):
    u = hk(k).unitary()
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_rz_is_unitary_and_diagonal(theta):
    u = rz(theta).unitary()
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    assert u[0, 1] == 0 and u[1, 0] == 0


@given(st.integers(min_value=-64, max_value=64))
def test_hk_closed_form(k):
    w = 2.0**k
    expected = np.array([[1.0, w], [w, -1.0]]) / math.sqrt(1.0 + w * w)
    assert np.allclose(hk(k).unitary(), expected, atol=1e-15)


def test_hk_zero_is_hadamard():
    assert np.allclose(hk(0).unitary(), H.unitary(), atol=1e-15)


def test_rz_phases():
    theta = 0.7
    u = rz(theta).unitary()
    assert u[0, 0] == pytest.approx(complex(math.cos(theta / 2), -math.sin(theta / 2)))
    assert u[1, 1] == pytest.approx(complex(math.cos(theta / 2), math.sin(theta / 2)))


def test_ch_acts_only_on_control_one_block():
    u = CH.unitary()
    assert np.allclose(u[:2, :2], np.eye(2), atol=1e-15)
    assert np.allclose(u[2:, 2:], H.unitary(), atol=1e-15)
    assert np.allclose(u[:2, 2:], 0.0, atol=1e-15)


def test_diagonal_gates():
    assert np.allclose(CZ.unitary(), np.diag([1, 1, 1, -1]), atol=1e-15)
    assert np.allclose(CCZ.unitary(), np.diag([1, 1, 1, 1, 1, 1, 1, -1]), atol=1e-15)


def test_swap_permutes_basis():
    u = SWAP.unitary()
    # |01> <-> |10> in big-endian target order
    vec = np.zeros(4)
    vec[1] = 1.0
    assert np.allclose(u @ vec, np.eye(4)[2], atol=1e-15)


def test_gate_constructor_round_trip():
    assert gate("h") == H
    assert gate("hk", 3) == hk(3)
    assert gate("rz", 0.5) == rz(0.5)


def test_unknown_gate_rejected():
    with pytest.raises(ValueError):
        gate("cx")


def test_hk_param_validation():
    with pytest.raises(ValueError):
        Gate("hk", 65)
    with pytest.raises(ValueError):
        Gate("hk", 1.5)
    with pytest.raises(ValueError):
        Gate("hk")


def test_rz_param_validation():
    with pytest.raises(ValueError):
        Gate("rz", "angle")
    with pytest.raises(ValueError):
        Gate("rz")
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Gate("rz", angle)


def test_fixed_gates_take_no_parameter():
    with pytest.raises(ValueError):
        Gate("h", 1)


def test_monomial_is_read_from_the_matrix():
    monomial = [X, S, CZ, CCZ, SWAP] + [rz(t) for t in (0.0, 0.7, -2.1, math.pi, 1e-300)]
    dense = [H, CH] + [hk(k) for k in (-64, -3, 0, 1, 64)]
    assert {g.name for g in monomial + dense} == GATE_NAMES
    for g in monomial:
        u = g.unitary()
        rebuilt = np.zeros_like(u)
        for row, (source, coeff) in enumerate(g.monomial):
            rebuilt[row, source] = coeff
        assert np.array_equal(rebuilt, u), g
    for g in dense:
        assert g.monomial is None, g
    assert X.monomial == ((1, 1), (0, 1))
    assert SWAP.monomial == ((0, 1), (2, 1), (1, 1), (3, 1))


def test_backend_subsets_are_consistent():
    assert CLIFFORD_NAMES == {"h", "s", "cz", "x"}


# ---------------------------------------------------------------------------
# the tuple tables against the NumPy construction they replaced


def _old_unitary(g: Gate) -> np.ndarray:
    r = 1.0 / math.sqrt(2.0)
    h = np.array([[r, r], [r, -r]], dtype=complex)
    if g.name == "hk":
        w = 2.0**g.param
        return np.array([[1.0, w], [w, -1.0]], dtype=complex) / math.sqrt(1.0 + w * w)
    if g.name == "rz":
        half = 0.5 * float(g.param)
        return np.array(
            [[complex(math.cos(half), -math.sin(half)), 0],
             [0, complex(math.cos(half), math.sin(half))]],
            dtype=complex,
        )
    if g.name == "ch":
        ch = np.eye(4, dtype=complex)
        ch[2:, 2:] = h
        return ch
    return {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "h": h,
        "s": np.array([[1, 0], [0, 1j]], dtype=complex),
        "cz": np.diag([1, 1, 1, -1]).astype(complex),
        "swap": np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        ),
        "ccz": np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex),
    }[g.name]


def _old_monomial(u: np.ndarray):
    rows = []
    for row in u:
        (cols,) = np.nonzero(row)
        if len(cols) != 1:
            return None
        rows.append((int(cols[0]), complex(row[cols[0]])))
    return tuple(rows)


TABLED = FIXED + [hk(k) for k in range(-64, 65)] + [
    rz(theta) for theta in (0.0, -0.0, 0.25, math.pi, -3.0)
]


@pytest.mark.parametrize("g", TABLED, ids=lambda g: f"{g.name}({g.param})")
def test_tables_build_the_same_matrices_bit_for_bit(g):
    old = _old_unitary(g)
    u = g.unitary()
    assert u.dtype == old.dtype and np.array_equal(u, old)
    assert u.tobytes() == old.tobytes()  # signed zeros too
    assert g.monomial == _old_monomial(old)
    assert g.unitary() is u and not u.flags.writeable
    assert tuple(map(tuple, u.tolist())) == g.matrix
