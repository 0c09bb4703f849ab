"""Gate set shared by every backend.

The supported set is ``{x, h, s, cz, ch, ccz, swap, hk(k), rz(theta)}``.

``hk(k)`` is the one-parameter Hadamard-like family

    hk|0> = (|0> + 2^k |1>) / sqrt(1 + 4^k)
    hk|1> = (2^k |0> - |1>) / sqrt(1 + 4^k)

with integer ``|k| <= 64``; ``hk(0)`` is the ordinary Hadamard.  ``rz(theta)``
is diag(e^{-i theta/2}, e^{i theta/2}).  The Clifford subset understood by the
stabilizer backend is ``{h, s, cz, x}``.

:meth:`Gate.unitary` is the gate's matrix, big-endian in the listed targets.
:attr:`Gate.monomial` is that matrix's structure when each row has exactly one
nonzero entry (the diagonal gates ``s``, ``rz``, ``cz``, ``ccz`` and the
permutations ``x``, ``swap``), read from the matrix once per gate object, not
from a table of gate names.  The dense backend runs such gates as slice copies
instead of a matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_ARITY = {
    "x": 1, "h": 1, "s": 1, "hk": 1, "rz": 1,
    "cz": 2, "ch": 2, "swap": 2,
    "ccz": 3,
}

GATE_NAMES = frozenset(_ARITY)
CLIFFORD_NAMES = frozenset({"h", "s", "cz", "x"})

_SQRT1_2 = 1.0 / math.sqrt(2.0)

_FIXED = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "h": np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "ccz": np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex),
}
# ch: identity on control |0>, Hadamard on the target for control |1>.
_CH = np.eye(4, dtype=complex)
_CH[2:, 2:] = _FIXED["h"]
_FIXED["ch"] = _CH


@dataclass(frozen=True)
class Gate:
    """A named gate, possibly carrying one parameter.

    ``param`` is the integer k for ``hk``, the float angle for ``rz`` and
    None for every fixed gate.
    """

    name: str
    param: int | float | None = None

    def __post_init__(self):
        if self.name not in _ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        if self.name == "hk":
            if not isinstance(self.param, int) or abs(self.param) > 64:
                raise ValueError("hk parameter must be an integer with |k| <= 64")
        elif self.name == "rz":
            if not isinstance(self.param, (int, float)) or not math.isfinite(self.param):
                raise ValueError(f"rz parameter must be a finite real angle, got {self.param!r}")
        elif self.param is not None:
            raise ValueError(f"gate {self.name} takes no parameter")

    @property
    def arity(self) -> int:
        return _ARITY[self.name]

    def unitary(self) -> np.ndarray:
        """Dense (2^arity x 2^arity) matrix; basis order is big-endian in
        the listed targets (first target = most significant bit)."""
        if self.name == "hk":
            w = 2.0 ** self.param
            norm = math.sqrt(1.0 + w * w)
            return np.array([[1.0, w], [w, -1.0]], dtype=complex) / norm
        if self.name == "rz":
            half = 0.5 * float(self.param)
            return np.array(
                [[complex(math.cos(half), -math.sin(half)), 0],
                 [0, complex(math.cos(half), math.sin(half))]],
                dtype=complex,
            )
        return _FIXED[self.name]

    @cached_property
    def monomial(self) -> tuple[tuple[int, complex], ...] | None:
        """The ``(source column, coefficient)`` pair of every row of
        :meth:`unitary` when each row has exactly one nonzero entry, else None.

        Row r of such a gate maps the amplitude whose targets read the source
        column onto the one whose targets read r, times the coefficient.
        """
        rows = []
        for row in self.unitary():
            (cols,) = np.nonzero(row)
            if len(cols) != 1:
                return None
            rows.append((int(cols[0]), complex(row[cols[0]])))
        return tuple(rows)


def gate(name: str, param: int | float | None = None) -> Gate:
    """Convenience constructor (`gate("hk", -2)`, `gate("rz", 0.25)`...)."""
    return Gate(name, param)


X = Gate("x")
H = Gate("h")
S = Gate("s")
CZ = Gate("cz")
CH = Gate("ch")
CCZ = Gate("ccz")
SWAP = Gate("swap")


def hk(k: int) -> Gate:
    return Gate("hk", k)


def rz(theta: float) -> Gate:
    return Gate("rz", float(theta))
