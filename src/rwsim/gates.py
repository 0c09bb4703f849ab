"""Gate set shared by every backend.

The supported set is ``{x, h, s, cz, ch, ccz, swap, hk(k), rz(theta)}``.

``hk(k)`` is the one-parameter Hadamard-like family

    hk|0> = (|0> + 2^k |1>) / sqrt(1 + 4^k)
    hk|1> = (2^k |0> - |1>) / sqrt(1 + 4^k)

with integer ``|k| <= 64``; ``hk(0)`` is the ordinary Hadamard.  ``rz(theta)``
is diag(e^{-i theta/2}, e^{i theta/2}).  The Clifford subset understood by the
stabilizer backend is ``{h, s, cz, x}``.

:attr:`Gate.matrix` is the gate's matrix, big-endian in the listed targets,
as a tuple of rows of ``complex``, so this module and the backends that only
read entries (the stabilizer tableau, the path sum) never load NumPy.
:meth:`Gate.unitary` is the same matrix as a NumPy array for the dense
backend, built on the first call and kept on the gate object.
:attr:`Gate.monomial` is the matrix's structure when each row has exactly one
nonzero entry (the diagonal gates ``s``, ``rz``, ``cz``, ``ccz`` and the
permutations ``x``, ``swap``), read from the matrix once per gate object, not
from a table of gate names.  The dense backend runs such gates as slice copies
instead of a matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

_ARITY = {
    "x": 1, "h": 1, "s": 1, "hk": 1, "rz": 1,
    "cz": 2, "ch": 2, "swap": 2,
    "ccz": 3,
}

GATE_NAMES = frozenset(_ARITY)
CLIFFORD_NAMES = frozenset({"h", "s", "cz", "x"})


def _matrix(*rows) -> tuple[tuple[complex, ...], ...]:
    return tuple(tuple(complex(entry) for entry in row) for row in rows)


def _diag(*entries) -> tuple[tuple[complex, ...], ...]:
    return _matrix(*([entry if col == row else 0 for col in range(len(entries))]
                     for row, entry in enumerate(entries)))


_R = 1.0 / math.sqrt(2.0)  # the entries of h
_FIXED = {
    "x": _matrix((0, 1), (1, 0)),
    "h": _matrix((_R, _R), (_R, -_R)),
    "s": _diag(1, 1j),
    "cz": _diag(1, 1, 1, -1),
    "swap": _matrix((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
    "ccz": _diag(1, 1, 1, 1, 1, 1, 1, -1),
    # ch: identity on control |0>, Hadamard on the target for control |1>.
    "ch": _matrix((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, _R, _R), (0, 0, _R, -_R)),
}


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

    @cached_property
    def matrix(self) -> tuple[tuple[complex, ...], ...]:
        """Rows of the (2^arity x 2^arity) matrix; basis order is big-endian
        in the listed targets (first target = most significant bit)."""
        if self.name == "hk":
            w = 2.0 ** self.param
            norm = math.sqrt(1.0 + w * w)
            return _matrix((1.0 / norm, w / norm), (w / norm, -1.0 / norm))
        if self.name == "rz":
            half = 0.5 * float(self.param)
            return _diag(complex(math.cos(half), -math.sin(half)),
                         complex(math.cos(half), math.sin(half)))
        return _FIXED[self.name]

    def unitary(self):
        """:attr:`matrix` as a read-only complex NumPy array, built on the
        first call and returned again on every later one."""
        u = self.__dict__.get("_unitary")
        if u is None:
            import numpy as np  # only the dense backend and the demos use NumPy

            u = self.__dict__["_unitary"] = np.array(self.matrix, dtype=complex)
            u.flags.writeable = False
        return u

    @cached_property
    def monomial(self) -> tuple[tuple[int, complex], ...] | None:
        """The ``(source column, coefficient)`` pair of every row of
        :attr:`matrix` when each row has exactly one nonzero entry, else None.

        Row r of such a gate maps the amplitude whose targets read the source
        column onto the one whose targets read r, times the coefficient.
        """
        rows = []
        for row in self.matrix:
            cols = [col for col, entry in enumerate(row) if entry]
            if len(cols) != 1:
                return None
            rows.append((cols[0], row[cols[0]]))
        return tuple(rows)


def gate(name: str, param: int | float | None = None) -> Gate:
    """Convenience constructor (`gate("hk", -2)`, `gate("rz", 0.25)`...).

    A fixed gate is the module constant (`gate("h") is H`), so its
    :attr:`Gate.matrix`, :attr:`Gate.monomial` and :meth:`Gate.unitary` are
    built once per process.
    """
    if param is None and name in _CONSTANTS:
        return _CONSTANTS[name]
    return Gate(name, param)


X = Gate("x")
H = Gate("h")
S = Gate("s")
CZ = Gate("cz")
CH = Gate("ch")
CCZ = Gate("ccz")
SWAP = Gate("swap")
_CONSTANTS = {g.name: g for g in (X, H, S, CZ, CH, CCZ, SWAP)}


def hk(k: int) -> Gate:
    return Gate("hk", k)


def rz(theta: float) -> Gate:
    return Gate("rz", float(theta))
