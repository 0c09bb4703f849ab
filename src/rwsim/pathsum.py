"""Path-sum acceptance oracle.

Computes exact acceptance probabilities for straight-line circuits (gates,
measurements, postselections, one ``accept`` declaration) by summing basis
paths instead of storing a state vector, so memory stays linear in circuit
depth regardless of width.

``KERNEL`` runs under the circuit interpreter in :mod:`rwsim.circuit`, which
enumerates the measurement branches.  A kernel state is the compiled op list
of a branch's prefix, with projectors in place of measurements and
postselections, plus that list's squared norm N = ||(prefix)|0...0>||^2.
A measurement outcome has probability N_child / N_parent, so

    q_z         = prod over measurement projectors of N_j / N_{j-1}
    P(accept|z) = A_z / N_last

where A_z adds a final projector onto accept = 1.  Postselection projectors
enter the N_j chain but not the q_z product: they renormalise the branch.
Each prefix norm is walked once and shared by both outcomes and the accept
leaf below it.  A norm is evaluated as a doubled walk: a forward path from
|0...0> through the prefix and a backward path through its adjoints that
returns to |0...0>; only Hadamard-like entries (h, hk, and ch on a
control-1 path) branch, diagonal and permutation gates never do.  Leaf
contributions are accumulated with Kahan compensation.

The size guard counts *path bits*, two per branching slot over the doubled
walk of the prefix being evaluated, and refuses above ``max_path_bits``
(default 60).
"""

from __future__ import annotations

from .circuit import (  # the shared error name is re-exported
    Circuit,
    GateOp,
    InvalidPostselectionError,
    Kernel,
    UnsupportedInstructionError,
    accept_qubit,
    enumerate_branches,
)

_NORM_FLOOR = 1e-300  # treat prefixes below this squared norm as dead branches


class SizeLimitError(ValueError):
    """Estimated path enumeration exceeds the configured bit budget."""


# compiled op kinds
_DIAG = 0      # (kind, qubit, (f0, f1))
_CZ = 1        # (kind, qa, qb)
_CCZ = 2       # (kind, qa, qb, qc)
_FLIP = 3      # (kind, qubit)
_SWAP = 4      # (kind, qa, qb)
_BRANCH = 5    # (kind, qubit, (m00, m01, m10, m11))
_CBRANCH = 6   # (kind, ctrl, tgt, (m00, m01, m10, m11)); a branch when ctrl is 1
_PROJ = 7      # (kind, qubit, bit)


def _compile_gate(op: GateOp):
    g, t = op.gate, op.targets
    name = g.name
    if name == "s":
        return (_DIAG, t[0], (1.0 + 0.0j, 1.0j))
    if name == "rz":
        u = g.unitary()
        return (_DIAG, t[0], (complex(u[0, 0]), complex(u[1, 1])))
    if name == "cz":
        return (_CZ, t[0], t[1])
    if name == "ccz":
        return (_CCZ, t[0], t[1], t[2])
    if name == "x":
        return (_FLIP, t[0])
    if name == "swap":
        return (_SWAP, t[0], t[1])
    if name in ("h", "hk"):
        u = g.unitary()
        return (_BRANCH, t[0], (complex(u[0, 0]), complex(u[0, 1]),
                                complex(u[1, 0]), complex(u[1, 1])))
    if name == "ch":
        u = g.unitary()
        return (_CBRANCH, t[0], t[1], (complex(u[2, 2]), complex(u[2, 3]),
                                       complex(u[3, 2]), complex(u[3, 3])))
    raise UnsupportedInstructionError(f"gate {name} is not path-compilable")


def _adjoint(op):
    """The compiled op of the conjugate-transposed gate (projectors are their own)."""
    kind = op[0]
    if kind == _DIAG:
        f0, f1 = op[2]
        return (_DIAG, op[1], (f0.conjugate(), f1.conjugate()))
    if kind in (_BRANCH, _CBRANCH):
        m00, m01, m10, m11 = op[-1]
        return op[:-1] + ((m00.conjugate(), m10.conjugate(), m01.conjugate(), m11.conjugate()),)
    return op


def _norm_squared(ops) -> float:
    """||(ops applied in order)|0...0>||^2 via the doubled path walk.

    The walk runs the ops forward from |0...0> and then their adjoints in
    reverse back to |0...0>, summing the amplitude of every path that returns.
    """
    walk = list(ops) + [_adjoint(op) for op in reversed(ops)]
    n_ops = len(walk)
    total_re = 0.0
    total_im = 0.0
    comp_re = 0.0
    comp_im = 0.0

    def leaf(amp: complex):
        nonlocal total_re, total_im, comp_re, comp_im
        y = amp.real - comp_re
        t = total_re + y
        comp_re = (t - total_re) - y
        total_re = t
        y = amp.imag - comp_im
        t = total_im + y
        comp_im = (t - total_im) - y
        total_im = t

    def visit(idx: int, assign: int, amp: complex):
        while idx < n_ops:
            op = walk[idx]
            kind = op[0]
            if kind == _DIAG:
                amp *= op[2][(assign >> op[1]) & 1]
            elif kind == _CZ:
                if (assign >> op[1]) & (assign >> op[2]) & 1:
                    amp = -amp
            elif kind == _CCZ:
                if (assign >> op[1]) & (assign >> op[2]) & (assign >> op[3]) & 1:
                    amp = -amp
            elif kind == _FLIP:
                assign ^= 1 << op[1]
            elif kind == _SWAP:
                qa, qb = op[1], op[2]
                ba, bb = (assign >> qa) & 1, (assign >> qb) & 1
                if ba != bb:
                    assign ^= (1 << qa) | (1 << qb)
            elif kind == _BRANCH or kind == _CBRANCH and (assign >> op[1]) & 1:
                q = op[-2]
                m00, m01, m10, m11 = op[-1]
                b_in = (assign >> q) & 1
                base = assign & ~(1 << q)
                if b_in:
                    visit(idx + 1, base, amp * m01)
                    visit(idx + 1, base | (1 << q), amp * m11)
                else:
                    visit(idx + 1, base, amp * m00)
                    visit(idx + 1, base | (1 << q), amp * m10)
                return
            elif kind == _PROJ:
                if ((assign >> op[1]) & 1) != op[2]:
                    return
            idx += 1
        if assign == 0:
            leaf(amp)

    visit(0, 0, 1.0 + 0.0j)
    value = total_re
    assert abs(total_im) < 1e-9, "norm accumulated a non-real component"
    return value


class PathSumKernel(Kernel):
    """Enumeration-only kernel.  A state is (compiled prefix, its squared norm,
    the projected norms ``prob`` has walked from it, which ``collapse`` reuses)."""

    name = "pathsum"
    runs = frozenset({"postselect"})

    def __init__(self, max_path_bits: int = 60):
        self.max_path_bits = max_path_bits

    def init(self, n: int):
        return (), 1.0, {}

    def apply(self, state, op: GateOp):
        return state[0] + (_compile_gate(op),), state[1], {}

    def prob(self, state, qubit: int, bit: int) -> float:
        ops, norm, walked = state
        projected = ops + ((_PROJ, qubit, bit),)
        bits = 2 * sum(1 for op in projected if op[0] in (_BRANCH, _CBRANCH))
        if bits > self.max_path_bits:
            raise SizeLimitError(f"{bits} path bits exceeds the budget of {self.max_path_bits}")
        walked[qubit, bit] = cur = _norm_squared(projected)
        return cur / norm if cur > _NORM_FLOOR else 0.0

    def collapse(self, state, qubit: int, bit: int, prob: float):
        return state[0] + ((_PROJ, qubit, bit),), state[2][qubit, bit], {}

    def postselect(self, state, qubit: int, bit: int):
        prob = self.prob(state, qubit, bit)
        if not prob:
            raise InvalidPostselectionError(f"outcome {bit} on qubit {qubit} has probability zero")
        return prob, self.collapse(state, qubit, bit, prob)


KERNEL = PathSumKernel()


def acceptance_probability(
    circuit: Circuit,
    weighting: dict[str, float] | None = None,
    max_path_bits: int = 60,
    outcomes: dict[str, float] | None = None,
) -> float:
    """Exact P(accept = 1) = sum_z w_z * A_z / N_z.

    ``weighting`` overrides the intrinsic branch probabilities q_z by outcome
    key (missing keys keep their q_z).  The result lies in [0, 1] up to
    accumulation error of 1e-12.  A dict passed as ``outcomes`` receives the
    intrinsic q_z per outcome key, as :func:`outcome_distribution` returns
    them, from the same enumeration.
    """
    accept = accept_qubit(circuit)
    if accept is None:
        raise ValueError("circuit declares no accept qubit")
    kernel = PathSumKernel(max_path_bits)
    total = 0.0
    for key, q_z, state in enumerate_branches(circuit, kernel):
        if q_z > 0.0:
            if outcomes is not None:
                outcomes[key] = q_z
            weight = q_z if weighting is None else weighting.get(key, q_z)
            total += weight * kernel.prob(state, accept, 1)
    assert -1e-12 <= total <= 1.0 + 1e-12, f"acceptance {total} outside [0, 1]"
    return total


def outcome_distribution(
    circuit: Circuit, max_path_bits: int = 60
) -> dict[str, float]:
    """Exact q_z per outcome key, same key format as the statevector oracle."""
    branches = enumerate_branches(circuit, PathSumKernel(max_path_bits))
    return {key: q_z for key, q_z, _ in branches if q_z > 0.0}
