"""Path-sum acceptance oracle.

Computes exact acceptance probabilities for straight-line circuits (gates,
measurements, postselections, one ``accept`` declaration) by carrying every
path forward at once, merged by the basis state it reaches: the Schrödinger
end of the Schrödinger–Feynman trade-off.

``KERNEL`` runs under the circuit interpreter in :mod:`rwsim.circuit`, which
enumerates the measurement branches; ``outcome_distribution(circuit,
KERNEL)`` there gives the exact q_z per outcome.  A kernel state is a
sparse amplitude map, a pure-Python ``dict`` from basis index (qubit q is
bit q) to complex amplitude, holding only the basis states some path
reaches with a nonzero sum.  It does not depend on the NumPy backend.

* ``apply`` sends each key through the gate.  A diagonal or permutation gate
  (``Gate.monomial``) moves it to one key; ``h``, ``hk`` and ``ch`` on a
  control-1 key split it in two.  Paths that reach the same basis state add
  their amplitudes there, and exact zeros are dropped.
* ``prob`` sums |amp|^2 over the keys with the asked bit; ``collapse``
  keeps those keys and renormalises, for a measurement branch and for a
  postselection, which the interpreter runs as ``prob`` then ``collapse``.
  An outcome is an empty branch by the rule the dense kernel uses too,
  :func:`rwsim.circuit.outcome_weight`.

Cost is O(ops x live amplitudes) per branch.  With b branching gates on n
qubits a map holds at most 2^min(b, n) amplitudes, and memory is the live
map of each open branch, not the circuit's depth.

The size guard counts live amplitudes: a gate that leaves more than
``MAX_AMPLITUDES`` = 2^20 raises :class:`SizeLimitError` quoting the count
it reached.  Measured on a shared 2-core x86 box with Python 3.11, a map at
the cap takes about 100 MB, and one branching gate on it about 1 s (0.7-1.4 s
for ``h``).  A gate holds its input and its output, so the run that is
refused peaks at about three maps' worth, near 400 MB resident.  2^20 is
four times the largest map of an 18-qubit circuit, and it keeps a refused
run within seconds and under half a gigabyte.
"""

from __future__ import annotations

from functools import lru_cache

from .circuit import (  # the shared error name is re-exported
    Circuit,
    CircuitValidationError,
    GateOp,
    InputError,
    Kernel,
    UnsupportedInstructionError,
    accept_qubit,
    enumerate_branches,
    outcome_weight,
)

MAX_AMPLITUDES = 1 << 20


class SizeLimitError(InputError):
    """A branch holds more live amplitudes than ``MAX_AMPLITUDES``."""


@lru_cache(maxsize=1024)
def _moves(op: GateOp) -> tuple[int, dict[int, tuple[tuple[int, complex], ...]]]:
    """``(mask, table)`` for a gate op: a key whose target bits read ``t =
    key & mask`` goes to ``key ^ t | bits`` times ``factor`` for each
    ``(bits, factor)`` in ``table[t]``.

    Cached per op, so each gate of a circuit builds its table once, not once
    per ``apply`` on every branch; callers only read the table."""
    targets = op.targets
    width = len(targets)
    spread = [  # matrix index (big-endian in the targets) -> basis bits
        sum(1 << q for i, q in enumerate(targets) if index >> (width - 1 - i) & 1)
        for index in range(1 << width)
    ]
    monomial = op.gate.monomial
    if monomial is not None:
        table = {spread[col]: ((spread[row], factor),) for row, (col, factor) in enumerate(monomial)}
    else:
        u = op.gate.matrix
        table = {
            spread[col]: tuple((spread[row], u[row][col]) for row in range(1 << width) if u[row][col])
            for col in range(1 << width)
        }
    return spread[-1], table


class PathSumKernel(Kernel):
    """Enumeration-only kernel over sparse amplitude maps."""

    name = "pathsum"
    runs = frozenset({"postselect"})

    def init(self, n: int) -> dict[int, complex]:
        return {0: 1.0 + 0.0j}

    def apply(self, state: dict[int, complex], op: GateOp) -> dict[int, complex]:
        mask, table = _moves(op)
        out: dict[int, complex] = {}
        for key, amp in state.items():
            here = key & mask
            for bits, factor in table[here]:
                k = key ^ here | bits
                out[k] = out.get(k, 0.0) + amp * factor
        for k in [k for k, amp in out.items() if not amp]:
            del out[k]
        if len(out) > MAX_AMPLITUDES:
            raise SizeLimitError(
                f"{len(out)} live amplitudes exceed the cap of {MAX_AMPLITUDES}"
            )
        return out

    def prob(self, state: dict[int, complex], qubit: int, bit: int) -> float:
        want = bit << qubit
        return outcome_weight(sum(
            amp.real * amp.real + amp.imag * amp.imag
            for key, amp in state.items() if key & (1 << qubit) == want
        ))

    def collapse(self, state, qubit: int, bit: int, prob: float) -> dict[int, complex]:
        want, scale = bit << qubit, prob ** -0.5
        return {key: amp * scale for key, amp in state.items() if key & (1 << qubit) == want}


KERNEL = PathSumKernel()


def acceptance_probability(circuit: Circuit, outcomes: dict[str, float] | None = None) -> float:
    """Exact P(accept = 1) = sum_z q_z * P(accept = 1 | z).

    The result lies in [0, 1] up to accumulation error of 1e-12.  A dict
    passed as ``outcomes`` receives the q_z per outcome key, as
    :func:`rwsim.circuit.outcome_distribution` returns them, from the same
    enumeration.  A circuit without ``accept`` is refused before it runs.
    """
    accept = accept_qubit(circuit)
    if accept is None:
        raise CircuitValidationError("circuit declares no accept qubit")
    total = 0.0
    for key, q_z, state in enumerate_branches(circuit, KERNEL):
        if q_z > 0.0:
            if outcomes is not None:
                outcomes[key] = q_z
            total += q_z * KERNEL.prob(state, accept, 1)
    assert -1e-12 <= total <= 1.0 + 1e-12, f"acceptance {total} outside [0, 1]"
    return total
