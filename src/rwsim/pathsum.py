"""Path-sum backend and acceptance oracle.

Runs every instruction of a circuit (gates, measurements, postselections,
snapshots, rewinds and clones) by carrying every path forward at once,
merged by the basis state it reaches: the Schrödinger end of the
Schrödinger–Feynman trade-off, and path sums read as a circuit semantics
(Amy, arXiv:1805.06908).

``KERNEL`` runs under the circuit interpreter in :mod:`rwsim.circuit`:
``sampler(circuit, KERNEL)`` samples paths, and ``outcome_distribution``
and ``strong_probability`` there enumerate the measurement branches;
:func:`acceptance_probability` is the exact P(accept = 1).  A kernel state
is an :class:`AmplitudeMap`, a pure-Python ``dict`` from basis index (qubit
q is bit q) to complex amplitude, holding only the basis states some path
reaches with a nonzero sum, and the width ``n`` of the circuit.  It does
not depend on the NumPy backend.

* ``apply`` sends each key through the gate.  A diagonal or permutation gate
  (``Gate.monomial``) moves it to one key; ``h``, ``hk`` and ``ch`` on a
  control-1 key split it in two.  Paths that reach the same basis state add
  their amplitudes there, and exact zeros are dropped.
* ``prob`` sums |amp|^2 over the keys with the asked bit; ``collapse``
  keeps those keys and renormalises, for a measurement branch and for a
  postselection, which the interpreter runs as ``prob`` then ``collapse``.
  An outcome is an empty branch by the rule the dense kernel uses too,
  :func:`rwsim.circuit.outcome_weight`.  A sampled measurement is the
  interpreter's default ``measure``: the two ``prob`` weights, one draw,
  one ``collapse``.
* No operation changes a map, so ``keep`` returns its input, and a
  snapshot, a clone and a sampler's shared prefix are held by reference.
* ``is_collapse``, which strict rewind asks, is the dense kernel's test on
  maps: some qubit's other outcome holds no weight in the state, and the
  state's amplitudes there are the snapshot's, renormalised, up to global
  phase.  It tries each qubit whose bit varies over either map's keys, and
  one qubit below ``n`` with one bit on every key of both, which certifies
  a state equal to its snapshot (so a map carries its width): all such
  qubits answer alike, and a qubit with one bit in the snapshot and the
  other in the state never certifies.

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

from functools import lru_cache, reduce
from operator import and_, or_

from .circuit import (
    EMPTY_PROB,
    REWIND_TOL,
    Circuit,
    CircuitValidationError,
    GateOp,
    InputError,
    Kernel,
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


class AmplitudeMap(dict):
    """Basis index -> amplitude: the live paths of one branch on ``n`` qubits."""

    __slots__ = ("n",)

    def __init__(self, n: int, items=()):
        super().__init__(items)
        self.n = n


def _weight(amps, mask: int, want: int) -> float:
    """Sum of |amp|^2 over the keys whose ``mask`` bits read ``want``."""
    return sum(
        amp.real * amp.real + amp.imag * amp.imag
        for key, amp in amps.items() if key & mask == want
    )


def _collapse_matches(stored: AmplitudeMap, post: AmplitudeMap, qubit: int) -> bool:
    """Is ``post`` ``stored`` projected onto one outcome of ``qubit`` and
    renormalised, up to global phase?  The dense kernel's test on one
    qubit: the other outcome is empty in ``post``, and
    |<post| P |stored>| = ||P stored||."""
    mask = 1 << qubit
    for bit in (0, 1):
        want = bit << qubit
        if _weight(post, mask, want ^ mask) > REWIND_TOL:
            continue
        norm_sq = _weight(stored, mask, want)
        if norm_sq <= EMPTY_PROB:
            continue
        overlap = abs(sum(
            amp.conjugate() * stored.get(key, 0.0)
            for key, amp in post.items() if key & mask == want
        ))
        if 1.0 - overlap / norm_sq ** 0.5 <= REWIND_TOL:
            return True
    return False


class PathSumKernel(Kernel):
    """The path-sum backend over :class:`AmplitudeMap` states."""

    name = "pathsum"

    def keep(self, state: AmplitudeMap) -> AmplitudeMap:
        return state  # no operation changes its input

    def init(self, n: int) -> AmplitudeMap:
        return AmplitudeMap(n, {0: 1.0 + 0.0j})

    def apply(self, state: AmplitudeMap, op: GateOp) -> AmplitudeMap:
        mask, table = _moves(op)
        out = AmplitudeMap(state.n)
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

    def prob(self, state: AmplitudeMap, qubit: int, bit: int) -> float:
        return outcome_weight(_weight(state, 1 << qubit, bit << qubit))

    def collapse(self, state: AmplitudeMap, qubit: int, bit: int, prob: float) -> AmplitudeMap:
        mask, want, scale = 1 << qubit, bit << qubit, prob ** -0.5
        return AmplitudeMap(
            state.n, ((key, amp * scale) for key, amp in state.items() if key & mask == want)
        )

    def is_collapse(self, stored: AmplitudeMap, state: AmplitudeMap) -> bool:
        full = (1 << state.n) - 1
        ones = [reduce(and_, amps, full) for amps in (stored, state)]  # 1 on every key
        vary = full & (reduce(or_, stored, 0) ^ ones[0] | reduce(or_, state, 0) ^ ones[1])
        same = full & ~(vary | ones[0] ^ ones[1])  # one bit on every key of both maps
        tries = vary | same & -same  # the varying qubits and the lowest same one
        while tries:
            low = tries & -tries
            if _collapse_matches(stored, state, low.bit_length() - 1):
                return True
            tries ^= low
        return False


KERNEL = PathSumKernel()


def acceptance_probability(circuit: Circuit, outcomes: dict[str, float] | None = None) -> float:
    """Exact P(accept = 1) = sum_z q_z * P(accept = 1 | z).

    The result lies in [0, 1] up to accumulation error of 1e-12; a result
    outside that range raises RuntimeError, as a fault of the kernel.  A dict
    passed as ``outcomes`` receives the q_z per outcome key, as
    :func:`rwsim.circuit.outcome_distribution` returns them, from the same
    enumeration.  A circuit without ``accept`` is refused before it runs.
    """
    accept = circuit.accept
    if accept is None:
        raise CircuitValidationError("circuit declares no accept qubit")
    total = 0.0
    for key, q_z, state in enumerate_branches(circuit, KERNEL):
        if q_z > 0.0:
            if outcomes is not None:
                outcomes[key] = q_z
            total += q_z * KERNEL.prob(state, accept, 1)
    if not -1e-12 <= total <= 1.0 + 1e-12:
        raise RuntimeError(f"acceptance probability {total!r} outside [0, 1]")
    return total
