"""Measurement-based computation on brickwork graph states, with retries.

A brickwork state on an n x m grid (m = 5 mod 8) prepares every vertex in
|+> and applies CZ along:

* horizontal edges (i, j)-(i, j+1) in every row;
* vertical edges (i, j)-(i+1, j) and (i, j+2)-(i+1, j+2) for odd i at
  columns j = 3 mod 8, and for even i at columns j = 7 mod 8.

Measured set M = all columns but the last; output set O = the last column.
A pattern entry (qubit, theta) measures the qubit in the rotated X basis:
apply rz(-theta), then h, then a Z measurement.  On brickwork states each
such measurement is a fair coin, so a per-qubit retry budget b (rewind to
the pre-measurement snapshot and re-measure, at most b + 1 tries of
:func:`pattern_circuit` under the circuit interpreter) drives the all-zeros
outcome probability to (1 - 2^-(b+1)) per qubit.  A qubit that exhausts its
budget keeps outcome 1 and the run continues with all_zero = False.

``iqp_fanout_amplify`` is the related fan-out gadget: each round entangles a
|+> ancilla onto a distinguished control qubit with CH and retries its
measurement to 0 (:meth:`rwsim.statevector.Reading.retry`), doubling the
control qubit's 1-vs-0 probability odds per round (2^q overall).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import Circuit, GateOp, InputError, Measure, Rewind, Snapshot
from .gates import CH, CZ, H, Gate, rz
from .rng import SplitMix64
from .statevector import (
    PureState,
    QubitBudgetError,
    Reading,
    apply_gate,
    attach_zero,
    init,
    max_qubits,
    prob_of_bit,
)

_DEFAULT_GRID_MAX = 14

# failed readings a fan-out round, or a pattern qubit, retries at most; from
# 53 on, 1 - 2^-(b+1) is 1.0 in double precision
_RETRY_BUDGET = 64


@dataclass(frozen=True)
class BrickworkSpec:
    """Grid geometry; rows and columns are 1-indexed."""

    n_rows: int
    m_cols: int

    def __post_init__(self):
        if self.n_rows < 1:
            raise InputError("need at least one row")
        if self.m_cols % 8 != 5:
            raise InputError("column count must be 5 mod 8")

    def qubit_index(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n_rows and 1 <= j <= self.m_cols):
            raise InputError(f"vertex ({i}, {j}) outside the {self.n_rows}x{self.m_cols} grid")
        return (i - 1) * self.m_cols + (j - 1)

    def edges(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        out = []
        for i in range(1, self.n_rows + 1):
            for j in range(1, self.m_cols):
                out.append(((i, j), (i, j + 1)))
        for i in range(1, self.n_rows):
            anchor = 3 if i % 2 == 1 else 7
            for j in range(1, self.m_cols + 1):
                if j % 8 != anchor:
                    continue
                out.append(((i, j), (i + 1, j)))
                if j + 2 <= self.m_cols:
                    out.append(((i, j + 2), (i + 1, j + 2)))
        return out

    def measured_qubits(self) -> list[int]:
        """Column-major flat indices of M (every column but the last)."""
        return [
            self.qubit_index(i, j)
            for j in range(1, self.m_cols)
            for i in range(1, self.n_rows + 1)
        ]

    def output_qubits(self) -> list[int]:
        return [self.qubit_index(i, self.m_cols) for i in range(1, self.n_rows + 1)]


@dataclass(frozen=True)
class MeasurementPattern:
    """Flat (qubit, angle) entries, applied in list order."""

    entries: tuple[tuple[int, float], ...]

    @cached_property
    def rotations(self) -> dict[float, Gate]:
        """``rz(-theta)`` for each distinct nonzero angle, built once per
        pattern, so each gate's slice structure (``Gate.monomial``) is
        computed once and not once per measured qubit."""
        return {theta: rz(-theta) for _, theta in self.entries if theta}

    @classmethod
    def from_grid(
        cls, spec: BrickworkSpec, angles: list[tuple[int, int, float]]
    ) -> "MeasurementPattern":
        """Map (row, col, theta) triples to flat qubits, column-major order."""
        ordered = sorted(angles, key=lambda e: (e[1], e[0]))
        return cls(tuple((spec.qubit_index(i, j), theta) for i, j, theta in ordered))

    @classmethod
    def identity(cls, spec: BrickworkSpec) -> "MeasurementPattern":
        return cls(tuple((q, 0.0) for q in spec.measured_qubits()))


def grid_qubits(spec: BrickworkSpec) -> int:
    """The grid's qubit count; :class:`QubitBudgetError` if it is over the cap."""
    total = spec.n_rows * spec.m_cols
    cap = min(_DEFAULT_GRID_MAX, max_qubits())
    if total > cap:
        raise QubitBudgetError(
            f"{spec.n_rows}x{spec.m_cols} grid needs {total} qubits, cap is {cap}"
        )
    return total


def pattern_circuit(spec: BrickworkSpec, pattern: MeasurementPattern, budget: int) -> Circuit:
    """The brickwork state (``h`` on every qubit, ``cz`` along the edges),
    then per entry (q, theta) ``rz(-theta)`` (if theta is nonzero), ``h``,
    ``snapshot s<q>``, ``measure q -> m<q>.0`` and ``budget`` retry steps as
    in ``circuits/rewind_retry.qc``: step k rewinds to ``s<q>`` and measures
    into ``m<q>.k`` if every earlier try of q read 1.  On
    ``statevector.KERNEL`` the core of a run's final state is the output:
    that kernel keeps a qubit out of the core while it is in a basis
    state, and here every qubit gets an ``h``, so the qubits it leaves out
    at the end are exactly the measured ones.  Retry k carries k guard
    clauses, so a budget over 64 is refused with :class:`InputError`."""
    if budget > _RETRY_BUDGET:
        raise InputError(f"retry budget {budget} is over the cap of {_RETRY_BUDGET}")
    total = grid_qubits(spec)
    qubits = [q for q, _ in pattern.entries]
    if len(set(qubits)) != len(qubits):
        raise ValueError("pattern measures a qubit twice")
    if any(not (0 <= q < total) for q in qubits):
        raise ValueError("pattern qubit outside the grid")
    if len(qubits) >= total:
        raise ValueError("pattern must leave at least one output qubit")
    ops: list = [GateOp(H, (q,)) for q in range(total)]
    ops += [GateOp(CZ, (spec.qubit_index(*a), spec.qubit_index(*b))) for a, b in spec.edges()]
    for q, theta in pattern.entries:
        if theta:
            ops.append(GateOp(pattern.rotations[theta], (q,)))
        ops += [GateOp(H, (q,)), Snapshot(f"s{q}"), Measure(q, f"m{q}.0")]
        for k in range(1, budget + 1):
            missed = tuple((f"m{q}.{j}", 1) for j in range(k))
            ops += [Rewind(f"s{q}", missed), Measure(q, f"m{q}.{k}", missed)]
    return Circuit(total, tuple(ops))


def reads_all_zero(record) -> bool:
    """Did the last try of every qubit of a :func:`pattern_circuit` run read 0?"""
    last = {label.partition(".")[0]: bit for label, (bit, _) in record.items()}
    return not any(last.values())


def postselect_pattern_zero(state: PureState, qubits) -> tuple[float, PureState]:
    """One-shot oracle: project all listed qubits onto 0 simultaneously.

    Implemented by direct index masking (not via the measurement ops), so it
    is an independent route to the all-zeros branch.  Returns the branch
    probability and the renormalised state on the remaining qubits.
    """
    qubits = sorted(qubits)
    n = state.n
    tensor = state.amps.reshape([2] * n)
    index = tuple(0 if q in set(qubits) else slice(None) for q in range(n))
    block = np.ascontiguousarray(tensor[index]).reshape(-1)
    prob = float(np.sum(np.abs(block) ** 2))
    if prob <= 0.0:
        raise ValueError("all-zeros branch has probability zero")
    return prob, PureState(n - len(qubits), block / np.sqrt(prob))


def pattern_oracle(spec: BrickworkSpec, pattern: MeasurementPattern) -> PureState:
    """The output state of the all-zero branch: the gates of
    :func:`pattern_circuit` on full vectors, then :func:`postselect_pattern_zero`."""
    state = init(grid_qubits(spec))
    for op in pattern_circuit(spec, pattern, 0):
        if isinstance(op, GateOp):
            state = apply_gate(state, op.gate, op.targets)
    return postselect_pattern_zero(state, [q for q, _ in pattern.entries])[1]


def target_odds(state: PureState, qubit: int) -> float:
    """P(qubit = 1) / P(qubit = 0), both summed directly from amplitudes."""
    return prob_of_bit(state, qubit, 1) / prob_of_bit(state, qubit, 0)


def iqp_fanout_amplify(
    base_state: PureState, q: int, rng: SplitMix64, control_qubit: int = 1
) -> PureState:
    """q CH-ancilla rounds, each retried to ancilla outcome 0.

    Per round the control qubit's probability odds P(1)/P(0) double (the
    control-0 branch is damped by 1/2), so the returned state satisfies
    odds_out = 2^q * odds_in up to float error.  Ancillas are measured off,
    so the width returns to the input's.
    """
    if not (0 <= control_qubit < base_state.n):
        raise ValueError("control qubit outside the state")
    state = base_state
    for _ in range(q):
        ancilla = state.n
        work = attach_zero(state)
        work = apply_gate(work, H, (ancilla,))
        work = apply_gate(work, CH, (control_qubit, ancilla))
        reading = Reading(work, ancilla)
        _, bit = reading.retry(0, _RETRY_BUDGET + 1, rng)
        if bit:
            raise RuntimeError("fan-out retry budget exhausted")
        state = reading.dropped(0)
    return state
