"""Stabilizer tableau backend for the Clifford subset {h, s, cz, x}.

The tableau keeps ``n`` stabilizer rows (no destabilizers): row i is the
Pauli (-1)^{r_i} prod_j i^{x_{ij} z_{ij}} X^{x_{ij}} Z^{z_{ij}}.  X and Z bits
are packed into uint64 words, one row per array row, so gate updates are a
handful of word operations regardless of width.

Measurement of qubit a:

* some row anticommutes with Z_a (has an X bit at a): the outcome is a fair
  coin.  The lowest-index such row becomes the pivot, is multiplied into every
  other anticommuting row, and is replaced by (-1)^outcome Z_a.
* no row anticommutes: the outcome is determined.  Z_a is expressed over the
  rows by GF(2) elimination and the sign of the corresponding product gives
  the outcome (worst case O(n^3)).

``KERNEL`` runs these rules under the circuit interpreter in :mod:`rwsim.circuit`:
``stab_run`` samples a path, ``stab_outcome_distribution`` and
``stab_strong_probability`` enumerate the branches with exact dyadic
``Fraction`` weights.  ``clone`` restores the snapshot copy (a replay would
rebuild the same tableau).  A circuit with a postselection or a non-Clifford
gate is refused before it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuit import (  # the shared error and registry names are re-exported
    Circuit,
    DepthLimitError,
    GateOp,
    GateSetError,
    Kernel,
    RewindConsistencyError,
    RunResult,
    SnapshotRegistry,
    UnknownSnapshotError,
    UnsupportedInstructionError,
    enumerate_branches,
    sample_run,
)
from .gates import CLIFFORD_NAMES, Gate
from .rng import SplitMix64

TableauRegistry = SnapshotRegistry


@dataclass
class StabilizerTableau:
    n: int
    X: np.ndarray  # (n, words) uint64
    Z: np.ndarray  # (n, words) uint64
    r: np.ndarray  # (n,) uint8 sign bits

    def copy(self) -> "StabilizerTableau":
        return StabilizerTableau(self.n, self.X.copy(), self.Z.copy(), self.r.copy())


TableauSnapshot = StabilizerTableau  # a snapshot is simply an owned copy


def stab_init(n: int) -> StabilizerTableau:
    """Tableau of |0...0>: rows Z_0 ... Z_{n-1}."""
    if n < 1:
        raise ValueError("need at least one qubit")
    words = (n + 63) // 64
    X = np.zeros((n, words), dtype=np.uint64)
    Z = np.zeros((n, words), dtype=np.uint64)
    for i in range(n):
        Z[i, i // 64] = np.uint64(1) << np.uint64(i % 64)
    return StabilizerTableau(n, X, Z, np.zeros(n, dtype=np.uint8))


def _col(arr: np.ndarray, qubit: int) -> np.ndarray:
    """Extract qubit's bit from every row as a 0/1 uint64 vector."""
    w, sh = divmod(qubit, 64)
    return (arr[:, w] >> np.uint64(sh)) & np.uint64(1)


def _flip_col(arr: np.ndarray, qubit: int, mask: np.ndarray) -> None:
    """XOR the 0/1 vector ``mask`` into qubit's bit column."""
    w, sh = divmod(qubit, 64)
    arr[:, w] ^= mask << np.uint64(sh)


def stab_apply(tab: StabilizerTableau, g: Gate, targets: tuple[int, ...]) -> StabilizerTableau:
    """Apply a Clifford gate in place (returns the same tableau)."""
    if g.name not in CLIFFORD_NAMES:
        raise GateSetError(
            f"gate {g.name!r} is outside the stabilizer set {{h, s, cz, x}}"
        )
    if g.name == "h":
        (a,) = targets
        xa, za = _col(tab.X, a), _col(tab.Z, a)
        tab.r ^= (xa & za).astype(np.uint8)
        diff = xa ^ za
        _flip_col(tab.X, a, diff)
        _flip_col(tab.Z, a, diff)
    elif g.name == "s":
        (a,) = targets
        xa, za = _col(tab.X, a), _col(tab.Z, a)
        tab.r ^= (xa & za).astype(np.uint8)
        _flip_col(tab.Z, a, xa)
    elif g.name == "x":
        (a,) = targets
        tab.r ^= _col(tab.Z, a).astype(np.uint8)
    else:  # cz
        a, b = targets
        xa, za = _col(tab.X, a), _col(tab.Z, a)
        xb, zb = _col(tab.X, b), _col(tab.Z, b)
        tab.r ^= (xa & xb & (za ^ zb)).astype(np.uint8)
        _flip_col(tab.Z, a, xb)
        _flip_col(tab.Z, b, xa)
    return tab


def _phase_exponent(x1, z1, r1, x2, z2, r2) -> int:
    """Sign exponent of the product of two commuting packed Pauli rows.

    Returns e in {0, 1} with product sign (-1)^e; the intermediate
    i-exponent is tracked mod 4 and must come out even.
    """
    plus = (
        (x1 & z1 & z2 & ~x2)
        | (x1 & ~z1 & z2 & x2)
        | (~x1 & z1 & x2 & ~z2)
    )
    minus = (
        (x1 & z1 & x2 & ~z2)
        | (x1 & ~z1 & z2 & ~x2)
        | (~x1 & z1 & x2 & z2)
    )
    s = int(np.bitwise_count(plus).sum()) - int(np.bitwise_count(minus).sum())
    e = (2 * int(r1) + 2 * int(r2) + s) % 4
    assert e % 2 == 0, "product of anticommuting rows"
    return e // 2


def _rowmul(tab: StabilizerTableau, q: int, p: int) -> None:
    """row_q := row_p * row_q (rows commute, so order is immaterial)."""
    tab.r[q] = _phase_exponent(tab.X[p], tab.Z[p], tab.r[p], tab.X[q], tab.Z[q], tab.r[q])
    tab.X[q] ^= tab.X[p]
    tab.Z[q] ^= tab.Z[p]


def _row_as_int(tab: StabilizerTableau, i: int) -> int:
    words = tab.X.shape[1]
    x = int.from_bytes(tab.X[i].tobytes(), "little")
    z = int.from_bytes(tab.Z[i].tobytes(), "little")
    return x | (z << (64 * words))


def _reduce(basis: list[tuple[int, int]], v: int) -> tuple[int, int]:
    """``v`` reduced by an echelon basis, and the row combination that used."""
    combo = 0
    for bv, bc in basis:
        if v ^ bv < v:
            v ^= bv
            combo ^= bc
    return v, combo


def _row_basis(tab: StabilizerTableau) -> list[tuple[int, int]]:
    """GF(2) elimination over (row-vector, row-combination) pairs."""
    basis: list[tuple[int, int]] = []
    for i in range(tab.n):
        v, c = _reduce(basis, _row_as_int(tab, i))
        if v:
            basis.append((v, c ^ (1 << i)))
            basis.sort(key=lambda e: -e[0])
    return basis


def _product_sign(tab: StabilizerTableau, combo: int) -> int:
    """Sign exponent of the product of the rows that ``combo`` selects."""
    words = tab.X.shape[1]
    sx = np.zeros(words, dtype=np.uint64)
    sz = np.zeros(words, dtype=np.uint64)
    sr = 0
    for i in range(tab.n):
        if (combo >> i) & 1:
            sr = _phase_exponent(sx, sz, sr, tab.X[i], tab.Z[i], tab.r[i])
            sx ^= tab.X[i]
            sz ^= tab.Z[i]
    return sr


def _deterministic_outcome(tab: StabilizerTableau, qubit: int) -> int:
    """Outcome of measuring ``qubit`` when Z_qubit is in the row span."""
    v, combo = _reduce(_row_basis(tab), 1 << (64 * tab.X.shape[1] + qubit))
    if v:
        raise AssertionError("deterministic measurement without Z_a in the span")
    return _product_sign(tab, combo)  # the sign of Z_qubit's product is the outcome


def stab_measure(
    tab: StabilizerTableau, qubit: int, rng: SplitMix64 | None, force: int | None = None
) -> tuple[int, float, StabilizerTableau]:
    """Z-measure in place: (bit, probability in {1/2, 1}, same tableau).

    ``force`` overrides the coin for random outcomes (used by the exact
    enumerators); deterministic outcomes ignore it.
    """
    anticommuting = np.nonzero(_col(tab.X, qubit))[0]
    if anticommuting.size == 0:
        return _deterministic_outcome(tab, qubit), 1.0, tab
    pivot = int(anticommuting[0])  # lowest index, by convention
    for q in anticommuting[1:]:
        _rowmul(tab, int(q), pivot)
    if force is not None:
        outcome = force
    else:
        outcome = 1 if rng.uniform() < 0.5 else 0
    tab.X[pivot] = 0
    tab.Z[pivot] = 0
    tab.Z[pivot, qubit // 64] = np.uint64(1) << np.uint64(qubit % 64)
    tab.r[pivot] = outcome
    return outcome, 0.5, tab


def _same_state(a: StabilizerTableau, b: StabilizerTableau) -> bool:
    """Do two full-rank tableaux stabilize the same state (signs included)?"""
    if a.n != b.n:
        return False
    basis = _row_basis(a)
    for j in range(b.n):
        v, combo = _reduce(basis, _row_as_int(b, j))
        if v or _product_sign(a, combo) != int(b.r[j]):
            return False  # b's row is not in a's group, or has the other sign
    return True


def _is_collapse_of(stored: StabilizerTableau, post: StabilizerTableau) -> bool:
    """Is ``post`` the snapshot collapsed onto one outcome of one qubit?"""
    for qubit in range(stored.n):
        for bit in (0, 1):
            outcome, _, trial = stab_measure(stored.copy(), qubit, None, force=bit)
            if outcome == bit and _same_state(trial, post):
                return True
    return False


def stab_snapshot(tab: StabilizerTableau, registry: SnapshotRegistry, label: str) -> None:
    registry.store(label, tab)


def stab_rewind(
    post: StabilizerTableau, registry: SnapshotRegistry, label: str, mode: str = "strict"
) -> StabilizerTableau:
    """Undo one measurement: return a copy of the snapshot stored at ``label``.

    Strict mode verifies that ``post`` equals the snapshot collapsed onto one
    outcome of one qubit (possibly trivially, for deterministic outcomes).
    """
    if mode not in ("strict", "permissive"):
        raise ValueError(f"unknown rewind mode {mode!r}")
    stored = registry.state(label)
    if mode == "strict" and not _is_collapse_of(stored, post):
        raise RewindConsistencyError(
            f"tableau is not a one-outcome collapse of snapshot {label!r}"
        )
    return stored.copy()


class _TableauKernel(Kernel):
    name = "stab"
    gates = CLIFFORD_NAMES
    runs = frozenset({"snapshot", "rewind", "clone"})
    one = Fraction(1)

    def init(self, n: int) -> StabilizerTableau:
        return stab_init(n)

    def apply(self, tab: StabilizerTableau, op: GateOp) -> StabilizerTableau:
        return stab_apply(tab, op.gate, op.targets)

    def measure(self, tab: StabilizerTableau, qubit: int, rng: SplitMix64):
        return stab_measure(tab, qubit, rng)

    def prob(self, tab: StabilizerTableau, qubit: int, bit: int) -> Fraction:
        if _col(tab.X, qubit).any():
            return Fraction(1, 2)
        return Fraction(int(_deterministic_outcome(tab, qubit) == bit))

    def collapse(self, tab: StabilizerTableau, qubit: int, bit: int, prob: Fraction):
        if prob == 1:
            return tab
        return stab_measure(tab.copy(), qubit, None, force=bit)[2]

    def rewind(self, tab: StabilizerTableau, registry: SnapshotRegistry, label: str, mode: str):
        return stab_rewind(tab, registry, label, mode)

    def clone(self, registry: SnapshotRegistry, label: str) -> StabilizerTableau:
        return registry.state(label).copy()


KERNEL = _TableauKernel()


def stab_run(circuit: Circuit, rng: SplitMix64, mode: str = "strict") -> RunResult:
    """Sample one execution of a Clifford circuit on the tableau backend."""
    return sample_run(circuit, KERNEL, rng, mode)


def stab_strong_probability(
    circuit: Circuit,
    projector: dict[int, int] | list[tuple[int, int]],
    max_depth: int = 20,
) -> Fraction:
    """Exact probability of reading ``projector`` bits after the circuit.

    The result is sum_z q_z * P(projector | z) as an exact dyadic Fraction,
    where z ranges over the circuit's own measurement outcomes.
    """
    proj = sorted(projector.items()) if isinstance(projector, dict) else list(projector)
    total = Fraction(0)
    for _, weight, tab in enumerate_branches(circuit, KERNEL, max_depth):
        for qubit, bit in proj:
            p = KERNEL.prob(tab, qubit, bit)
            weight *= p
            if not p:
                break
            tab = KERNEL.collapse(tab, qubit, bit, p)
        total += weight
    return total


def stab_outcome_distribution(
    circuit: Circuit, max_depth: int = 20
) -> dict[str, Fraction]:
    """Exact q_z per outcome key (same key format as the other backends)."""
    return {key: weight for key, weight, _ in enumerate_branches(circuit, KERNEL, max_depth)}
