"""Stabilizer tableau backend for the Clifford subset {h, s, cz, x}.

The tableau of Aaronson and Gottesman (quant-ph/0406196) has 2n rows: rows
0..n-1 are destabilizers, rows n..2n-1 stabilizers.  Row i is the Pauli
(-1)^{r_i} prod_j i^{x_{ij} z_{ij}} X^{x_{ij}} Z^{z_{ij}}, with X and Z bits
packed into uint64 words, so a gate is a handful of column updates on every
row.  Destabilizer i anticommutes with stabilizer i and commutes with the
other stabilizers; |0...0> starts with destabilizers X_i and stabilizers Z_i.

Measurement of qubit a looks at the stabilizer half only:

* some stabilizer has an X bit at a: the outcome is a fair coin.  The
  lowest-index such stabilizer is the pivot; it is multiplied into every other
  row with an X bit at a, except its own destabilizer, which takes the old
  pivot row.  The pivot becomes (-1)^outcome Z_a.
* none has: the outcome is determined.  Z_a is the product of the stabilizers
  whose destabilizer has an X bit at a, and that product's sign is the outcome.

Strict rewind checks that the post-state is the snapshot collapsed onto one
outcome of one qubit.  Measuring a deterministic qubit leaves the snapshot
unchanged, and measuring a random one makes its Z outcome deterministic, so
the candidates are exactly: the snapshot itself (if it has a deterministic
qubit), and each qubit random in the snapshot but deterministic after,
collapsed onto that outcome.  Two tableaux hold the same state when each
stabilizer of one commutes with the other's stabilizers and carries the sign
of its product of them (the destabilizers it anticommutes with select it).

``KERNEL`` runs these rules under the circuit interpreter in :mod:`rwsim.circuit`:
``stab_run`` samples a path, ``stab_outcome_distribution`` and
``stab_strong_probability`` enumerate the branches with exact dyadic
``Fraction`` weights; the interpreter's ``clone`` continues from the snapshot.
``stab_apply`` and ``stab_measure`` work in place, so the kernel keeps a
snapshot, a clone and a sampler's shared prefix as copies (``Kernel.keep``).
A circuit with a postselection or a non-Clifford gate is refused
before it runs.
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
    X: np.ndarray  # (2n, words) uint64: destabilizers, then stabilizers
    Z: np.ndarray  # (2n, words) uint64
    r: np.ndarray  # (2n,) uint8 sign bits

    def copy(self) -> "StabilizerTableau":
        return StabilizerTableau(self.n, self.X.copy(), self.Z.copy(), self.r.copy())


def stab_init(n: int) -> StabilizerTableau:
    """Tableau of |0...0>: destabilizers X_0 ... X_{n-1}, stabilizers Z_0 ... Z_{n-1}."""
    if n < 1:
        raise ValueError("need at least one qubit")
    words = (n + 63) // 64
    X = np.zeros((2 * n, words), dtype=np.uint64)
    Z = np.zeros((2 * n, words), dtype=np.uint64)
    for i in range(n):
        X[i, i // 64] = Z[n + i, i // 64] = np.uint64(1) << np.uint64(i % 64)
    return StabilizerTableau(n, X, Z, np.zeros(2 * n, dtype=np.uint8))


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


def _phase_sum(x1, z1, x2, z2) -> np.ndarray:
    """Per row, the i-exponent of (row 1) * (row 2), summed over qubits.

    Rows broadcast against each other; the sum runs over the last (word) axis.
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
    count = lambda v: np.bitwise_count(v).sum(axis=-1, dtype=np.int64)
    return count(plus) - count(minus)


def _rowmul(tab: StabilizerTableau, rows: np.ndarray, p: int) -> None:
    """row_q := row_p * row_q for every q in ``rows`` (each commutes with row p)."""
    e = (2 * tab.r[rows] + 2 * int(tab.r[p])
         + _phase_sum(tab.X[p], tab.Z[p], tab.X[rows], tab.Z[rows])) % 4
    assert not (e & 1).any(), "product of anticommuting rows"
    tab.r[rows] = e >> 1
    tab.X[rows] ^= tab.X[p]
    tab.Z[rows] ^= tab.Z[p]


def _product_sign(tab: StabilizerTableau, rows: np.ndarray) -> int:
    """Sign exponent of the product of ``rows`` (pairwise commuting), in order.

    Step j multiplies row j into the product of the rows before it, whose
    Pauli part is their XOR; the i-exponents of all steps add up mod 4.
    """
    X, Z = tab.X[rows], tab.Z[rows]
    before_x = np.bitwise_xor.accumulate(X, axis=0)[:-1]
    before_z = np.bitwise_xor.accumulate(Z, axis=0)[:-1]
    e = (2 * int(tab.r[rows].sum()) + int(_phase_sum(before_x, before_z, X[1:], Z[1:]).sum())) % 4
    assert e % 2 == 0, "product of anticommuting rows"
    return e // 2


def _deterministic_outcome(tab: StabilizerTableau, qubit: int) -> int:
    """Outcome of measuring ``qubit`` when no stabilizer anticommutes with Z_qubit."""
    return _product_sign(tab, tab.n + np.nonzero(_col(tab.X[: tab.n], qubit))[0])


def stab_measure(
    tab: StabilizerTableau, qubit: int, rng: SplitMix64 | None, force: int | None = None
) -> tuple[int, float, StabilizerTableau]:
    """Z-measure in place: (bit, probability in {1/2, 1}, same tableau).

    ``force`` overrides the coin for random outcomes (used by the exact
    enumerators); deterministic outcomes ignore it.
    """
    n = tab.n
    anticommuting = np.nonzero(_col(tab.X[n:], qubit))[0]
    if anticommuting.size == 0:
        return _deterministic_outcome(tab, qubit), 1.0, tab
    pivot = n + int(anticommuting[0])  # lowest-index stabilizer, by convention
    rows = np.nonzero(_col(tab.X, qubit))[0]
    _rowmul(tab, rows[(rows != pivot) & (rows != pivot - n)], pivot)
    if force is not None:
        outcome = force
    else:
        outcome = 1 if rng.uniform() < 0.5 else 0
    for arr in (tab.X, tab.Z, tab.r):  # the pivot's destabilizer takes the old pivot row
        arr[pivot - n] = arr[pivot]
        arr[pivot] = 0
    tab.Z[pivot, qubit // 64] = np.uint64(1) << np.uint64(qubit % 64)
    tab.r[pivot] = outcome
    return outcome, 0.5, tab


def _same_state(a: StabilizerTableau, b: StabilizerTableau) -> bool:
    """Do two tableaux of one width stabilize the same state (signs included)?"""
    n = a.n
    # a stabilizer row that b shares with a is in a's group; check the others
    shared = (a.X[n:] == b.X[n:]).all(axis=1) & (a.Z[n:] == b.Z[n:]).all(axis=1)
    rows = n + np.nonzero(~shared | (a.r[n:] != b.r[n:]))[0]
    anti = np.zeros((rows.size, 2 * n), dtype=np.uint8)  # [j, i]: row j anticommutes with a's i
    for w in range(a.X.shape[1]):  # a word at a time keeps memory at rows x 2n
        anti ^= np.bitwise_count(
            (b.X[rows, None, w] & a.Z[None, :, w]) ^ (b.Z[rows, None, w] & a.X[None, :, w])
        )
    anti &= 1
    if anti[:, n:].any():
        return False  # a stabilizer of b is outside a's group
    # it is the product of a's stabilizers whose destabilizer it anticommutes
    # with, and must carry that product's sign
    return all(
        _product_sign(a, n + np.nonzero(bits[:n])[0]) == b.r[row] for bits, row in zip(anti, rows)
    )


def _random_qubits(tab: StabilizerTableau) -> np.ndarray:
    """Bool per qubit: does some stabilizer have an X bit there (a random Z outcome)?"""
    words = np.bitwise_or.reduce(tab.X[tab.n :], axis=0).astype("<u8")
    return np.unpackbits(words.view(np.uint8), bitorder="little")[: tab.n].astype(bool)


def _is_collapse_of(stored: StabilizerTableau, post: StabilizerTableau) -> bool:
    """Is ``post`` the snapshot collapsed onto one outcome of one qubit?"""
    if stored.n != post.n:
        return False
    random_stored = _random_qubits(stored)
    if not random_stored.all() and _same_state(stored, post):
        return True  # a deterministic qubit was measured
    for qubit in np.nonzero(random_stored & ~_random_qubits(post))[0]:
        bit = _deterministic_outcome(post, int(qubit))
        if _same_state(stab_measure(stored.copy(), int(qubit), None, force=bit)[2], post):
            return True
    return False


def stab_snapshot(tab: StabilizerTableau, registry: SnapshotRegistry, label: str) -> None:
    registry.store(label, tab.copy())


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
        if _col(tab.X[tab.n :], qubit).any():
            return Fraction(1, 2)
        return Fraction(int(_deterministic_outcome(tab, qubit) == bit))

    def collapse(self, tab: StabilizerTableau, qubit: int, bit: int, prob: Fraction):
        if prob == 1:
            return tab
        return stab_measure(tab.copy(), qubit, None, force=bit)[2]

    def rewind(self, tab: StabilizerTableau, registry: SnapshotRegistry, label: str, mode: str):
        return stab_rewind(tab, registry, label, mode)


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
