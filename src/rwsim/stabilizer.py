"""Stabilizer tableau backend for the Clifford subset {h, s, cz, x}.

The tableau of Aaronson and Gottesman (quant-ph/0406196) has 2n rows: rows
0..n-1 are destabilizers, rows n..2n-1 stabilizers.  Row i is the Pauli
(-1)^{r_i} prod_j i^{x_{ij} z_{ij}} X^{x_{ij}} Z^{z_{ij}}.  The tableau is
stored transposed, as in Stim (Gidney 2021): qubit j's column is one Python
int ``X[j]`` and one ``Z[j]`` whose bit i is row i's bit at j, and the signs
are one int ``r``.  A gate touches only its own qubits' columns, so it is a
few integer operations whatever the width.  Destabilizer i anticommutes with
stabilizer i and commutes with the other stabilizers; |0...0> starts with
destabilizers X_i and stabilizers Z_i.

Measurement of qubit a looks at the stabilizer half only:

* some stabilizer has an X bit at a: the outcome is a fair coin.  The
  lowest-index such stabilizer is the pivot; it is multiplied into every other
  row with an X bit at a, except its own destabilizer, which takes the old
  pivot row.  The pivot becomes (-1)^outcome Z_a.  The row products run as
  one pass over the columns, with each row's i-exponent counted mod 4 in two
  ints over the rows.
* none has: the outcome is determined.  Z_a is the product of the stabilizers
  whose destabilizer has an X bit at a, and that product's sign is the outcome.

The kernel's ``is_collapse``, which strict rewind asks, checks that the
post-state is the snapshot collapsed onto one outcome of one qubit.
Measuring a deterministic qubit leaves the snapshot unchanged, and
measuring a random one makes its Z outcome deterministic, so
the candidates are exactly: the snapshot itself (if it has a deterministic
qubit and the same random qubits), and each qubit random in the snapshot but
deterministic after, collapsed onto that outcome.  Two tableaux with equal
stabilizer rows and signs hold the same state; otherwise they hold the same
state when each stabilizer of one commutes with the other's stabilizers and
carries the sign of its product of them (the destabilizers it anticommutes
with select it), a check run on the same int columns.

``KERNEL`` runs these rules under the circuit interpreter in :mod:`rwsim.circuit`:
``sampler(circuit, KERNEL)`` samples paths, and the exact oracles
``outcome_distribution`` and ``strong_probability`` enumerate the branches
with exact dyadic ``Fraction`` weights, at most ``max_depth`` = 20 random
measurements deep.  The interpreter runs a postselection as the kernel's
``prob``, exactly 0, 1/2 or 1, then its ``collapse``; it refuses a strict
rewind that ``is_collapse`` does not certify, and its rewinds and ``clone``
continue from the snapshot.  ``stab_apply`` and ``stab_measure`` work in
place, so the kernel keeps a snapshot, a clone and a sampler's shared prefix
as copies (``Kernel.keep``), and it measures with ``stab_measure`` itself,
which reads no draw for a determined outcome.  A circuit with a non-Clifford
gate is refused before it runs.

A full tableau on n qubits holds 2n columns of 2n bits, n^2 / 2 bytes, so
:func:`check_width` refuses more than ``MAX_QUBITS`` = 2^14 qubits (a 128 MiB
tableau) with :class:`QubitBudgetError`, quoting the size asked for.  The
kernel runs it when a sampler or enumeration is built, and :func:`stab_init`
runs it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .circuit import (  # the shared error names are re-exported
    DepthLimitError,
    GateOp,
    GateSetError,
    Kernel,
    QubitBudgetError,
    RewindConsistencyError,
    UnknownSnapshotError,
)
from .gates import CLIFFORD_NAMES, Gate
from .rng import SplitMix64

MAX_QUBITS = 1 << 14


@dataclass
class StabilizerTableau:
    n: int
    X: list[int]  # per qubit, its X bit of every row: destabilizers 0..n-1, stabilizers n..2n-1
    Z: list[int]  # per qubit, its Z bit of every row
    r: int  # sign bit of every row

    def copy(self) -> "StabilizerTableau":
        return StabilizerTableau(self.n, self.X[:], self.Z[:], self.r)


def check_width(n: int) -> None:
    """Raise :class:`QubitBudgetError` if a tableau on ``n`` qubits is over the cap."""
    if n > MAX_QUBITS:
        raise QubitBudgetError(
            f"{n} qubits need a tableau of up to {math.ceil(n * n / 2**21)} MiB, "
            f"cap is {MAX_QUBITS} qubits ({MAX_QUBITS**2 >> 21} MiB)"
        )


def stab_init(n: int) -> StabilizerTableau:
    """Tableau of |0...0>: destabilizers X_0 ... X_{n-1}, stabilizers Z_0 ... Z_{n-1}."""
    if n < 1:
        raise ValueError("need at least one qubit")
    check_width(n)
    return StabilizerTableau(n, [1 << j for j in range(n)], [1 << (n + j) for j in range(n)], 0)


def stab_apply(tab: StabilizerTableau, g: Gate, targets: tuple[int, ...]) -> StabilizerTableau:
    """Apply a Clifford gate in place (returns the same tableau)."""
    X, Z, name = tab.X, tab.Z, g.name
    if name == "cz":
        a, b = targets
        xa, xb, za, zb = X[a], X[b], Z[a], Z[b]
        tab.r ^= xa & xb & (za ^ zb)
        Z[a] = za ^ xb
        Z[b] = zb ^ xa
    elif name == "h":
        (a,) = targets
        tab.r ^= X[a] & Z[a]
        X[a], Z[a] = Z[a], X[a]
    elif name == "s":
        (a,) = targets
        tab.r ^= X[a] & Z[a]
        Z[a] ^= X[a]
    elif name == "x":
        (a,) = targets
        tab.r ^= Z[a]
    else:
        raise GateSetError(
            f"gate {g.name!r} is outside the stabilizer set {{h, s, cz, x}}"
        )
    return tab


def _product_sign(tab: StabilizerTableau, chosen: int) -> int:
    """Sign bit of the product, in row order, of the stabilizers in ``chosen``
    (bit i selects stabilizer n + i), which must commute with each other.

    In one qubit's column, the product of the chosen rows' factors
    i^{xz} X^x Z^z in row order is i^e times the factor of the XOR of their
    bits, where e = #(x = z = 1) + 2 #(rows i < l with z_i = x_l = 1) -
    (parity of x)(parity of z); the i-exponents of all columns and twice the
    chosen signs add up mod 4.
    """
    n = tab.n
    width = chosen.bit_length()
    e = 2 * (tab.r >> n & chosen).bit_count()
    for x, z in zip(tab.X, tab.Z):
        x = x >> n & chosen
        z = z >> n & chosen
        if x and z:
            below = z  # bit l: parity of z's bits 0..l
            shift = 1
            while shift < width:
                below ^= below << shift
                shift <<= 1
            e += (x & z).bit_count() + 2 * (x & below << 1).bit_count()
            e -= x.bit_count() & z.bit_count() & 1
    assert e % 2 == 0, "product of anticommuting rows"
    return e >> 1 & 1


def _deterministic_outcome(tab: StabilizerTableau, qubit: int) -> int:
    """Outcome of measuring ``qubit`` when no stabilizer anticommutes with
    Z_qubit: the sign of the product of the stabilizers whose destabilizer
    has an X bit at ``qubit``."""
    return _product_sign(tab, tab.X[qubit] & ((1 << tab.n) - 1))


def stab_measure(
    tab: StabilizerTableau, qubit: int, rng: SplitMix64 | None, force: int | None = None
) -> tuple[int, float, StabilizerTableau]:
    """Z-measure in place: (bit, probability in {1/2, 1}, same tableau).

    ``force`` overrides the coin for random outcomes (used by the exact
    enumerators); deterministic outcomes ignore it.
    """
    n, X, Z = tab.n, tab.X, tab.Z
    anticommuting = X[qubit] >> n
    if not anticommuting:
        return _deterministic_outcome(tab, qubit), 1.0, tab
    dest = (anticommuting & -anticommuting).bit_length() - 1  # lowest-index stabilizer
    pivot = n + dest
    moved = 1 << pivot | 1 << dest
    keep = ~moved
    rows = X[qubit] & keep  # each takes row_pivot * row_q
    lo = hi = 0  # per row, the i-exponent of its product so far, mod 4
    for j in range(n):
        x, z = X[j], Z[j]
        if not (x | z) & moved:
            continue  # neither the pivot nor its destabilizer acts on qubit j
        px, pz = x >> pivot & 1, z >> pivot & 1
        if px or pz:  # the pivot's factor here is X, Y or Z; the row's factor follows
            if not pz:
                plus, minus = x & z, z & ~x
            elif px:
                plus, minus = z & ~x, x & ~z
            else:
                plus, minus = x & ~z, x & z
            carry = lo & plus
            lo ^= plus
            hi ^= carry
            borrow = minus & ~lo
            lo ^= minus
            hi ^= borrow
            if px:
                x ^= rows
            if pz:
                z ^= rows
        # the pivot's destabilizer takes the old pivot row, the pivot is cleared
        X[j] = x & keep | px << dest
        Z[j] = z & keep | pz << dest
    assert not lo & rows, "product of anticommuting rows"
    r = tab.r
    rp = r >> pivot & 1
    r ^= hi & rows
    if rp:
        r ^= rows
    if force is not None:
        outcome = force
    else:
        outcome = 1 if rng.uniform() < 0.5 else 0
    Z[qubit] |= 1 << pivot
    tab.r = r & keep | rp << dest | outcome << pivot
    return outcome, 0.5, tab


def _stabilizers(tab: StabilizerTableau) -> tuple[list[int], list[int], int]:
    n = tab.n
    return [x >> n for x in tab.X], [z >> n for z in tab.Z], tab.r >> n


def _same_state(a: StabilizerTableau, b: StabilizerTableau) -> bool:
    """Do two tableaux of one width stabilize the same state (signs included)?"""
    (aX, aZ, ar), (bX, bZ, br) = _stabilizers(a), _stabilizers(b)
    if (aX, aZ, ar) == (bX, bZ, br):
        return True  # the same generators with the same signs
    # a stabilizer row that b shares with a is in a's group; check the others
    differ = ar ^ br
    for xa, za, xb, zb in zip(aX, aZ, bX, bZ):
        differ |= xa ^ xb | za ^ zb
    n, low = a.n, (1 << a.n) - 1
    while differ:
        i = (differ & -differ).bit_length() - 1
        differ &= differ - 1
        anti = 0  # bit k: b's stabilizer i anticommutes with a's row k
        for xb, zb, xa, za in zip(bX, bZ, a.X, a.Z):
            if xb >> i & 1:
                anti ^= za
            if zb >> i & 1:
                anti ^= xa
        if anti >> n:
            return False  # it is outside a's group
        # it is the product of a's stabilizers whose destabilizer it
        # anticommutes with, and must carry that product's sign
        if _product_sign(a, anti & low) != br >> i & 1:
            return False
    return True


def _random_qubits(tab: StabilizerTableau) -> list[bool]:
    """Per qubit: does some stabilizer have an X bit there (a random Z outcome)?"""
    n = tab.n
    return [x >> n != 0 for x in tab.X]


def _is_collapse_of(stored: StabilizerTableau, post: StabilizerTableau) -> bool:
    """Is ``post`` the snapshot collapsed onto one outcome of one qubit
    (possibly trivially, for a deterministic outcome)?"""
    if stored.n != post.n:
        return False
    random_stored, random_post = _random_qubits(stored), _random_qubits(post)
    if random_stored == random_post:  # equal states have equal random qubits
        # a deterministic qubit was measured
        return not all(random_stored) and _same_state(stored, post)
    for qubit, (before, after) in enumerate(zip(random_stored, random_post)):
        if not before or after:
            continue
        bit = _deterministic_outcome(post, qubit)
        if _same_state(stab_measure(stored.copy(), qubit, None, force=bit)[2], post):
            return True
    return False


class _TableauKernel(Kernel):
    name = "stab"
    gates = CLIFFORD_NAMES
    one = Fraction(1)
    max_depth = 20

    def check_width(self, n: int) -> None:
        check_width(n)

    def init(self, n: int) -> StabilizerTableau:
        return stab_init(n)

    def apply(self, tab: StabilizerTableau, op: GateOp) -> StabilizerTableau:
        return stab_apply(tab, op.gate, op.targets)

    def measure(self, tab: StabilizerTableau, qubit: int, rng: SplitMix64):
        return stab_measure(tab, qubit, rng)

    def prob(self, tab: StabilizerTableau, qubit: int, bit: int) -> Fraction:
        if tab.X[qubit] >> tab.n:
            return Fraction(1, 2)
        return Fraction(int(_deterministic_outcome(tab, qubit) == bit))

    def collapse(self, tab: StabilizerTableau, qubit: int, bit: int, prob: Fraction):
        if prob == 1:
            return tab
        return stab_measure(tab.copy(), qubit, None, force=bit)[2]

    def is_collapse(self, stored: StabilizerTableau, tab: StabilizerTableau) -> bool:
        return _is_collapse_of(stored, tab)


KERNEL = _TableauKernel()
