"""Dense statevector backend with snapshots, rewinding and cloning.

Conventions
-----------
* Qubit 0 is the MOST significant bit of the basis index: on 2 qubits the
  amplitude order is |00>, |01>, |10>, |11> with qubit 0 first.
* Gates take one of two paths, chosen by :attr:`rwsim.gates.Gate.monomial`.
  A gate whose every matrix row has one nonzero entry (``x``, ``s``, ``rz``,
  ``cz``, ``ccz``, ``swap``) copies the state once and writes each moved or
  rescaled slice into the copy (``_apply_monomial``); rows that keep their
  slice unscaled cost nothing.  Every other gate, and every raw matrix, goes
  through :func:`apply_matrix`: transpose the targets to the front, one
  matrix product, transpose back.  The structure is cached on the gate
  object rather than detected from the matrix on each call, because on the
  2-3-qubit states of the protocol demos that per-call test costs as much as
  the gate itself.  Both paths refuse targets that are out of range or
  repeated before touching the amplitudes.
* The module-level functions are functional — they return new states and
  never mutate their input — and so are the kernel's operations, whose
  states are read-only.  So a protocol keeps the state from before a
  measurement as it is, ``rewind`` returns that state itself, and the
  kernel's ``keep`` returns its input: under the interpreter a snapshot, a
  clone and the deterministic prefix that a sampler's trials share are held
  by reference.
* ``KERNEL``'s states keep measured qubits out of the dense array.  A state
  is the amplitudes of the qubits not yet fixed (the core) plus the
  ``(qubit, bit)`` pairs that measurements and postselections fixed, so a
  collapse slices the core to half its size instead of copying the full
  vector and zeroing half of it, and a fixed qubit reads its stored bit.  A
  gate runs on the core with its targets renumbered, after moving any fixed
  target back into the core.  The kernel's ``is_collapse`` certifies a
  state that fixes the snapshot's bits and one qubit more on the two cores,
  with the test that :func:`_collapse_matches` makes on that qubit; any
  other state, or one that test does not certify, gets the dense check, so
  the answers are those of :func:`rewind`.  A state is also a read-only
  :class:`PureState` whose full ``amps`` are built at most once, when read,
  which is what ``RunResult.final_state`` and the branch leaves are.  The
  protocol-level functions below (``measure``, ``postselect``, ``Reading``,
  ``RegisterReading``) stay on full vectors.
* ``rewind(stored, post_state)`` is the paper's strict rewinding operator:
  it maps the state before a measurement and the state after it back to the
  state before, and refuses inputs it cannot certify.  ``post_state`` must
  equal (up to global phase) ``stored`` projected onto some single-qubit
  outcome and renormalised.  The candidates checked first are the qubits
  fixed over the support of ``post_state`` but not over that of ``stored``;
  only if none matches are the other qubits checked, so the answer is that
  of checking every qubit.
  Under the interpreter, which owns strict rewind's refusal, the kernel
  answers only ``is_collapse``.
* :meth:`Reading.retry` is the protocols' rewind-and-retry step: measure
  one qubit until it reads a wanted bit, undoing each miss with a strict
  rewind.  A :class:`Reading` computes the outcome weights, the collapsed
  states and the rewind's certificate once, so each walk over a state that
  many walks measure adds only its draws.  A
  :class:`RegisterReading` does the same for a register of several qubits
  read at once: it computes the joint weights of ``measure_register`` once,
  draws with the same formula (:func:`draw_value`), and hands out each
  collapsed state with the register sliced off, so a walk continues on the
  remaining qubits alone.
* ``KERNEL`` is this backend under the circuit interpreter in
  :mod:`rwsim.circuit`, which measures and postselects with the kernel's
  ``prob`` and ``collapse`` and whose rewinds and ``clone`` continue from
  the stored snapshot: ``sampler(circuit, KERNEL)`` samples paths, and
  ``outcome_distribution`` and ``strong_probability`` are its exact oracles.

The default width cap is 24 qubits; the environment variable
``RWSIM_MAX_QUBITS`` overrides it.  :func:`check_width` applies it, and
``KERNEL`` runs it when a sampler or enumeration is built.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .circuit import (  # the shared error names are re-exported
    EMPTY_PROB,
    REWIND_TOL,
    GateOp,
    InvalidPostselectionError,
    Kernel,
    PostselectThresholdError,
    QubitBudgetError,
    RewindConsistencyError,
    UnknownSnapshotError,
    draw_bit,
    outcome_weight,
)
from .gates import Gate
from .rng import SplitMix64

_DEFAULT_MAX_QUBITS = 24


def max_qubits() -> int:
    value = os.environ.get("RWSIM_MAX_QUBITS")
    return int(value) if value else _DEFAULT_MAX_QUBITS


def check_width(n: int, what: str) -> None:
    """Refuse a dense ``what`` on ``n`` qubits over the cap with :class:`QubitBudgetError`."""
    cap = max_qubits()
    if n > cap:
        raise QubitBudgetError(f"{what} needs {n} qubits, cap is {cap}")


@dataclass
class PureState:
    """Normalised pure state on ``n`` qubits."""

    n: int
    amps: np.ndarray

    def copy(self) -> "PureState":
        return PureState(self.n, self.amps.copy())


def init(n: int) -> PureState:
    """|0...0> on ``n`` qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    check_width(n, "state")
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return PureState(n, amps)


def from_amplitudes(amps: np.ndarray | list) -> PureState:
    """Wrap and normalise an explicit amplitude vector."""
    arr = np.asarray(amps, dtype=complex)
    if arr.size < 2:
        raise ValueError("need at least one qubit")
    n = int(arr.size).bit_length() - 1
    if 1 << n != arr.size:
        raise ValueError("amplitude vector length must be a power of two")
    norm = np.linalg.norm(arr)
    if norm < 1e-12:
        raise ValueError("cannot normalise a zero vector")
    return PureState(n, arr / norm)


def _bad_targets(n: int, targets) -> ValueError:
    return ValueError(f"targets {tuple(targets)} must be distinct qubits in 0..{n - 1}")


def _layout(n: int, targets) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``targets`` as a tuple of ints, the axis order that moves them to the
    front of an n-axis tensor, and its inverse.

    Raise ValueError unless ``targets`` are distinct qubits of an n-qubit
    state; a target that is not an integer (``operator.index``) is refused.
    """
    try:
        key = tuple(map(operator.index, targets))
    except TypeError:
        raise _bad_targets(n, targets) from None
    if len(set(key)) != len(key) or not all(0 <= q < n for q in key):
        raise _bad_targets(n, targets)
    order = key + tuple(q for q in range(n) if q not in key)
    return key, order, tuple(order.index(q) for q in range(n))


def apply_matrix(state: PureState, mat: np.ndarray, targets: tuple[int, ...]) -> PureState:
    """Apply a dense (2^k x 2^k) matrix to the listed target qubits.

    The matrix basis is big-endian in ``targets`` (first target = most
    significant bit), matching :meth:`rwsim.gates.Gate.unitary`.
    """
    n, k = state.n, len(targets)
    _, order, inverse = _layout(n, targets)
    if mat.shape != (1 << k, 1 << k):
        raise ValueError("matrix shape does not match target count")
    tensor = state.amps.reshape([2] * n).transpose(order).reshape(1 << k, -1)
    tensor = mat @ tensor
    return PureState(n, tensor.reshape([2] * n).transpose(inverse).reshape(-1))


def _target_slices(n: int, targets: tuple[int, ...]) -> tuple[tuple, ...]:
    """Entry i indexes the amplitudes whose targets read i, big-endian in
    ``targets``.  The trailing Ellipsis keeps it a view even when every
    qubit is a target (k == n), where plain integers would give a scalar."""
    k = len(targets)
    slices = []
    for index in range(1 << k):
        key: list = [slice(None)] * n
        for j, q in enumerate(targets):
            key[q] = index >> (k - 1 - j) & 1
        slices.append((*key, Ellipsis))
    return tuple(slices)


def _apply_monomial(
    state: PureState, rows: tuple[tuple[int, complex], ...], targets: tuple[int, ...]
) -> PureState:
    """Apply a gate whose every row has one nonzero entry (``Gate.monomial``).

    Row r with ``(source, coefficient)`` writes coefficient times the slice
    where the targets read ``source`` into the slice where they read r; a
    row that keeps its own slice unscaled is skipped.
    """
    n = state.n
    slices = _target_slices(n, targets)
    src = state.amps.reshape([2] * n)
    out = src.copy()
    for row, (source, coeff) in enumerate(rows):
        if source == row and coeff == 1:
            continue
        np.multiply(src[slices[source]], coeff, out=out[slices[row]])
    return PureState(n, out.reshape(-1))


def apply_gate(state: PureState, g: Gate, targets: tuple[int, ...]) -> PureState:
    """Apply ``g`` to ``targets``: by slices if it is monomial, else by matrix."""
    if len(targets) != g.arity:
        raise ValueError(f"gate {g.name} expects {g.arity} targets")
    rows = g.monomial
    if rows is None:
        return apply_matrix(state, g.unitary(), targets)
    key, _, _ = _layout(state.n, targets)
    return _apply_monomial(state, rows, key)


def _qubit_slices(state: PureState, qubit: int):
    """View of the amplitudes as (prefix, qubit, suffix) axes."""
    if not (0 <= qubit < state.n):
        raise ValueError(f"qubit {qubit} out of range")
    return state.amps.reshape(1 << qubit, 2, -1)


def prob_of_bit(state: PureState, qubit: int, bit: int) -> float:
    """Probability of reading ``bit`` on ``qubit`` (no collapse).

    Summed directly over the matching amplitudes, so tiny probabilities keep
    full relative precision (never computed as 1 - p).
    """
    view = _qubit_slices(state, qubit)[:, bit, :]
    return float(np.add.reduce(np.abs(view) ** 2, axis=None))


def _collapse(state: PureState, qubit: int, bit: int, prob: float) -> PureState:
    tensor = _qubit_slices(state, qubit).copy()
    tensor[:, 1 - bit, :] = 0.0
    tensor /= math.sqrt(prob)
    return PureState(state.n, tensor.reshape(-1))


def _outcome(
    state: PureState, qubit: int, bit: int, p0: float, p1: float
) -> tuple[float, PureState]:
    """(branch probability, collapsed state) of reading ``bit``."""
    total = p0 + p1
    prob = (p1 if bit else p0) / total
    return prob, _collapse(state, qubit, bit, prob * total)


def measure(state: PureState, qubit: int, rng: SplitMix64) -> tuple[int, float, PureState]:
    """Z-measure one qubit: returns (bit, branch probability, collapsed state)."""
    p0 = prob_of_bit(state, qubit, 0)
    p1 = prob_of_bit(state, qubit, 1)
    bit = draw_bit(p0, p1, rng)
    return (bit, *_outcome(state, qubit, bit, p0, p1))


def _register_weights(
    state: PureState, qubits
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, tuple[int, ...]]:
    """The register as a tuple, the amplitudes with one row per register
    value (big-endian in ``qubits``), the rows' joint weights, and the axis
    order that moves the register back into place."""
    n = state.n
    qubits, order, inverse = _layout(n, qubits)
    tensor = state.amps.reshape([2] * n).transpose(order).reshape(1 << len(qubits), -1)
    return qubits, tensor, np.sum(np.abs(tensor) ** 2, axis=1), inverse


def draw_value(probs: np.ndarray, rng: SplitMix64) -> int:
    """The value a register measurement with joint weights ``probs`` reads:
    one uniform draw, scaled by the total weight, located in the running sum."""
    u = rng.uniform() * float(probs.sum())
    value = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return min(value, probs.size - 1)


def measure_register(
    state: PureState, qubits, rng: SplitMix64
) -> tuple[int, float, PureState]:
    """Measure several qubits at once: (value, joint probability, state).

    Equivalent in distribution to measuring the listed qubits one by one in
    order (the value reads them most-significant first), but samples the
    joint marginal in a single pass, which is much cheaper on wide states.
    """
    n = state.n
    _, tensor, probs, inverse = _register_weights(state, qubits)
    value = draw_value(probs, rng)
    prob = float(probs[value]) / float(probs.sum())
    collapsed = np.zeros_like(tensor)
    collapsed[value] = tensor[value] / math.sqrt(float(probs[value]))
    amps = collapsed.reshape([2] * n).transpose(inverse).reshape(-1)
    return value, prob, PureState(n, amps)


def postselect(
    state: PureState, qubit: int, bit: int, min_prob: float = 0.0
) -> tuple[float, PureState]:
    """Collapse onto ``qubit == bit`` and renormalise; returns (prob, state)."""
    p = prob_of_bit(state, qubit, bit)
    if p <= EMPTY_PROB:
        raise InvalidPostselectionError(
            f"outcome {bit} on qubit {qubit} has probability {p:.3e}"
        )
    if p < min_prob:
        raise PostselectThresholdError(
            f"postselection probability {p:.6g} below required {min_prob:.6g}"
        )
    return p, _collapse(state, qubit, bit, p)


def fidelity(a: PureState, b: PureState) -> float:
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def _slice_matches(stored_slice: np.ndarray, post_slice: np.ndarray, tol: float) -> bool:
    """Is ``post_slice`` the nonempty ``stored_slice`` renormalised, up to
    global phase: |<post| P |stored>| = ||P stored||?"""
    norm_sq = float(np.sum(np.abs(stored_slice) ** 2))
    if norm_sq <= EMPTY_PROB:
        return False
    overlap = abs(np.vdot(post_slice, stored_slice))
    return 1.0 - overlap / math.sqrt(norm_sq) <= tol


def _collapse_matches(stored: PureState, post: PureState, qubit: int, tol: float) -> bool:
    """Is ``post`` = (projector onto one outcome of ``qubit``) stored, renormalised?

    Works on per-qubit slice views, so no check allocates a full vector.
    A match requires the complementary slice of ``post`` to be empty and
    its projected slice to match that of ``stored`` (:func:`_slice_matches`).
    """
    stored_view = _qubit_slices(stored, qubit)
    post_view = _qubit_slices(post, qubit)
    return any(
        float(np.sum(np.abs(post_view[:, 1 - bit, :]) ** 2)) <= tol
        and _slice_matches(stored_view[:, bit, :], post_view[:, bit, :], tol)
        for bit in (0, 1)
    )


def _constant_bits(state: PureState) -> int:
    """Basis-index bits that take one value over the state's support."""
    support = np.flatnonzero(state.amps != 0)
    varying = int(np.bitwise_and.reduce(support)) ^ int(np.bitwise_or.reduce(support))
    return ~varying & ((1 << state.n) - 1)


def _is_collapse_of(stored: PureState, post: PureState, tol: float) -> bool:
    """Is ``post`` = (projector onto some qubit outcome) stored, renormalised?

    A measurement leaves its qubit fixed over the support of ``post``, and
    a qubit already fixed in ``stored`` collapses onto ``stored`` itself.
    So the qubits fixed over the support of ``post`` but not over that of
    ``stored`` are checked first, with :func:`_collapse_matches`.  Only if
    none of them matches are the remaining qubits checked as well, so the
    answer is that of checking every qubit: the candidates only order the
    scan.  A refusal checks every qubit.
    """
    n = stored.n
    candidates = _constant_bits(post) & ~_constant_bits(stored)
    order = sorted(range(n), key=lambda q: not candidates >> (n - 1 - q) & 1)
    return any(_collapse_matches(stored, post, q, tol) for q in order)


def rewind(stored: PureState, post_state: PureState) -> PureState:
    """Undo a single-qubit measurement: return ``stored``, the state before it.

    The input is certified first: ``post_state`` must be ``stored``
    collapsed onto one outcome of one qubit (up to global phase), which is
    exactly the domain on which measurement-undoing is well defined.
    """
    if post_state.n != stored.n:
        raise RewindConsistencyError("qubit count differs from the stored state")
    if not _is_collapse_of(stored, post_state, REWIND_TOL):
        raise RewindConsistencyError("state is not a one-outcome collapse of the stored state")
    return stored  # never mutated, so it is shared, not copied


class Reading:
    """One qubit of one fixed state, for walks that measure it many times.

    ``p0`` and ``p1`` are the outcome weights :func:`measure` computes, and
    :meth:`draw` reads a bit from them with the draw ``measure`` makes.  The
    collapsed state of each outcome, with or without the measured qubit, and
    the strict rewind of a miss are computed at first use and kept, so a walk
    over readings draws from the RNG exactly as ``measure`` does and meets
    every float it computes.  The states it hands out are read-only: every
    walk shares them.
    """

    __slots__ = ("state", "qubit", "p0", "p1", "_collapsed", "_dropped", "_certified")

    def __init__(self, state: PureState, qubit: int):
        self.state, self.qubit = state, qubit
        self.p0 = prob_of_bit(state, qubit, 0)
        self.p1 = prob_of_bit(state, qubit, 1)
        self._collapsed: list[PureState | None] = [None, None]
        self._dropped: list[PureState | None] = [None, None]
        self._certified = [False, False]

    def draw(self, rng: SplitMix64) -> int:
        return draw_bit(self.p0, self.p1, rng)

    def prob(self, bit: int) -> float:
        """Probability of reading ``bit``, as ``measure`` returns it."""
        return (self.p1 if bit else self.p0) / (self.p0 + self.p1)

    def collapsed(self, bit: int) -> PureState:
        if self._collapsed[bit] is None:
            _, state = _outcome(self.state, self.qubit, bit, self.p0, self.p1)
            self._collapsed[bit] = _read_only(state)
        return self._collapsed[bit]

    def dropped(self, bit: int) -> PureState:
        """The collapsed state with the measured qubit sliced off."""
        if self._dropped[bit] is None:
            state = slice_qubit(self.collapsed(bit), self.qubit, bit)
            self._dropped[bit] = _read_only(state)
        return self._dropped[bit]

    def retry(self, want: int, tries: int, rng: SplitMix64) -> list[int]:
        """Measure until the qubit reads ``want``, at most ``tries`` times:
        the bits read, in order, one draw each as :meth:`draw` makes it.

        Each miss but the last is undone by a strict rewind to ``state``.
        Every such rewind undoes the same collapse of the same state, so it
        is certified at the first miss of each outcome only; a refusal is
        not kept, and raises on every walk that reaches it.
        """
        if tries < 1:
            raise ValueError(f"a retry needs at least one try, got {tries}")
        bits: list[int] = []
        while True:
            bit = draw_bit(self.p0, self.p1, rng)
            bits.append(bit)
            if bit == want or len(bits) == tries:
                return bits
            if not self._certified[bit]:
                rewind(self.state, self.collapsed(bit))
                self._certified[bit] = True


class RegisterReading:
    """A register of several qubits of one fixed state, for walks that
    measure it many times: the sibling of :class:`Reading`.

    ``probs`` are the joint weights :func:`measure_register` computes, and
    :meth:`draw` reads a value from them with the draw ``measure_register``
    makes.  The collapsed state of each value with the register sliced off
    is computed at first use and kept; its amplitudes are those
    ``measure_register`` leaves outside the register, bit for bit.  The
    states it hands out are read-only: every walk shares them.
    """

    __slots__ = ("state", "qubits", "probs", "_rows", "_dropped")

    def __init__(self, state: PureState, qubits):
        self.state = state
        self.qubits, self._rows, self.probs, _ = _register_weights(state, qubits)
        self._dropped: dict[int, PureState] = {}

    def draw(self, rng: SplitMix64) -> int:
        return draw_value(self.probs, rng)

    def dropped(self, value: int) -> PureState:
        """The state collapsed onto ``value``, without the register's qubits."""
        state = self._dropped.get(value)
        if state is None:
            amps = self._rows[value] / math.sqrt(float(self.probs[value]))
            state = _read_only(PureState(self.state.n - len(self.qubits), amps))
            self._dropped[value] = state
        return state


def _read_only(state: PureState) -> PureState:
    state.amps.flags.writeable = False
    return state


class _KernelState(PureState):
    """A state of the interpreter's dense kernel, split in two parts:
    ``fixed`` maps each qubit that a measurement or postselection fixed to
    its bit, and ``core`` is the state of the other qubits, in qubit order.

    It is a read-only :class:`PureState` on ``n`` qubits.  Its full vector
    ``amps`` is built on first read and kept; the kernel reads it only for
    a collapse it cannot certify on the cores.  No operation changes
    a core or a ``fixed`` map, so states share them.
    """

    def __init__(self, n: int, core: PureState, fixed: dict[int, int]):
        self.n, self.core, self.fixed = n, _read_only(core), fixed
        self._amps: np.ndarray | None = None

    @property
    def amps(self) -> np.ndarray:
        if self._amps is None:
            self._amps = _unfix(self, self.fixed).core.amps if self.fixed else self.core.amps
        return self._amps

    def position(self, qubit: int) -> int:
        """The index in the core of ``qubit``, which is not fixed."""
        return qubit - sum(q < qubit for q in self.fixed)

    def weight(self, qubit: int, bit: int) -> float:
        """Probability of reading ``bit`` on ``qubit``: 1 or 0 on a fixed
        qubit, else :func:`prob_of_bit` on the core."""
        if qubit in self.fixed:
            return float(self.fixed[qubit] == bit)
        return prob_of_bit(self.core, self.position(qubit), bit)


def _unfix(state: _KernelState, qubits) -> _KernelState:
    """``state`` with the fixed ``qubits`` moved back into its core."""
    fixed = {q: b for q, b in state.fixed.items() if q not in qubits}
    width = state.n - len(fixed)
    core = np.zeros([2] * width, dtype=complex)
    free = (q for q in range(state.n) if q not in fixed)
    key = tuple(state.fixed[q] if q in qubits else slice(None) for q in free)
    core[key] = state.core.amps.reshape([2] * state.core.n)
    return _KernelState(state.n, PureState(width, core.reshape(-1)), fixed)


def _certified_on_cores(stored: _KernelState, post: _KernelState, tol: float) -> bool:
    """Strict rewind's collapse test, read on the cores, for a ``post`` that
    fixes what ``stored`` fixes, to the same bits, and one qubit more.

    Such a ``post`` is empty off that qubit's bit and holds no amplitude
    where ``stored`` holds none, so :func:`_collapse_matches` on that qubit
    reduces to :func:`_slice_matches` of the stored core's slice against
    the post core.  False for any other ``post``: the caller then runs the
    dense check, so every answer is that of :func:`_is_collapse_of`.
    """
    if len(post.fixed) != len(stored.fixed) + 1 or any(
        post.fixed.get(q) != b for q, b in stored.fixed.items()
    ):
        return False
    (qubit,) = post.fixed.keys() - stored.fixed.keys()
    view = _qubit_slices(stored.core, stored.position(qubit))
    return _slice_matches(view[:, post.fixed[qubit], :], post.core.amps, tol)


class _StateVectorKernel(Kernel):
    name = "sv"

    def check_width(self, n: int) -> None:
        check_width(n, "circuit")

    def keep(self, state: _KernelState) -> _KernelState:
        return state  # no operation changes its input

    def init(self, n: int) -> _KernelState:
        return _KernelState(n, init(n), {})

    def apply(self, state: _KernelState, op: GateOp) -> _KernelState:
        touched = [q for q in op.targets if q in state.fixed]
        if touched:
            state = _unfix(state, touched)
        targets = tuple(map(state.position, op.targets))
        return _KernelState(state.n, apply_gate(state.core, op.gate, targets), state.fixed)

    def prob(self, state: _KernelState, qubit: int, bit: int) -> float:
        return outcome_weight(state.weight(qubit, bit))

    def collapse(self, state: _KernelState, qubit: int, bit: int, prob: float) -> _KernelState:
        if qubit in state.fixed:
            return state
        half = _qubit_slices(state.core, state.position(qubit))[:, bit, :] / math.sqrt(prob)
        core = PureState(state.core.n - 1, half.reshape(-1))
        return _KernelState(state.n, core, {**state.fixed, qubit: bit})

    def is_collapse(self, stored: _KernelState, state: _KernelState) -> bool:
        return (_certified_on_cores(stored, state, REWIND_TOL)
                or _is_collapse_of(stored, state, REWIND_TOL))


KERNEL = _StateVectorKernel()


# ---------------------------------------------------------------------------
# register helpers used by the protocol modules


def attach_zero(state: PureState) -> PureState:
    """Append a fresh |0> qubit as the new least significant qubit."""
    check_width(state.n + 1, "state")
    amps = np.zeros(2 * state.amps.size, dtype=complex)
    amps[0::2] = state.amps
    return PureState(state.n + 1, amps)


def slice_qubit(state: PureState, qubit: int, bit: int) -> PureState:
    """Drop a qubit that is in the definite state |bit> (post-measurement)."""
    view = _qubit_slices(state, qubit)[:, bit, :]
    amps = view.reshape(-1).copy()
    norm = np.linalg.norm(amps)
    assert norm > 1.0 - 1e-6, "sliced qubit was not in a definite state"
    return PureState(state.n - 1, amps / norm)
