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
* ``KERNEL``'s states keep qubits in a basis state out of the dense array.
  A state is the amplitudes of the qubits not fixed (the core) plus the
  ``(qubit, bit)`` pairs of the fixed ones.  ``init`` fixes every qubit to
  0, so a run starts from a 0-qubit core.  A collapse slices the core to
  half its size instead of copying the full vector and zeroing half of
  it, and fixes the measured qubit; a fixed qubit reads its stored bit.
  A monomial gate with fixed targets stays off the core when its output
  bits on those targets are the same whatever its core targets read: it
  sets their new bits, and the core gets the gate restricted to the core
  targets, which is nothing, a scalar phase (every target fixed) or
  ``_apply_monomial``.  A ``swap`` of a fixed qubit with a core qubit
  relabels: the fixed bit moves to the core qubit, and the core axis moves
  to the other qubit's place (one transpose, or none when no core qubit
  lies between them), so the core keeps its width.  Any other gate on a
  fixed qubit (``h``, ``hk`` or ``ch``) first moves its fixed targets back
  into the core, then runs on the core with its targets renumbered.  The
  kernel's ``is_collapse`` and :func:`rewind`
  make one test, :func:`_is_collapse_of`, which reads each state as its
  core and its fixed bits, so a certificate never builds the full width
  and its answers are those of the test on full vectors.  A state is also
  a read-only :class:`PureState` whose full ``amps`` are built at most
  once, when read, which is what ``RunResult.final_state`` and the branch
  leaves are; the kernel never reads them.  The protocol-level functions below
  (``measure``, ``postselect``, ``Reading``, ``RegisterReading``) stay on
  full vectors.
* ``rewind(stored, post_state)`` is the paper's strict rewinding operator:
  it maps the state before a measurement and the state after it back to the
  state before, and refuses inputs it cannot certify.  ``post_state`` must
  equal (up to global phase) ``stored`` projected onto some single-qubit
  outcome and renormalised.  It tries the qubits only ``post_state`` fixes,
  then one ``stored`` fixes, then those constant over post's support only,
  then the rest; a refusal checks every qubit.
  Under the interpreter, which owns strict rewind's refusal, the kernel
  answers only ``is_collapse``.
* :meth:`Reading.retry` is the protocols' rewind-and-retry step: measure
  one qubit until it reads a wanted bit, undoing each miss with a strict
  rewind.  A :class:`Reading` computes the outcome weights, the collapsed
  states and the rewind's certificate once, so each walk over a state that
  many walks measure adds only its draws.  A
  :class:`RegisterReading` does the same for a register of several qubits
  read at once: it computes the joint weights, their running sum and their
  total once, so a draw is one uniform located in the running sum, and it
  hands out each collapsed state with the register sliced off, so a walk
  continues on the remaining qubits alone.  ``measure`` and
  ``measure_register`` are one draw of a one-shot reading.
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

import itertools
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .circuit import (  # the shared error names are re-exported
    EMPTY_PROB,
    REWIND_TOL,
    GateOp,
    InputError,
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
    if not value:
        return _DEFAULT_MAX_QUBITS
    if not value.strip().isdecimal() or int(value) < 1:
        raise InputError(f"RWSIM_MAX_QUBITS must be a positive integer, got {value!r}")
    return int(value)


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


def measure(state: PureState, qubit: int, rng: SplitMix64) -> tuple[int, float, PureState]:
    """Z-measure one qubit: returns (bit, branch probability, collapsed
    state), one draw of a one-shot :class:`Reading`; the state is read-only."""
    reading = Reading(state, qubit)
    bit = reading.draw(rng)
    return bit, reading.prob(bit), reading.collapsed(bit)


def measure_register(
    state: PureState, qubits, rng: SplitMix64
) -> tuple[int, float, PureState]:
    """Measure several qubits at once: (value, joint probability, state).

    Equivalent in distribution to measuring the listed qubits one by one in
    order (the value reads them most-significant first), but samples the
    joint marginal in a single pass, which is much cheaper on wide states.
    One draw of a one-shot :class:`RegisterReading`; the state is read-only.
    """
    reading = RegisterReading(state, qubits)
    value = reading.draw(rng)
    return value, reading.prob(value), reading.collapsed(value)


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


def _parts(state: PureState) -> tuple[np.ndarray, dict[int, int], list[int] | range]:
    """``state`` as (core tensor, fixed bits, the core's qubits in order):
    a plain state is its own core with nothing fixed."""
    if isinstance(state, _KernelState):
        core, fixed = state.core, state.fixed
        axes = [q for q in range(state.n) if q not in fixed]
    else:
        core, fixed, axes = state, {}, range(state.n)
    return core.amps.reshape([2] * core.n), fixed, axes


def _weight(parts, qubit: int, bit: int) -> float:
    """Weight of a state given by :func:`_parts` where ``qubit`` reads ``bit``."""
    core, fixed, axes = parts
    if qubit in fixed:
        return float(fixed[qubit] == bit)
    view = core.reshape(1 << axes.index(qubit), 2, -1)[:, bit, :]
    return np.vdot(view, view).real


def _block(parts, bits: dict[int, int], qubits: list[int]) -> np.ndarray:
    """A view of the core tensor of ``parts`` where its ``qubits`` hold their ``bits``."""
    core, _, axes = parts
    key = [slice(None)] * core.ndim
    for q in qubits:
        key[axes.index(q)] = bits[q]
    return core[tuple(key)]


def _constant_first(free: list[int], p_block: np.ndarray, s_block: np.ndarray):
    """``free``, the blocks' qubits, those constant over the support of
    ``p_block`` but not over that of ``s_block`` first."""
    p_vary, s_vary = (int(np.bitwise_and.reduce(support)) ^ int(np.bitwise_or.reduce(support))
                      for support in map(np.flatnonzero, (p_block, s_block)))
    k, first = len(free), s_vary & ~p_vary
    yield from sorted(free, key=lambda q: not first >> (k - 1 - free.index(q)) & 1)


def _is_collapse_of(stored: PureState, post: PureState, tol: float) -> bool:
    """Is ``post`` = (projector onto some qubit outcome) stored, renormalised?

    The answer is that of the test on full vectors, for every qubit and
    outcome, that ``post`` weighs at most ``tol`` on the other outcome and
    1 - |<post| P |stored>| / ||P stored|| <= ``tol``.  But each state is
    read as its core and fixed bits: a qubit fixed to another bit in each
    refuses, and each core is read where the qubits that only the other
    fixes hold their bits, as a view that holds every term of an overlap.
    The candidates are the qubits only ``post`` fixes, one qubit ``stored``
    fixes (measuring it leaves ``stored`` as it is), then the rest in the
    order of :func:`_constant_first`.  A refusal checks every qubit.
    """
    s, p = _parts(stored), _parts(post)
    s_fixed, p_fixed = s[1], p[1]
    if any(p_fixed.get(q, b) != b for q, b in s_fixed.items()):
        return False
    only_post = [q for q in p_fixed if q not in s_fixed]
    only_stored = [q for q in s_fixed if q not in p_fixed]
    s_block, p_block = _block(s, p_fixed, only_post), _block(p, s_fixed, only_stored)
    fixed = only_post + next(([q] for q in s_fixed if q in p_fixed), only_stored)
    free, whole = [q for q in s[2] if q not in p_fixed], None
    for q in itertools.chain(fixed, _constant_first(free, p_block, s_block)):
        for b in (0, 1):
            if _weight(p, q, 1 - b) > tol or (norm_sq := _weight(s, q, b)) <= EMPTY_PROB:
                continue
            if q in free:
                key = (slice(None),) * free.index(q) + (b, Ellipsis)
                overlap = abs(np.vdot(p_block[key], s_block[key]))
            else:  # |<post|stored>|, the same for every fixed qubit
                whole = overlap = abs(np.vdot(p_block, s_block)) if whole is None else whole
            if 1.0 - overlap / math.sqrt(norm_sq) <= tol:
                return True
    return False


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

    ``p0`` and ``p1`` are the outcome weights, and :meth:`draw` reads a bit
    from them with :func:`draw_bit`; :func:`measure` is one draw of a
    one-shot reading.  The collapsed state of each outcome, with or without
    the measured qubit, and the strict rewind of a miss are computed at
    first use and kept, so a walk over readings draws from the RNG exactly
    as ``measure`` does and meets every float it computes.  The states it
    hands out are read-only: every walk shares them.
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
        """The state collapsed onto ``bit`` and renormalised."""
        if self._collapsed[bit] is None:
            total = self.p0 + self.p1
            state = _collapse(self.state, self.qubit, bit, self.prob(bit) * total)
            self._collapsed[bit] = _read_only(state)
        return self._collapsed[bit]

    def dropped(self, bit: int) -> PureState:
        """The collapsed state with the measured qubit sliced off."""
        if self._dropped[bit] is None:
            state = slice_qubit(self.collapsed(bit), self.qubit, bit)
            self._dropped[bit] = _read_only(state)
        return self._dropped[bit]

    def retry(self, want: int, tries: int, rng: SplitMix64) -> tuple[int, int]:
        """Measure until the qubit reads ``want``, at most ``tries`` times,
        one draw each as :meth:`draw` makes it: (draws, the last bit read).
        Every bit before the last reads ``1 - want``.

        Each miss but the last is undone by a strict rewind to ``state``.
        Every such rewind undoes the same collapse of the same state, so it
        is certified at the first miss of each outcome only; a refusal is
        not kept, and raises on every walk that reaches it.
        """
        if tries < 1:
            raise ValueError(f"a retry needs at least one try, got {tries}")
        draws = 0
        while True:
            bit = draw_bit(self.p0, self.p1, rng)
            draws += 1
            if bit == want or draws == tries:
                return draws, bit
            if not self._certified[bit]:
                rewind(self.state, self.collapsed(bit))
                self._certified[bit] = True


class RegisterReading:
    """A register of several qubits of one fixed state, for walks that
    measure it many times: the sibling of :class:`Reading`.

    ``probs`` are the register's joint weights, one per value (big-endian
    in ``qubits``); their running sum and their total are computed once,
    with them.  The collapsed state of each value with the register sliced
    off is computed at first use and kept; :meth:`collapsed` puts those
    amplitudes back in place at full width, as :func:`measure_register`
    returns them.  The states it hands out are read-only: every walk shares
    them.
    """

    __slots__ = ("state", "qubits", "probs", "_running", "_total", "_rows", "_inverse",
                 "_dropped")

    def __init__(self, state: PureState, qubits):
        n = state.n
        self.state = state
        self.qubits, order, self._inverse = _layout(n, qubits)
        # one row of amplitudes per register value, and the rows' joint weights
        self._rows = state.amps.reshape([2] * n).transpose(order).reshape(1 << len(self.qubits), -1)
        self.probs = np.sum(np.abs(self._rows) ** 2, axis=1)
        self._running = np.cumsum(self.probs)
        self._total = float(self.probs.sum())
        self._dropped: dict[int, PureState] = {}

    def draw(self, rng: SplitMix64) -> int:
        """The value a measurement reads: one uniform draw, scaled by the
        total weight, located in the running sum to the right of equal
        entries, and clamped to the last value."""
        value = int(np.searchsorted(self._running, rng.uniform() * self._total, side="right"))
        return min(value, self.probs.size - 1)

    def prob(self, value: int) -> float:
        """Probability of reading ``value``, as ``measure_register`` returns it."""
        return float(self.probs[value]) / self._total

    def collapsed(self, value: int) -> PureState:
        """The state collapsed onto ``value``, at full width."""
        n = self.state.n
        rows = np.zeros_like(self._rows)
        rows[value] = self.dropped(value).amps
        return _read_only(PureState(n, rows.reshape([2] * n).transpose(self._inverse).reshape(-1)))

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
    ``fixed`` maps each qubit known to be in a basis state to its bit, and
    ``core`` is the state of the other qubits, in qubit order.  A qubit is
    fixed from ``init`` until a gate that branches on it moves it into the
    core, and again once a measurement or postselection reads it; monomial
    gates change fixed bits in place, and a ``swap`` with a core qubit moves
    the fixed bit to that qubit.

    It is a read-only :class:`PureState` on ``n`` qubits.  Its full vector
    ``amps`` is built on first read and kept, for the caller of a run; the
    kernel never reads it.  No operation changes a core or a ``fixed`` map,
    so states share them.
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


def _pick(index: int, k: int, places) -> int:
    """The bits of the k-bit ``index`` at ``places`` (0 is the most
    significant), read as one number, big-endian in ``places``."""
    value = 0
    for j in places:
        value = value << 1 | index >> (k - 1 - j) & 1
    return value


def _on_fixed(state: _KernelState, rows, targets: tuple[int, ...], bits) -> _KernelState | None:
    """``state`` after a monomial gate with ``rows`` (``Gate.monomial``) on
    ``targets``, of which those whose entry of ``bits`` is not None are
    fixed to that bit, run without moving them into the core; None if the
    gate's output bits on the fixed targets depend on its core targets.

    The rows whose source reads the fixed bits are the gate on the core
    targets alone.  They set the fixed targets' new bits and give the core
    nothing to do, a scalar phase (every target fixed), or the restricted
    gate by :func:`_apply_monomial`.
    """
    k = len(targets)
    held = [j for j, bit in enumerate(bits) if bit is not None]
    free = [j for j, bit in enumerate(bits) if bit is None]
    mask = sum(1 << (k - 1 - j) for j in held)
    now = sum(bits[j] << (k - 1 - j) for j in held)
    core_rows: list = [None] * (1 << len(free))
    outputs = set()
    for row, (source, coeff) in enumerate(rows):
        if source & mask == now:
            outputs.add(row & mask)
            core_rows[_pick(row, k, free)] = (_pick(source, k, free), coeff)
    if len(outputs) > 1:
        return None
    (after,) = outputs
    fixed = state.fixed
    if after != now:
        fixed = {**fixed, **{targets[j]: after >> (k - 1 - j) & 1 for j in held}}
    core = state.core
    if any(source != row or coeff != 1 for row, (source, coeff) in enumerate(core_rows)):
        positions = tuple(state.position(targets[j]) for j in free)
        core = _apply_monomial(core, tuple(core_rows), positions)
    return _KernelState(state.n, core, fixed)


def _swap_fixed(state: _KernelState, a: int, b: int) -> _KernelState:
    """``state`` after a ``swap`` of ``a`` and ``b``, one fixed and one in
    the core, as a relabelling: the fixed bit moves to the core qubit, and
    the core axis moves to the other qubit's place in qubit order, which is
    one transpose, or none when no core qubit lies between them."""
    fixed_q, core_q = (a, b) if a in state.fixed else (b, a)
    fixed = {q: bit for q, bit in state.fixed.items() if q != fixed_q}
    fixed[core_q] = state.fixed[fixed_q]
    core = state.core
    source = state.position(core_q)
    dest = fixed_q - sum(q < fixed_q for q in fixed)
    if source != dest:
        tensor = np.moveaxis(core.amps.reshape([2] * core.n), source, dest)
        core = PureState(core.n, tensor.reshape(-1))
    return _KernelState(state.n, core, fixed)


class _StateVectorKernel(Kernel):
    name = "sv"

    def check_width(self, n: int) -> None:
        check_width(n, "circuit")

    def keep(self, state: _KernelState) -> _KernelState:
        return state  # no operation changes its input

    def init(self, n: int) -> _KernelState:
        core = PureState(0, np.ones(1, dtype=complex))
        return _KernelState(n, core, dict.fromkeys(range(n), 0))

    def apply(self, state: _KernelState, op: GateOp) -> _KernelState:
        targets, rows = op.targets, op.gate.monomial
        bits = tuple(map(state.fixed.get, targets))
        touched = [q for q, bit in zip(targets, bits) if bit is not None]
        if touched and rows is not None:
            moved = _on_fixed(state, rows, targets, bits)
            if moved is not None:
                return moved
            if op.gate.name == "swap":  # one target fixed, the other in the core
                return _swap_fixed(state, *targets)
        if touched:
            state = _unfix(state, touched)
        positions = tuple(map(state.position, targets))
        return _KernelState(state.n, apply_gate(state.core, op.gate, positions), state.fixed)

    def prob(self, state: _KernelState, qubit: int, bit: int) -> float:
        return outcome_weight(state.weight(qubit, bit))

    def collapse(self, state: _KernelState, qubit: int, bit: int, prob: float) -> _KernelState:
        if qubit in state.fixed:
            return state
        half = _qubit_slices(state.core, state.position(qubit))[:, bit, :] / math.sqrt(prob)
        core = PureState(state.core.n - 1, half.reshape(-1))
        return _KernelState(state.n, core, {**state.fixed, qubit: bit})

    def is_collapse(self, stored: _KernelState, state: _KernelState) -> bool:
        return _is_collapse_of(stored, state, REWIND_TOL)


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
    """Drop a qubit that is in the definite state |bit> (post-measurement).

    Raise ValueError if it is not: the weight of |bit> is under 1 - 1e-6.
    """
    view = _qubit_slices(state, qubit)[:, bit, :]
    amps = view.reshape(-1).copy()
    norm = np.linalg.norm(amps)
    if not norm > 1.0 - 1e-6:
        raise ValueError(f"qubit {qubit} is not in the definite state |{bit}> "
                         f"(weight {norm * norm:.6g})")
    return PureState(state.n - 1, amps / norm)
