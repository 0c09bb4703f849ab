"""Circuit intermediate representation and the text format.

A circuit is a straight-line instruction list over ``n_qubits`` qubits: each
instruction executes at most once, in order.  ``rewind`` restores the quantum
state captured by an earlier ``snapshot`` — it never moves the program
counter, so retry patterns are written as explicit conditional chains.

Text format (one instruction per line, ``#`` starts a comment)::

    qubits 2
    gate h 0
    gate cz 0 1
    gate hk -2 1
    gate rz 0.75 0
    snapshot pre
    measure 0 -> m1
    rewind pre if m1 == 1
    measure 0 -> m2 if m1 == 1
    postselect 1 = 0
    clone pre
    accept 0

Any instruction except ``accept`` may carry an ``if`` suffix: a conjunction
of ``<label> == <bit>`` clauses joined by ``&&``, referring to earlier
measurement labels.  Spaces or tabs separate the tokens of a line, the
``if`` too.

The one interpreter of the IR lives here too.  It runs a circuit over a
backend :class:`Kernel` and owns all that is not quantum arithmetic:
conditionals, the record, snapshots (each branch maps a label to the state
it kept), ``rewind`` (the paper's strict rewind: refused unless the kernel
certifies the state as a one-outcome collapse of the snapshot, then
continued from the snapshot), ``clone`` (the same restore, unchecked),
``postselect`` (a kernel's ``prob`` then its ``collapse``),
``min_postselect_prob`` and the measurement draw (:func:`draw_bit`).  A
``rewind`` or ``clone`` of a label no snapshot on its branch stored raises
:class:`UnknownSnapshotError`, named by its file and line.
Every kernel runs every instruction.  Its one loop samples a path
(:func:`sampler`) or enumerates all branches (:func:`enumerate_branches`),
which the exact oracles :func:`outcome_distribution` and
:func:`strong_probability` read on any kernel, so samplers and exact
oracles accept and refuse the same circuits.  One rule,
:func:`outcome_weight`, says when an outcome is an empty branch on every
floating-point backend.

A sampler runs the circuit's deterministic prefix, every instruction before
the first one that reads the RNG or the record, once for all its trials.  A
state that outlives the instruction that made it (a snapshot, a clone, the
prefix every trial starts from) is held as :meth:`Kernel.keep` gives it: by
reference on a kernel whose operations are functional, as a copy on one that
works in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

from .gates import GATE_NAMES, Gate, gate as make_gate


class InputError(ValueError):
    """Bad input: a malformed or ill-formed circuit, a gate the chosen
    backend does not run, a width or size over its cap.  The
    command line reports every one with exit code 2."""


class CircuitSyntaxError(InputError):
    """Raised by the parser; carries the 1-based offending line number."""

    def __init__(self, lineno: int, message: str, name: str | None = None):
        super().__init__(_where(name, lineno) + message)
        self.lineno = lineno


class CircuitValidationError(InputError):
    """A structurally well-formed circuit that breaks a static rule."""


class RecordError(ValueError):
    """A measurement record is inconsistent with the circuit or itself."""


class GateSetError(InputError):
    """A gate outside the chosen backend's gate set."""


class RewindConsistencyError(ValueError):
    """Strict rewind input is not a one-outcome collapse of the snapshot."""


class UnknownSnapshotError(ValueError):
    """Rewind/clone of a label that no snapshot on this branch has stored."""


class InvalidPostselectionError(ValueError):
    """Postselected on an outcome of probability zero."""


class PostselectThresholdError(ValueError):
    """Postselection succeeded but below the required minimum probability."""


class DepthLimitError(RuntimeError):
    """Branch tree exceeded the random-measurement depth limit."""


class QubitBudgetError(InputError):
    """Requested width exceeds the configured qubit cap."""


@dataclass(frozen=True)
class GateOp:
    gate: Gate
    targets: tuple[int, ...]


@dataclass(frozen=True)
class Measure:
    qubit: int
    label: str


@dataclass(frozen=True)
class Postselect:
    qubit: int
    bit: int


@dataclass(frozen=True)
class Snapshot:
    label: str


@dataclass(frozen=True)
class Rewind:
    label: str


@dataclass(frozen=True)
class Clone:
    label: str


@dataclass(frozen=True)
class Accept:
    qubit: int


_Plain = Union[GateOp, Measure, Postselect, Snapshot, Rewind, Clone, Accept]


@dataclass(frozen=True)
class Conditional:
    """Wrapper executing ``inner`` only when every (label, bit) clause holds."""

    predicate: tuple[tuple[str, int], ...]
    inner: _Plain


Instruction = Union[_Plain, Conditional]


@dataclass(frozen=True)
class Circuit:
    """A circuit, checked by :func:`validate` when it is built.  ``lines``,
    set by :func:`parse_circuit`, holds the source line of the header and then
    of each instruction; it takes no part in equality."""

    n_qubits: int
    instructions: tuple[Instruction, ...]
    name: str | None = None
    lines: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        validate(self)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)


class MeasurementRecord:
    """Ordered (label, bit, branch-probability) triples with unique labels."""

    def __init__(self):
        self.entries: list[tuple[str, int, float]] = []
        self._bits: dict[str, int] = {}

    def add(self, label: str, bit: int, prob: float) -> None:
        if label in self._bits:
            raise RecordError(f"duplicate measurement label {label!r}")
        if bit not in (0, 1):
            raise RecordError(f"recorded bit for {label!r} must be 0 or 1")
        if not (0.0 < prob <= 1.0):
            raise RecordError(
                f"branch probability for {label!r} must lie in (0, 1], got {prob!r}"
            )
        self.entries.append((label, bit, prob))
        self._bits[label] = bit

    def bit(self, label: str) -> int:
        if label not in self._bits:
            raise RecordError(f"no recorded outcome for label {label!r}")
        return self._bits[label]

    def copy(self) -> "MeasurementRecord":
        out = MeasurementRecord()
        out.entries = list(self.entries)
        out._bits = dict(self._bits)
        return out


def predicate_holds(predicate: tuple[tuple[str, int], ...], record: MeasurementRecord) -> bool:
    return all(record.bit(label) == bit for label, bit in predicate)


# ---------------------------------------------------------------------------
# parsing


def _parse_predicate(text: str, syntax) -> tuple[tuple[str, int], ...]:
    clauses = []
    for clause in text.split("&&"):
        parts = clause.split()
        if len(parts) != 3 or parts[1] != "==" or parts[2] not in ("0", "1"):
            raise syntax(f"bad condition clause {clause.strip()!r}")
        clauses.append((parts[0], int(parts[2])))
    return tuple(clauses)


def _parse_int(text: str, syntax, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise syntax(f"{what} must be an integer, got {text!r}") from None


def _parse_targets(parts: list[str], syntax) -> tuple[int, ...]:
    return tuple(_parse_int(p, syntax, "qubit index") for p in parts)


def parse_circuit(text: str, name: str | None = None) -> Circuit:
    """Parse the text format into a validated :class:`Circuit` called ``name``.

    One pass splits each line into tokens once.  An unconditional gate line
    builds its :class:`GateOp` once per distinct source text, so a repeated
    line (an inverse body, ``s`` written three times) reuses one object that
    :func:`validate` checks once.  The keys are source text, not values, so
    ``rz -0.0`` and ``rz 0.0`` stay apart.  A conditional line is always
    built anew.  Every error starts with ``<name>: line N: ``, the name only
    if one is given.
    """
    n_qubits = None
    instructions: list[Instruction] = []
    lines: list[int] = []  # the header's source line, then each instruction's
    ops: dict[str, GateOp] = {}  # unconditional gate lines by source text

    def syntax(message: str) -> CircuitSyntaxError:  # about the line being read
        return CircuitSyntaxError(lineno, message, name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        op = ops.get(line)
        if op is not None:
            instructions.append(op)
            lines.append(lineno)
            continue
        parts = line.split()
        if n_qubits is None:
            if len(parts) != 2 or parts[0] != "qubits":
                raise syntax("expected 'qubits N' header")
            n_qubits = _parse_int(parts[1], syntax, "qubit count")
            lines.append(lineno)
            continue

        predicate = None
        if "if" in parts[1:-1]:  # an ``if`` with tokens on both sides
            at = parts.index("if", 1)
            predicate = _parse_predicate(" ".join(parts[at + 1 :]), syntax)
            parts = parts[:at]

        kind = parts[0]
        instr: _Plain
        if kind == "gate":
            if len(parts) < 3:
                raise syntax("gate needs a name and targets")
            gname = parts[1]
            try:
                if gname == "hk":
                    g = make_gate("hk", int(parts[2]))
                elif gname == "rz":
                    g = make_gate("rz", float(parts[2]))
                else:
                    g = make_gate(gname)
            except ValueError as exc:
                raise syntax(str(exc)) from None
            targets = _parse_targets(parts[2 if g.param is None else 3 :], syntax)
            if len(targets) != g.arity:
                raise syntax(f"gate {gname} expects {g.arity} target(s), got {len(targets)}")
            instr = GateOp(g, targets)
            if predicate is None:
                ops[line] = instr
        elif kind == "measure":
            if len(parts) != 4 or parts[2] != "->":
                raise syntax("expected 'measure <q> -> <label>'")
            instr = Measure(_parse_int(parts[1], syntax, "qubit index"), parts[3])
        elif kind == "postselect":
            if len(parts) != 4 or parts[2] != "=" or parts[3] not in ("0", "1"):
                raise syntax("expected 'postselect <q> = <0|1>'")
            instr = Postselect(_parse_int(parts[1], syntax, "qubit index"), int(parts[3]))
        elif kind == "snapshot":
            if len(parts) != 2:
                raise syntax("expected 'snapshot <label>'")
            instr = Snapshot(parts[1])
        elif kind == "rewind":
            if len(parts) != 2:
                raise syntax("expected 'rewind <label>'")
            instr = Rewind(parts[1])
        elif kind == "clone":
            if len(parts) != 2:
                raise syntax("expected 'clone <label>'")
            instr = Clone(parts[1])
        elif kind == "accept":
            if len(parts) != 2:
                raise syntax("expected 'accept <q>'")
            if predicate is not None:
                raise syntax("accept cannot be conditional")
            instr = Accept(_parse_int(parts[1], syntax, "qubit index"))
        else:
            raise syntax(f"unknown instruction {kind!r}")

        instructions.append(Conditional(predicate, instr) if predicate else instr)
        lines.append(lineno)

    if n_qubits is None:
        raise CircuitSyntaxError(1, "missing 'qubits N' header", name)
    return Circuit(n_qubits, tuple(instructions), name, tuple(lines))


def _format_gate(op: GateOp) -> str:
    targets = " ".join(str(t) for t in op.targets)
    if op.gate.param is not None:
        return f"gate {op.gate.name} {op.gate.param!r} {targets}"
    return f"gate {op.gate.name} {targets}"


def _format_plain(instr: _Plain) -> str:
    if isinstance(instr, GateOp):
        return _format_gate(instr)
    if isinstance(instr, Measure):
        return f"measure {instr.qubit} -> {instr.label}"
    if isinstance(instr, Postselect):
        return f"postselect {instr.qubit} = {instr.bit}"
    if isinstance(instr, Snapshot):
        return f"snapshot {instr.label}"
    if isinstance(instr, Rewind):
        return f"rewind {instr.label}"
    if isinstance(instr, Clone):
        return f"clone {instr.label}"
    if isinstance(instr, Accept):
        return f"accept {instr.qubit}"
    raise TypeError(f"not an instruction: {instr!r}")


def serialize_circuit(circuit: Circuit) -> str:
    """Inverse of :func:`parse_circuit` (modulo comments and blank lines)."""
    lines = [f"qubits {circuit.n_qubits}"]
    for instr in circuit.instructions:
        if isinstance(instr, Conditional):
            cond = " && ".join(f"{label} == {bit}" for label, bit in instr.predicate)
            lines.append(f"{_format_plain(instr.inner)} if {cond}")
        else:
            lines.append(_format_plain(instr))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# static validation


def _where(name: str | None, lineno: int | None) -> str:
    """``<name>: line N: ``, each part if known: how a source error starts."""
    return (f"{name}: " if name else "") + (f"line {lineno}: " if lineno is not None else "")


def _at(circuit: Circuit, pc: int) -> str:
    """:func:`_where` for instruction ``pc`` of ``circuit`` (the header at -1)."""
    return _where(circuit.name, None if circuit.lines is None else circuit.lines[pc + 1])


def validate(circuit: Circuit) -> None:
    """Static checks; raises :class:`CircuitValidationError` on the first failure.

    :class:`Circuit` runs it when it is built.  Every error starts with
    :func:`_where`'s prefix.  A :class:`GateOp` object that occurs more
    than once is checked once: it is frozen and ``n`` does not change, so a
    second check could not fail.
    """
    n = circuit.n_qubits

    def error(message: str, pc: int = -1) -> CircuitValidationError:
        return CircuitValidationError(_at(circuit, pc) + message)

    if n < 1:
        raise error("circuit needs at least one qubit")

    def check_qubit(q: int, pc: int) -> None:
        if not (0 <= q < n):
            raise error(f"qubit index {q} out of range for {n} qubits", pc)

    measure_labels: set[str] = set()
    snapshot_labels: set[str] = set()
    checked: set[int] = set()  # ids of the GateOp objects already checked
    accept_seen = False
    for pc, instr in enumerate(circuit.instructions):
        inner = instr.inner if isinstance(instr, Conditional) else instr
        if isinstance(instr, Conditional):
            if isinstance(inner, (Conditional, Accept)):
                raise error("conditional accept/nesting is not allowed", pc)
            for label, bit in instr.predicate:
                if label not in measure_labels:
                    raise error(f"condition references undefined measurement label {label!r}", pc)
                if bit not in (0, 1):
                    raise error("condition bits must be 0 or 1", pc)
        if isinstance(inner, GateOp):
            if id(inner) in checked:
                continue
            checked.add(id(inner))
            for q in inner.targets:
                check_qubit(q, pc)
            if len(set(inner.targets)) != len(inner.targets):
                raise error(f"gate {inner.gate.name} targets must be distinct: {inner.targets}", pc)
        elif isinstance(inner, Measure):
            check_qubit(inner.qubit, pc)
            if inner.label in measure_labels:
                raise error(f"duplicate measurement label {inner.label!r}", pc)
            measure_labels.add(inner.label)
        elif isinstance(inner, Postselect):
            check_qubit(inner.qubit, pc)
            if inner.bit not in (0, 1):
                raise error("postselect bit must be 0 or 1", pc)
        elif isinstance(inner, Snapshot):
            if inner.label in snapshot_labels:
                raise error(f"duplicate snapshot label {inner.label!r}", pc)
            snapshot_labels.add(inner.label)
        elif isinstance(inner, (Rewind, Clone)):
            if inner.label not in snapshot_labels:
                raise error(
                    f"{type(inner).__name__.lower()} references undefined snapshot "
                    f"label {inner.label!r}",
                    pc,
                )
        elif isinstance(inner, Accept):
            check_qubit(inner.qubit, pc)
            if accept_seen:
                raise error("at most one accept declaration is allowed", pc)
            accept_seen = True
        else:
            raise error(f"unknown instruction {inner!r}", pc)


def accept_qubit(circuit: Circuit) -> int | None:
    """The declared accept qubit, or None."""
    for instr in circuit.instructions:
        if isinstance(instr, Accept):
            return instr.qubit
    return None


# ---------------------------------------------------------------------------
# backend kernels


EMPTY_PROB = 1e-30  # an outcome of probability at most this is an empty branch
REWIND_TOL = 1e-9  # strict rewind's tolerance on the floating-point kernels


def outcome_weight(p: float) -> float:
    """A floating-point outcome probability as a branch weight: clamped to 1
    against rounding drift, and 0.0 for an empty branch (``p <= EMPTY_PROB``).
    The dense and path-sum kernels both read their outcomes through it, so
    their oracles keep and drop the same branches."""
    p = min(p, 1.0)
    return p if p > EMPTY_PROB else 0.0


def draw_bit(p0: float, p1: float, rng) -> int:
    """The bit a measurement with outcome weights ``p0`` and ``p1`` reads:
    one uniform draw, scaled by the total weight."""
    return 1 if rng.uniform() * (p0 + p1) < p1 else 0


class Kernel:
    """A backend as the interpreter sees it: its state arithmetic and its reach.

    A kernel declares ``gates`` (the gate names ``apply`` accepts), the
    unit ``one`` of its branch weights and ``max_depth``, the number of
    measurements with two live outcomes an enumeration may fork on (None:
    no limit).  A state is the backend's own representation of one branch's
    quantum state (a dense vector, a tableau, a sparse amplitude map),
    opaque to the interpreter.  Every kernel runs every instruction; its
    operations are

    * ``check_width(n)``: refuse, with :class:`QubitBudgetError`, a width
      whose state would be over the kernel's cap; a sampler or enumeration
      runs it when it is built.  The default accepts every width;
    * ``keep(state)``: a state equal to ``state`` that no later operation
      changes.  The interpreter keeps each snapshot, each clone and the
      start state of each sampled trial with it; a branch's snapshots are
      these kept states by label, and a forked branch shares them.  So a
      kernel whose operations return new states may return ``state``
      itself; the default is ``state.copy()``;
    * ``init(n)`` and ``apply(state, gate_op)``;
    * ``prob(state, qubit, bit)``, a weight that is zero for a branch the
      kernel counts as empty (:func:`outcome_weight` on the floating-point
      backends), and ``collapse(state, qubit, bit, prob)``, which must leave
      its input usable for the sibling branch.  Enumeration forks a
      measurement with them, and a postselection is one ``prob`` and one
      ``collapse`` on every kernel;
    * ``measure(state, qubit, rng) -> (bit, prob, state)``, for sampling.
      The default reads both weights with ``prob``, draws the bit with
      :func:`draw_bit` and collapses onto it; a fixed outcome draws too;
    * ``is_collapse(stored, state)``: is ``state`` the snapshot ``stored``
      collapsed onto one outcome of one qubit and renormalised?  The
      interpreter asks it at every rewind, refuses a no and then continues
      from the snapshot through ``keep``, as ``clone`` does unchecked.
    """

    name: str
    gates: frozenset[str] = GATE_NAMES
    one = 1.0
    max_depth: int | None = None

    def check_width(self, n: int) -> None:
        pass

    def keep(self, state):
        return state.copy()

    def measure(self, state, qubit: int, rng):
        p0, p1 = self.prob(state, qubit, 0), self.prob(state, qubit, 1)
        bit = draw_bit(p0, p1, rng)
        total = p0 + p1
        prob = (p1 if bit else p0) / total
        return bit, prob, self.collapse(state, qubit, bit, prob * total)


# ---------------------------------------------------------------------------
# the interpreter


@dataclass
class RunResult:
    record: MeasurementRecord
    accept_bit: int | None
    final_state: object


@dataclass
class _Branch:
    """One path through a circuit: position, state, weight and what it has seen."""

    state: object
    weight: object
    record: MeasurementRecord
    snapshots: dict[str, object] = field(default_factory=dict)  # label -> kept state
    pc: int = 0
    depth: int = 0  # measurements so far with two live outcomes

    def copy(self) -> "_Branch":
        return _Branch(
            self.state, self.weight, self.record.copy(), dict(self.snapshots),
            self.pc, self.depth,
        )


_SAMPLE, _ENUMERATE = "sample", "enumerate"


def _check_runs(circuit: Circuit, kernel: Kernel) -> None:
    """Refuse a circuit that ``kernel`` cannot run: one over its width cap,
    or one with a gate, taken or not, outside its set, named by its file and
    line."""
    kernel.check_width(circuit.n_qubits)
    for pc, instr in enumerate(circuit.instructions):
        inner = instr.inner if isinstance(instr, Conditional) else instr
        if isinstance(inner, GateOp) and inner.gate.name not in kernel.gates:
            raise GateSetError(
                f"{_at(circuit, pc)}backend {kernel.name} cannot run gate {inner.gate.name}"
            )


def _start(circuit: Circuit, kernel: Kernel) -> _Branch:
    return _Branch(kernel.init(circuit.n_qubits), kernel.one, MeasurementRecord())


def _interpret(
    circuit: Circuit,
    kernel: Kernel,
    how: str,
    start: _Branch,
    stop: int,
    rng=None,
    min_postselect_prob: float = 0.0,
) -> list[_Branch]:
    """The one walk over the IR: runs ``start``, and every branch it forks,
    from its position up to instruction ``stop``; returns those that get
    there.  The caller has checked the circuit with :func:`_check_runs`.

    ``how`` picks what a measurement does: draw from ``rng`` (sample, which
    follows one branch) or fork over both outcomes (enumerate), at most
    ``kernel.max_depth`` deep.
    """
    instructions, max_depth = circuit.instructions, kernel.max_depth
    leaves, stack = [], [start]
    while stack:
        b = stack.pop()
        while b.pc < stop:
            instr = instructions[b.pc]
            b.pc += 1
            if isinstance(instr, Conditional):
                if not predicate_holds(instr.predicate, b.record):
                    continue
                instr = instr.inner
            if isinstance(instr, GateOp):
                b.state = kernel.apply(b.state, instr)
            elif isinstance(instr, Measure):
                q, label = instr.qubit, instr.label
                if how == _ENUMERATE:  # fork over the live outcomes, 0 before 1
                    state = b.state
                    probs = [(bit, kernel.prob(state, q, bit)) for bit in (0, 1)]
                    live = [(bit, p) for bit, p in probs if p]
                    if len(live) == 2:
                        if max_depth is not None and b.depth >= max_depth:
                            raise DepthLimitError(f"random-measurement depth exceeded {max_depth}")
                        b.depth += 1
                    forks = [b] + [b.copy() for _ in live[1:]] if live else []
                    for child, (bit, p) in zip(forks, live):
                        child.state = kernel.collapse(state, q, bit, p)
                        child.weight = child.weight * p
                        child.record.add(label, bit, min(float(p), 1.0))
                    stack.extend(reversed(forks))
                    break
                bit, prob, b.state = kernel.measure(b.state, q, rng)
                b.record.add(label, bit, prob)
            elif isinstance(instr, Postselect):
                q, bit = instr.qubit, instr.bit
                prob = kernel.prob(b.state, q, bit)
                if not prob:
                    if how == _ENUMERATE:
                        break  # the oracles drop a branch that cannot pass
                    raise InvalidPostselectionError(
                        f"outcome {bit} on qubit {q} has probability {float(prob):.3e}"
                    )
                if prob < min_postselect_prob:
                    raise PostselectThresholdError(
                        f"postselection probability {float(prob):.6g} below required "
                        f"{min_postselect_prob:.6g}"
                    )
                b.state = kernel.collapse(b.state, q, bit, prob)
            elif isinstance(instr, Snapshot):
                b.snapshots[instr.label] = kernel.keep(b.state)
            elif isinstance(instr, (Rewind, Clone)):
                stored = b.snapshots.get(instr.label)
                if stored is None:
                    raise UnknownSnapshotError(
                        f"{_at(circuit, b.pc - 1)}no snapshot {instr.label!r} on this branch"
                    )
                if isinstance(instr, Rewind) and not kernel.is_collapse(stored, b.state):
                    raise RewindConsistencyError(
                        f"state is not a one-outcome collapse of snapshot {instr.label!r}"
                    )
                b.state = kernel.keep(stored)
            # Accept is read once the walk ends.
        else:  # the branch got to ``stop`` without forking or being dropped
            leaves.append(b)
    return leaves


def _first_draw(circuit: Circuit) -> int:
    """Position of the first instruction that reads the RNG or the record (a
    measurement or any conditional), or the circuit's length if none does."""
    for pc, instr in enumerate(circuit.instructions):
        if isinstance(instr, (Measure, Conditional)):
            return pc
    return len(circuit.instructions)


def sampler(
    circuit: Circuit,
    kernel: Kernel,
    min_postselect_prob: float = 0.0,
) -> Callable[[object], RunResult]:
    """A function ``rng -> RunResult`` that runs ``circuit`` once on ``kernel``
    per call, sampling measurements from ``rng``.

    A circuit checks itself when it is built; building a sampler refuses
    one that ``kernel`` cannot run or that is over its width cap.  The
    instructions before the first one that reads the RNG or the record are
    the same in every trial, so the first call runs them and keeps the
    branch they leave: position, state and snapshots.  Each call continues
    from a copy of that branch, its state taken through :meth:`Kernel.keep`,
    and draws what a run from |0...0> draws.  If the prefix raises, nothing
    is kept, so every call raises that error.  The accept qubit, if any, is
    measured last.

    Each rewind is refused unless :meth:`Kernel.is_collapse` certifies it.
    A ``min_postselect_prob`` outside [0, 1] is refused with
    :class:`InputError`.
    """
    if not 0.0 <= min_postselect_prob <= 1.0:
        raise InputError(f"min_postselect_prob must lie in [0, 1], got {min_postselect_prob!r}")
    _check_runs(circuit, kernel)
    prefix_end, end = _first_draw(circuit), len(circuit.instructions)
    accept = accept_qubit(circuit)
    prefix: _Branch | None = None

    def trial(rng) -> RunResult:
        nonlocal prefix
        if prefix is None:
            (prefix,) = _interpret(
                circuit, kernel, _SAMPLE, _start(circuit, kernel), prefix_end,
                min_postselect_prob=min_postselect_prob,
            )
        b = prefix.copy()
        b.state = kernel.keep(prefix.state)
        (b,) = _interpret(
            circuit, kernel, _SAMPLE, b, end, rng, min_postselect_prob=min_postselect_prob
        )
        accept_bit = None
        if accept is not None:
            accept_bit, _, b.state = kernel.measure(b.state, accept, rng)
        return RunResult(b.record, accept_bit, b.state)

    return trial


def enumerate_branches(circuit: Circuit, kernel: Kernel) -> list[tuple[str, object, object]]:
    """Every branch of nonzero weight as (outcome key, weight, final state).

    Branches come in depth-first order, outcome 0 before outcome 1.  A weight
    is the product of the branch's measurement probabilities, in the kernel's
    weight type; postselection renormalises within a branch and drops it when
    impossible.  Rewinds are certified, as when sampling.
    ``kernel.max_depth`` bounds the number of measurements with two live
    outcomes.  A circuit that ``kernel`` cannot run, or one over its width
    cap, is refused before the walk starts.
    """
    _check_runs(circuit, kernel)
    leaves = _interpret(
        circuit, kernel, _ENUMERATE, _start(circuit, kernel), len(circuit.instructions)
    )
    return [
        (",".join(f"{label}={bit}" for label, bit, _ in b.record.entries), b.weight, b.state)
        for b in leaves
    ]


def outcome_distribution(circuit: Circuit, kernel: Kernel) -> dict:
    """Exact q_z per outcome key (``label=bit`` pairs joined by commas, in
    execution order), in the kernel's weight type; zero weights are dropped."""
    return {key: weight for key, weight, _ in enumerate_branches(circuit, kernel) if weight}


def strong_probability(circuit: Circuit, kernel: Kernel, projector: dict[int, int]):
    """Exact probability of reading ``projector``'s bits on its qubits after
    the circuit: sum_z q_z * P(projector | z), where z ranges over the
    circuit's own measurement outcomes.

    The sum starts at the int 0, so it is an exact ``Fraction`` on the
    tableau and a float on the floating-point kernels.
    """
    reads, total = sorted(projector.items()), 0
    for _, weight, state in enumerate_branches(circuit, kernel):
        for qubit, bit in reads:
            p = kernel.prob(state, qubit, bit)
            weight *= p
            if not p:
                break
            state = kernel.collapse(state, qubit, bit, p)
        total += weight
    return total
