"""Circuit intermediate representation and the text format.

A circuit is a straight-line instruction list over ``n_qubits`` qubits: each
instruction executes at most once, in order, if its ``when`` guard holds.
``rewind`` restores the state captured by an earlier ``snapshot`` — it never
moves the program counter, so retry patterns are explicit guarded chains.

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

Any instruction may carry an ``if`` suffix, its guard: ``<label> == <bit>``
clauses joined by ``&&``, referring to earlier measurement labels.  A clause
holds when its branch measured the label and read the bit; on a label its
branch never measured (that ``measure`` was guarded off) it is false, so the
order of the clauses never matters.  Spaces or tabs separate the tokens of a
line, the ``if`` too.  ``accept <q>`` is a declaration, not an instruction:
it is given at most once, anywhere in the file, takes no ``if``, and
:func:`serialize_circuit` prints it last.

The one interpreter of the IR lives here too.  It runs a circuit over a
backend :class:`Kernel` and owns all that is not quantum arithmetic:
guards, the record (each branch maps a measurement label to its bit and
branch probability, in the order measured), snapshots (each branch maps a
label to the state it kept), ``rewind`` (the paper's strict rewind: refused
unless the kernel certifies the state as a one-outcome collapse of the
snapshot, then continued from the snapshot), ``clone`` (the same restore,
unchecked), ``postselect`` (a kernel's ``prob`` then its ``collapse``),
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
the first measurement, once for all its trials.  A
state that outlives the instruction that made it (a snapshot, a clone, the
prefix every trial starts from) is held as :meth:`Kernel.keep` gives it: by
reference on a kernel whose operations are functional, as a copy on one that
works in place.
"""

from __future__ import annotations

from typing import Callable, Iterator, Union

from .gates import GATE_NAMES, Gate, gate as make_gate
from .value import Frozen, Value


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


class GateSetError(InputError):
    """A gate outside the chosen backend's gate set."""


class RunError(Exception):
    """A run that refused to go on: the base of the interpreter's runtime
    refusals, kept apart from :class:`InputError`.  Each subclass keeps its
    ``ValueError`` or ``RuntimeError`` base as well.  The command line
    reports every one with exit code 1."""


class RewindConsistencyError(RunError, ValueError):
    """Strict rewind input is not a one-outcome collapse of the snapshot."""


class UnknownSnapshotError(RunError, ValueError):
    """Rewind/clone of a label that no snapshot on this branch has stored."""


class InvalidPostselectionError(RunError, ValueError):
    """Postselected on an outcome of probability zero."""


class PostselectThresholdError(RunError, ValueError):
    """Postselection succeeded but below the required minimum probability."""


class DepthLimitError(RunError, RuntimeError):
    """Branch tree exceeded the random-measurement depth limit."""


class QubitBudgetError(InputError):
    """Requested width exceeds the configured qubit cap."""


_set = object.__setattr__  # how a frozen value's ``__init__`` sets a field


class GateOp(Frozen):
    __slots__ = _fields = ("gate", "targets", "when")

    def __init__(
        self, gate: Gate, targets: tuple[int, ...], when: tuple[tuple[str, int], ...] = ()
    ):
        _set(self, "gate", gate)
        _set(self, "targets", targets)
        _set(self, "when", when)


class Measure(Frozen):
    __slots__ = _fields = ("qubit", "label", "when")

    def __init__(self, qubit: int, label: str, when: tuple[tuple[str, int], ...] = ()):
        _set(self, "qubit", qubit)
        _set(self, "label", label)
        _set(self, "when", when)


class Postselect(Frozen):
    __slots__ = _fields = ("qubit", "bit", "when")

    def __init__(self, qubit: int, bit: int, when: tuple[tuple[str, int], ...] = ()):
        _set(self, "qubit", qubit)
        _set(self, "bit", bit)
        _set(self, "when", when)


class Snapshot(Frozen):
    __slots__ = _fields = ("label", "when")

    def __init__(self, label: str, when: tuple[tuple[str, int], ...] = ()):
        _set(self, "label", label)
        _set(self, "when", when)


class Rewind(Frozen):
    __slots__ = _fields = ("label", "when")

    def __init__(self, label: str, when: tuple[tuple[str, int], ...] = ()):
        _set(self, "label", label)
        _set(self, "when", when)


class Clone(Frozen):
    __slots__ = _fields = ("label", "when")

    def __init__(self, label: str, when: tuple[tuple[str, int], ...] = ()):
        _set(self, "label", label)
        _set(self, "when", when)


Instruction = Union[GateOp, Measure, Postselect, Snapshot, Rewind, Clone]


class Circuit(Frozen):
    """A circuit, checked by :func:`validate` when it is built.  ``accept``,
    if set, is the qubit measured after the last instruction.  ``lines``, set
    by :func:`parse_circuit`, holds the source line of the header, of each
    instruction, then of ``accept``; it takes no part in equality, hash or
    repr."""

    __slots__ = ("n_qubits", "instructions", "accept", "name", "lines")
    _fields = ("n_qubits", "instructions", "accept", "name")

    def __init__(
        self,
        n_qubits: int,
        instructions: tuple[Instruction, ...],
        accept: int | None = None,
        name: str | None = None,
        lines: tuple[int, ...] | None = None,
    ):
        _set(self, "n_qubits", n_qubits)
        _set(self, "instructions", instructions)
        _set(self, "accept", accept)
        _set(self, "name", name)
        _set(self, "lines", lines)
        validate(self)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __reduce__(self):
        return Circuit, (self.n_qubits, self.instructions, self.accept, self.name, self.lines)


_UNMEASURED = (None, None)  # what a guard reads for a label its branch never measured


def predicate_holds(predicate: tuple[tuple[str, int], ...], record: dict) -> bool:
    """Does the guard ``predicate`` hold on a branch's ``record``?  Each
    ``label == bit`` clause holds if the branch measured ``label`` and read
    ``bit``; a clause on a label the branch never measured (its ``measure``
    was guarded off) is false, so the order of the clauses never matters."""
    return all(record.get(label, _UNMEASURED)[0] == bit for label, bit in predicate)


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

    One pass splits each line into tokens once.  An unguarded gate line
    builds its :class:`GateOp` once per distinct source text, so a repeated
    line (an inverse body, ``s`` written three times) reuses one object that
    :func:`validate` checks once.  The keys are source text, not values, so
    ``rz -0.0`` and ``rz 0.0`` stay apart.  A guarded line is always built
    anew, and ``accept`` sets :attr:`Circuit.accept`.  A gate's targets are
    converted in one ``map(int, ...)``; if one is not an integer, they are
    read again one by one so the error names the first bad token.  Every
    error starts with ``<name>: line N: ``, the name only if one is given.
    """
    n_qubits = accept = accept_line = None
    instructions: list[Instruction] = []
    lines: list[int] = []  # the header's source line, then each instruction's
    ops: dict[str, GateOp] = {}  # unguarded gate lines by source text

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

        when: tuple[tuple[str, int], ...] = ()
        if "if" in parts[1:-1]:  # an ``if`` with tokens on both sides
            at = parts.index("if", 1)
            when = _parse_predicate(" ".join(parts[at + 1 :]), syntax)
            parts = parts[:at]

        kind = parts[0]
        instr: Instruction
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
            given = parts[2 if g.param is None else 3 :]
            try:
                targets = tuple(map(int, given))
            except ValueError:  # name the first token that is not an integer
                targets = _parse_targets(given, syntax)
            if len(targets) != g.arity:
                raise syntax(f"gate {gname} expects {g.arity} target(s), got {len(targets)}")
            instr = GateOp(g, targets, when)
            if not when:
                ops[line] = instr
        elif kind == "measure":
            if len(parts) != 4 or parts[2] != "->":
                raise syntax("expected 'measure <q> -> <label>'")
            instr = Measure(_parse_int(parts[1], syntax, "qubit index"), parts[3], when)
        elif kind == "postselect":
            if len(parts) != 4 or parts[2] != "=" or parts[3] not in ("0", "1"):
                raise syntax("expected 'postselect <q> = <0|1>'")
            instr = Postselect(_parse_int(parts[1], syntax, "qubit index"), int(parts[3]), when)
        elif kind == "snapshot":
            if len(parts) != 2:
                raise syntax("expected 'snapshot <label>'")
            instr = Snapshot(parts[1], when)
        elif kind == "rewind":
            if len(parts) != 2:
                raise syntax("expected 'rewind <label>'")
            instr = Rewind(parts[1], when)
        elif kind == "clone":
            if len(parts) != 2:
                raise syntax("expected 'clone <label>'")
            instr = Clone(parts[1], when)
        elif kind == "accept":
            if len(parts) != 2:
                raise syntax("expected 'accept <q>'")
            if when:
                raise syntax("accept cannot be conditional")
            qubit = _parse_int(parts[1], syntax, "qubit index")
            if accept is not None:
                raise syntax("at most one accept declaration is allowed")
            accept, accept_line = qubit, lineno
            continue
        else:
            raise syntax(f"unknown instruction {kind!r}")

        instructions.append(instr)
        lines.append(lineno)

    if n_qubits is None:
        raise CircuitSyntaxError(1, "missing 'qubits N' header", name)
    if accept is not None:
        lines.append(accept_line)
    return Circuit(n_qubits, tuple(instructions), accept, name, tuple(lines))


def _format(instr: Instruction) -> str:
    if isinstance(instr, GateOp):
        param = "" if instr.gate.param is None else f" {instr.gate.param!r}"
        text = f"gate {instr.gate.name}{param} " + " ".join(str(t) for t in instr.targets)
    elif isinstance(instr, Measure):
        text = f"measure {instr.qubit} -> {instr.label}"
    elif isinstance(instr, Postselect):
        text = f"postselect {instr.qubit} = {instr.bit}"
    elif isinstance(instr, Snapshot):
        text = f"snapshot {instr.label}"
    elif isinstance(instr, Rewind):
        text = f"rewind {instr.label}"
    elif isinstance(instr, Clone):
        text = f"clone {instr.label}"
    else:
        raise TypeError(f"not an instruction: {instr!r}")
    if instr.when:
        text += " if " + " && ".join(f"{label} == {bit}" for label, bit in instr.when)
    return text


def serialize_circuit(circuit: Circuit) -> str:
    """Inverse of :func:`parse_circuit` (modulo comments, blank lines and
    where ``accept`` stands: it comes last)."""
    lines = [f"qubits {circuit.n_qubits}"] + [_format(instr) for instr in circuit.instructions]
    if circuit.accept is not None:
        lines.append(f"accept {circuit.accept}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# static validation


def _where(name: str | None, lineno: int | None) -> str:
    """``<name>: line N: ``, each part if known: how a source error starts."""
    return (f"{name}: " if name else "") + (f"line {lineno}: " if lineno is not None else "")


def _at(circuit: Circuit, pc: int) -> str:
    """:func:`_where` for instruction ``pc`` of ``circuit`` (the header at -1)."""
    return _where(circuit.name, None if circuit.lines is None else circuit.lines[pc + 1])


_KINDS = frozenset((GateOp, Measure, Postselect, Snapshot, Rewind, Clone))  # the step classes


def validate(circuit: Circuit) -> None:
    """Static checks; raises :class:`CircuitValidationError` on the first failure.

    :class:`Circuit` runs it when it is built.  Every error starts with
    :func:`_where`'s prefix.  A step is an instance of one of the six step
    classes themselves (``_KINDS``), not of a subclass: the interpreter
    dispatches on the exact class.  A :class:`GateOp` object that occurs
    more than once is checked once: it is frozen and ``n`` does not change,
    so a second check could not fail.
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
    for pc, instr in enumerate(circuit.instructions):
        kind = type(instr)
        if kind not in _KINDS:
            raise error(f"unknown instruction {instr!r}", pc)
        for label, bit in instr.when:
            if label not in measure_labels:
                raise error(f"condition references undefined measurement label {label!r}", pc)
            if bit not in (0, 1):
                raise error("condition bits must be 0 or 1", pc)
        if kind is GateOp:
            if id(instr) in checked:
                continue
            checked.add(id(instr))
            for q in instr.targets:
                check_qubit(q, pc)
            if len(set(instr.targets)) != len(instr.targets):
                raise error(f"gate {instr.gate.name} targets must be distinct: {instr.targets}", pc)
        elif kind is Measure:
            check_qubit(instr.qubit, pc)
            if instr.label in measure_labels:
                raise error(f"duplicate measurement label {instr.label!r}", pc)
            measure_labels.add(instr.label)
        elif kind is Postselect:
            check_qubit(instr.qubit, pc)
            if instr.bit not in (0, 1):
                raise error("postselect bit must be 0 or 1", pc)
        elif kind is Snapshot:
            if instr.label in snapshot_labels:
                raise error(f"duplicate snapshot label {instr.label!r}", pc)
            snapshot_labels.add(instr.label)
        elif instr.label not in snapshot_labels:  # a Rewind or a Clone
            raise error(
                f"{kind.__name__.lower()} references undefined snapshot "
                f"label {instr.label!r}",
                pc,
            )
    if circuit.accept is not None:
        check_qubit(circuit.accept, len(circuit.instructions))


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


class RunResult(Value):
    """One sampled run: its ``record`` maps each measurement label to
    ``(bit, branch probability)`` in the order measured; ``accept_bit`` is
    None for a circuit without ``accept``."""

    __slots__ = _fields = ("record", "accept_bit", "final_state")

    def __init__(self, record: dict[str, tuple[int, object]], accept_bit: int | None, final_state):
        self.record = record
        self.accept_bit = accept_bit
        self.final_state = final_state


class _Branch(Value):
    """One path through a circuit: position, state, weight and what it has
    seen: its ``record`` (label -> (bit, branch probability)), its
    ``snapshots`` (label -> kept state) and its ``depth``, the measurements
    so far with two live outcomes."""

    __slots__ = _fields = ("state", "weight", "record", "snapshots", "pc", "depth")

    def __init__(self, state, weight, record: dict, snapshots: dict, pc: int = 0, depth: int = 0):
        self.state = state
        self.weight = weight
        self.record = record
        self.snapshots = snapshots
        self.pc = pc
        self.depth = depth

    def copy(self) -> "_Branch":
        return _Branch(
            self.state, self.weight, dict(self.record), dict(self.snapshots),
            self.pc, self.depth,
        )


_SAMPLE, _ENUMERATE = "sample", "enumerate"


def _check_runs(circuit: Circuit, kernel: Kernel) -> None:
    """Refuse a circuit that ``kernel`` cannot run: one over its width cap,
    or one with a gate, taken or not, outside its set, named by its file and
    line."""
    kernel.check_width(circuit.n_qubits)
    for pc, instr in enumerate(circuit.instructions):
        if isinstance(instr, GateOp) and instr.gate.name not in kernel.gates:
            raise GateSetError(
                f"{_at(circuit, pc)}backend {kernel.name} cannot run gate {instr.gate.name}"
            )


def _start(circuit: Circuit, kernel: Kernel) -> _Branch:
    return _Branch(kernel.init(circuit.n_qubits), kernel.one, {}, {})


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

    Each step is dispatched on its exact class (:func:`validate` admits only
    the six).  The branch being run keeps its position and state in locals,
    with ``kernel.apply`` bound once; they are written back to its
    :class:`_Branch` only where it forks or reaches ``stop``, and an error
    names the line of the step that raised it.
    """
    instructions, max_depth = circuit.instructions, kernel.max_depth
    apply, enumerating = kernel.apply, how == _ENUMERATE
    leaves, stack = [], [start]
    while stack:
        b = stack.pop()
        pc, state, record, snapshots = b.pc, b.state, b.record, b.snapshots
        while pc < stop:
            instr = instructions[pc]
            pc += 1
            if instr.when and not predicate_holds(instr.when, record):
                continue
            kind = type(instr)
            if kind is GateOp:
                state = apply(state, instr)
            elif kind is Measure:
                q, label = instr.qubit, instr.label
                if enumerating:  # fork over the live outcomes, 0 before 1
                    probs = [(bit, kernel.prob(state, q, bit)) for bit in (0, 1)]
                    live = [(bit, p) for bit, p in probs if p]
                    if len(live) == 2:
                        if max_depth is not None and b.depth >= max_depth:
                            raise DepthLimitError(f"random-measurement depth exceeded {max_depth}")
                        b.depth += 1
                    b.pc = pc
                    forks = [b] + [b.copy() for _ in live[1:]] if live else []
                    for child, (bit, p) in zip(forks, live):
                        child.state = kernel.collapse(state, q, bit, p)
                        child.weight = child.weight * p
                        child.record[label] = bit, min(float(p), 1.0)
                    stack.extend(reversed(forks))
                    break
                bit, prob, state = kernel.measure(state, q, rng)
                record[label] = bit, prob
            elif kind is Postselect:
                q, bit = instr.qubit, instr.bit
                prob = kernel.prob(state, q, bit)
                if not prob:
                    if enumerating:
                        break  # the oracles drop a branch that cannot pass
                    raise InvalidPostselectionError(
                        f"outcome {bit} on qubit {q} has probability {float(prob):.3e}"
                    )
                if prob < min_postselect_prob:
                    raise PostselectThresholdError(
                        f"postselection probability {float(prob):.6g} below required "
                        f"{min_postselect_prob:.6g}"
                    )
                state = kernel.collapse(state, q, bit, prob)
            elif kind is Snapshot:
                snapshots[instr.label] = kernel.keep(state)
            else:  # a Rewind or a Clone
                stored = snapshots.get(instr.label)
                if stored is None:
                    raise UnknownSnapshotError(
                        f"{_at(circuit, pc - 1)}no snapshot {instr.label!r} on this branch"
                    )
                if kind is Rewind and not kernel.is_collapse(stored, state):
                    raise RewindConsistencyError(
                        f"state is not a one-outcome collapse of snapshot {instr.label!r}"
                    )
                state = kernel.keep(stored)
        else:  # the branch got to ``stop`` without forking or being dropped
            b.pc, b.state = pc, state
            leaves.append(b)
    return leaves


def _first_draw(circuit: Circuit) -> int:
    """Position of the first measurement, or the circuit's length if there
    is none.  No instruction before it reads the RNG or the record: a guard
    names only labels measured earlier, which :func:`validate` checks."""
    for pc, instr in enumerate(circuit.instructions):
        if isinstance(instr, Measure):
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
    accept = circuit.accept
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
        (",".join(f"{label}={bit}" for label, (bit, _) in b.record.items()), b.weight, b.state)
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
