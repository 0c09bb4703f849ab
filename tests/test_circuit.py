"""Text format, static validation, guards and measurement records."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwsim.circuit import (
    Circuit,
    CircuitSyntaxError,
    CircuitValidationError,
    Clone,
    GateOp,
    Measure,
    Postselect,
    Rewind,
    Snapshot,
    parse_circuit,
    predicate_holds,
    sampler,
    serialize_circuit,
    validate,
)
from rwsim import gates, pathsum
from rwsim.gates import GATE_NAMES, gate
from rwsim.rng import SplitMix64

EXAMPLE = """
# demo with every instruction kind
qubits 3
gate h 0
gate hk -2 1
gate rz 0.75 2
gate ccz 0 1 2
snapshot pre
measure 0 -> m1
rewind pre if m1 == 1
measure 0 -> m2 if m1 == 1
postselect 1 = 0
clone pre
accept 2
"""


def test_parse_example_structure():
    c = parse_circuit(EXAMPLE)
    assert c.n_qubits == 3
    kinds = [type(i).__name__ for i in c.instructions]
    assert kinds == [
        "GateOp",
        "GateOp",
        "GateOp",
        "GateOp",
        "Snapshot",
        "Measure",
        "Rewind",
        "Measure",
        "Postselect",
        "Clone",
    ]
    assert [i.when for i in c.instructions[6:8]] == [(("m1", 1),), (("m1", 1),)]
    assert c.accept == 2


def test_round_trip_through_serializer():
    c = parse_circuit(EXAMPLE)
    again = parse_circuit(serialize_circuit(c))
    assert again.instructions == c.instructions
    assert again.n_qubits == c.n_qubits


def test_parameter_gates_round_trip_exactly():
    c = parse_circuit("qubits 1\ngate rz 0.1 0\ngate hk 64 0\n")
    text = serialize_circuit(c)
    again = parse_circuit(text)
    ops = [i for i in again.instructions if isinstance(i, GateOp)]
    assert ops[0].gate.param == 0.1
    assert ops[1].gate.param == 64


def test_conditional_predicate_parsing():
    c = parse_circuit(
        "qubits 1\nmeasure 0 -> a\nmeasure 0 -> b\ngate x 0 if a == 1 && b == 0\n"
    )
    cond = c.instructions[-1]
    assert cond.when == (("a", 1), ("b", 0))
    assert cond == GateOp(gate("x"), (0,), (("a", 1), ("b", 0)))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("gate h 0\n", "qubits"),
        ("qubits 0\n", "at least one"),
        ("qubits 2\ngate h 5\n", "out of range"),
        ("qubits 2\ngate cz 1 1\n", "distinct"),
        ("qubits 1\ngate warp 0\n", "warp"),
        ("qubits 1\ngate hk 1.5 0\n", "1.5"),
        ("qubits 1\ngate h 0 1\n", "expects 1 target"),
        ("qubits 1\nmeasure 0 m\n", "measure"),
        ("qubits 1\npostselect 0 = 2\n", "postselect"),
        ("qubits 1\nmeasure 0 -> m\nmeasure 0 -> m\n", "duplicate measurement"),
        ("qubits 1\nsnapshot s\nsnapshot s\n", "duplicate snapshot"),
        ("qubits 1\nrewind nope\n", "undefined snapshot"),
        ("qubits 1\nclone nope\n", "undefined snapshot"),
        ("qubits 1\ngate x 0 if m == 1\n", "undefined measurement"),
        ("qubits 1\nmeasure 0 -> m\naccept 0 if m == 1\n", "accept"),
        ("qubits 1\naccept 0\naccept 0\n", "one accept"),
        ("qubits 1\nflip 0\n", "unknown instruction"),
        ("qubits 1\nmeasure 0 -> m\ngate x 0 if m = 1\n", "condition"),
        ("qubits x\n", "line 1: qubit count must be an integer"),
        ("qubits 1\nmeasure a -> m\n", "line 2: qubit index must be an integer"),
        ("qubits 1\n\npostselect z = 0\n", "line 3: qubit index must be an integer"),
        ("qubits 1\naccept q\n", "line 2: qubit index must be an integer"),
        ("qubits 1\ngate h x\n", "line 2: qubit index must be an integer"),
        ("qubits 1\ngate rz nan 0\n", "line 2: rz parameter must be a finite real angle"),
        ("qubits 1\ngate h 0\ngate rz inf 0\n", "line 3: rz parameter must be a finite"),
        ("qubits 1\ngate rz -inf 0\n", "line 2: rz parameter must be a finite"),
    ],
)
def test_rejects_malformed_sources(text, fragment):
    with pytest.raises((CircuitSyntaxError, CircuitValidationError)) as err:
        parse_circuit(text)
    assert fragment in str(err.value)
    # every source above goes wrong on its last line, and names it once
    assert str(err.value).startswith(f"line {len(text.splitlines())}: ")
    assert str(err.value).count("line ") == 1


def test_syntax_error_carries_line_number():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 2\ngate h 0\ngate cz 0\n")
    assert err.value.lineno == 3
    assert "line 3" in str(err.value)
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 2\ngate h 0\ngate cz 0\n", name="pair.qc")
    assert str(err.value) == "pair.qc: line 3: gate cz expects 2 target(s), got 1"


def test_comments_and_blanks_are_ignored():
    c = parse_circuit("# intro\n\nqubits 1   # trailing\ngate h 0 # flip\n")
    assert len(c.instructions) == 1


def test_validate_direct_construction():
    with pytest.raises(CircuitValidationError):
        Circuit(1, (Rewind("ghost"),))


def test_validate_without_source_lines_names_none():
    with pytest.raises(CircuitValidationError) as err:
        Circuit(2, (GateOp(gate("h"), (0,)), GateOp(gate("h"), (5,))))
    assert str(err.value) == "qubit index 5 out of range for 2 qubits"
    with pytest.raises(CircuitValidationError) as err:
        Circuit(2, (GateOp(gate("h"), (5,)),), name="pair")
    assert str(err.value) == "pair: qubit index 5 out of range for 2 qubits"


@pytest.mark.parametrize(
    "line", ["gate x 0\tif m == 1", "gate x 0 if\tm == 1", "gate\tx\t0\tif\tm\t==\t1"]
)
def test_tabs_separate_the_if_like_any_token(line):
    c = parse_circuit(f"qubits 1\nmeasure 0 -> m\n{line}\n")
    assert c.instructions[-1] == GateOp(gate("x"), (0,), (("m", 1),))


def test_an_if_with_nothing_after_it_is_a_label():
    c = parse_circuit("qubits 1\nmeasure 0 -> if\ngate x 0 if if == 1\n")
    assert c.instructions == (
        Measure(0, "if"), GateOp(gate("x"), (0,), (("if", 1),))
    )


def test_repeated_lines_share_one_op_and_one_gate():
    c = parse_circuit(
        "qubits 2\ngate h 0\ngate rz 0.5 0\ngate h 0\ngate rz 0.5 1\n"
        "gate h 1\ngate rz 0.5 0\ngate h 0\ngate cz 0 1\ngate cz 0 1\n"
    )
    ops = c.instructions
    assert ops[0] is ops[2] is ops[6]
    assert ops[1] is ops[5]
    assert ops[7] is ops[8]
    assert len({id(op) for op in ops}) == 5  # one per distinct line
    assert ops[0].gate is ops[4].gate is gates.H
    assert ops[7].gate is gates.CZ
    assert len({id(op.gate) for op in ops}) == 4  # h, cz and the gate of each rz line


def test_a_repeated_conditional_line_keeps_its_condition():
    c = parse_circuit("qubits 1\nmeasure 0 -> m\ngate x 0 if m == 1\ngate x 0 if m == 1\n")
    guarded = GateOp(gate("x"), (0,), (("m", 1),))
    assert c.instructions == (Measure(0, "m"), guarded, guarded)


def test_accept_is_declared_anywhere_once_and_printed_last():
    c = parse_circuit("qubits 2\naccept 1\ngate h 0\nmeasure 0 -> m\n")
    assert c.accept == 1
    assert c.lines == (1, 3, 4, 2)  # the header, each instruction, then accept
    assert serialize_circuit(c) == "qubits 2\ngate h 0\nmeasure 0 -> m\naccept 1\n"
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 2\naccept 1\ngate h 0\naccept 0\n", name="two.qc")
    assert str(err.value) == "two.qc: line 4: at most one accept declaration is allowed"
    with pytest.raises(CircuitValidationError) as err:
        parse_circuit("qubits 2\naccept 5\ngate h 0\n")
    assert str(err.value) == "line 2: qubit index 5 out of range for 2 qubits"


def test_signed_zero_angles_stay_apart():
    c = parse_circuit("qubits 1\ngate rz -0.0 0\ngate rz 0.0 0\ngate rz -0.0 0\n")
    neg, pos, again = (op.gate.param for op in c.instructions)
    assert math.copysign(1.0, neg) == -1.0 and math.copysign(1.0, again) == -1.0
    assert math.copysign(1.0, pos) == 1.0
    assert c.instructions[0].gate is not c.instructions[1].gate
    assert serialize_circuit(c) == "qubits 1\ngate rz -0.0 0\ngate rz 0.0 0\ngate rz -0.0 0\n"


@pytest.mark.parametrize(
    "text,want",
    [
        # a bad line written twice fails on its first copy
        ("qubits 2\ngate h 0\ngate cz 0 5\ngate h 1\ngate cz 0 5\n", "line 3: qubit index 5"),
        ("qubits 2\ngate cz 1 1\ngate cz 1 1\n", "line 2: gate cz targets must be distinct"),
        ("qubits 2\ngate cz 0 x\ngate cz 0 x\n", "line 2: qubit index must be an integer"),
        ("qubits 1\ngate rz nan 0\ngate rz nan 0\n", "line 2: rz parameter must be a finite"),
        # the label is defined between the copies: the first still fails
        (
            "qubits 1\ngate x 0 if m == 1\nmeasure 0 -> m\ngate x 0 if m == 1\n",
            "line 2: condition references undefined measurement label 'm'",
        ),
    ],
)
def test_a_repeated_bad_line_fails_on_its_first_copy(text, want):
    with pytest.raises((CircuitSyntaxError, CircuitValidationError)) as err:
        parse_circuit(text)
    assert str(err.value).startswith(want)


_ANGLES = st.one_of(
    st.sampled_from([5e-324, -5e-324, -0.0, 0.0, 1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


_ARITIES = {name: gate(name, {"hk": 0, "rz": 0.0}.get(name)).arity for name in GATE_NAMES}


@st.composite
def circuits(draw) -> Circuit:
    """Valid circuits mixing every instruction kind, guards, repeated gate
    ops, ``hk`` and odd ``rz`` angles, with an optional accept."""
    n = draw(st.integers(1, 4))
    names = sorted(name for name, arity in _ARITIES.items() if arity <= n)
    instructions, labels, snapshots, gate_ops = [], [], [], []
    for i in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["gate", "gate", "again", "measure", "postselect",
                                     "snapshot", "rewind", "clone"]))
        if kind == "again" and gate_ops:
            instr = draw(st.sampled_from(gate_ops))
        elif kind in ("gate", "again"):
            name = draw(st.sampled_from(names))
            param = (draw(st.integers(-64, 64)) if name == "hk"
                     else draw(_ANGLES) if name == "rz" else None)
            g = gate(name, param)
            targets = tuple(draw(st.permutations(range(n)))[: g.arity])
            instr = GateOp(g, targets)
            gate_ops.append(instr)
        elif kind == "measure":
            instr = Measure(draw(st.integers(0, n - 1)), f"m{i}")
        elif kind == "postselect":
            instr = Postselect(draw(st.integers(0, n - 1)), draw(st.integers(0, 1)))
        elif kind == "snapshot":
            instr = Snapshot(f"s{i}")
        elif snapshots:
            instr = (Rewind if kind == "rewind" else Clone)(draw(st.sampled_from(snapshots)))
        else:
            continue
        if labels and draw(st.booleans()):
            chosen = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
            when = tuple((label, draw(st.integers(0, 1))) for label in chosen)
            instr = dataclasses.replace(instr, when=when)
        instructions.append(instr)
        if isinstance(instr, Measure):
            labels.append(instr.label)
        elif isinstance(instr, Snapshot):
            snapshots.append(instr.label)
    accept = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return Circuit(n, tuple(instructions), accept)


@given(circuits(), st.data())
def test_parse_inverts_serialize(c, data):
    validate(c)
    text = serialize_circuit(c)
    # the same source with comments, blank lines and tabs added
    lines = []
    for line in text.splitlines():
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(["", "# note", "  \t# indented note"])))
        if data.draw(st.booleans()):
            line = line.replace(" ", "\t")
        if data.draw(st.booleans()):
            line += "  # trailing note"
        lines.append(line)
    for source in (text, "\n".join(lines) + "\n"):
        again = parse_circuit(source)
        assert again == c
        assert serialize_circuit(again) == text


labels = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@given(st.lists(st.tuples(labels, st.integers(0, 1)), min_size=1, max_size=6, unique_by=lambda t: t[0]))
def test_record_round_trip(pairs):
    # a run's record maps each label to (bit, branch probability), in the order measured
    text = f"qubits {len(pairs)}\n" + "".join(
        (f"gate x {q}\n" if bit else "") + f"measure {q} -> {label}\n"
        for q, (label, bit) in enumerate(pairs)
    )
    record = sampler(parse_circuit(text), pathsum.KERNEL)(SplitMix64(0)).record
    assert list(record.items()) == [(label, (bit, 1.0)) for label, bit in pairs]


@given(st.lists(st.tuples(labels, st.integers(0, 1)), min_size=0, max_size=4, unique_by=lambda t: t[0]))
def test_predicate_holds_matches_record(pairs):
    record = {label: (bit, 0.5) for label, bit in pairs}
    assert predicate_holds(tuple(pairs), record)
    if pairs:
        label, bit = pairs[0]
        assert not predicate_holds(((label, 1 - bit),), record)
    # a clause on a label the branch never measured is false, wherever it stands
    for at in range(len(pairs) + 1):
        for bit in (0, 1):
            assert not predicate_holds(tuple(pairs[:at] + [("z", bit)] + pairs[at:]), record)
