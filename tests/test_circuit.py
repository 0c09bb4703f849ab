"""Text format, static validation and measurement records."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwsim.circuit import (
    Accept,
    Circuit,
    CircuitSyntaxError,
    CircuitValidationError,
    Clone,
    Conditional,
    GateOp,
    Measure,
    MeasurementRecord,
    Postselect,
    RecordError,
    Rewind,
    Snapshot,
    accept_qubit,
    parse_circuit,
    predicate_holds,
    serialize_circuit,
    validate,
)
from rwsim.gates import gate

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
        "Conditional",
        "Conditional",
        "Postselect",
        "Clone",
        "Accept",
    ]
    assert accept_qubit(c) == 2


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
    assert isinstance(cond, Conditional)
    assert cond.predicate == (("a", 1), ("b", 0))
    assert cond.inner == GateOp(gate("x"), (0,))


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
    if isinstance(err.value, CircuitSyntaxError):  # the line is named once
        assert str(err.value).count("line ") == 1


def test_syntax_error_carries_line_number():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 2\ngate h 0\ngate cz 0\n")
    assert err.value.lineno == 3
    assert "line 3" in str(err.value)


def test_comments_and_blanks_are_ignored():
    c = parse_circuit("# intro\n\nqubits 1   # trailing\ngate h 0 # flip\n")
    assert len(c.instructions) == 1


def test_validate_direct_construction():
    bad = Circuit(1, (Rewind("ghost"),))
    with pytest.raises(CircuitValidationError):
        validate(bad)


labels = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@given(st.lists(st.tuples(labels, st.integers(0, 1)), min_size=1, max_size=6, unique_by=lambda t: t[0]))
def test_record_round_trip(pairs):
    record = MeasurementRecord()
    for label, bit in pairs:
        record.add(label, bit, 0.5)
    assert len(record) == len(pairs)
    for label, bit in pairs:
        assert label in record
        assert record.bit(label) == bit
    assert record.outcome_string() == "".join(str(b) for _, b in pairs)


def test_record_rejects_duplicates_and_bad_values():
    record = MeasurementRecord()
    record.add("m", 1, 1.0)
    with pytest.raises(RecordError):
        record.add("m", 0, 1.0)
    with pytest.raises(RecordError):
        record.add("x", 2, 1.0)
    with pytest.raises(RecordError):
        record.add("y", 0, 0.0)
    with pytest.raises(RecordError):
        record.add("z", 0, 1.5)
    with pytest.raises(RecordError):
        record.bit("missing")


@given(st.lists(st.tuples(labels, st.integers(0, 1)), min_size=0, max_size=4, unique_by=lambda t: t[0]))
def test_predicate_holds_matches_record(pairs):
    record = MeasurementRecord()
    for label, bit in pairs:
        record.add(label, bit, 0.5)
    assert predicate_holds(tuple(pairs), record)
    if pairs:
        label, bit = pairs[0]
        assert not predicate_holds(((label, 1 - bit),), record)
