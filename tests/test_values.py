"""The IR's value classes behave as the dataclasses they replace.

Each class is checked against a dataclass built here with the same fields:
over drawn field values, ``==``, ``!=``, ``hash`` and ``repr`` must agree
with it.  Then equality across classes, ``Circuit.lines``, frozen fields,
``pickle`` and ``copy.deepcopy``.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import field, make_dataclass
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwsim.circuit import (
    Circuit,
    Clone,
    GateOp,
    Measure,
    Postselect,
    Rewind,
    RunResult,
    Snapshot,
    _Branch,
    parse_circuit,
    serialize_circuit,
)
from rwsim.gates import Gate, gate
from rwsim.stabilizer import StabilizerTableau, stab_init

# small domains, so that two draws are often equal
LABELS = st.sampled_from(["a", "b"])
BITS = st.integers(0, 1)
WHENS = st.lists(st.tuples(LABELS, BITS), max_size=2).map(tuple)
GATE_ARGS = st.one_of(
    st.tuples(st.sampled_from(["h", "x", "cz"]), st.none()),
    st.tuples(st.just("hk"), st.integers(-1, 1)),
    st.tuples(st.just("rz"), st.sampled_from([0.0, -0.0, 0.5, 1])),
)
GATES = GATE_ARGS.map(lambda args: Gate(*args))
TARGETS = st.sampled_from([(0,), (1,), (0, 1)])
RECORDS = st.dictionaries(LABELS, st.tuples(BITS, st.sampled_from([0.5, 1.0])))
STEPS = st.sampled_from([
    GateOp(gate("h"), (0,)), GateOp(gate("x"), (0,)), GateOp(Gate("rz", 0.5), (0,)),
    Postselect(0, 0), Postselect(0, 1),
])
CIRCUIT_ARGS = st.tuples(
    st.integers(1, 2),
    st.lists(STEPS, max_size=2).map(tuple),
    st.sampled_from([None, 0]),
    st.sampled_from([None, "a"]),
    st.sampled_from([None, (1, 2), (3, 4, 5)]),
)

# class -> (its fields' strategies, in constructor order; whether it is frozen)
CASES = {
    Gate: (GATE_ARGS, True),
    GateOp: (st.tuples(GATES, TARGETS, WHENS), True),
    Measure: (st.tuples(st.integers(0, 1), LABELS, WHENS), True),
    Postselect: (st.tuples(st.integers(0, 1), BITS, WHENS), True),
    Snapshot: (st.tuples(LABELS, WHENS), True),
    Rewind: (st.tuples(LABELS, WHENS), True),
    Clone: (st.tuples(LABELS, WHENS), True),
    Circuit: (CIRCUIT_ARGS, True),
    RunResult: (st.tuples(RECORDS, st.sampled_from([None, 0, 1]), st.integers(0, 1)), False),
    _Branch: (
        st.tuples(
            st.integers(0, 1), st.sampled_from([1.0, Fraction(1, 2)]), RECORDS,
            st.dictionaries(LABELS, st.integers(0, 1)), st.integers(0, 1), st.integers(0, 1),
        ),
        False,
    ),
    StabilizerTableau: (
        st.tuples(
            st.integers(1, 2), st.lists(st.integers(0, 3), min_size=1, max_size=2),
            st.lists(st.integers(0, 3), min_size=1, max_size=2), st.integers(0, 3),
        ),
        False,
    ),
}


def _reference(cls, frozen: bool):
    """A dataclass named as ``cls``, with its fields; ``Circuit.lines`` is
    left out of equality and repr, as it was."""
    fields = list(cls._fields)
    if cls is Circuit:
        fields.append(("lines", object, field(default=None, compare=False, repr=False)))
    return make_dataclass(cls.__qualname__, fields, frozen=frozen)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__qualname__)
@given(data=st.data())
def test_a_value_class_compares_hashes_and_prints_as_its_dataclass(cls, data):
    args, frozen = CASES[cls]
    ref = _reference(cls, frozen)
    a_args, b_args = data.draw(args), data.draw(args)
    a, b, ra, rb = cls(*a_args), cls(*b_args), ref(*a_args), ref(*b_args)
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    assert a == cls(*a_args) and not a != cls(*a_args)
    assert repr(a) == repr(ra)
    assert a != ra and ra != a  # another class is never equal
    if frozen:
        assert hash(a) == hash(ra)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_a_step_equals_only_a_step_of_its_own_class():
    assert Snapshot("s") != Rewind("s")
    assert Rewind("s") != Clone("s")
    assert Snapshot("s") == Snapshot("s")
    assert len({Snapshot("s"), Rewind("s"), Clone("s"), Snapshot("s")}) == 3


def test_circuit_lines_take_no_part_in_equality_hash_or_repr():
    steps = (GateOp(gate("h"), (0,)),)
    a, b = Circuit(1, steps, lines=(1, 2)), Circuit(1, steps, lines=(7, 9))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "lines" not in repr(a)
    assert a != Circuit(1, steps, name="other", lines=(1, 2))


@pytest.mark.parametrize(
    "value, name",
    [
        (gate("h"), "name"),
        (GateOp(gate("h"), (0,)), "targets"),
        (Measure(0, "m"), "label"),
        (Postselect(0, 1), "bit"),
        (Snapshot("s"), "when"),
        (Rewind("s"), "label"),
        (Clone("s"), "label"),
        (Circuit(1, ()), "lines"),
    ],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_a_frozen_value_refuses_assignment_and_deletion(value, name):
    before = repr(value)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert repr(value) == before


RETRY = """qubits 2
gate h 0
gate rz 0.25 1
snapshot s
measure 0 -> m
rewind s if m == 1
measure 0 -> r if m == 1
postselect 1 = 0
clone s
accept 0
"""


@pytest.mark.parametrize("copier", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_values_survive_pickle_and_copies(copier):
    circuit = parse_circuit(RETRY, name="retry.qc")
    values = [
        circuit, *circuit.instructions, Gate("hk", -2),
        RunResult({"m": (1, 0.5)}, 0, None), stab_init(2),
        _Branch(None, 1.0, {"m": (0, 0.5)}, {"s": None}, 3, 1),
    ]
    for value in values:
        copied = copier(value)
        assert type(copied) is type(value) and copied == value
        assert repr(copied) == repr(value)
    copied = copier(circuit)
    assert copied.lines == circuit.lines == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    assert parse_circuit(serialize_circuit(copied), name="retry.qc") == circuit
