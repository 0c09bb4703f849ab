"""The dense kernel against a step-by-step walk of the dense primitives.

Under the interpreter the statevector kernel keeps a measured or
postselected qubit out of its dense array: a state is the amplitudes of the
unfixed qubits plus the fixed ``(qubit, bit)`` pairs.  These tests pin that
this changes nothing a run can see.  Random circuits run through
``sampler(c, statevector.KERNEL)`` and through a reference walk that calls
the module-level ``apply_gate``, ``measure``, ``postselect`` and ``rewind``
on full vectors; records, branch probabilities, final amplitudes and every
refusal must agree.  The path-sum kernel runs the same circuits, and its
samplers and exact oracles must agree with the dense kernel's too.  A last
test pins what the split saves: a trial on a wide state allocates no
full-width copy.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import GENERAL_POOL, REPO, _gate_line
from rwsim import pathsum, statevector
from rwsim.circuit import (
    Clone,
    Conditional,
    GateOp,
    InvalidPostselectionError,
    Measure,
    MeasurementRecord,
    Postselect,
    PostselectThresholdError,
    Rewind,
    RewindConsistencyError,
    Snapshot,
    accept_qubit,
    outcome_distribution,
    parse_circuit,
    predicate_holds,
    sampler,
    strong_probability,
)
from rwsim.rng import SplitMix64, stream_seed

TOL = 1e-12
CASES = 80
TRIALS = 4  # seeded trials per circuit, all from one sampler
REFUSALS = (RewindConsistencyError, InvalidPostselectionError, PostselectThresholdError)
# the shipped circuits within the dense kernel's default width cap
SHIPPED = [
    path.name for path in sorted((REPO / "circuits").glob("*.qc"))
    if parse_circuit(path.read_text()).n_qubits <= 20
]


def _random_circuit(rng: SplitMix64, rewinds: bool = True) -> str:
    """2-6 qubits of gates, measurements (of measured qubits too),
    postselections, conditionals and, if ``rewinds``, snapshots, retry
    blocks, bare rewinds and clones."""
    n = 2 + rng.randrange(5)
    lines = [f"qubits {n}"]
    labels: list[str] = []
    snaps: list[str] = []

    def label() -> str:
        labels.append(f"m{len(labels)}")
        return labels[-1]

    for _ in range(4 + rng.randrange(20)):
        kind = rng.randrange(20)
        if not rewinds and kind >= 14:
            kind %= 8
        q = rng.randrange(n)
        if kind < 8:
            line, _ = _gate_line(rng, n, GENERAL_POOL, None)
        elif kind < 12:
            line = f"measure {q} -> {label()}"
        elif kind < 14:
            line = f"postselect {q} = {rng.randrange(2)}"
        elif kind < 16 or not snaps:
            snaps.append(f"s{len(snaps)}")
            lines.append(f"snapshot {snaps[-1]}")
            if kind < 15:  # a retry block, certified unless gates intervene
                first, bit = label(), rng.randrange(2)
                lines.append(f"measure {q} -> {first}")
                lines.append(f"rewind {snaps[-1]} if {first} == {bit}")
                lines.append(f"measure {q} -> {first}r if {first} == {bit}")
            continue
        elif kind < 18:
            line = f"rewind {snaps[rng.randrange(len(snaps))]}"
        else:
            line = f"clone {snaps[rng.randrange(len(snaps))]}"
        # measurements stay unconditional: a later condition may read them
        if labels and not line.startswith("measure") and rng.bernoulli(0.25):
            line += f" if {labels[rng.randrange(len(labels))]} == {rng.randrange(2)}"
        lines.append(line)
    lines.append(f"accept {rng.randrange(n)}")
    return "\n".join(lines) + "\n"


def _reference(circuit, rng: SplitMix64, min_prob: float):
    """(record entries, accept bit, final state) of a walk over full vectors."""
    sv = statevector
    state, snapshots, record = sv.init(circuit.n_qubits), {}, MeasurementRecord()
    for instr in circuit.instructions:
        if isinstance(instr, Conditional):
            if not predicate_holds(instr.predicate, record):
                continue
            instr = instr.inner
        if isinstance(instr, GateOp):
            state = sv.apply_gate(state, instr.gate, instr.targets)
        elif isinstance(instr, Measure):
            bit, prob, state = sv.measure(state, instr.qubit, rng)
            record.add(instr.label, bit, prob)
        elif isinstance(instr, Postselect):
            _, state = sv.postselect(state, instr.qubit, instr.bit, min_prob)
        elif isinstance(instr, Snapshot):
            snapshots[instr.label] = state
        elif isinstance(instr, Rewind):
            try:
                state = sv.rewind(snapshots[instr.label], state)
            except RewindConsistencyError:  # the interpreter's refusal names the label
                raise RewindConsistencyError(
                    f"state is not a one-outcome collapse of snapshot {instr.label!r}"
                ) from None
        elif isinstance(instr, Clone):
            state = snapshots[instr.label]
    accept, accept_bit = accept_qubit(circuit), None
    if accept is not None:
        accept_bit, _, state = sv.measure(state, accept, rng)
    return record.entries, accept_bit, state


def _outcome(run):
    """What a run returns, or the class and message of the refusal it raises."""
    try:
        return run()
    except REFUSALS as exc:
        return type(exc), str(exc)


def _both_ways(c, trial, seed: int, min_prob: float):
    """The outcomes of one seeded run of ``trial`` and of the reference walk."""

    def run():
        r = trial(SplitMix64(seed))
        return r.record.entries, r.accept_bit, r.final_state

    return _outcome(run), _outcome(lambda: _reference(c, SplitMix64(seed), min_prob))


def _assert_same_run(got, want, context) -> None:
    if isinstance(want[0], type) or isinstance(got[0], type):
        assert got == want, context
        return
    (entries, accept_bit, state), (want_entries, want_accept, want_state) = got, want
    assert [e[:2] for e in entries] == [e[:2] for e in want_entries], context
    assert np.allclose([e[2] for e in entries], [e[2] for e in want_entries],
                       rtol=0.0, atol=TOL), context
    assert accept_bit == want_accept, context
    assert state.n == want_state.n, context
    assert np.allclose(state.amps, want_state.amps, rtol=0.0, atol=TOL), context


@pytest.mark.parametrize("case", range(CASES))
def test_sampled_runs_match_the_dense_walk(case):
    rng = SplitMix64(stream_seed(0x5F1, case))
    text = _random_circuit(rng)
    c = parse_circuit(text)
    min_prob = (0.0, 0.3, 0.6)[rng.randrange(3)]
    trial = sampler(c, statevector.KERNEL, min_postselect_prob=min_prob)
    for i in range(TRIALS):
        got, want = _both_ways(c, trial, stream_seed(case, i), min_prob)
        _assert_same_run(got, want, (text, min_prob, i))


def _dense_amplitudes(amps: dict, n: int) -> np.ndarray:
    """A path-sum map (qubit q is bit q) as a dense vector (qubit 0 first)."""
    out = np.zeros(1 << n, dtype=complex)
    for key, amp in amps.items():
        out[sum(1 << (n - 1 - q) for q in range(n) if key >> q & 1)] = amp
    return out


def _sample_alike(c, seeds, context, min_prob: float = 0.0) -> None:
    """Seeded runs of ``c`` on the dense kernel and on the path sum must give
    the same records, accept bits and final states, or the same refusal."""
    trials = [
        sampler(c, kernel, min_postselect_prob=min_prob)
        for kernel in (statevector.KERNEL, pathsum.KERNEL)
    ]
    for seed in seeds:
        dense, paths = (_outcome(lambda: trial(SplitMix64(seed))) for trial in trials)
        where = (context, seed)
        if isinstance(dense, tuple) or isinstance(paths, tuple):
            assert paths == dense, where
            continue
        assert [e[:2] for e in paths.record.entries] == [e[:2] for e in dense.record.entries]
        assert np.allclose([e[2] for e in paths.record.entries],
                           [e[2] for e in dense.record.entries], rtol=0.0, atol=TOL), where
        assert paths.accept_bit == dense.accept_bit, where
        got = _dense_amplitudes(paths.final_state, c.n_qubits)
        assert np.allclose(got, dense.final_state.amps, rtol=0.0, atol=TOL), where


@pytest.mark.parametrize("case", range(CASES))
def test_path_sum_samples_as_the_dense_kernel(case):
    rng = SplitMix64(stream_seed(0x5F3, case))
    text = _random_circuit(rng)
    min_prob = (0.0, 0.3, 0.6)[rng.randrange(3)]
    seeds = [stream_seed(case, i) for i in range(TRIALS)]
    _sample_alike(parse_circuit(text), seeds, (text, min_prob), min_prob)


@pytest.mark.parametrize("name", SHIPPED)
def test_path_sum_samples_the_shipped_circuits_as_the_dense_kernel(name):
    c = parse_circuit((REPO / "circuits" / name).read_text())
    _sample_alike(c, [stream_seed(0x5F5, i) for i in range(100)], name)


@pytest.mark.parametrize("case", range(CASES))
def test_exact_oracles_match_the_path_sum(case):
    # a circuit without rewinds, which neither kernel refuses, then one with
    for stream, rewinds in ((0x5F2, False), (0x5F4, True)):
        text = _random_circuit(SplitMix64(stream_seed(stream, case)), rewinds)
        c = parse_circuit(text)
        got, want = (
            _outcome(lambda: outcome_distribution(c, kernel))
            for kernel in (statevector.KERNEL, pathsum.KERNEL)
        )
        if isinstance(got, tuple) or isinstance(want, tuple):
            assert got == want, text
            continue
        assert got.keys() == want.keys(), text
        for key, weight in want.items():
            assert abs(got[key] - weight) <= TOL, (text, key)
        accepts = strong_probability(c, statevector.KERNEL, {accept_qubit(c): 1})
        assert abs(accepts - pathsum.acceptance_probability(c)) <= TOL, text


def _same_refusal(text: str, min_prob: float = 0.0, seeds=range(8)):
    """Run ``text`` both ways; every seed must refuse, with the same error."""
    c = parse_circuit(text)
    trial = sampler(c, statevector.KERNEL, min_postselect_prob=min_prob)
    refusals = set()
    for i in seeds:
        got, want = _both_ways(c, trial, i, min_prob)
        assert got == want and isinstance(got[0], type), (text, i)
        refusals.add(got)
    return refusals


def test_a_strict_rewind_after_two_measurements_is_refused_alike():
    (refusal,) = _same_refusal(
        "qubits 3\ngate h 0\ngate h 1\nmeasure 2 -> z\nsnapshot s\n"
        "measure 0 -> a\nmeasure 1 -> b\nrewind s\n"
    )
    assert refusal == (
        RewindConsistencyError, "state is not a one-outcome collapse of snapshot 's'"
    )


def test_a_strict_rewind_after_a_gate_is_refused_alike():
    # one more fixed qubit than the snapshot, but the gate moved the rest
    (refusal,) = _same_refusal(
        "qubits 3\ngate h 0\nmeasure 2 -> z\nsnapshot s\nmeasure 0 -> a\ngate h 1\nrewind s\n"
    )
    assert refusal[0] is RewindConsistencyError


def test_a_strict_rewind_onto_another_fixed_bit_is_refused_alike():
    # qubit 0 is fixed in both states, to a different bit in each
    _same_refusal(
        "qubits 2\ngate h 0\ngate h 1\nmeasure 0 -> a\nsnapshot s\ngate x 0\n"
        "measure 0 -> b\nmeasure 1 -> c\nrewind s\n"
    )


def test_postselecting_a_measured_qubits_other_value_is_refused_alike():
    refusals = _same_refusal(
        "qubits 2\ngate h 0\ngate h 1\nmeasure 0 -> a\n"
        "postselect 0 = 1 if a == 0\npostselect 0 = 0 if a == 1\n"
    )
    assert refusals == {
        (InvalidPostselectionError, f"outcome {bit} on qubit 0 has probability 0.000e+00")
        for bit in (0, 1)
    }


def test_the_postselection_threshold_is_applied_alike():
    (refusal,) = _same_refusal("qubits 2\ngate h 1\npostselect 1 = 0\n", min_prob=0.6)
    assert refusal == (PostselectThresholdError,
                       "postselection probability 0.5 below required 0.6")
    # a measured qubit postselected onto its bit passes any threshold
    c = parse_circuit("qubits 2\ngate h 1\nmeasure 1 -> m\npostselect 1 = 1 if m == 1\n"
                      "postselect 1 = 0 if m == 0\naccept 1\n")
    trial = sampler(c, statevector.KERNEL, min_postselect_prob=0.99)
    for i in range(8):
        r = trial(SplitMix64(i))
        assert r.accept_bit == r.record.bit("m")


def test_a_trial_on_a_wide_state_allocates_no_full_width_copy():
    n = 16
    c = parse_circuit(
        f"qubits {n}\n" + "".join(f"gate h {q}\n" for q in range(n))
        + "measure 3 -> m\nsnapshot s\nmeasure 0 -> r1\nrewind s if r1 == 1\n"
        "measure 0 -> r2 if r1 == 1\nclone s\naccept 9\n"
    )
    trial = sampler(c, statevector.KERNEL)
    trial(SplitMix64(0))  # runs the shared prefix, up to the first measurement
    full = np.dtype(complex).itemsize << n
    peaks = []
    tracemalloc.start()
    try:
        for i in range(1, 10):
            tracemalloc.reset_peak()
            trial(SplitMix64(i))
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 1.5 * full, [p >> 10 for p in peaks]
