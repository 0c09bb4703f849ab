"""The dense kernel against a step-by-step walk of the dense primitives.

Under the interpreter the statevector kernel keeps every qubit in a basis
state out of its dense array: a state is the amplitudes of the unfixed
qubits plus the fixed ``(qubit, bit)`` pairs, and monomial gates move and
phase fixed qubits without touching the array.  These tests pin that this
changes nothing a run can see.  Random circuits, of the whole gate set and
of mostly monomial gates, run through ``sampler(c, statevector.KERNEL)`` and
through a reference walk that calls the module-level ``apply_gate``,
``measure``, ``postselect`` and ``rewind`` on full vectors; records, branch
probabilities, final amplitudes and every refusal must agree.  A table runs
each gate on every choice of fixed targets and bits against ``apply_gate``.
The path-sum kernel runs the same circuits, and its samplers and exact
oracles must agree with the dense kernel's too.  Tests then pin what the
split saves, with ``tracemalloc``: no full-width vector is built by a trial
on a wide state, by a rewind certified or refused on a wide state, or by a
wide prefix of basis states.  The last ones pin strict rewind's tolerance
on every certificate path: plain vectors, kernel states with the measured
qubit fixed or in the core, and the path sum.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import GENERAL_POOL, REPO, _gate_line
from rwsim import pathsum, statevector
from rwsim.circuit import (
    Clone,
    GateOp,
    InvalidPostselectionError,
    Measure,
    Postselect,
    PostselectThresholdError,
    Rewind,
    RewindConsistencyError,
    Snapshot,
    outcome_distribution,
    parse_circuit,
    predicate_holds,
    sampler,
    strong_probability,
)
from rwsim.gates import CCZ, CH, CZ, SWAP, H, S, X, hk, rz
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


MONOMIAL_POOL = ("x", "s", "rz", "cz", "ccz", "swap")
BRANCHING_POOL = ("h", "hk", "ch")


def _basis_heavy_circuit(rng: SplitMix64) -> str:
    """4-8 qubits of mostly monomial gates (``x``, ``s``, ``rz``, ``cz``,
    ``ccz``, ``swap``) with at most three branching ones (``h``, ``hk``,
    ``ch``), so most qubits stay in a basis state and the kernel keeps them
    fixed; with measurements, a few postselections, conditionals, retry
    blocks and clones."""
    n = 4 + rng.randrange(5)
    lines = [f"qubits {n}"]
    labels: list[str] = []
    snaps: list[str] = []
    branching = rng.randrange(4)
    for _ in range(10 + rng.randrange(30)):
        kind = rng.randrange(20)
        q = rng.randrange(n)
        if kind < 15:
            pool = MONOMIAL_POOL
            if branching and rng.bernoulli(0.15):
                pool, branching = BRANCHING_POOL, branching - 1
            line, _ = _gate_line(rng, n, pool, None)
        elif kind < 17:
            labels.append(f"m{len(labels)}")
            lines.append(f"measure {q} -> {labels[-1]}")
            continue
        elif kind < 18:
            line = f"postselect {q} = {rng.randrange(2)}"
        elif kind < 19 or not snaps:  # a retry block
            snaps.append(f"s{len(snaps)}")
            first, bit = f"m{len(labels)}", rng.randrange(2)
            labels.append(first)
            lines += [f"snapshot {snaps[-1]}", f"measure {q} -> {first}",
                      f"rewind {snaps[-1]} if {first} == {bit}",
                      f"measure {q} -> {first}r if {first} == {bit}"]
            continue
        else:
            line = f"clone {snaps[rng.randrange(len(snaps))]}"
        if labels and rng.bernoulli(0.25):
            line += f" if {labels[rng.randrange(len(labels))]} == {rng.randrange(2)}"
        lines.append(line)
    lines.append(f"accept {rng.randrange(n)}")
    return "\n".join(lines) + "\n"


def _reference(circuit, rng: SplitMix64, min_prob: float):
    """(record entries, accept bit, final state) of a walk over full vectors."""
    sv = statevector
    state, snapshots, record = sv.init(circuit.n_qubits), {}, {}
    for instr in circuit.instructions:
        if not predicate_holds(instr.when, record):
            continue
        if isinstance(instr, GateOp):
            state = sv.apply_gate(state, instr.gate, instr.targets)
        elif isinstance(instr, Measure):
            bit, prob, state = sv.measure(state, instr.qubit, rng)
            record[instr.label] = bit, prob
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
    accept, accept_bit = circuit.accept, None
    if accept is not None:
        accept_bit, _, state = sv.measure(state, accept, rng)
    return _entries(record), accept_bit, state


def _entries(record) -> list:
    """A record as (label, bit, probability) triples, in the order measured."""
    return [(label, bit, prob) for label, (bit, prob) in record.items()]


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
        return _entries(r.record), r.accept_bit, r.final_state

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


def _sampled_alike(rng: SplitMix64, text: str, case: int) -> None:
    """Seeded trials of ``text``'s sampler must match the reference walk."""
    c = parse_circuit(text)
    min_prob = (0.0, 0.3, 0.6)[rng.randrange(3)]
    trial = sampler(c, statevector.KERNEL, min_postselect_prob=min_prob)
    for i in range(TRIALS):
        got, want = _both_ways(c, trial, stream_seed(case, i), min_prob)
        _assert_same_run(got, want, (text, min_prob, i))


@pytest.mark.parametrize("case", range(CASES))
def test_sampled_runs_match_the_dense_walk(case):
    rng = SplitMix64(stream_seed(0x5F1, case))
    _sampled_alike(rng, _random_circuit(rng), case)


@pytest.mark.parametrize("case", range(CASES))
def test_basis_heavy_runs_match_the_dense_walk(case):
    rng = SplitMix64(stream_seed(0x5F6, case))
    _sampled_alike(rng, _basis_heavy_circuit(rng), case)


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
        paths_entries, dense_entries = _entries(paths.record), _entries(dense.record)
        assert [e[:2] for e in paths_entries] == [e[:2] for e in dense_entries], where
        assert np.allclose([e[2] for e in paths_entries],
                           [e[2] for e in dense_entries], rtol=0.0, atol=TOL), where
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
        accepts = strong_probability(c, statevector.KERNEL, {c.accept: 1})
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
        assert r.accept_bit == r.record["m"][0]


def _peaks(trial, seeds) -> list[int]:
    """Traced peak bytes of one trial per seed."""
    peaks = []
    tracemalloc.start()
    try:
        for seed in seeds:
            tracemalloc.reset_peak()
            trial(SplitMix64(seed))
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peaks


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
    peaks = _peaks(trial, range(1, 10))
    assert max(peaks) < 1.5 * full, [p >> 10 for p in peaks]


# ---------------------------------------------------------------------------
# gates on fixed qubits

WIDTH = 5
TARGETS = (3, 0, 4)  # out of order, around a core qubit (1) and a fixed one (2)


def _with_fixed(bits: dict[int, int]):
    """A kernel state on ``WIDTH`` qubits whose qubits in ``bits`` (and
    qubit 2, at 1) are fixed to those bits and whose other qubits hold
    uneven amplitudes and phases, entangled by ``ch`` and ``cz``."""
    kernel, bits = statevector.KERNEL, {2: 1, **bits}
    state = kernel.init(WIDTH)
    core = [q for q in range(WIDTH) if q not in bits]
    for q in range(WIDTH):
        for g in [X] * bits[q] if q in bits else [hk(q - 2), rz(0.3 + q)]:
            state = kernel.apply(state, GateOp(g, (q,)))
    for a, b in zip(core, core[1:]):
        state = kernel.apply(state, GateOp(CH, (a, b)))
        state = kernel.apply(state, GateOp(CZ, (b, a)))
    assert state.fixed == bits
    return state


def _fixed_choices(arity: int):
    """Every choice of fixed targets among ``TARGETS[:arity]``, with every
    choice of their bits."""
    targets = TARGETS[:arity]
    for held in itertools.product((False, True), repeat=arity):
        chosen = [q for q, h in zip(targets, held) if h]
        for bits in itertools.product((0, 1), repeat=len(chosen)):
            yield dict(zip(chosen, bits))


@pytest.mark.parametrize("g", [X, S, rz(0.7), CZ, CCZ, SWAP, H, hk(2), CH],
                         ids=lambda g: g.name)
def test_a_gate_on_fixed_targets_matches_the_full_vector(g):
    targets = TARGETS[:g.arity]
    for bits in _fixed_choices(g.arity):
        state = _with_fixed(bits)
        got = statevector.KERNEL.apply(state, GateOp(g, targets))
        want = statevector.apply_gate(state, g, targets)  # on the full vector
        assert np.allclose(got.amps, want.amps, rtol=0.0, atol=TOL), (g, bits)
        # a monomial gate keeps its fixed targets fixed, except that a swap of
        # a fixed qubit with a core qubit fixes the core qubit instead; every
        # other gate moves them into the core
        if g is SWAP and len(bits) == 1:
            want_fixed = state.fixed.keys() - bits | set(targets) - bits.keys()
        elif g.monomial is not None:
            want_fixed = state.fixed.keys()
        else:
            want_fixed = state.fixed.keys() - bits
        assert got.fixed.keys() == want_fixed
        assert got.core.n == got.n - len(got.fixed)


def _swap_by_unfixing(state, targets):
    """A swap by the path of the other gates: its fixed target moved back
    into the core first, then the swap on the core."""
    moved = statevector._unfix(state, [q for q in targets if q in state.fixed])
    core = statevector.apply_gate(moved.core, SWAP, tuple(map(moved.position, targets)))
    return statevector._KernelState(moved.n, core, moved.fixed)


@pytest.mark.parametrize("bits", [{}, {0: 0}, {4: 1}, {1: 1, 3: 0}], ids=str)
def test_a_swap_of_a_fixed_and_a_core_qubit_keeps_the_core_width(bits):
    state = _with_fixed(bits)
    core = [q for q in range(WIDTH) if q not in state.fixed]
    for held, free in itertools.product(state.fixed, core):
        for targets in ((held, free), (free, held)):
            got = statevector.KERNEL.apply(state, GateOp(SWAP, targets))
            assert got.core.n == state.core.n, targets
            moved = {q: b for q, b in state.fixed.items() if q != held}
            assert got.fixed == {**moved, free: state.fixed[held]}, targets
            want = _swap_by_unfixing(state, targets)
            assert got.amps.tobytes() == want.amps.tobytes(), targets


def test_a_rewind_of_a_fixed_qubit_is_certified_on_the_cores():
    # measuring fixed qubit 5 leaves the state as it is, up to the phase
    # that s gives it; a new state each trial, so no full vector that an
    # earlier trial built is reused
    n = 16
    c = parse_circuit(
        f"qubits {n}\ngate h 0\ngate x 5\nsnapshot s\nmeasure 5 -> m\ngate s 5\n"
        "rewind s\nmeasure 0 -> a\naccept 9\n"
    )
    trial = sampler(c, statevector.KERNEL)
    trial(SplitMix64(0))  # runs the shared prefix, up to the first measurement
    full = np.dtype(complex).itemsize << n
    peaks = _peaks(trial, range(1, 10))
    assert max(peaks) < full / 16, [p >> 10 for p in peaks]


REFUSED_S = (RewindConsistencyError, "state is not a one-outcome collapse of snapshot 's'")


@pytest.mark.parametrize("middle, refusal", [("gate x 5\n", REFUSED_S),
                                             ("gate h 3\ngate h 3\n", None)],
                         ids=["refused", "certified"])
def test_a_rewind_on_a_wide_state_is_read_on_the_cores(middle, refusal):
    # the snapshot's core holds qubit 0 alone; qubit 5 is fixed in both
    # states (to another bit after x 5), and h h leaves qubit 3 in the
    # post-state's core at |0>
    n = 16
    c = parse_circuit(f"qubits {n}\ngate h 0\nsnapshot s\n{middle}measure 0 -> m\nrewind s\n")
    trial = sampler(c, statevector.KERNEL)
    for seed in range(4):
        got = _outcome(lambda: trial(SplitMix64(seed)))
        assert got == refusal if refusal else got.record["m"][0] in (0, 1)
    full = np.dtype(complex).itemsize << n
    fresh = sampler(c, statevector.KERNEL)
    peaks = _peaks(lambda rng: _outcome(lambda: fresh(rng)), range(8))
    assert max(peaks) < full / 16, [p >> 10 for p in peaks]


def _wide_circuit(rng: SplitMix64, n: int = 18) -> str:
    """An ``n``-qubit circuit shaped like the benchmark's wide one: 8
    branching gates, 30 monomial ones, a postselection and a measurement.
    Qubit 0 gets an ``h`` and then only diagonal gates, so postselecting it
    has probability 1/2."""
    qubits = list(range(1, n))
    picked = []
    for _ in range(7):
        picked.append(qubits.pop(rng.randrange(len(qubits))))
    lines = [f"qubits {n}", "gate h 0"]
    lines += [f"gate h {q}" for q in picked[:3]]
    lines += [f"gate hk {rng.randrange(3) - 1} {q}" for q in picked[3:5]]
    lines += [f"gate ch {c} {t}" for c, t in zip(picked[3:5], picked[5:])]
    for i in range(30):
        kind = MONOMIAL_POOL[i % 6]
        pool = range(1, n) if kind in ("x", "swap") else range(n)
        targets = []
        while len(targets) < {"cz": 2, "swap": 2, "ccz": 3}.get(kind, 1):
            q = pool[rng.randrange(len(pool))]
            if q not in targets:
                targets.append(q)
        param = f"{rng.uniform() * 3.0!r} " if kind == "rz" else ""
        lines.append(f"gate {kind} {param}" + " ".join(map(str, targets)))
    lines += ["postselect 0 = 0", f"measure {picked[0]} -> m"]
    return "\n".join(lines) + "\n"


def test_a_wide_prefix_of_basis_states_stays_small():
    n = 18
    trial = sampler(parse_circuit(_wide_circuit(SplitMix64(0x5F7), n)), statevector.KERNEL)
    (peak,) = _peaks(trial, [0])  # the first trial runs the prefix
    full = np.dtype(complex).itemsize << n
    assert peak < full / 8, peak >> 10


# ---------------------------------------------------------------------------
# strict rewind's tolerance on every certificate path

# (qubits the snapshot fixes, qubits the post-state fixes) of each kernel-state
# path, per mismatch; qubit 1 is measured onto 1 and qubit 3 is 1 throughout
KERNEL_PATHS = {
    "measured qubit fixed": {"overlap": ({3: 1}, {1: 1, 3: 1})},
    "measured qubit in the core": {"other": ({3: 1}, {3: 1}), "overlap": ({3: 1}, {3: 1})},
    "snapshot fixes it": {"other": ({1: 1, 3: 1}, {}), "overlap": ({1: 1, 3: 1}, {1: 1, 3: 1})},
}
CERTIFICATE_CASES = [("plain", kind) for kind in ("other", "overlap")] + [
    (path, kind) for path, kinds in KERNEL_PATHS.items() for kind in kinds
] + [("pathsum", kind) for kind in ("other", "overlap")]


def _mismatched(kind: str, eps: float, fixed: bool) -> tuple[np.ndarray, np.ndarray]:
    """(stored, post) on 4 qubits: post is stored collapsed onto qubit 1 = 1,
    off by ``eps`` in one of strict rewind's measures: weight ``eps`` on
    qubit 1 = 0 (``"other"``), or 1 - overlap = ``eps`` (``"overlap"``).
    Qubit 3 is 1 in both; if ``fixed``, qubit 1 is 1 in stored too."""
    rng = np.random.default_rng(7)
    a = (rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))).astype(complex)
    if fixed:
        a[:, 0, :] = 0.0
    stored = np.kron(a.reshape(-1), [0.0, 1.0])
    stored /= np.linalg.norm(stored)
    on_one = np.zeros((2, 2, 2, 2), dtype=bool)
    on_one[:, 1, :, 1] = True
    collapsed = np.where(on_one.reshape(-1), stored, 0.0)
    collapsed /= np.linalg.norm(collapsed)
    if kind == "other":  # the collapsed state with qubit 1 flipped
        flipped = collapsed.reshape(2, 2, 4)[:, ::-1, :].reshape(-1)
        return stored, math.sqrt(1.0 - eps) * collapsed + math.sqrt(eps) * flipped
    extra = np.where(on_one.reshape(-1), rng.normal(size=16) + 1j * rng.normal(size=16), 0.0)
    extra -= np.vdot(collapsed, extra) * collapsed
    extra /= np.linalg.norm(extra)
    return stored, (1.0 - eps) * collapsed + math.sqrt(1.0 - (1.0 - eps) ** 2) * extra


def _kernel_state(amps: np.ndarray, fixed: dict[int, int]):
    """The dense kernel's state of ``amps`` with the qubits of ``fixed``,
    which hold those bits, out of the core."""
    n = amps.size.bit_length() - 1
    core = amps.reshape([2] * n)[tuple(fixed.get(q, slice(None)) for q in range(n))]
    assert np.isclose(np.vdot(core, core).real, 1.0, rtol=0.0, atol=1e-15)
    return statevector._KernelState(n, statevector.PureState(n - len(fixed), core.reshape(-1)),
                                    fixed)


def _certifies(path: str, kind: str, stored: np.ndarray, post: np.ndarray) -> bool:
    if path == "plain":
        try:
            statevector.rewind(statevector.from_amplitudes(stored),
                               statevector.from_amplitudes(post))
        except RewindConsistencyError:
            return False
        return True
    if path == "pathsum":
        n = 4
        as_map = [pathsum.AmplitudeMap(n, {
            sum((i >> (n - 1 - q) & 1) << q for q in range(n)): amp
            for i, amp in enumerate(amps) if amp
        }) for amps in (stored, post)]
        return pathsum.KERNEL.is_collapse(*as_map)
    stored_fixed, post_fixed = KERNEL_PATHS[path][kind]
    return statevector.KERNEL.is_collapse(_kernel_state(stored, stored_fixed),
                                          _kernel_state(post, post_fixed))


@pytest.mark.parametrize("path, kind", CERTIFICATE_CASES)
def test_strict_rewind_holds_its_tolerance(path, kind):
    # REWIND_TOL is 1e-9: a mismatch of 1e-6 is refused, one of 1e-12 is not
    for eps, certified in ((1e-6, False), (1e-12, True)):
        stored, post = _mismatched(kind, eps, fixed=path == "snapshot fixes it")
        assert _certifies(path, kind, stored, post) == certified, eps
