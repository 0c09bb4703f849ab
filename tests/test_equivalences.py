"""The paper's equivalences as rewrite identities that every kernel honours.

Rewindable, cloning and adaptively postselecting computation are equally
powerful (Hiromasa et al., arXiv:2206.05434, RwBQP = CBQP = AdPostBQP).  The
rewrites behind that theorem are exact identities on the backends here:

(a) rewinding is exact: ``snapshot; measure; rewind`` inserted before any
    instruction is certified by strict rewind and leaves every other label's
    distribution and the acceptance unchanged once the inserted label is
    summed out.  A rewind after two random one-qubit collapses is refused;
(b) cloning is a copy: ``snapshot L; <gates>; clone L`` equals the circuit
    without those gates;
(c) adaptive postselection is rewinding until success: a k-try retry block in
    place of ``postselect q = b`` succeeds with probability 1 - (1 - p)^k, and
    given success it accepts as the postselected circuit does.

Each rewrite runs on the random circuits of ``conftest`` and is compared on
the exact oracles (floats to 1e-9, tableau ``Fraction`` weights exactly) and
on seeded sampled runs, on the dense kernel and the path sum, and on the
tableau too for Clifford circuits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (
    CLIFFORD_POOL,
    GENERAL_POOL,
    _gate_line,
    random_clifford_circuit,
    random_general_circuit,
)
from rwsim import pathsum, stabilizer, statevector
from rwsim.circuit import (
    InvalidPostselectionError,
    RewindConsistencyError,
    enumerate_branches,
    outcome_distribution,
    parse_circuit,
    sampler,
    strong_probability,
)
from rwsim.rng import SplitMix64, stream_seed

TOL = 1e-9
SAMPLES = 8  # seeded runs per circuit in the record comparisons
SNAP, INS, INS2, RETRY = "eq_snap", "eq_ins", "eq_ins2", "eq_r"
SV, STAB, PS = statevector.KERNEL, stabilizer.KERNEL, pathsum.KERNEL


def _general(seed: int) -> tuple[SplitMix64, list[str]]:
    rng = SplitMix64(stream_seed(0xE9A, seed))
    return rng, random_general_circuit(rng, n_max=4, gate_max=12, h_max=6).splitlines()


def _clifford(seed: int) -> tuple[SplitMix64, list[str]]:
    rng = SplitMix64(stream_seed(0xE9C, seed))
    return rng, random_clifford_circuit(rng, n_max=6, gate_max=24).splitlines()


def _width(lines: list[str]) -> int:
    return int(lines[0].split()[1])


def _parse(lines: list[str]):
    return parse_circuit("\n".join(lines) + "\n")


def _position(rng: SplitMix64, lines: list[str]) -> int:
    """A line to insert before: any instruction, or the end if no ``accept`` is last."""
    return 1 + rng.randrange(len(lines) - lines[-1].startswith("accept"))


def _pairs(key: str) -> list[tuple[str, int]]:
    return [(p.split("=")[0], int(p.split("=")[1])) for p in key.split(",") if p]


def _key(pairs) -> str:
    return ",".join(f"{label}={bit}" for label, bit in pairs)


def _marginal(dist: dict, drop) -> dict:
    """``dist`` with the labels for which ``drop(label)`` holds summed out."""
    out: dict = {}
    for key, weight in dist.items():
        kept = _key((label, bit) for label, bit in _pairs(key) if not drop(label))
        out[kept] = out.get(kept, 0) + weight
    return out


def _assert_same(got: dict, want: dict, context) -> None:
    assert got.keys() == want.keys(), context
    for key, value in want.items():
        assert abs(got[key] - value) <= TOL, (context, key, got[key], value)


def _sv_acceptance_by_key(circuit) -> tuple[dict, dict]:
    """sv oracle: q_z and q_z * P(accept | z) per outcome key."""
    accept = circuit.accept
    weights, accepted = {}, {}
    for key, weight, state in enumerate_branches(circuit, statevector.KERNEL):
        weights[key] = weight
        accepted[key] = weight * statevector.prob_of_bit(state, accept, 1)
    return weights, accepted


def _acceptance(circuit) -> float:
    """The dense oracle's P(accept = 1)."""
    return strong_probability(circuit, SV, {circuit.accept: 1})


def _records(kernel, circuit, master: int):
    """(bits, accept bit, final state) of seeded runs of one sampler on
    ``kernel``; ``("refused", None, None)`` for a run stopped by an
    impossible postselection."""
    out, trial = [], sampler(circuit, kernel)
    for i in range(SAMPLES):
        try:
            r = trial(SplitMix64(stream_seed(master, i)))
        except InvalidPostselectionError:
            out.append(("refused", None, None))
            continue
        bits = [(label, bit) for label, (bit, _) in r.record.items()]
        out.append((bits, r.accept_bit, r.final_state))
    return out


def _assert_same_records(got, want, context) -> None:
    for (bits, acc, state), (want_bits, want_acc, want_state) in zip(got, want):
        assert (bits, acc) == (want_bits, want_acc), context
        if isinstance(state, statevector.PureState):
            assert np.allclose(state.amps, want_state.amps, rtol=0.0, atol=1e-12), context
        elif isinstance(state, pathsum.AmplitudeMap):  # the same amplitudes, bit for bit
            assert state == want_state, context
        elif state is not None:  # a tableau: the same rows, bit for bit
            for part in ("X", "Z", "r"):
                assert np.array_equal(getattr(state, part), getattr(want_state, part)), context


# ---------------------------------------------------------------------------
# (a) rewinding is exact


def _insert_rewind(rng: SplitMix64, lines: list[str]) -> list[str]:
    pos = _position(rng, lines)
    q = rng.randrange(_width(lines))
    block = [f"snapshot {SNAP}", f"measure {q} -> {INS}", f"rewind {SNAP}"]
    return lines[:pos] + block + lines[pos:]


def test_inserted_rewind_is_invisible_on_the_dense_oracle():
    for seed in range(24):
        rng, lines = _general(seed)
        rewound_lines = _insert_rewind(rng, lines)
        base, rewound = _parse(lines), _parse(rewound_lines)
        context = "\n".join(rewound_lines)
        for kernel in (SV, PS):
            _assert_same(
                _marginal(outcome_distribution(rewound, kernel), INS.__eq__),
                outcome_distribution(base, kernel), context,
            )
            _records(kernel, rewound, seed)  # strict rewind certifies every run
        assert abs(
            _acceptance(rewound) - _acceptance(base)
        ) <= TOL, context
        assert abs(
            pathsum.acceptance_probability(rewound) - pathsum.acceptance_probability(base)
        ) <= TOL, context


def test_inserted_rewind_is_invisible_on_clifford_circuits():
    for seed in range(24):
        rng, lines = _clifford(seed)
        base, rewound = _parse(lines), _parse(_insert_rewind(rng, lines))
        exact = outcome_distribution(rewound, STAB)
        assert _marginal(exact, INS.__eq__) == outcome_distribution(base, STAB)
        assert strong_probability(rewound, STAB, {0: 1}) == strong_probability(
            base, STAB, {0: 1}
        )
        for kernel in (SV, PS):
            _assert_same(
                _marginal(outcome_distribution(rewound, kernel), INS.__eq__),
                outcome_distribution(base, kernel), lines,
            )
        for kernel in (SV, STAB, PS):
            _records(kernel, rewound, seed)  # strict rewind certifies every run


def test_rewind_after_two_collapses_is_refused():
    """Two fresh qubits in |+>|+> measured after the snapshot: no one-qubit
    collapse of the snapshot matches, so strict rewind refuses everywhere."""
    for seed in range(12):
        rng, lines = _clifford(seed)
        n = _width(lines)
        pos = _position(rng, lines)
        block = [
            f"gate h {n}", f"gate h {n + 1}", f"snapshot {SNAP}",
            f"measure {n} -> {INS}", f"measure {n + 1} -> {INS2}", f"rewind {SNAP}",
        ]
        circuit = _parse([f"qubits {n + 2}"] + lines[1:pos] + block + lines[pos:])
        for kernel in (SV, STAB, PS):
            with pytest.raises(RewindConsistencyError):
                outcome_distribution(circuit, kernel)
            with pytest.raises(RewindConsistencyError):
                sampler(circuit, kernel)(SplitMix64(seed))


# ---------------------------------------------------------------------------
# (b) cloning is a copy


def _clone_form(rng: SplitMix64, lines: list[str], pool) -> list[str]:
    """``lines`` with ``snapshot L; <gates>; clone L`` inserted."""
    pos = _position(rng, lines)
    gates = [_gate_line(rng, _width(lines), pool, None)[0] for _ in range(1 + rng.randrange(3))]
    return lines[:pos] + [f"snapshot {SNAP}", *gates, f"clone {SNAP}"] + lines[pos:]


def test_clone_is_a_copy_on_the_dense_backend():
    for seed in range(24):
        rng, lines = _general(seed)
        cloned_lines = _clone_form(rng, lines, GENERAL_POOL)
        base, cloned = _parse(lines), _parse(cloned_lines)
        context = "\n".join(cloned_lines)
        assert abs(
            _acceptance(cloned) - _acceptance(base)
        ) <= TOL, context
        assert abs(
            pathsum.acceptance_probability(cloned) - pathsum.acceptance_probability(base)
        ) <= TOL, context
        for kernel in (SV, PS):
            _assert_same(
                outcome_distribution(cloned, kernel),
                outcome_distribution(base, kernel), context,
            )
            want = _records(kernel, base, seed)
            _assert_same_records(_records(kernel, cloned, seed), want, context)


def test_clone_is_a_copy_on_clifford_circuits():
    for seed in range(24):
        rng, lines = _clifford(seed)
        cloned_lines = _clone_form(rng, lines, CLIFFORD_POOL)
        base, cloned = _parse(lines), _parse(cloned_lines)
        assert outcome_distribution(cloned, STAB) == outcome_distribution(
            base, STAB
        ), cloned_lines
        for kernel in (SV, PS):
            _assert_same(
                outcome_distribution(cloned, kernel),
                outcome_distribution(base, kernel), cloned_lines,
            )
        for kernel in (SV, STAB, PS):
            want = _records(kernel, base, seed)
            _assert_same_records(_records(kernel, cloned, seed), want, cloned_lines)


# ---------------------------------------------------------------------------
# (c) adaptive postselection is rewinding until success


def _retry_block(q: int, bit: int, tries: int) -> list[str]:
    """Measure ``q`` until it reads ``bit``, at most ``tries`` times."""
    block, misses = [f"snapshot {SNAP}"], []
    for t in range(tries):
        guard = f" if {' && '.join(misses)}" if misses else ""
        if t:
            block.append(f"rewind {SNAP}{guard}")
        block.append(f"measure {q} -> {RETRY}{t}{guard}")
        misses.append(f"{RETRY}{t} == {1 - bit}")
    return block


def _postselect_cases(count: int):
    """(lines, position of a postselect, its qubit and bit, tries) per case."""
    seed = 0
    while count:
        rng, lines = _general(1000 + seed)
        seed += 1
        spots = [i for i, line in enumerate(lines) if line.startswith("postselect")]
        if not spots:
            continue
        pos = spots[rng.randrange(len(spots))]
        _, q, _, bit = lines[pos].split()
        yield lines, pos, int(q), int(bit), 1 + rng.randrange(3)
        count -= 1


def _success_rates(lines: list[str], pos: int, q: int, bit: int, tries: int) -> dict:
    """Prefix outcome -> (its weight, 1 - (1 - p)^tries), where a prefix
    outcome reads the labels measured before the postselection at ``pos`` and
    p is the postselected bit's probability there.  p comes from the path-sum
    oracle, with a measurement in place of the postselection."""
    probe = outcome_distribution(_parse(lines[:pos] + [f"measure {q} -> {INS}"]), pathsum.KERNEL)
    reads: dict = {}
    for key, weight in probe.items():
        *prefix, (_, read) = _pairs(key)
        total, hit = reads.get(_key(prefix), (0.0, 0.0))
        reads[_key(prefix)] = (total + weight, hit + weight * (read == bit))
    return {
        prefix: (total, 1.0 - (1.0 - hit / total) ** tries)
        for prefix, (total, hit) in reads.items()
    }


def _succeeded(pairs, bit: int) -> bool:
    return [b for label, b in pairs if label.startswith(RETRY)][-1] == bit


def test_retry_block_equals_adaptive_postselection():
    successes = expected = variance = 0.0
    for case, (lines, pos, q, bit, tries) in enumerate(_postselect_cases(20)):
        block = _retry_block(q, bit, tries)
        retry_lines = lines[:pos] + block + lines[pos + 1 :]
        posted, retry, context = _parse(lines), _parse(retry_lines), "\n".join(retry_lines)
        before = {line.split()[3] for line in lines[1:pos] if line.startswith("measure")}
        rates = _success_rates(lines, pos, q, bit, tries)

        # the retry form on the dense oracle: its success leaves, keyed by the
        # postselected circuit's labels
        won, won_accepting = {}, {}
        weights, accepted = _sv_acceptance_by_key(retry)
        for key, weight in weights.items():
            pairs = _pairs(key)
            if _succeeded(pairs, bit):
                kept = _key((label, b) for label, b in pairs if not label.startswith(RETRY))
                won[kept] = won.get(kept, 0.0) + weight
                won_accepting[kept] = won_accepting.get(kept, 0.0) + accepted[key]
        won_total, won_accepting_total = sum(won.values()), sum(won_accepting.values())

        # per outcome z of the postselected form (path-sum oracle, the dense
        # oracle beside it), the retry form succeeds with weight
        # q_z (1 - (1 - p)^k) and then accepts with the same P(accept | z)
        sv_weights, sv_accepted = _sv_acceptance_by_key(posted)
        accept, mass = posted.accept, 0.0
        for key, q_z, state in enumerate_branches(posted, pathsum.KERNEL):
            _, s = rates[_key((label, b) for label, b in _pairs(key) if label in before)]
            a_z = pathsum.KERNEL.prob(state, accept, 1)
            mass += q_z
            assert abs(won.pop(key, 0.0) - q_z * s) <= TOL, (context, key)
            assert abs(won_accepting.pop(key, 0.0) - q_z * s * a_z) <= TOL, (context, key)
            assert abs(sv_weights.pop(key, 0.0) - q_z) <= TOL, (context, key)
            assert abs(sv_accepted.pop(key, 0.0) - q_z * a_z) <= TOL, (context, key)
        assert all(w <= TOL for w in [*won.values(), *sv_weights.values()]), context

        if not before and rates:  # one prefix: the closed forms hold for the whole circuit
            ((_, s),) = rates.values()
            assert abs(won_total - s * mass) <= TOL, context
            assert abs(
                won_accepting_total - s * pathsum.acceptance_probability(posted)
            ) <= TOL, context

        # seeded sampled runs, cut after the retry block, succeed at the rate
        # the oracles give; a run refused by an earlier postselection fails
        head = sampler(_parse(lines[:pos] + block), SV)
        for i in range(40):
            try:
                r = head(SplitMix64(stream_seed(0xE9D + case, i)))
            except InvalidPostselectionError:
                continue
            successes += _succeeded([(label, b) for label, (b, _) in r.record.items()], bit)
        p_success = sum(total * s for total, s in rates.values())
        expected += 40 * p_success
        variance += 40 * p_success * (1.0 - p_success)
    assert abs(successes - expected) <= 4.5 * math.sqrt(variance)
