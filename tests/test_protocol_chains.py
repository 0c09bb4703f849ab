"""Protocol copies walk cached chains of readings: same draws, same floats.

The reference functions below are the protocol loops as they were written
before the chains: every copy re-prepares, measures with the formula of
``measure`` written out, and undoes every miss with a strict rewind.  The
chained protocols must reproduce them exactly: decisions, plus-fractions,
failure counters, mitigation events and final states, and the RNG state
they leave.  They must also certify every rewind the reference performs,
and refuse where it refuses.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from rwsim import applications, mitigation, statevector
from rwsim.applications import (
    HIGH,
    LOW,
    BooleanFunction,
    FunctionFamily,
    LWEParams,
    PPDecision,
    _family_state,
    _sd_state,
    collision_find,
    lwe_family,
    pp_correct_probability,
    pp_decide,
    sd_image_reading,
    sd_trial,
    toy_two_regular,
)
from rwsim.gates import CH, H, hk
from rwsim.mitigation import (
    _ROUND,
    RANDOM_FALLBACK,
    SUCCESS,
    FlaggedState,
    MitigationTrace,
    extract_target,
    mitigate,
    nontarget_probability,
    p_max,
    preparation_state,
    prepare_psi,
    synthetic_flagged,
)
from rwsim.rng import _GAMMA, _MASK, SplitMix64, stream_seed
from rwsim.statevector import (
    PureState,
    Reading,
    RegisterReading,
    RewindConsistencyError,
    _collapse,
    apply_gate,
    apply_matrix,
    attach_zero,
    from_amplitudes,
    measure,
    measure_register,
    prob_of_bit,
    rewind,
    slice_qubit,
)

# ---------------------------------------------------------------------------
# the reference: the loops as written before the chains


def _ref_measure(state, qubit, rng):
    p0 = prob_of_bit(state, qubit, 0)
    p1 = prob_of_bit(state, qubit, 1)
    total = p0 + p1
    bit = 1 if rng.uniform() * total < p1 else 0
    prob = (p1 if bit else p0) / total
    return bit, prob, _collapse(state, qubit, bit, prob * total)


def _ref_retry(state, qubit, want, tries, rng):
    entry, bits = state, []
    while True:
        bit, _, state = _ref_measure(state, qubit, rng)
        bits.append(bit)
        if bit == want or len(bits) == tries:
            return bits, state
        state = statevector.rewind(entry, state)


def _ref_prepare_psi(table, rng):
    n = len(table).bit_length() - 1
    base = preparation_state(table)
    for attempt in range(1, n + 1):
        state = base.copy()
        all_zero = True
        for qubit in range(n):
            bit, _, state = _ref_measure(state, qubit, rng)
            if bit:
                all_zero = False
                break
        if all_zero:
            for _ in range(n):
                state = slice_qubit(state, 0, 0)
            return state, attempt
    return None, n


def _ref_make_flagged(psi, k):
    coin = hk(k).unitary()[:, 0]
    state = apply_gate(PureState(2, np.kron(coin, psi.amps)), CH, (0, 1))
    fs = FlaggedState(state, 1, 0.0)
    fs.p = nontarget_probability(fs)
    return fs


def _ref_mitigate(fs, n, rng):
    state, flag = fs.state, fs.flag_qubit
    events = []
    outcome = SUCCESS
    for i in range(2 * n + 3):
        ancilla = state.n
        work = apply_matrix(attach_zero(state), _ROUND, (flag, ancilla))
        bits, work = _ref_retry(work, ancilla, 0, 3 * n, rng)
        events += [(i, c, z) for c, z in enumerate(bits, start=1)]
        state = slice_qubit(work, ancilla, bits[-1])
        if bits[-1]:
            outcome = RANDOM_FALLBACK
            break
    final = FlaggedState(state, flag, 0.0)
    final.p = nontarget_probability(final)
    return final, MitigationTrace(events, outcome)


def _ref_extract_target(fs, n, rng):
    bits, work = _ref_retry(fs.state, fs.flag_qubit, 1, n, rng)
    return slice_qubit(work, fs.flag_qubit, 1) if bits[-1] else None


def _ref_x_basis_copy(f, k, rng):
    n = f.n
    psi, _ = _ref_prepare_psi(f.table, rng)
    if psi is None:
        return "-", "prep"
    fs, trace = _ref_mitigate(_ref_make_flagged(psi, k), n, rng)
    if trace.outcome == RANDOM_FALLBACK:
        return ("+" if rng.bernoulli(0.5) else "-"), "fallback"
    phi = _ref_extract_target(fs, n, rng)
    if phi is None:
        return "-", "extract"
    bit, _, _ = _ref_measure(apply_gate(phi, H, (0,)), 0, rng)
    return ("+" if bit == 0 else "-"), None


def _ref_pp_decide(f, rng, copies=64, tau=0.75):
    n = f.n
    fractions = {}
    failures = {"fallback": 0, "prep": 0, "extract": 0}
    decision = HIGH
    for k in range(-n, n + 1):
        plus = 0
        for _ in range(copies):
            symbol, failure = _ref_x_basis_copy(f, k, rng)
            if failure:
                failures[failure] += 1
            plus += symbol == "+"
        fractions[k] = plus / copies
        if fractions[k] >= tau:
            decision = LOW
            break
    return PPDecision(decision, fractions, copies, tau, failures["fallback"],
                      failures["prep"], failures["extract"])


def _ref_collision_find(family, rng, allow_rewind=True, max_prep_attempts=64):
    """The collision trial with every step on the full-width state."""
    base, padded = _family_state(family)
    in_bits = family.input_bits
    out_qubits = list(range(in_bits, in_bits + family.output_bits))
    images = family.images_array()

    def image_read():
        for _ in range(max_prep_attempts):
            state = base
            if padded:
                bit, _, state = measure(base, base.n - 1, rng)
                if bit == 0:
                    continue
                state = slice_qubit(state, base.n - 1, 1)
            return measure_register(state, out_qubits, rng)[2]
        return None

    if not allow_rewind:
        xs = []
        for _ in range(2):
            state = image_read()
            if state is None:
                return None
            xs.append(measure_register(state, range(in_bits), rng)[0])
        x1, x2 = xs
    else:
        state = image_read()
        if state is None:
            return None
        pre_last_bit = state
        bit1, _, state = measure(state, in_bits - 1, rng)
        rest1, _, state = measure_register(state, range(in_bits - 1), rng)
        try:
            state = rewind(pre_last_bit, state)
        except RewindConsistencyError:
            return None
        bit2, _, state = measure(state, in_bits - 1, rng)
        rest2, _, _ = measure_register(state, range(in_bits - 1), rng)
        x1, x2 = (rest1 << 1) | bit1, (rest2 << 1) | bit2
    if x1 != x2 and images[x1] == images[x2]:
        return family.decode(x1), family.decode(x2)
    return None


def _ref_sd_trial(c0, c1, rng):
    n, m = c0.n, c0.output_bits
    _, _, post_image = measure_register(_sd_state(c0, c1), range(1 + n, 1 + n + m), rng)
    b1, _, state = measure(post_image, 0, rng)
    state = rewind(post_image, state)
    b2, _, _ = measure(state, 0, rng)
    return int(b1 != b2)


# ---------------------------------------------------------------------------
# helpers


def _clear_chains():
    for cache in (mitigation._preparation, mitigation._first_level, mitigation._flag_reading):
        cache.cache_clear()


@pytest.fixture
def rewinds(monkeypatch):
    """(stored, post-state) of every strict rewind, as bytes, in call order."""
    seen: list[tuple[bytes, bytes]] = []
    original = statevector.rewind

    def recording(stored, post_state):
        seen.append((stored.amps.tobytes(), post_state.amps.tobytes()))
        return original(stored, post_state)

    monkeypatch.setattr(statevector, "rewind", recording)
    return seen


def _uniform_zero_rng() -> SplitMix64:
    """A generator whose first ``uniform()`` is exactly 0.0 (SplitMix64 maps
    the internal state 0 to the output 0)."""
    return SplitMix64(-_GAMMA & _MASK)


def _random_tables(n: int, count: int, seed: int):
    rng = SplitMix64(stream_seed(seed, n))
    tables = []
    while len(tables) < count:
        table = tuple(rng.randrange(2) for _ in range(1 << n))
        if any(table):
            tables.append(table)
    return tables


def _table_of_weight(n: int, weight: int, seed: int) -> tuple:
    """A table on n bits whose ``weight`` ones sit at places drawn from ``seed``."""
    rng = SplitMix64(seed)
    places = list(range(1 << n))
    for i in range(weight):
        j = i + rng.randrange(len(places) - i)
        places[i], places[j] = places[j], places[i]
    return tuple(int(x in places[:weight]) for x in range(1 << n))


def _pp_tables(n: int) -> list:
    """Random tables, and at n = 4 two tables of weight 5 and 12, the weights
    of the ``pp`` benchmark's two trials (one low, one high)."""
    if n < 4:
        return _random_tables(n, 6, 0xC4A1)
    return _random_tables(n, 2, 0xC4A1) + [_table_of_weight(4, 5, 0xC4AD),
                                           _table_of_weight(4, 12, 0xC4AE)]


# ---------------------------------------------------------------------------
# RNG identity


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pp_decide_draws_as_the_reference_loops(n, rewinds):
    for index, table in enumerate(_pp_tables(n)):
        f = BooleanFunction(n, table)
        ref_rng = SplitMix64(stream_seed(0xC4A2, 10 * n + index))
        rng = SplitMix64(ref_rng.state)
        want = _ref_pp_decide(f, ref_rng)
        want_rewinds = set(rewinds)
        rewinds.clear()
        _clear_chains()
        got = pp_decide(f, rng)
        assert got == want, table
        assert rng.state == ref_rng.state, table
        # every distinct collapse the reference rewinds is certified, once
        assert len(rewinds) == len(set(rewinds)), table
        assert set(rewinds) == want_rewinds, table
        rewinds.clear()


def test_a_pp_copy_looks_up_no_chain_and_checks_no_width(monkeypatch):
    """pp_decide looks a chain up and checks the width cap once per coin
    parameter k, whatever the number of copies: a copy is only its draws."""
    calls = {"_chain_of": 0, "check_width": 0}

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted

    monkeypatch.setattr(mitigation, "_chain_of", counting("_chain_of", mitigation._chain_of))
    counted_width = counting("check_width", statevector.check_width)
    for module in (statevector, mitigation, applications):  # each binds its own name
        monkeypatch.setattr(module, "check_width", counted_width)
    f = BooleanFunction(3, (1, 1, 0, 1, 0, 1, 1, 0))  # high: every k is scanned
    pp_decide(f, SplitMix64(1))  # builds every chain node the copies below reach
    counts = {}
    for copies in (8, 64):
        for name in calls:
            calls[name] = 0
        decision = pp_decide(f, SplitMix64(2), copies=copies)
        assert decision.decision == HIGH and len(decision.plus_fractions) == 7
        counts[copies] = dict(calls)
    # per k: the first level and the flag reading, and one width check
    assert counts[8] == counts[64] == {"_chain_of": 14, "check_width": 7}


def test_make_flagged_matches_the_kron_construction_bit_for_bit():
    for table in _random_tables(3, 8, 0xC4A7):
        psi, _ = _ref_prepare_psi(table, SplitMix64(0))
        psi = psi or PureState(1, np.array([0.6, 0.8], dtype=complex))
        for k in range(-3, 4):
            got, want = mitigation.make_flagged(psi, k, 3), _ref_make_flagged(psi, k)
            assert got.state.amps.tobytes() == want.state.amps.tobytes() and got.p == want.p


def _mitigate_cases():
    for n in (1, 2, 3, 4):
        edge = float(p_max(n))
        for p in (0.0, 0.3, 0.9, (0.9 + edge) / 2, edge):
            yield p, n


@pytest.mark.parametrize("p,n", list(_mitigate_cases()))
def test_mitigate_and_extract_draw_as_the_reference_loops(p, n, rewinds):
    for seed in range(25):
        ref_rng = SplitMix64(stream_seed(0xC4A3, seed))
        rng = SplitMix64(ref_rng.state)
        want, want_trace = _ref_mitigate(synthetic_flagged(p), n, ref_rng)
        want_phi = _ref_extract_target(want, n, ref_rng)
        want_rewinds = set(rewinds)
        rewinds.clear()
        _clear_chains()
        got, trace = mitigate(synthetic_flagged(p), n, rng)
        phi = extract_target(got, n, rng)
        assert trace == want_trace, seed
        assert got.state.amps.tobytes() == want.state.amps.tobytes(), seed
        assert got.p == want.p and got.flag_qubit == want.flag_qubit
        assert (phi is None) == (want_phi is None), seed
        if phi is not None:
            assert phi.amps.tobytes() == want_phi.amps.tobytes(), seed
        assert rng.state == ref_rng.state, seed
        assert len(rewinds) == len(set(rewinds)) and set(rewinds) == want_rewinds, seed
        rewinds.clear()


def test_a_draw_of_exactly_zero_never_reads_an_empty_outcome():
    """u * total == p1 reads 0: with p = 0 the ancilla's outcome 1 is empty,
    and a first uniform of exactly 0.0 must still read 0 on both routes."""
    ref_rng, rng = _uniform_zero_rng(), _uniform_zero_rng()
    assert SplitMix64(rng.state).uniform() == 0.0
    _, want = _ref_mitigate(synthetic_flagged(0.0), 2, ref_rng)
    _, got = mitigate(synthetic_flagged(0.0), 2, rng)
    assert got == want
    assert want.events[0] == (0, 1, 0)
    assert rng.state == ref_rng.state
    ref_rng, rng = _uniform_zero_rng(), _uniform_zero_rng()
    assert _ref_prepare_psi([1, 1, 1, 1], ref_rng)[1] == prepare_psi([1, 1, 1, 1], rng)[1] == 1
    assert rng.state == ref_rng.state


def test_a_refused_rewind_raises_on_the_same_copy_every_time(monkeypatch):
    """With certification refusing everything, the chain raises at the first
    miss, with the message and after the draws of the reference retry."""
    monkeypatch.setattr(statevector, "_is_collapse_of", lambda stored, post, tol: False)

    def outcome(run, rng):
        try:
            return "returned", run(synthetic_flagged(0.9), 2, rng)[1].events
        except RewindConsistencyError as exc:
            return "raised", str(exc)

    messages = []
    for seed in range(10):
        _clear_chains()
        ref_rng = SplitMix64(stream_seed(0xC4A4, seed))
        rng = SplitMix64(ref_rng.state)
        want = outcome(_ref_mitigate, ref_rng)
        assert outcome(mitigate, rng) == want, seed
        assert rng.state == ref_rng.state, seed
        if want[0] == "raised":
            messages.append(want[1])
            # the refusal is not kept: the next walk to reach it raises again
            assert outcome(mitigate, SplitMix64(stream_seed(0xC4A4, seed))) == want, seed
    assert len(messages) >= 5
    assert set(messages) == {"state is not a one-outcome collapse of the stored state"}


def test_shared_chain_states_are_read_only():
    psi, _ = prepare_psi([0, 1, 1, 1], SplitMix64(1))
    final, _ = mitigate(synthetic_flagged(0.6), 2, SplitMix64(2))
    for state in (psi, final.state):
        with pytest.raises(ValueError):
            state.amps[0] = 0.0


def test_wide_tables_draw_as_the_reference_loops():
    table = tuple(i % 3 == 0 for i in range(1 << 8))
    ref_rng = SplitMix64(stream_seed(0xC4A5, 0))
    rng = SplitMix64(ref_rng.state)
    for _ in range(4):
        want_psi, want_attempts = _ref_prepare_psi(table, ref_rng)
        psi, attempts = prepare_psi(table, rng)
        assert attempts == want_attempts and rng.state == ref_rng.state
        assert (psi is None) == (want_psi is None)
        assert psi is None or psi.amps.tobytes() == want_psi.amps.tobytes()


def test_the_preparation_chain_keeps_no_state_but_psi():
    """A copy never goes back to an intermediate state, so the cached chain
    is n outcome-weight pairs and the one-qubit psi, for any table width."""
    table = tuple(i % 3 == 0 for i in range(1 << 8))
    weights, psi = mitigation._preparation(table)
    assert len(weights) == 8
    assert all(type(w) is float for pair in weights for w in pair)
    assert isinstance(psi, PureState) and psi.n == 1


# ---------------------------------------------------------------------------
# register readings, collision and statistical-difference trials


def _random_state(n: int, seed: int, sparse: bool = False) -> PureState:
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    if sparse:  # some register values then have no weight at all
        amps[gen.random(1 << n) < 0.6] = 0.0
    return from_amplitudes(amps)


def _register_key(n: int, qubits, value: int) -> tuple:
    """Index of an n-axis tensor where the register reads ``value``."""
    key: list = [slice(None)] * n
    for j, q in enumerate(qubits):
        key[q] = value >> (len(qubits) - 1 - j) & 1
    return tuple(key)


def _without_register(state: PureState, qubits, value: int) -> np.ndarray:
    """The amplitudes of ``state`` where the register reads ``value``."""
    return state.amps.reshape([2] * state.n)[_register_key(state.n, qubits, value)].reshape(-1)


REGISTERS = [
    (5, (0, 1)),  # leading
    (5, (3, 4)),  # trailing
    (6, (4, 1, 2)),  # scattered, out of order
    (6, (5, 0, 3)),
    (4, (2,)),
]


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("n,qubits", REGISTERS)
def test_a_register_reading_draws_and_collapses_as_measure_register(n, qubits, sparse):
    state = _random_state(n, 17 * n + len(qubits), sparse)
    reading = RegisterReading(state, qubits)
    for seed in range(40):
        ref_rng = SplitMix64(stream_seed(0xC4A8, seed))
        rng = SplitMix64(ref_rng.state)
        value, _, joint = measure_register(state, qubits, ref_rng)
        assert reading.draw(rng) == value
        assert rng.state == ref_rng.state
        dropped = reading.dropped(value)
        assert dropped.n == n - len(qubits)
        assert np.array_equal(dropped.amps, _without_register(joint, qubits, value))


def test_a_register_draw_of_exactly_zero_never_reads_an_empty_value():
    """The draw locates u in the running sum to the right of equal entries,
    so a uniform of exactly 0.0 skips the leading values with no weight."""
    amps = np.zeros(8, dtype=complex)
    amps[[2, 5, 7]] = 1.0  # qubits (0, 1) never read 00
    state = from_amplitudes(amps)
    reading = RegisterReading(state, (0, 1))
    assert reading.probs[0] == 0.0
    value, _, _ = measure_register(state, (0, 1), _uniform_zero_rng())
    assert reading.draw(_uniform_zero_rng()) == value == 1


def _draw_value(probs, rng):
    """A register draw as one function computed it on every call before
    ``RegisterReading`` kept its running sum and total."""
    u = rng.uniform() * float(probs.sum())
    value = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return min(value, probs.size - 1)


def test_a_register_draw_is_the_running_sum_formula():
    state = _random_state(5, 23)
    qubits = (3, 0, 4)
    tensor = state.amps.reshape([2] * 5).copy()
    for value in (0, 1, 7):  # no weight on the first two values and the last
        tensor[_register_key(5, qubits, value)] = 0.0
    reading = RegisterReading(from_amplitudes(tensor.reshape(-1)), qubits)
    assert reading.probs[[0, 1, 7]].tolist() == [0.0, 0.0, 0.0]
    rng, ref_rng = SplitMix64(stream_seed(0xC4AD, 0)), SplitMix64(stream_seed(0xC4AD, 0))
    drawn = set()
    for _ in range(1000):
        value = reading.draw(rng)
        assert value == _draw_value(reading.probs, ref_rng)
        drawn.add(value)
    assert rng.state == ref_rng.state
    assert drawn == {2, 3, 4, 5, 6}


def test_register_reading_states_are_read_only():
    reading = RegisterReading(_random_state(4, 1), (1, 3))
    for value in range(4):
        with pytest.raises(ValueError):
            reading.dropped(value).amps[0] = 0.0


def _collision_families():
    return [
        toy_two_regular(3),
        FunctionFamily(name="quad", size=16, output_bits=2, evaluate=lambda i: i >> 2),
        FunctionFamily(name="pairs", size=12, output_bits=3, evaluate=lambda i: i >> 1),
        lwe_family(LWEParams.toy_scale(SplitMix64(3))),
    ]


@pytest.mark.parametrize("allow_rewind", [True, False])
def test_collision_trials_draw_as_the_full_width_reference(allow_rewind):
    for family in _collision_families():
        results = []
        for seed in range(30):
            ref_rng = SplitMix64(stream_seed(0xC4A9, seed))
            rng = SplitMix64(ref_rng.state)
            want = _ref_collision_find(family, ref_rng, allow_rewind)
            got = collision_find(family, rng, allow_rewind)
            assert got == want, (family.name, seed)
            assert rng.state == ref_rng.state, (family.name, seed)
            results.append(got is not None)
        if allow_rewind and family.name != "quad":
            assert any(results), family.name


def test_a_failed_preparation_draws_as_the_reference(monkeypatch):
    monkeypatch.setattr(applications, "_MAX_PREP_ATTEMPTS", 1)
    family = FunctionFamily(name="pairs", size=12, output_bits=3, evaluate=lambda i: i >> 1)
    for seed in range(30):
        ref_rng = SplitMix64(stream_seed(0xC4AA, seed))
        rng = SplitMix64(ref_rng.state)
        want = _ref_collision_find(family, ref_rng, max_prep_attempts=1)
        assert collision_find(family, rng) == want
        assert rng.state == ref_rng.state


@pytest.mark.parametrize("family", _collision_families(), ids=lambda family: family.name)
def test_a_rewinding_collision_trial_reads_each_state_once(monkeypatch, family):
    """One reading of the last input qubit serves both measurements, and the
    remaining qubits are read at most once per bit read; every trial builds
    its own readings, so nothing is kept from one trial to the next."""
    built = {"Reading": 0, "RegisterReading": 0}

    def counted(cls):
        def build(*args):
            built[cls.__name__] += 1
            return cls(*args)
        return build

    applications._family_readings(family)  # the family's cached readings
    monkeypatch.setattr(applications, "Reading", counted(Reading))
    monkeypatch.setattr(applications, "RegisterReading", counted(RegisterReading))
    registers = set()
    for seed in range(30):
        rng = SplitMix64(stream_seed(0xC4AE, seed))
        built.update(Reading=0, RegisterReading=0)
        collision_find(family, rng)
        if built["Reading"] == 0:  # every preparation read the padding
            assert family.padded and built["RegisterReading"] == 0
            continue
        assert built["Reading"] == 1, seed
        assert 1 <= built["RegisterReading"] <= 2, seed
        registers.add(built["RegisterReading"])
    assert registers == ({1} if family.name == "quad" else {1, 2})


def test_sd_trials_draw_as_the_full_width_reference():
    tables = _random_tables(3, 4, 0xC4AB)
    pairs = [(BooleanFunction(3, a), BooleanFunction(3, b)) for a, b in zip(tables, tables[1:])]
    wide = [tuple(i * 5 % 4 for i in range(8)), tuple(i % 3 for i in range(8))]
    pairs.append((BooleanFunction(3, wide[0], 2), BooleanFunction(3, wide[1], 2)))
    for index, (c0, c1) in enumerate(pairs):
        ref_rng = SplitMix64(stream_seed(0xC4AC, index))
        rng = SplitMix64(ref_rng.state)
        image = sd_image_reading(c0, c1)  # shared by the trials, as the CLI does
        for _ in range(30):
            assert sd_trial(image, rng) == _ref_sd_trial(c0, c1, ref_rng)
            assert rng.state == ref_rng.state
        assert sd_trial(sd_image_reading(c0, c1), rng) == _ref_sd_trial(c0, c1, ref_rng)
        assert rng.state == ref_rng.state


# ---------------------------------------------------------------------------
# the exact oracle


@pytest.mark.parametrize("n", [2, 3])
def test_exact_decision_probability_on_every_nonzero_table(n):
    worst = min(
        pp_correct_probability(BooleanFunction(n, table))
        for table in product((0, 1), repeat=1 << n)
        if any(table)
    )
    assert worst >= 0.99


@pytest.mark.parametrize("table,copies,tau", [((1, 1, 0, 0), 4, 0.75), ((1, 1, 1, 0), 3, 2 / 3)])
def test_exact_decision_probability_matches_sampling(table, copies, tau):
    """Few copies put the answer well inside (0, 1).  A weight-2 table fails
    half its preparation attempts, so the prep term shows too."""
    f = BooleanFunction(2, table)
    exact = pp_correct_probability(f, copies, tau)
    assert 0.3 < exact < 0.7
    rng = SplitMix64(stream_seed(0xC4A6, sum(table)))
    trials = 3000
    correct = sum(pp_decide(f, rng, copies, tau).decision == HIGH for _ in range(trials))
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(correct / trials - exact) <= 4.0 * sigma


def test_exact_decision_probability_validates_its_input():
    with pytest.raises(ValueError):
        pp_correct_probability(BooleanFunction(2, (0, 0, 0, 0)))
    with pytest.raises(ValueError):
        pp_correct_probability(BooleanFunction(2, (0, 1, 2, 3), output_bits=2))
