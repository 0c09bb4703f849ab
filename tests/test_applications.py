"""Protocol layers: majority decision, collision finding, distance testing."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rwsim.applications import (
    HIGH,
    LOW,
    BooleanFunction,
    FunctionFamily,
    LWEParams,
    PromiseViolationError,
    _family_readings,
    _family_state,
    collision_find,
    collision_success_probability,
    family_delta_exact,
    lwe_collision_partner,
    lwe_family,
    pp_decide,
    sd_error_exact,
    sd_image_reading,
    sd_trial,
    toy_two_regular,
)
from rwsim.rng import SplitMix64, stream_seed
from rwsim.statevector import (
    QubitBudgetError,
    RegisterReading,
    RewindConsistencyError,
    postselect,
    prob_of_bit,
    rewind,
)


def _weighted_table(n: int, s: int) -> BooleanFunction:
    return BooleanFunction(n, tuple([1] * s + [0] * ((1 << n) - s)))


# ---------------------------------------------------------------------------
# majority-side decision


def test_boolean_function_validation():
    with pytest.raises(ValueError):
        BooleanFunction(2, (0, 1, 0))
    with pytest.raises(ValueError):
        BooleanFunction(1, (0, 2))
    assert BooleanFunction(2, (1, 0, 1, 1)).weight == 3


@pytest.mark.parametrize(
    "n,s",
    [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 3), (3, 4), (3, 6), (3, 8)],
)
def test_decision_correct_on_weighted_tables(n, s):
    f = _weighted_table(n, s)
    result = pp_decide(f, SplitMix64(stream_seed(0x99, s * 10 + n)))
    expected = LOW if s < (1 << n) // 2 else HIGH
    assert result.decision == expected
    assert result.copies == 64 and result.tau == 0.75


def test_boundary_weight_is_high():
    # s = 2^{n-1} leaves the target state proportional to |0>, whose
    # plus-fraction sits at exactly 1/2 < tau for every coin parameter
    result = pp_decide(_weighted_table(3, 4), SplitMix64(stream_seed(0x99, 43)))
    assert result.decision == HIGH
    assert len(result.plus_fractions) == 7  # full scan, no early exit


def test_low_side_stops_scanning_early():
    result = pp_decide(_weighted_table(3, 1), SplitMix64(stream_seed(0x99, 13)))
    assert result.decision == LOW
    assert len(result.plus_fractions) < 7
    assert max(result.plus_fractions.values()) >= result.tau


def test_zero_weight_breaks_the_promise():
    with pytest.raises(PromiseViolationError):
        pp_decide(_weighted_table(2, 0), SplitMix64(1))


def test_multibit_outputs_rejected():
    f = BooleanFunction(2, (0, 1, 2, 3), output_bits=2)
    with pytest.raises(ValueError):
        pp_decide(f, SplitMix64(1))


# ---------------------------------------------------------------------------
# collision finding


def test_toy_family_structure():
    fam = toy_two_regular(3)
    assert fam.size == 16
    assert fam.input_bits == 4
    assert fam.output_bits == 3
    assert family_delta_exact(fam) == Fraction(1)
    assert fam.decode(0b1011) == (0b101, 1)


def test_every_returned_pair_is_a_collision():
    fam = toy_two_regular(3)
    rng = SplitMix64(stream_seed(0xC011, 11))
    wins = 0
    for _ in range(200):
        pair = collision_find(fam, rng)
        if pair is None:
            continue
        wins += 1
        (x1, c1), (x2, c2) = pair
        assert x1 == x2 and c1 != c2
    # one rewind resolves the partner half the time
    assert 0.4 <= wins / 200 <= 0.6


@pytest.mark.parametrize("bits", [1, 3, 8])
def test_collision_success_probability_of_a_two_to_one_family_is_one_half(bits):
    assert collision_success_probability(toy_two_regular(bits)) == Fraction(1, 2)


@pytest.mark.parametrize(
    "images, size, want",
    [
        # image 0 has preimages 00, 01, 10: 01 and 10 each have a bit no other
        # preimage shares, 00 has none; image 1 has one preimage
        ((0, 0, 0, 1), 4, Fraction(1, 4) * 2 * Fraction(2, 3)),
        # each image's four preimages share every bit with another one, so
        # the strict rewind refuses every reading
        ((0, 1, 1, 0, 1, 0, 0, 1), 8, Fraction(0)),
        # a padded domain of 3: the flag passes with probability 3/4 a reading
        ((0, 0, 1), 3, (1 - Fraction(1, 4) ** 64) * Fraction(1, 3)),
    ],
    ids=["three-preimages", "parity", "padded"],
)
def test_collision_success_probability_matches_sampled_trials(images, size, want):
    fam = FunctionFamily(name="hand", size=size, output_bits=1, evaluate=lambda i: images[i])
    assert collision_success_probability(fam) == want
    trials = 3000
    rng = SplitMix64(stream_seed(0xC015, size))
    wins = sum(collision_find(fam, rng) is not None for _ in range(trials))
    p = float(want)
    assert abs(wins / trials - p) <= 4 * (p * (1 - p) / trials) ** 0.5


@pytest.mark.parametrize("size", [16, 12])  # the second needs the validity flag
def test_collision_trials_leave_the_cached_state_unchanged(size):
    fam = FunctionFamily(name="pairs", size=size, output_bits=3, evaluate=lambda i: i >> 1)
    rng = SplitMix64(stream_seed(0xC013, size))
    flag, image = _family_readings(fam)
    assert (flag is None) == (size == 16)
    base = image.state if flag is None else flag.state
    assert np.array_equal(base.amps, _family_state(fam)[0].amps)
    if flag is not None:
        assert image.state is flag.dropped(1)
    cached = base.amps.tobytes()
    values = np.flatnonzero(image.probs).tolist()
    inputs = {v: image.dropped(v).amps.tobytes() for v in values}
    valid = image.state.amps.tobytes()
    for _ in range(20):
        collision_find(fam, rng)
    assert base.amps.tobytes() == cached
    again = _family_readings(fam)  # built once per family
    assert again[0] is flag and again[1] is image
    assert image.state.amps.tobytes() == valid
    # each input state equals a fresh reading's, so no trial wrote into one
    fresh = RegisterReading(image.state, image.qubits)
    for v in values:
        assert image.dropped(v).amps.tobytes() == inputs[v]
        assert inputs[v] == fresh.dropped(v).amps.tobytes()


def test_collision_refuses_a_lowered_cap_once_the_readings_are_cached(monkeypatch):
    fam = toy_two_regular(3)  # 4 input and 3 image qubits
    rng = SplitMix64(stream_seed(0xC014, 0))
    collision_find(fam, rng)
    monkeypatch.setenv("RWSIM_MAX_QUBITS", "6")
    with pytest.raises(QubitBudgetError, match="needs 7 qubits, cap is 6"):
        collision_find(fam, rng)


def test_rewinding_beats_independent_runs():
    fam = toy_two_regular(6)
    rng = SplitMix64(stream_seed(0xC012, 1))
    with_rewind = sum(collision_find(fam, rng) is not None for _ in range(150))
    rng = SplitMix64(stream_seed(0xC012, 2))
    without = sum(
        collision_find(fam, rng, allow_rewind=False) is not None for _ in range(150)
    )
    assert with_rewind >= 50
    assert without <= 10


def test_four_preimage_family_always_refuses():
    # reading the remaining input bits collapses two branch qubits, which is
    # more than one rewind can certify, so the strict check refuses
    fam = FunctionFamily(name="quad", size=16, output_bits=2, evaluate=lambda i: i >> 2)
    assert family_delta_exact(fam) == Fraction(1)
    rng = SplitMix64(stream_seed(0xC011, 99))
    assert all(collision_find(fam, rng) is None for _ in range(50))


def _collapse_onto(state, qubits, bits):
    """``state`` collapsed onto the given bits of ``qubits``, or None if that
    outcome has no weight."""
    for q, b in zip(qubits, bits):
        if prob_of_bit(state, q, b) <= 1e-12:
            return None
        _, state = postselect(state, q, b)
    return state


def _certifies(snap, post) -> bool:
    try:
        rewind(snap, post)
    except RewindConsistencyError:
        return False
    return True


@pytest.mark.parametrize(
    "fam",
    [
        toy_two_regular(3),
        FunctionFamily(name="quad", size=16, output_bits=2, evaluate=lambda i: i >> 2),
        FunctionFamily(name="pairs", size=12, output_bits=3, evaluate=lambda i: i >> 1),
        # images of one, two and three preimages: both answers within one family
        FunctionFamily(
            name="mixed", size=8, output_bits=2, evaluate=(0, 0, 0, 1, 2, 2, 3, 3).__getitem__
        ),
    ],
    ids=lambda fam: fam.name,
)
def test_strict_rewind_answers_on_the_input_register_as_at_full_width(fam):
    """A collision trial rewinds on the state left after the image register is
    sliced off.  For every image value, both last-bit outcomes and every
    reading of the other input bits, the strict rewind must certify or refuse
    there exactly as on the full-width state collapsed onto the same image."""
    _, image = _family_readings(fam)
    in_bits, out_bits = fam.input_bits, fam.output_bits
    last, rest = in_bits - 1, list(range(in_bits - 1))
    answers = []
    for value in np.flatnonzero(image.probs).tolist():
        image_bits = [value >> (out_bits - 1 - j) & 1 for j in range(out_bits)]
        full = _collapse_onto(image.state, image.qubits, image_bits)
        narrow = image.dropped(value)
        for bit, rest_value in product((0, 1), range(1 << len(rest))):
            bits = [bit] + [rest_value >> (len(rest) - 1 - j) & 1 for j in range(len(rest))]
            post_full = _collapse_onto(full, [last, *rest], bits)
            post_narrow = _collapse_onto(narrow, [last, *rest], bits)
            assert (post_full is None) == (post_narrow is None)
            if post_full is None:
                continue
            answer = _certifies(full, post_full)
            assert _certifies(narrow, post_narrow) == answer, (value, bits)
            answers.append(answer)
    expected = {"quad": {False}, "mixed": {False, True}}.get(fam.name, {True})
    assert set(answers) == expected


def test_delta_on_mixed_family():
    table = (7, 7, 3, 5)
    fam = FunctionFamily(name="mixed", size=4, output_bits=3, evaluate=table.__getitem__)
    assert family_delta_exact(fam) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# the shifted-pair family


def _encode(params: LWEParams, triple) -> int:
    s, e, c = triple
    width = 2 * params.mu + 1
    rest = 0
    for j in range(params.n - 1, -1, -1):
        rest = rest * params.q + int(s[j])
    for j in range(params.m - 1, -1, -1):
        rest = rest * width + int(e[j]) + params.mu
    return (rest << 1) | c


def test_toy_scale_family_dimensions():
    params = LWEParams.toy_scale(SplitMix64(stream_seed(0x14E, 0)))
    fam = lwe_family(params)
    assert fam.size == 144
    assert fam.input_bits == 8
    assert fam.output_bits == 6
    assert params.mu_prime == 0
    # zero shift error: every partner stays inside the error box
    assert np.all(params.e0 == 0)
    assert family_delta_exact(fam) == Fraction(1)


def test_encode_decode_roundtrip():
    params = LWEParams.toy_scale(SplitMix64(stream_seed(0x14E, 0)))
    fam = lwe_family(params)
    rng = SplitMix64(7)
    for _ in range(40):
        i = rng.randrange(fam.size)
        assert _encode(params, fam.decode(i)) == i


def test_partner_shares_image_and_is_an_involution():
    params = LWEParams.toy_scale(SplitMix64(stream_seed(0x14E, 0)))
    fam = lwe_family(params)
    rng = SplitMix64(8)
    for _ in range(40):
        i = rng.randrange(fam.size)
        s, e, c = fam.decode(i)
        partner = lwe_collision_partner(params, s, e, c)
        assert partner is not None
        assert partner[2] == 1 - c
        j = _encode(params, partner)
        assert j != i
        assert fam.evaluate(j) == fam.evaluate(i)
        assert lwe_collision_partner(params, *partner) == (s, e, c)


def test_partner_outside_error_box_is_none():
    params = LWEParams.toy_scale(SplitMix64(stream_seed(0x14E, 1)), n=1, q=8, m=1, mu=1)
    assert params.e0.tolist() == [1]
    assert lwe_collision_partner(params, (0,), (1,), 1) is None
    hit = lwe_collision_partner(params, (0,), (0,), 1)
    assert hit is not None and hit[1] == (1,)


def test_centered_representatives_and_box():
    params = LWEParams.toy_scale(SplitMix64(3))
    assert params.centered(np.array([7, 4, 5])).tolist() == [-1, 4, -3]
    assert params.in_error_box(np.array([7]))  # -1 lands inside [-1, 1]
    assert not params.in_error_box(np.array([2]))


def test_crypto_scale_derivations():
    p1 = LWEParams.crypto_scale(1, SplitMix64(5))
    assert (p1.q, p1.m, p1.mu, p1.mu_prime) == (1 << 21, 23, 220, 9)
    p4 = LWEParams.crypto_scale(4, SplitMix64(5))
    assert (p4.q, p4.m, p4.mu, p4.mu_prime) == (1 << 31, 132, 6066, 45)
    with pytest.raises(ValueError):
        LWEParams.crypto_scale(0, SplitMix64(5))


def test_collision_on_toy_lwe_instance():
    params = LWEParams.toy_scale(SplitMix64(stream_seed(0x14E, 0)))
    fam = lwe_family(params)
    images = fam.images_array()
    rng = SplitMix64(stream_seed(0x14E, 2))
    wins = 0
    for _ in range(60):
        pair = collision_find(fam, rng)
        if pair is None:
            continue
        wins += 1
        i, j = _encode(params, pair[0]), _encode(params, pair[1])
        assert i != j and images[i] == images[j]
    assert wins >= 15


# ---------------------------------------------------------------------------
# statistical-difference decision


def test_fixture_pair_exact_values():
    c0 = BooleanFunction(2, (0, 0, 1, 1))
    c1 = BooleanFunction(2, (0, 1, 1, 1))
    assert sd_error_exact(c0, c1) == (
        Fraction(8, 15),
        Fraction(7, 15),
        Fraction(1, 4),
    )


def test_exhaustive_single_bit_output_identities():
    for t0 in product((0, 1), repeat=4):
        for t1 in product((0, 1), repeat=4):
            c0 = BooleanFunction(2, t0)
            c1 = BooleanFunction(2, t1)
            p_err, p_err_prime, d_tv = sd_error_exact(c0, c1)
            assert p_err + p_err_prime == 1
            assert d_tv == Fraction(abs(sum(t0) - sum(t1)), 4)
            assert p_err <= Fraction(1, 2) + d_tv
            assert p_err_prime <= 1 - d_tv


def test_multibit_output_values():
    c0 = BooleanFunction(2, (0, 1, 2, 3), output_bits=2)
    c1 = BooleanFunction(2, (0, 0, 0, 0), output_bits=2)
    p_err, p_err_prime, d_tv = sd_error_exact(c0, c1)
    assert d_tv == Fraction(3, 4)
    assert p_err_prime == Fraction(1, 5)
    assert p_err == Fraction(4, 5)


def test_identical_tables_maximise_disagreement_rate():
    c = BooleanFunction(2, (0, 1, 1, 0))
    p_err, p_err_prime, d_tv = sd_error_exact(c, c)
    assert d_tv == 0
    assert p_err_prime == Fraction(1, 2)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        sd_trial(
            sd_image_reading(BooleanFunction(1, (0, 1)), BooleanFunction(2, (0, 1, 0, 1))),
            SplitMix64(1),
        )
    with pytest.raises(ValueError):
        sd_error_exact(
            BooleanFunction(2, (0, 1, 2, 3), output_bits=2),
            BooleanFunction(2, (0, 1, 1, 0)),
        )


def test_sd_refuses_a_lowered_cap_after_a_trial(monkeypatch):
    c0 = BooleanFunction(2, (0, 0, 1, 1))
    c1 = BooleanFunction(2, (0, 1, 1, 1))  # 1 branch, 2 input and 1 image qubit
    rng = SplitMix64(stream_seed(0x5D, 22))
    sd_trial(sd_image_reading(c0, c1), rng)
    monkeypatch.setenv("RWSIM_MAX_QUBITS", "3")
    with pytest.raises(QubitBudgetError, match="sd instance needs 4 qubits, cap is 3"):
        sd_trial(sd_image_reading(c0, c1), rng)


def test_sampler_tracks_exact_disagreement_probability():
    c0 = BooleanFunction(2, (0, 0, 1, 1))
    c1 = BooleanFunction(2, (0, 1, 1, 1))
    _, p_err_prime, _ = sd_error_exact(c0, c1)
    rng = SplitMix64(stream_seed(0x5D, 21))
    trials = 2000
    image = sd_image_reading(c0, c1)
    hits = sum(sd_trial(image, rng) for _ in range(trials))
    mean = float(p_err_prime)
    sigma = (mean * (1 - mean) / trials) ** 0.5
    assert abs(hits / trials - mean) <= 4 * sigma
