"""End-to-end protocol checks with pinned seeds and explicit tolerances.

Each test exercises one top-level guarantee of the toolkit at desk scale,
comparing sampled protocol runs against exact oracles (closed forms, branch
enumeration, or path sums).  Statistical checks use fixed seeds, so the
suite is deterministic.
"""

from __future__ import annotations

import math
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import REPO, cli_env, random_clifford_circuit, random_general_circuit
from rwsim import pathsum, stabilizer
from rwsim.applications import (
    HIGH,
    LOW,
    BooleanFunction,
    collision_find,
    pp_decide,
    sd_error_exact,
    sd_image_reading,
    sd_trial,
    toy_two_regular,
)
from rwsim.circuit import (
    outcome_distribution,
    parse_circuit,
    sampler,
    strong_probability,
)
from rwsim.mbqc import (
    BrickworkSpec,
    MeasurementPattern,
    iqp_fanout_amplify,
    pattern_circuit,
    pattern_oracle,
    reads_all_zero,
    target_odds,
)
from rwsim.mitigation import (
    SUCCESS,
    _mitigation_round,
    mitigate,
    mitigate_postselect,
    p_max,
    postselect_rounds,
    prep_success_probability,
    success_probability_exact,
    success_probability_lower_bound,
    synthetic_flagged,
)
from rwsim.pathsum import acceptance_probability
from rwsim.rng import SplitMix64, stream_seed
from rwsim.statevector import (
    KERNEL,
    PureState,
    attach_zero,
    fidelity,
    postselect,
    prob_of_bit,
)


def test_single_round_doubles_target_odds_to_ten_digits():
    # 1000 random (n, p) pairs: one coin round conditioned on z = 0 must
    # multiply the target odds by exactly 2, to relative error < 1e-10
    rng = SplitMix64(stream_seed(0xAC1, 0))
    for _ in range(1000):
        n = 2 + rng.randrange(9)
        hi = float(p_max(n))
        p = 1e-6 + rng.uniform() * (hi - 1e-6)
        fs = synthetic_flagged(p)
        work = _mitigation_round(attach_zero(fs.state), fs.flag_qubit, 2)
        _, state = postselect(work, 2, 0)
        odds = prob_of_bit(state, 1, 1) / prob_of_bit(state, 1, 0)
        expected = 2.0 * (1.0 - p) / p
        assert abs(odds - expected) / expected < 1e-10, (n, p)


def test_schedule_success_probability_clears_the_floor_exactly():
    # 50-point exact grid per n: P(success) >= 1 - 5n/8^n for admissible p
    for n in range(2, 9):
        hi = p_max(n)
        floor = success_probability_lower_bound(n)
        for j in range(1, 51):
            p = hi * Fraction(j, 50)
            exact = success_probability_exact(p, n)
            assert exact >= floor, (n, j)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_schedule_monte_carlo_matches_exact_probability(n):
    p = float(p_max(n))
    expected = float(success_probability_exact(p_max(n), n))
    trials = 10_000
    rng = SplitMix64(stream_seed(0xAC2, n))
    wins = sum(
        mitigate(synthetic_flagged(p), n, rng=rng)[1].outcome == SUCCESS
        for _ in range(trials)
    )
    sigma = math.sqrt(expected * (1.0 - expected) / trials)
    assert abs(wins / trials - expected) <= 3.0 * sigma


def test_preparation_success_closed_form_for_every_three_bit_table():
    for table in product((0, 1), repeat=8):
        s = sum(table)
        expected = ((8 - s) ** 2 + s**2) / 64
        got = prep_success_probability(list(table))
        assert abs(got - expected) <= 1e-12
        assert got >= 0.5 - 1e-12


def test_decision_accuracy_on_random_four_bit_tables():
    rng = SplitMix64(stream_seed(0xAC4, 0))
    trials = 200
    correct = 0
    for _ in range(trials):
        while True:
            table = tuple(rng.randrange(2) for _ in range(16))
            if sum(table):
                break
        f = BooleanFunction(4, table)
        expected = LOW if f.weight < 8 else HIGH
        correct += pp_decide(f, rng).decision == expected
    assert correct / trials >= 0.99


def test_postselect_variant_amplitudes_and_majority_threshold():
    rng = SplitMix64(stream_seed(0xAC5, 0))
    for _ in range(100):
        p = 0.01 + 0.98 * rng.uniform()
        q = 0.05 + 0.9 * rng.uniform()
        m = rng.randrange(7)
        out = mitigate_postselect(synthetic_flagged(p), q, m)
        norm = math.sqrt(q**m * p + (1.0 - p))
        assert abs(abs(out.state.amps[0b00]) - math.sqrt(q**m * p) / norm) <= 1e-12
        assert abs(abs(out.state.amps[0b11]) - math.sqrt(1.0 - p) / norm) <= 1e-12
        assert abs(out.state.amps[0b01]) <= 1e-12
        assert abs(out.state.amps[0b10]) <= 1e-12
        best = mitigate_postselect(synthetic_flagged(p), q, postselect_rounds(p, q))
        assert 1.0 - best.p >= 0.5 - 1e-9


def test_tableau_and_dense_backends_agree_on_clifford_circuits():
    for seed in range(100):
        rng = SplitMix64(stream_seed(0xAC6, seed))
        text = random_clifford_circuit(rng)
        circuit = parse_circuit(text)
        exact = outcome_distribution(circuit, stabilizer.KERNEL)
        dense = outcome_distribution(circuit, KERNEL)
        assert set(exact) == set(dense), text
        for key, weight in exact.items():
            assert abs(float(weight) - dense[key]) <= 1e-12, (text, key)


def test_path_sum_matches_tableau_on_rewind_free_circuits():
    for seed in range(30):
        rng = SplitMix64(stream_seed(0xAC6, 1000 + seed))
        text = random_clifford_circuit(rng, allow_rewinds=False, h_max=3)
        circuit = parse_circuit(text)
        summed = outcome_distribution(circuit, pathsum.KERNEL)
        exact = outcome_distribution(circuit, stabilizer.KERNEL)
        assert set(summed) == set(exact), text
        for key, value in summed.items():
            assert abs(value - float(exact[key])) <= 1e-9, (text, key)


def test_acceptance_oracle_agrees_with_dense_enumeration():
    for seed in range(50):
        rng = SplitMix64(stream_seed(0xAC7, seed))
        text = random_general_circuit(rng, h_max=6)
        circuit = parse_circuit(text)
        dense = strong_probability(circuit, KERNEL, {circuit.accept: 1})
        assert abs(acceptance_probability(circuit) - dense) <= 1e-9, text


def test_one_rewind_collision_rate_and_pair_validity():
    fam = toy_two_regular(3)
    rng = SplitMix64(stream_seed(0xAC8, 0))
    trials = 1000
    wins = 0
    for _ in range(trials):
        pair = collision_find(fam, rng)
        if pair is None:
            continue
        wins += 1
        (x1, c1), (x2, c2) = pair
        e1 = (x1 << 1) | c1
        e2 = (x2 << 1) | c2
        assert e1 != e2
        assert fam.evaluate(e1) == fam.evaluate(e2)
    assert 0.45 <= wins / trials <= 0.55


def test_collisions_need_the_rewind():
    fam = toy_two_regular(8)
    rng = SplitMix64(stream_seed(0xAC8, 9))
    trials = 400
    wins = sum(
        collision_find(fam, rng, allow_rewind=False) is not None for _ in range(trials)
    )
    assert wins / trials <= 0.05


def test_distance_decision_identities_and_sampling():
    # exhaustive two-bit tables: the exact identities hold for every pair
    for t0 in product((0, 1), repeat=4):
        for t1 in product((0, 1), repeat=4):
            p_err, p_err_prime, d_tv = sd_error_exact(
                BooleanFunction(2, t0), BooleanFunction(2, t1)
            )
            assert p_err + p_err_prime == 1
            assert p_err <= Fraction(1, 2) + d_tv
            assert p_err_prime <= 1 - d_tv
    # random three-bit tables keep the identities
    rng = SplitMix64(stream_seed(0xAC9, 0))
    for _ in range(50):
        t0 = tuple(rng.randrange(2) for _ in range(8))
        t1 = tuple(rng.randrange(2) for _ in range(8))
        p_err, p_err_prime, d_tv = sd_error_exact(
            BooleanFunction(3, t0), BooleanFunction(3, t1)
        )
        assert p_err + p_err_prime == 1
        assert p_err <= Fraction(1, 2) + d_tv
        assert p_err_prime <= 1 - d_tv
    # the sampler tracks the exact disagreement probability
    c0 = BooleanFunction(2, (0, 0, 1, 1))
    c1 = BooleanFunction(2, (0, 1, 1, 1))
    _, p_err_prime, _ = sd_error_exact(c0, c1)
    trials = 10_000
    rng = SplitMix64(stream_seed(0xAC9, 1))
    image = sd_image_reading(c0, c1)
    hits = sum(sd_trial(image, rng) for _ in range(trials))
    mean = float(p_err_prime)
    sigma = math.sqrt(mean * (1.0 - mean) / trials)
    assert abs(hits / trials - mean) <= 3.0 * sigma


def test_grid_measurement_rate_and_conditioned_fidelity():
    spec = BrickworkSpec(2, 5)
    pattern = MeasurementPattern.identity(spec)
    oracle = pattern_oracle(spec, pattern)
    trials = 1000
    budget = 3
    trial = sampler(pattern_circuit(spec, pattern, budget), KERNEL)
    rng = SplitMix64(stream_seed(0xACA, 0))
    zeros = 0
    for _ in range(trials):
        result = trial(rng)
        if reads_all_zero(result.record):
            zeros += 1
            assert fidelity(result.final_state.core, oracle) >= 1.0 - 1e-9
    expected = (1.0 - 2.0 ** -(budget + 1)) ** len(pattern.entries)
    sigma = math.sqrt(expected * (1.0 - expected) / trials)
    assert zeros / trials >= expected - 3.0 * sigma
    assert zeros > 0


def test_fanout_amplification_matches_the_power_law():
    # each retried coin round doubles the target qubit's probability odds,
    # so q rounds scale them by exactly 2^q for any starting tilt
    rng = SplitMix64(stream_seed(0xACB, 0))
    for _ in range(50):
        theta = 0.2 + 1.2 * rng.uniform()
        phase = math.tau * rng.uniform()
        amps = np.zeros(4, dtype=complex)
        # qubit 0 is the high index bit, so qubit 1 lives in the low bit
        amps[0b00] = math.cos(theta)
        amps[0b01] = math.sin(theta) * complex(math.cos(phase), math.sin(phase))
        base = PureState(2, amps)
        before = target_odds(base, 1)
        q = rng.randrange(7)
        amplified = iqp_fanout_amplify(base, q, rng=rng)
        ratio = target_odds(amplified, 1) / before
        assert abs(ratio - 2.0**q) <= 2.0**q * 1e-12, (theta, q)


DEMO_COMMANDS = [
    ["simulate", "circuits/bell.qc", "--trials", "50", "--seed", "5"],
    ["demo", "pp", "--n", "2", "--trials", "3", "--seed", "1"],
    ["demo", "collision", "--family", "toy", "--bits", "4", "--trials", "40", "--seed", "2"],
    ["demo", "sd", "--c0", "demos/sd_c0.txt", "--c1", "demos/sd_c1.txt", "--trials", "200", "--seed", "3"],
    ["demo", "mbqc", "--rows", "2", "--cols", "5", "--budget", "3", "--trials", "20", "--seed", "4"],
    ["demo", "mitigate", "--p", "0.5", "--n", "2", "--seed", "6"],
]


def _run_cli(argv: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "rwsim", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=cli_env(),
    )
    assert proc.returncode == 0, (argv, proc.stderr)
    return "\n".join(
        line for line in proc.stdout.splitlines() if not line.startswith("duration_s=")
    )


@pytest.mark.parametrize("argv", DEMO_COMMANDS, ids=lambda a: a[1].split("/")[-1] if a[0] == "simulate" else a[1])
def test_reports_are_reproducible_across_runs_and_processes(argv):
    first = _run_cli(argv)
    again = _run_cli(argv)
    assert first == again
    supports_jobs = argv[:2] != ["demo", "mitigate"]
    if supports_jobs:
        fanned = _run_cli(argv + ["--jobs", "4"])
        assert first == fanned
