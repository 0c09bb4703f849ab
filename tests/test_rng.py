"""Generator determinism, reference outputs, and distribution sanity."""

from __future__ import annotations

import copy
import json
import math
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO
from rwsim import rng as rng_module
from rwsim.rng import SplitMix64, stream_seed

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_sequence(seed: int, count: int) -> list[int]:
    """Textbook splitmix64, written independently of the library."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_matches_reference_implementation():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == reference_sequence(0, 4)
    rng = SplitMix64(0xDEADBEEF)
    assert [rng.next_u64() for _ in range(4)] == reference_sequence(0xDEADBEEF, 4)


def test_frozen_first_outputs_from_seed_zero():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


@given(st.integers(min_value=0, max_value=MASK))
def test_same_seed_same_stream(seed):
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]


@given(st.integers(min_value=0, max_value=MASK))
def test_uniform_range(seed):
    rng = SplitMix64(seed)
    for _ in range(32):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


@given(
    st.integers(min_value=0, max_value=MASK),
    st.integers(min_value=1, max_value=10_000),
)
def test_randrange_bounds(seed, n):
    rng = SplitMix64(seed)
    for _ in range(16):
        assert 0 <= rng.randrange(n) < n


def test_randrange_rejects_bad_bound():
    with pytest.raises(ValueError):
        SplitMix64(1).randrange(0)


def test_randrange_refuses_a_bound_over_one_word():
    # the rejection limit of such a bound is negative: no word would pass
    with pytest.raises(ValueError, match=f"randrange bound {(1 << 64) + 1} is over 2"):
        SplitMix64(1).randrange((1 << 64) + 1)


# Bounds whose rejection zone is empty, tiny, and near one half of all words.
BOUNDS = (1, 5, 1 << 64, (1 << 63) + 1, 3 << 62)
OPS = st.one_of(
    st.tuples(st.sampled_from(["next_u64", "uniform"]), st.integers(1, 400)),
    st.tuples(st.just("randrange"), st.sampled_from(BOUNDS)),
    st.tuples(st.just("state"), st.just(0)),
    st.tuples(st.just("split"), st.integers(0, 3)),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=MASK), st.lists(OPS, max_size=40))
def test_every_method_follows_the_reference_across_blocks(seed, ops):
    # runs of up to 400 draws cross many block refills, at random offsets
    rng = SplitMix64(seed)
    # enough words for 40 runs of 400, or 40 rejection loops of up to 64 words
    words = iter(reference_sequence(seed, 40 * 400 + 64 * 40))
    drawn = 0
    for op, arg in ops:
        if op == "next_u64":
            assert [rng.next_u64() for _ in range(arg)] == [next(words) for _ in range(arg)]
            drawn += arg
        elif op == "uniform":
            want = [(next(words) >> 11) / (1 << 53) for _ in range(arg)]
            assert [rng.uniform() for _ in range(arg)] == want
            drawn += arg
        elif op == "randrange":
            limit = MASK - (1 << 64) % arg
            while True:
                u = next(words)
                drawn += 1
                if u <= limit:
                    break
            assert rng.randrange(arg) == u % arg
        elif op == "state":
            assert rng.state == (seed + drawn * GAMMA) & MASK
        else:  # the child's seed is the finalizer of the parent state + (arg + 1) gamma
            child_seed = reference_sequence((seed + (drawn + arg) * GAMMA) & MASK, 1)[0]
            child = rng.split(arg)
            assert child.state == child_seed
            assert [child.next_u64() for _ in range(20)] == reference_sequence(child_seed, 20)
    assert rng.state == (seed + drawn * GAMMA) & MASK


@pytest.mark.parametrize("k", rng_module._LANES)
def test_a_block_is_the_next_words_in_either_byte_order(monkeypatch, k):
    base = 0xFEDCBA9876543210
    want = reference_sequence(base, k)
    assert rng_module._block(base, k) == want
    # On a machine of the other byte order every 8-byte word reads reversed;
    # reading the other order's bytes here reverses each word the same way.
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(rng_module, "_ORDER", other)
    swapped = [int.from_bytes(w.to_bytes(8, "little"), "big") for w in want]
    assert rng_module._block(base, k) == swapped


# Loads rng.py by its path, as bench/workloads.py does to pick pp's seed, with
# no site directories (so nothing outside the standard library is importable)
# and prints the table weights pp would draw and the modules that loaded.
BY_PATH = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("_rwsim_rng", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
weights = [
    1 + module.SplitMix64(module.stream_seed(master, i)).randrange(16)
    for master in range(40) for i in range(2)
]
roots = {name.partition(".")[0] for name in sys.modules}
print(json.dumps({"weights": weights, "roots": sorted(roots)}))
"""


def test_loaded_by_path_runs_on_the_standard_library_alone():
    proc = subprocess.run(
        [sys.executable, "-S", "-I", "-c", BY_PATH, str(REPO / "src" / "rwsim" / "rng.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert set(out["roots"]) - set(sys.stdlib_module_names) <= {"__main__", "_rwsim_rng"}
    assert out["weights"] == [
        1 + SplitMix64(stream_seed(master, i)).randrange(16)
        for master in range(40) for i in range(2)
    ]


def test_bernoulli_extremes():
    rng = SplitMix64(9)
    assert all(rng.bernoulli(1.0) == 1 for _ in range(20))
    assert all(rng.bernoulli(0.0) == 0 for _ in range(20))


def test_uniform_mean_and_moments():
    rng = SplitMix64(123)
    n = 20_000
    values = [rng.uniform() for _ in range(n)]
    mean = sum(values) / n
    second = sum(v * v for v in values) / n
    # mean 1/2 (sigma ~ 0.002), second moment 1/3
    assert abs(mean - 0.5) < 0.01
    assert abs(second - 1.0 / 3.0) < 0.01


def test_randrange_is_unbiased_over_small_modulus():
    rng = SplitMix64(7)
    n = 30_000
    counts = [0] * 5
    for _ in range(n):
        counts[rng.randrange(5)] += 1
    expected = n / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 4 degrees of freedom: 99.9th percentile is ~18.5
    assert chi2 < 18.5


@given(st.integers(min_value=0, max_value=MASK))
def test_stream_seeds_are_distinct(master):
    seeds = {stream_seed(master, i) for i in range(64)}
    assert len(seeds) == 64


def test_stream_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        stream_seed(0, -1)


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))])
def test_a_copy_draws_the_same_stream_on_its_own(copier):
    rng = SplitMix64(5)
    for _ in range(9):  # into the second block
        rng.uniform()
    twin = copier(rng)
    assert twin.state == rng.state
    assert [rng.next_u64() for _ in range(30)] == [twin.next_u64() for _ in range(30)]


def test_split_matches_stream_seed():
    rng = SplitMix64(42)
    child = rng.split(3)
    assert child.state == stream_seed(42, 3)


def test_streams_decorrelated():
    # Crude independence check: correlation of paired uniforms across
    # adjacent streams stays near zero.
    n = 4000
    a = SplitMix64(stream_seed(5, 0))
    b = SplitMix64(stream_seed(5, 1))
    xs = [a.uniform() for _ in range(n)]
    ys = [b.uniform() for _ in range(n)]
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / n
    sx = math.sqrt(sum((x - mx) ** 2 for x in xs) / n)
    sy = math.sqrt(sum((y - my) ** 2 for y in ys) / n)
    assert abs(cov / (sx * sy)) < 0.05
