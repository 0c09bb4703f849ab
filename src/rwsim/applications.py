"""Decision and search protocols built on rewinding.

Three protocols share the preparation + mitigation toolbox:

* :func:`pp_decide` — decides whether a boolean function's acceptance count s
  satisfies 0 < s < 2^{n-1} (``low``) or s >= 2^{n-1} (``high``) by scanning
  coin parameters k and testing whether some k makes the mitigated target
  state concentrate in the X basis.
* :func:`collision_find` — prepares a uniform superposition over a function
  family's domain tagged with images, measures an image, and uses a single
  rewind of the last input qubit to sample two preimages.
* :func:`sd_trial` — given two output tables, measures which table a random
  branch came from, rewinds once, and re-measures; disagreement frequency
  reveals the statistical difference between the induced distributions.
  It runs on the pair's image reading, which :func:`sd_image_reading`
  builds once per table pair.

Each single-rewind protocol keeps the state from before its measurement in
a local and hands it to :func:`rwsim.statevector.rewind` with the state
after; nothing is copied.

Exact counterparts (:func:`family_delta_exact`,
:func:`collision_success_probability`, :func:`sd_error_exact`) compute the
relevant quantities as Fractions by brute-force enumeration, so the sampling
protocols can be validated end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .circuit import InputError
from .mitigation import (
    _extracted,
    _levels,
    _preparation,
    _prepared,
    _walk,
    copy_odds,
    make_flagged,
)
from .gates import H
from .rng import SplitMix64
from .statevector import (
    PureState,
    Reading,
    RegisterReading,
    apply_gate,
    check_width,
    measure,
    measure_register,
    RewindConsistencyError,
    rewind,
)

LOW = "low"
HIGH = "high"

# flag readings a padded collision trial tries before it gives up
_MAX_PREP_ATTEMPTS = 64


class PromiseViolationError(ValueError):
    """Input breaks a protocol's promise (e.g. an all-zeros table)."""


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table on n input bits with m-bit outputs."""

    n: int
    table: tuple[int, ...]
    output_bits: int = 1

    def __post_init__(self):
        if len(self.table) != 1 << self.n:
            raise ValueError("table length must be 2^n")
        if any(not (0 <= v < 1 << self.output_bits) for v in self.table):
            raise ValueError(f"table entries must fit in {self.output_bits} bits")

    def evaluate(self, x: int) -> int:
        return self.table[x]

    @property
    def weight(self) -> int:
        """For single-bit outputs: the acceptance count s."""
        return sum(self.table)


# ---------------------------------------------------------------------------
# PP-style decision


@dataclass
class PPDecision:
    decision: str  # LOW or HIGH
    plus_fractions: dict[int, float]
    copies: int
    tau: float
    fallbacks: int
    prep_failures: int
    extract_failures: int


def _x_reading(phi: PureState) -> Reading:
    """The X-basis reading of a one-qubit target: bit 0 is ``+``."""
    return Reading(apply_gate(phi, H, (0,)), 0)


def _validate_pp(f: BooleanFunction) -> None:
    if f.output_bits != 1:
        raise ValueError("pp_decide expects single-bit outputs")
    if f.weight == 0:
        raise PromiseViolationError("table weight s = 0 satisfies neither promise side")


def pp_decide(
    f: BooleanFunction,
    rng: SplitMix64,
    copies: int = 64,
    tau: float = 0.75,
) -> PPDecision:
    """Decide low (0 < s < 2^{n-1}) vs high (s >= 2^{n-1}).

    For each k in -n..n, collects ``copies`` X-basis statistics of the
    mitigated target state; a plus-fraction >= tau at any k means some coin
    parameter mapped the state near |+>, which happens exactly in the low
    case.  Scanning stops at the first k that clears tau.  An all-zeros
    table breaks the promise and raises.  The default 64 copies keep both
    error sides negligible at desk scales (a handful of bits of slack past
    the tau = 3/4 threshold).

    A copy prepares psi, flags it with coin parameter k, mitigates and
    extracts the target, and reads it in the X basis, as
    :func:`rwsim.mitigation.prepare_psi`, ``mitigate`` and
    ``extract_target`` do, with the same walks.  A failed preparation or
    extraction scores ``-`` and a fallback a fair coin.  Each chain is
    looked up once (see :mod:`rwsim.mitigation`): the preparation once per
    table; the flagged state, the width cap and the first level at the
    first prepared copy of each k; the flag reading and the X-basis reading
    at its first successful copy.  So a copy is only its draws.
    """
    _validate_pp(f)
    n = f.n
    weights, psi = _preparation(tuple(f.table))
    fractions: dict[int, float] = {}
    fallbacks = prep_failures = extract_failures = 0
    decision = HIGH
    for k in range(-n, n + 1):
        plus = 0
        first = flag = x_reading = None
        for _ in range(copies):
            if not _prepared(weights, rng):
                prep_failures += 1
                continue
            if first is None:
                first = _levels(make_flagged(psi, k, n))
            level, bit = _walk(first, n, rng)
            if bit:
                # The fallback state is arbitrary; score the copy with a fair coin.
                fallbacks += 1
                plus += rng.bernoulli(0.5)
                continue
            if flag is None:
                flag = level.flag_reading()  # every success ends at the last level
            phi = _extracted(flag, n, rng)
            if phi is None:
                extract_failures += 1
                continue
            if x_reading is None:
                x_reading = _x_reading(phi)  # every extracted target is the same state
            plus += x_reading.draw(rng) == 0
        fractions[k] = plus / copies
        if fractions[k] >= tau:
            decision = LOW
            break
    return PPDecision(
        decision, fractions, copies, tau, fallbacks, prep_failures, extract_failures
    )


def _binomial_below(trials: int, q: float, need: int) -> float:
    """P(Binomial(trials, q) < need)."""
    return math.fsum(
        math.comb(trials, j) * q**j * (1.0 - q) ** (trials - j) for j in range(min(need, trials + 1))
    )


def pp_correct_probability(f: BooleanFunction, copies: int = 64, tau: float = 0.75) -> float:
    """Exact probability, over the RNG, that :func:`pp_decide` answers correctly.

    At each k a copy reads ``+`` with probability

        P_prep * (P_fallback / 2 + P_success * P_extract * P_+)

    from the stage probabilities of :func:`rwsim.mitigation.copy_odds`, with
    P_fallback = 1 - P_success and P_+ the target's X-basis P(+).  The
    copies are independent, and the scan answers high when no k reaches
    ``tau``, so P(high) = prod_k P(Binomial(copies, q_k) < m), m being the
    least plus count whose fraction reaches ``tau``.
    """
    _validate_pp(f)
    n = f.n
    need = next((m for m in range(copies + 1) if m / copies >= tau), copies + 1)
    p_high = 1.0
    for k in range(-n, n + 1):
        odds = copy_odds(f.table, k)
        p_plus = _x_reading(odds.target).prob(0)
        q_k = odds.prep * ((1.0 - odds.success) / 2 + odds.success * odds.extract * p_plus)
        p_high *= _binomial_below(copies, q_k, need)
    return 1.0 - p_high if f.weight < 1 << (n - 1) else p_high


# ---------------------------------------------------------------------------
# function families and collision finding


@dataclass
class FunctionFamily:
    """Indexed function f: {0..size-1} -> images, with a decoder for reporting.

    :func:`family_delta_exact` computes the fraction of the domain that owns
    a collision partner.
    """

    name: str
    size: int
    output_bits: int
    evaluate: Callable[[int], int]
    decode: Callable[[int], object] = lambda i: i
    _images: np.ndarray | None = field(default=None, repr=False)

    @property
    def input_bits(self) -> int:
        return max(1, (self.size - 1).bit_length())

    @property
    def padded(self) -> bool:
        """Whether the domain size is not a power of two, so the collision
        state needs a validity flag qubit."""
        return (1 << self.input_bits) != self.size

    @property
    def width(self) -> int:
        """Qubits of the collision state: input, image and, when padded, the
        validity flag."""
        return self.input_bits + self.output_bits + int(self.padded)

    def images_array(self) -> np.ndarray:
        if self._images is None:
            self._images = np.fromiter(
                (self.evaluate(i) for i in range(self.size)), dtype=np.int64, count=self.size
            )
        return self._images


def toy_two_regular(b: int) -> FunctionFamily:
    """f(x, c) = x on b+1 input bits: every element has exactly one partner."""
    return FunctionFamily(
        name=f"toy2reg[{b}]",
        size=1 << (b + 1),
        output_bits=b,
        evaluate=lambda i: i >> 1,
        decode=lambda i: (i >> 1, i & 1),
    )


def family_delta_exact(family: FunctionFamily) -> Fraction:
    """Fraction of the domain whose image has >= 2 preimages.

    Computed twice by independent enumerations (hash-count and sorted-run
    scan) which must agree exactly.
    """
    images = family.images_array()
    counts: dict[int, int] = {}
    for y in images.tolist():
        counts[y] = counts.get(y, 0) + 1
    collidable_a = sum(c for c in counts.values() if c >= 2)

    ordered = np.sort(images)
    collidable_b = 0
    run = 1
    for i in range(1, ordered.size + 1):
        if i < ordered.size and ordered[i] == ordered[i - 1]:
            run += 1
            continue
        if run >= 2:
            collidable_b += run
        run = 1
    assert collidable_a == collidable_b, "independent delta enumerations disagree"
    return Fraction(collidable_a, family.size)


def collision_success_probability(family: FunctionFamily) -> Fraction:
    """Exact probability that one :func:`collision_find` trial with rewinding
    returns a pair.

    The image y is read with probability k/size, k being its number of
    preimages, and x1 is uniform over them.  The strict rewind accepts only
    if the post-state |x1> is the prepared superposition collapsed on one
    input qubit, that is, if one bit tells x1 apart from the other preimages
    (always so for k = 2; for k = 1 the state is unchanged, and x2 = x1).
    Then x2 is uniform over the preimages and differs from x1 with
    probability (k-1)/k.  The preparation succeeds within
    ``_MAX_PREP_ATTEMPTS`` flag readings unless each reads the padding.
    """
    in_bits, size = family.input_bits, family.size
    _, group, counts = np.unique(family.images_array(), return_inverse=True, return_counts=True)
    k = counts[group]  # preimages of each element's image
    told_apart, index = np.zeros(size, dtype=bool), np.arange(size)
    for q in range(in_bits):
        bit = (index >> q) & 1
        ones = np.bincount(group, weights=bit, minlength=counts.size)[group]
        told_apart |= np.where(bit == 1, ones, k - ones) == 1
    p = Fraction(0)
    for kk in np.unique(k[k >= 2]).tolist():
        p += Fraction(int(np.count_nonzero(told_apart & (k == kk))) * (kk - 1), kk)
    prepared = 1 - (1 - Fraction(size, 1 << in_bits)) ** _MAX_PREP_ATTEMPTS
    return prepared * p / size


def _family_state(family: FunctionFamily) -> tuple[PureState, bool]:
    """Uniform superposition |x>|f(x)>|1> padded with |x>|0...0>|0> terms.

    The validity flag is appended only when the domain size is not a power
    of two.  Trials use it through :func:`_family_readings`, which caches it.
    """
    in_bits = family.input_bits
    out_bits = family.output_bits
    padded = family.padded
    total = family.width
    amps = np.zeros(1 << total, dtype=complex)
    scale = 2.0 ** (-in_bits / 2.0)
    idx = np.arange(family.size, dtype=np.int64)
    images = family.images_array()
    if padded:
        amps[(idx << (out_bits + 1)) | (images << 1) | 1] = scale
        pad = np.arange(family.size, 1 << in_bits, dtype=np.int64)
        amps[pad << (out_bits + 1)] = scale
    else:
        amps[(idx << out_bits) | images] = scale
    return PureState(total, amps), padded


def _family_readings(family: FunctionFamily) -> tuple[Reading | None, RegisterReading]:
    """The validity-flag reading of the prepared state (padded families only)
    and the image-register reading of the state that passed it.

    After the image is read, the image qubits are fixed classical bits, so a
    trial continues on the input register alone.  Cached on the family; the
    width check runs on every call, so a lowered cap still refuses.
    """
    check_width(family.width, f"family {family.name}")
    cache = getattr(family, "_readings_cache", None)
    if cache is None:
        base, padded = _family_state(family)
        flag = Reading(base, base.n - 1) if padded else None
        valid = flag.dropped(1) if padded else base
        in_bits = family.input_bits
        image = RegisterReading(valid, range(in_bits, in_bits + family.output_bits))
        cache = family._readings_cache = (flag, image)
    return cache


def collision_find(
    family: FunctionFamily,
    rng: SplitMix64,
    allow_rewind: bool = True,
) -> tuple[object, object] | None:
    """Try once to produce a colliding pair (x, x') with f(x) = f(x').

    With rewinding: measure the image register, measure the last input qubit,
    read the remaining input bits, rewind that single measurement, and
    re-measure.  For an image with exactly two preimages differing in the
    last bit this yields the pair with probability 1/2.  Images that break
    the two-branch structure make the strict rewind refuse, and the trial
    returns None.

    Without rewinding the preparation and measurements run twice
    independently and only an accidental image match can pair up.

    The preparation and the image reading draw from readings cached on the
    family (:func:`_family_readings`); everything after them runs on the
    ``input_bits``-qubit state the image reading leaves.
    """
    flag, image = _family_readings(family)
    in_bits = family.input_bits
    images = family.images_array()

    def input_state() -> PureState | None:
        """Prepare (retrying on a failed validity flag) and read the image."""
        for _ in range(_MAX_PREP_ATTEMPTS):
            if flag is None or flag.draw(rng) == 1:
                return image.dropped(image.draw(rng))
        return None

    if not allow_rewind:
        xs = []
        for _ in range(2):
            state = input_state()
            if state is None:
                return None
            xs.append(measure_register(state, range(in_bits), rng)[0])
        x1, x2 = xs
    else:
        state = input_state()
        if state is None:
            return None
        pre_last_bit, last = state, in_bits - 1
        bit1, _, state = measure(state, last, rng)
        rest1, _, state = measure_register(state, range(last), rng)
        x1 = (rest1 << 1) | bit1
        try:
            state = rewind(pre_last_bit, state)
        except RewindConsistencyError:
            return None  # image had more than the two-branch structure
        bit2, _, state = measure(state, last, rng)
        rest2, _, _ = measure_register(state, range(last), rng)
        x2 = (rest2 << 1) | bit2
    if x1 != x2 and images[x1] == images[x2]:
        return family.decode(x1), family.decode(x2)
    return None


# ---------------------------------------------------------------------------
# LWE-style family


@dataclass
class LWEParams:
    """Parameters and key material for the shifted-pair family.

    f(s, e, c) = s A + e + c (s0 A + e0) mod q, with s a row vector over
    Z_q^n, e a centered error vector in [-mu, mu]^m, and c one bit.  The
    pair (s, e, 1) and (s + s0, e + e0, 0) always shares an image; whether
    the partner lies inside the domain depends on e + e0 staying within the
    error box.
    """

    n: int
    q: int
    m: int
    mu: int
    mu_prime: int
    A: np.ndarray
    s0: np.ndarray
    e0: np.ndarray

    @classmethod
    def crypto_scale(cls, n: int, rng: SplitMix64) -> "LWEParams":
        """Collision-resistant-size parameters from the security parameter n:
        q = 2^{5 ceil(log2 n) + 21}, m = 23n + 5n ceil(log2 n),
        mu = floor(2mn sqrt(23 + 5 log2 n)), mu' = mu // m."""
        if n < 1:
            raise ValueError("n must be positive")
        log_n = max(1, math.ceil(math.log2(n))) if n > 1 else 0
        q = 1 << (5 * log_n + 21)
        m = 23 * n + 5 * n * log_n
        mu = int(2 * m * n * math.sqrt(23 + 5 * (math.log2(n) if n > 1 else 0)))
        mu_prime = mu // m
        A = np.array([[rng.randrange(q) for _ in range(m)] for _ in range(n)], dtype=object)
        s0 = np.array([rng.randrange(q) for _ in range(n)], dtype=object)
        e0 = np.array(
            [rng.randrange(2 * mu_prime + 1) - mu_prime for _ in range(m)], dtype=object
        )
        return cls(n, q, m, mu, mu_prime, A, s0, e0)

    @classmethod
    def toy_scale(
        cls, rng: SplitMix64, n: int = 1, q: int = 8, m: int = 2, mu: int = 1
    ) -> "LWEParams":
        mu_prime = mu // m
        A = np.array([[rng.randrange(q) for _ in range(m)] for _ in range(n)], dtype=np.int64)
        s0 = np.array([rng.randrange(q) for _ in range(n)], dtype=np.int64)
        e0 = np.array(
            [rng.randrange(2 * mu_prime + 1) - mu_prime for _ in range(m)], dtype=np.int64
        )
        return cls(n, q, m, mu, mu_prime, A, s0, e0)

    def centered(self, values: np.ndarray) -> np.ndarray:
        """Representatives in (-q/2, q/2]."""
        v = np.mod(values, self.q)
        return np.where(v > self.q // 2, v - self.q, v)

    def in_error_box(self, e: np.ndarray) -> bool:
        return bool(np.all(np.abs(self.centered(e)) <= self.mu))


def lwe_family(params: LWEParams) -> FunctionFamily:
    """The indexed family over domain Z_q^n x [-mu, mu]^m x {0, 1}."""
    n, q, m, mu = params.n, params.q, params.m, params.mu
    width = 2 * mu + 1
    size = (q**n) * (width**m) * 2
    bits_per_output = (q - 1).bit_length()
    shift = params.s0 @ params.A + params.e0

    def decode(i: int):
        c = i & 1
        rest = i >> 1
        e = np.empty(m, dtype=np.int64)
        for j in range(m):
            e[j] = rest % width - mu
            rest //= width
        s = np.empty(n, dtype=np.int64)
        for j in range(n):
            s[j] = rest % q
            rest //= q
        return tuple(s.tolist()), tuple(e.tolist()), c

    def evaluate(i: int) -> int:
        s, e, c = decode(i)
        y = (np.array(s) @ params.A + np.array(e) + (shift if c else 0)) % q
        out = 0
        for j in range(m - 1, -1, -1):
            out = (out << bits_per_output) | int(y[j])
        return out

    return FunctionFamily(
        name=f"lwe[n={n},q={q},m={m},mu={mu}]",
        size=size,
        output_bits=m * bits_per_output,
        evaluate=evaluate,
        decode=decode,
    )


def lwe_collision_partner(params: LWEParams, s, e, c: int):
    """The guaranteed colliding partner of (s, e, c), or None if it leaves the domain."""
    sign = 1 if c == 1 else -1
    s2 = tuple((np.array(s) + sign * params.s0) % params.q)
    e2 = np.array(e) + sign * params.e0
    if not bool(np.all(np.abs(e2) <= params.mu)):
        return None
    return tuple(int(v) for v in s2), tuple(int(v) for v in e2), 1 - c


# ---------------------------------------------------------------------------
# statistical-difference decision


def _check_same_sizes(c0: BooleanFunction, c1: BooleanFunction) -> None:
    if (c0.n, c0.output_bits) != (c1.n, c1.output_bits):
        raise InputError("both tables must share input and output sizes")


def _sd_state(c0: BooleanFunction, c1: BooleanFunction) -> PureState:
    n, m = c0.n, c0.output_bits
    amps = np.zeros(1 << (1 + n + m), dtype=complex)
    scale = 2.0 ** (-(n + 1) / 2.0)
    xs = np.arange(1 << n, dtype=np.int64)
    t0 = np.array(c0.table, dtype=np.int64)
    t1 = np.array(c1.table, dtype=np.int64)
    amps[(xs << m) | t0] = scale
    amps[(1 << (n + m)) | (xs << m) | t1] = scale
    return PureState(1 + n + m, amps)


def sd_image_reading(c0: BooleanFunction, c1: BooleanFunction) -> RegisterReading:
    """The image-register reading of the branch-tagged state: qubit 0 is the
    branch bit, then the n input qubits, then the m image qubits.

    Build it once per table pair and hand it to :func:`sd_trial` for every
    trial; :class:`QubitBudgetError` if the state is over the cap.
    """
    _check_same_sizes(c0, c1)
    n, m = c0.n, c0.output_bits
    check_width(1 + n + m, "sd instance")
    return RegisterReading(_sd_state(c0, c1), range(1 + n, 1 + n + m))


def sd_trial(image: RegisterReading, rng: SplitMix64) -> int:
    """Sample [b1 != b2] from measure-rewind-remeasure on the branch bit,
    one trial on a table pair's image reading.

    The image is drawn from the reading, and the branch bit is measured,
    rewound and re-measured on the ``1 + n`` qubits left.  Output 1 has
    probability sum_y P(y) * 2 P0 P1 / (P0+P1)^2, which is large when the
    two output distributions overlap and small when they are far.
    """
    post_image = image.dropped(image.draw(rng))
    b1, _, state = measure(post_image, 0, rng)
    state = rewind(post_image, state)
    b2, _, state = measure(state, 0, rng)
    return int(b1 != b2)


def sd_error_exact(
    c0: BooleanFunction, c1: BooleanFunction
) -> tuple[Fraction, Fraction, Fraction]:
    """(p_err, p_err', D_TV) for the branch-bit protocol, all exact.

    p_err = P(b1 = b2), p_err' = P(b1 != b2); verifies the exact identities
    p_err + p_err' = 1, p_err <= 1/2 + D_TV, and the witness-sum bound
    p_err' <= sum_y min(P0, P1) = 1 - D_TV before returning.
    """
    _check_same_sizes(c0, c1)
    size = 1 << c0.n
    counts0: dict[int, int] = {}
    counts1: dict[int, int] = {}
    for x in range(size):
        counts0[c0.table[x]] = counts0.get(c0.table[x], 0) + 1
        counts1[c1.table[x]] = counts1.get(c1.table[x], 0) + 1
    p_err = Fraction(0)
    p_err_prime = Fraction(0)
    d_tv = Fraction(0)
    min_sum = Fraction(0)
    for y in set(counts0) | set(counts1):
        p0 = Fraction(counts0.get(y, 0), size)
        p1 = Fraction(counts1.get(y, 0), size)
        d_tv += abs(p0 - p1)
        min_sum += min(p0, p1)
        total = p0 + p1
        p_err += (total / 2) * ((p0 * p0 + p1 * p1) / (total * total))
        p_err_prime += (total / 2) * (2 * p0 * p1 / (total * total))
    d_tv /= 2
    assert p_err + p_err_prime == 1
    assert p_err <= Fraction(1, 2) + d_tv
    assert p_err_prime <= min_sum == 1 - d_tv
    return p_err, p_err_prime, d_tv
