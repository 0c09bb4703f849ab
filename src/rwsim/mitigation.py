"""Amplitude mitigation: boosting a flagged target branch by rewinding.

A *flagged state* is a two-branch pure state

    sqrt(p) |psi_perp>|0>_flag  +  sqrt(1-p) |psi_t>|1>_flag

where flag = 1 marks the target branch and ``p`` is the nontarget
probability.  One mitigation round attaches a |0> ancilla and applies
X(flag) - CH(flag -> ancilla) - X(flag), as one 4x4 matrix (``_ROUND``, a
controlled-H that fires on flag = 0), so the ancilla reads |+> on the
nontarget branch and |0> on the target branch.  Measuring the ancilla:

* z = 0 (prob 1 - p/2): the target odds double — p -> p / (2 - p);
* z = 1 (prob p/2): the state collapses fully onto the nontarget branch;
  rewinding to the pre-measurement snapshot restores it, and the round is
  retried.

``mitigate`` runs 2n+3 rounds with at most 3n attempts each; exhausting the
attempts halts with a ``random_fallback`` marker.  Both retries, a level's
ancilla read toward 0 and ``extract_target``'s flag read toward 1, are
:meth:`rwsim.statevector.Reading.retry`: measure, and on a miss rewind
strictly to the entry state and measure again.  The exact success
probability of the whole schedule has a closed form
(:func:`success_probability_exact`), valid for any admissible
``p <= p_max(n)``.

``prepare_psi``, ``mitigate`` and ``extract_target`` walk cached chains of
outcome weights and :class:`rwsim.statevector.Reading` objects (see
``_preparation``): each distinct state is built and measured once, and each
call adds only its RNG draws, the same draws and the same floats as
measuring afresh.  :func:`copy_odds` reads the exact stage probabilities of
a PP copy off the same chains.

``mitigate_postselect`` is the measurement-free variant: each of m rounds
entangles a coin via a controlled rotation on the nontarget branch and
postselects the coin on 0, scaling the nontarget amplitude by sqrt(q) per
round at per-round success probability 1 - p(1-q) >= q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .circuit import draw_bit
from .gates import CH, hk
from .rng import SplitMix64
from .statevector import (
    PureState,
    Reading,
    apply_gate,
    apply_matrix,
    attach_zero,
    check_width,
    postselect,
    prob_of_bit,
    slice_qubit,
)

# Conjugating a two-target gate by X on its first target swaps the halves of
# its rows and of its columns, so a controlled gate fires on 0 instead.  The
# entries are only moved, so the fused gate multiplies each amplitude by the
# same numbers as the three gates in turn.
_FLIP = np.ix_([2, 3, 0, 1], [2, 3, 0, 1])
_ROUND = CH.unitary()[_FLIP]  # X(flag) CH(flag -> ancilla) X(flag)

SUCCESS = "success"
RANDOM_FALLBACK = "random_fallback"


@dataclass
class FlaggedState:
    """Two-branch state with a designated flag qubit (1 = target branch)."""

    state: PureState
    flag_qubit: int
    p: float  # nontarget probability P(flag = 0)


@dataclass
class MitigationTrace:
    """Per-attempt events (level i, attempt c within the level, outcome z).

    ``i`` increments exactly when z = 0; ``c`` restarts at 1 on each level.
    """

    events: list[tuple[int, int, int]]
    outcome: str  # SUCCESS or RANDOM_FALLBACK


def flag_odds(fs: FlaggedState) -> float:
    """Target odds P(flag=1) / P(flag=0), each summed directly from
    amplitudes so tiny branch weights keep full relative precision."""
    p1 = prob_of_bit(fs.state, fs.flag_qubit, 1)
    p0 = prob_of_bit(fs.state, fs.flag_qubit, 0)
    return p1 / p0


def nontarget_probability(fs: FlaggedState) -> float:
    """P(flag = 0) read from the amplitudes."""
    p0 = prob_of_bit(fs.state, fs.flag_qubit, 0)
    p1 = prob_of_bit(fs.state, fs.flag_qubit, 1)
    return p0 / (p0 + p1)


def p_max(n: int) -> Fraction:
    """Admissibility edge: mitigation is guaranteed for p <= 1 - 1/(2(4^n+1))."""
    return 1 - Fraction(1, 2 * (4**n + 1))


def advance_nontarget(p):
    """One z=0 round: p -> p / (2 - p) (target odds double)."""
    return p / (2 - p)


def nontarget_at_level(p, i: int):
    """Closed form after i successful rounds: p_i = p 2^-i / (1 - (1-2^-i) p)."""
    if isinstance(p, Fraction):
        w = Fraction(1, 2**i)
    else:
        w = 2.0**-i
    return p * w / (1 - (1 - w) * p)


def rounds_needed(p: float) -> int:
    """Smallest N with target odds >= 1 after N rounds: ceil(log2(p/(1-p)))."""
    if p <= 0.5:
        return 0
    return math.ceil(math.log2(p / (1.0 - p)))


def level_success_probability(p, i: int):
    """q_i: probability a single attempt at level i reads z = 0."""
    if isinstance(p, Fraction):
        w = Fraction(1, 2 ** (i + 1))
        wi = Fraction(1, 2**i)
    else:
        w = 2.0 ** -(i + 1)
        wi = 2.0**-i
    return (p * w + (1 - p)) / (1 - (1 - wi) * p)


def _schedule(n: int) -> tuple[int, int]:
    """(levels, attempts per level) of the mitigation schedule: 2n+3 and 3n."""
    return 2 * n + 3, 3 * n


def success_probability_exact(p, n: int):
    """P(the 2n+3-level schedule finishes without fallback).

    Exact when ``p`` is a Fraction; each level independently succeeds with
    probability 1 - (1 - q_i)^{3n}.
    """
    one = Fraction(1) if isinstance(p, Fraction) else 1.0
    prod = one
    levels, tries = _schedule(n)
    for i in range(levels):
        q_i = level_success_probability(p, i)
        prod *= one - (one - q_i) ** tries
    return prod


def success_probability_lower_bound(n: int) -> Fraction:
    """The guaranteed floor 1 - 5n/8^n for any admissible p."""
    return 1 - Fraction(5 * n, 8**n)


# ---------------------------------------------------------------------------
# state construction


def _fwht(v: np.ndarray) -> np.ndarray:
    """Unnormalised fast Walsh-Hadamard transform (in place on a copy)."""
    v = v.astype(float).copy()
    h = 1
    while h < v.size:
        v = v.reshape(-1, 2 * h)
        a = v[:, :h].copy()
        b = v[:, h:].copy()
        v[:, :h] = a + b
        v[:, h:] = a - b
        v = v.reshape(-1)
        h *= 2
    return v


def preparation_state(table) -> PureState:
    """The n+1 qubit state sum_x (H^n |x>)|f(x)> / sqrt(2^n) for a 0/1 table."""
    size = len(table)
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("truth table length must be a power of two")
    ind1 = np.array(table, dtype=float)
    if np.any((ind1 != 0) & (ind1 != 1)):
        raise ValueError("truth table entries must be 0 or 1")
    scale = 1.0 / size
    amps = np.zeros(2 * size, dtype=complex)
    amps[0::2] = _fwht(1.0 - ind1) * scale  # output bit 0
    amps[1::2] = _fwht(ind1) * scale        # output bit 1
    return PureState(n + 1, amps)


def prep_success_probability(table) -> float:
    """P(the first register reads all zeros), from the built amplitudes."""
    state = preparation_state(table)
    return float(abs(state.amps[0]) ** 2 + abs(state.amps[1]) ** 2)


def prepare_psi(table, rng: SplitMix64) -> tuple[PureState | None, int]:
    """Measure the input register of the preparation state until all-zeros,
    at most n times.

    Success leaves the output qubit in ((2^n - s)|0> + s|1>) (normalised),
    where s is the table weight; the per-attempt success probability is
    always >= 1/2.  Returns (state-or-None, attempts used).
    """
    weights, psi = _preparation(tuple(table))
    attempt = _prepared(weights, rng)
    return (psi, attempt) if attempt else (None, len(weights))


def make_flagged(psi: PureState, k: int, n: int) -> FlaggedState:
    """Attach the hk(k)|0> coin and CH it onto ``psi``; flag = second qubit.

    ``psi`` must be a single-qubit state; |k| <= n keeps the coin inside the
    schedule's admissible range.
    """
    if psi.n != 1:
        raise ValueError("make_flagged expects a single-qubit state")
    if abs(k) > n:
        raise ValueError(f"|k| = {abs(k)} exceeds n = {n}")
    coin = hk(k).unitary()[:, 0]  # hk(k)|0>
    amps = np.outer(coin, psi.amps).reshape(-1)
    state = apply_gate(PureState(2, amps), CH, (0, 1))
    # Flag is the psi-side qubit: 0 marks the nontarget branch.
    fs = FlaggedState(state, 1, 0.0)
    fs.p = nontarget_probability(fs)
    return fs


def synthetic_flagged(p: float) -> FlaggedState:
    """sqrt(p)|00> + sqrt(1-p)|11>: orthogonal branches with known weights."""
    if not (0.0 <= p < 1.0):
        raise ValueError("need 0 <= p < 1")
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = math.sqrt(p)
    amps[0b11] = math.sqrt(1.0 - p)
    return FlaggedState(PureState(2, amps), 1, p)


# ---------------------------------------------------------------------------
# the mitigation loops


def _mitigation_round(work: PureState, flag: int, ancilla: int) -> PureState:
    return apply_matrix(work, _ROUND, (flag, ancilla))


# Every state a protocol copy reaches depends only on the input of its stage,
# never on the RNG: a miss is rewound to the very state it collapsed, and a
# hit leads to one next state.  So each stage is a chain of outcome weights
# or readings (:class:`rwsim.statevector.Reading`), built at first use and
# kept, and a copy is a walk over it that adds only its draws.  The chains
# are cached by their input (the table, or the flagged state's amplitude
# bytes: equal bytes give the same floats) in bounded caches.  The walks
# that draw (:func:`_prepared`, :func:`_walk`, :func:`_extracted`) are the
# only ones: the public functions look their chain up on every call and walk
# it once, and :func:`rwsim.applications.pp_decide` looks each chain up once
# and walks it once per copy.


@lru_cache(maxsize=32)
def _preparation(table: tuple) -> tuple[tuple[tuple[float, float], ...], PureState]:
    """The outcome weights (p0, p1) of input qubits 0..n-1 of the
    preparation state, each after the ones before it read 0, and the output
    qubit once all read 0.  A copy only ever restarts from the top, so only
    the weights are kept and each state is dropped once the next is built."""
    state = preparation_state(table)
    weights = []
    for qubit in range(state.n - 1):
        reading = Reading(state, qubit)
        weights.append((reading.p0, reading.p1))
        state = reading.collapsed(0)
    for _ in weights:
        state = slice_qubit(state, 0, 0)
    state.amps.flags.writeable = False
    return tuple(weights), state


def _prepared(weights, rng: SplitMix64) -> int:
    """Read the input qubits with outcome ``weights`` (see :func:`_preparation`)
    until all read 0, at most ``len(weights)`` attempts: the attempt that
    succeeded, from 1, or 0 if none did.  A 1 read fails the attempt, which
    re-prepares and reads from qubit 0 again."""
    for attempt in range(1, len(weights) + 1):
        for p0, p1 in weights:
            if draw_bit(p0, p1, rng):
                break
        else:
            return attempt
    return 0


class _Level:
    """One level of the schedule on one input: the ancilla reading of its
    round, the state it leaves on either bit (with its nontarget
    probability) and the next level, each built at first use."""

    __slots__ = ("flag", "reading", "_exits", "_next")

    def __init__(self, state: PureState, flag: int):
        ancilla = state.n
        self.flag = flag
        self.reading = Reading(_mitigation_round(attach_zero(state), flag, ancilla), ancilla)
        self._exits: list[tuple[PureState, float] | None] = [None, None]
        self._next: _Level | None = None

    def next(self) -> "_Level":
        if self._next is None:
            self._next = _Level(self.reading.dropped(0), self.flag)
        return self._next

    def exit(self, bit: int) -> tuple[PureState, float]:
        if self._exits[bit] is None:
            state = self.reading.dropped(bit)
            self._exits[bit] = state, nontarget_probability(FlaggedState(state, self.flag, 0.0))
        return self._exits[bit]

    def flag_reading(self) -> Reading:
        """The cached reading of the flag on the state this level leaves on
        0, which is where a schedule that ends at this level succeeds."""
        return _chain_of(_flag_reading, self.exit(0)[0], self.flag)


@lru_cache(maxsize=32)
def _first_level(n: int, dtype: str, raw: bytes, flag: int) -> _Level:
    return _Level(PureState(n, np.frombuffer(raw, dtype=dtype)), flag)


@lru_cache(maxsize=32)
def _flag_reading(n: int, dtype: str, raw: bytes, flag: int) -> Reading:
    return Reading(PureState(n, np.frombuffer(raw, dtype=dtype)), flag)


def _chain_of(build, state: PureState, flag: int):
    """``build``'s chain for ``state`` and its flag qubit."""
    amps = state.amps
    return build(state.n, amps.dtype.str, amps.tobytes(), flag)


def _levels(fs: FlaggedState) -> _Level:
    """The first level of ``fs``'s schedule.  The width cap on the state
    with its ancilla is checked first, so it holds on a cached chain too."""
    check_width(fs.state.n + 1, "state")
    return _chain_of(_first_level, fs.state, fs.flag_qubit)


def _walk(
    level: _Level, n: int, rng: SplitMix64, events: list | None = None
) -> tuple[_Level, int]:
    """Run the 2n+3-level schedule from its first ``level``: read each
    level's ancilla toward 0 with at most 3n tries of
    :meth:`rwsim.statevector.Reading.retry`, and stop at the first level
    that runs out.  Returns the level the walk ended at and the bit it last
    read there (1: fallback).  Each attempt (level i, attempt c within the
    level, outcome z) is appended to ``events`` when it is given."""
    levels, tries = _schedule(n)
    for i in range(levels):
        if i:
            level = level.next()
        draws, bit = level.reading.retry(0, tries, rng)
        if events is not None:  # every draw before the last missed, reading 1
            events += [(i, c, 1) for c in range(1, draws)]
            events.append((i, draws, bit))
        if bit:
            return level, 1
    return level, 0


def _extracted(reading: Reading, n: int, rng: SplitMix64) -> PureState | None:
    """Read the flag ``reading`` toward 1, at most n tries: the target, or None."""
    _, bit = reading.retry(1, n, rng)
    return reading.dropped(1) if bit else None


def mitigate(fs: FlaggedState, n: int, rng: SplitMix64) -> tuple[FlaggedState, MitigationTrace]:
    """Run the full 2n+3-level schedule with <= 3n attempts per level.

    Returns the final flagged state and the attempt trace.  On fallback the
    state at the halt point is returned as-is (its collapsed ancilla sliced
    off); the caller decides what "random" means for its protocol.  Each
    level's ancilla is read toward 0 with
    :meth:`rwsim.statevector.Reading.retry`, over the cached chain of the input.
    The width cap on the state with its ancilla is checked on every call,
    before the chain is looked up.
    """
    if n < 1:
        raise ValueError(f"mitigate needs n >= 1, got {n}")
    events: list[tuple[int, int, int]] = []
    level, bit = _walk(_levels(fs), n, rng, events)
    state, p = level.exit(bit)
    outcome = RANDOM_FALLBACK if bit else SUCCESS
    return FlaggedState(state, fs.flag_qubit, p), MitigationTrace(events, outcome)


def extract_target(fs: FlaggedState, n: int, rng: SplitMix64) -> PureState | None:
    """Measure the flag until it reads 1, up to n tries; return the target.

    After successful mitigation P(flag = 1) >= 1/2, so the failure
    probability is <= 2^-n.
    """
    if n < 1:
        return None
    return _extracted(_chain_of(_flag_reading, fs.state, fs.flag_qubit), n, rng)


class CopyOdds(NamedTuple):
    """Exact probabilities of the stages of one PP copy at one coin
    parameter, and the target a successful copy extracts."""

    prep: float  # prepare_psi returns psi within its n attempts
    success: float  # mitigate finishes without fallback
    extract: float  # extract_target reads the flag as 1 within its n tries
    target: PureState


def copy_odds(table, k: int) -> CopyOdds:
    """The :class:`CopyOdds` of a copy that prepares psi from ``table``,
    flags it with coin parameter ``k``, mitigates and extracts, read off the
    chains those calls walk: P(prep) = 1 - (1 - prod_j P(input qubit j reads
    0))^n, P(success) = prod_i (1 - (1 - q_i)^{3n}) over the 2n+3 levels
    (q_i the level's P(ancilla reads 0)) and P(extract) = 1 - P(flag reads
    0)^n."""
    weights, psi = _preparation(tuple(table))
    n = len(weights)
    prep = 1.0 - (1.0 - math.prod(p0 / (p0 + p1) for p0, p1 in weights)) ** n
    level = _levels(make_flagged(psi, k, n))
    levels, tries = _schedule(n)
    success = 1.0
    for i in range(levels):
        if i:
            level = level.next()
        success *= 1.0 - (1.0 - level.reading.prob(0)) ** tries
    flag = level.flag_reading()
    return CopyOdds(prep, success, 1.0 - flag.prob(0) ** n, flag.dropped(1))


def postselect_rounds(p: float, q: float) -> int:
    """m*: coins needed so the target branch reaches probability >= 1/2."""
    if p <= 0.5:
        return 0
    return math.ceil(math.log2(p / (1.0 - p)) / math.log2(1.0 / q))


def _coin_round(q: float) -> np.ndarray:
    """X(flag) - controlled coin rotation (flag -> coin) - X(flag) as one
    matrix: the rotation sqrt(q), sqrt(1 - q) acts on the coin when flag = 0."""
    root_q = math.sqrt(q)
    root_1q = math.sqrt(1.0 - q)
    controlled = np.eye(4, dtype=complex)
    controlled[2:, 2:] = [[root_q, -root_1q], [root_1q, root_q]]
    return controlled[_FLIP]


def mitigate_postselect(fs: FlaggedState, q: float, m: int) -> FlaggedState:
    """Adaptive-postselection variant: m coin rounds at rotation parameter q.

    Each round leaves the state (up to normalisation) with the nontarget
    amplitude scaled by sqrt(q); the coin postselection is required to
    succeed with probability >= q (enforced via the postselect threshold,
    with a hair of slack for float rounding).
    """
    if not (0.0 < q < 1.0):
        raise ValueError("need 0 < q < 1")
    round_u = _coin_round(q)
    state = fs.state
    flag = fs.flag_qubit
    for _ in range(m):
        coin = state.n
        work = apply_matrix(attach_zero(state), round_u, (flag, coin))
        _, work = postselect(work, coin, 0, min_prob=q * (1.0 - 1e-9))
        state = slice_qubit(work, coin, 0)
    out = FlaggedState(state, flag, 0.0)
    out.p = nontarget_probability(out)
    return out
