"""Deterministic randomness for simulations.

Everything stochastic in this package draws from :class:`SplitMix64`, a
64-bit-state generator with a one-call finalizer.  It is fast, has no hidden
global state, and — unlike ``random.Random`` — supports cheap *stream
splitting*: ``stream_seed(master, i)`` derives an independent seed for trial
``i`` so that a batch of trials produces identical results no matter how the
trials are distributed over worker processes.

After ``i`` draws the state is ``seed + i * gamma`` (mod 2^64), so the next
``k`` words need no loop: :func:`_block` packs their states into one Python
int, one 128-bit lane each (lane ``j`` holds the state of word ``j`` in its
low 64 bits), and runs the finalizer on all lanes at once.  Each 64x64-bit
product fits in its lane, and the bits a right shift pulls in from the next
lane are masked off before they can reach a product.  The low halves are
read back through ``int.to_bytes`` and ``memoryview.cast("Q")`` in the
machine's byte order.  The stream is bit for bit that of the one-word
generator.  A generator computes its first block on construction and each
next one when the last is used up.  The blocks double from 6 words to a cap
of 256.  A pass over a few words costs about as much as three one-word
draws, so one pass covers the 3-5 draws of a dense trial and two the 16 of
a tableau trial; over a long stream a draw costs about half as much as a
one-word draw.

The module uses the standard library only, not NumPy: the stab and
path-sum commands never load NumPy, and the benchmark loads this file by
path, outside the package, to pick a seed.
"""

from __future__ import annotations

import sys

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment
_UNIT = 1.0 / (1 << 53)
_BLOCKS = (6, 12, 24, 48, 96, 192, 256)  # block lengths, in the order they are used
_ORDER = sys.byteorder


def _mix(z: int) -> int:
    """SplitMix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_seed(master: int, index: int) -> int:
    """Seed for the ``index``-th independent stream under ``master``.

    Defined as the finalizer applied to ``master + (index+1) * gamma``; the
    ``+1`` keeps stream 0 distinct from the master sequence itself.
    """
    if index < 0:
        raise ValueError("stream index must be >= 0")
    return _mix((master + (index + 1) * _GAMMA) & _MASK)


def _lanes(k: int) -> tuple[int, int, int]:
    """Constants of a ``k``-lane block: a 1 in every lane, the 64-bit mask of
    every lane, and ``(j + 1) * gamma`` in lane ``j``."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")
    ramp = b"".join((j + 1).to_bytes(16, "little") for j in range(k))
    return ones, ones * _MASK, int.from_bytes(ramp, "little") * _GAMMA


_LANES = {k: _lanes(k) for k in _BLOCKS}
_NEXT_BLOCK = dict(zip(_BLOCKS, _BLOCKS[1:] + _BLOCKS[-1:]))


def _block(base: int, k: int) -> list[int]:
    """The ``k`` words a generator at state ``base`` draws next (``k`` a key
    of ``_LANES``)."""
    ones, mask, ramp = _LANES[k]
    z = (base * ones + ramp) & mask
    z = (((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
    z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
    z ^= z >> 31  # what this shift pulls in lands in the upper halves, never read
    words = memoryview(z.to_bytes(16 * k, _ORDER)).cast("Q")
    # little-endian: lane j's low half is word 2j; big-endian: word 2k-1-2j
    return (words[0::2] if _ORDER == "little" else words[::-2]).tolist()


class SplitMix64:
    """SplitMix64 pseudo-random generator (64-bit state, 2^64 period).

    ``_take`` hands out the words of the current block; ``_base`` is the
    state before the block's first word and ``_size`` its length.
    """

    __slots__ = ("_base", "_size", "_take")

    def __init__(self, seed: int):
        self._base = seed & _MASK
        self._size = _BLOCKS[0]
        self._take = iter(_block(self._base, _BLOCKS[0])).__next__

    def _refill(self) -> None:
        """Start the next block; the current one has been read to the end."""
        size = self._size
        self._base = base = (self._base + size * _GAMMA) & _MASK
        self._size = size = _NEXT_BLOCK[size]
        self._take = iter(_block(base, size)).__next__

    @property
    def state(self) -> int:
        """``seed + gamma`` times the words drawn so far, mod 2^64: the state of
        the one-word generator after the same draws."""
        unread = self._take.__self__.__length_hint__()
        return (self._base + (self._size - unread) * _GAMMA) & _MASK

    def __copy__(self) -> "SplitMix64":
        # a field-by-field copy would share the block's iterator with this one
        return SplitMix64(self.state)

    def next_u64(self) -> int:
        try:
            return self._take()
        except StopIteration:
            self._refill()
            return self._take()

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        try:
            word = self._take()
        except StopIteration:
            self._refill()
            word = self._take()
        return (word >> 11) * _UNIT

    def bernoulli(self, p: float) -> int:
        """1 with probability ``p``, else 0."""
        return 1 if self.uniform() < p else 0

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (exact, unbiased); ``n`` at
        most 2^64, the range of one word."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        if n > _MASK + 1:
            raise ValueError(f"randrange bound {n} is over 2^64")
        # Rejection zone keeps the distribution exactly uniform.
        limit = _MASK - (_MASK + 1) % n
        while True:
            try:
                u = self._take()
            except StopIteration:
                self._refill()
                continue
            if u <= limit:
                return u % n

    def split(self, index: int) -> "SplitMix64":
        """Independent child generator for stream ``index``."""
        return SplitMix64(stream_seed(self.state, index))
