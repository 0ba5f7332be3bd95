"""Deterministic sampling from a single 64-bit seed.

Every randomized operation in the package draws from :class:`Sampler`,
a SplitMix64 generator.  The update function is fixed by three published
constants, so identical seeds give identical streams on every platform
and Python version; nothing here depends on ``random`` module internals.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1


class Sampler:
    """SplitMix64 stream with helpers for ints, choices and rationals."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self._state = seed

    def u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            r = self.u64()
            if r < limit:
                return r % n

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.below(len(seq))]

    def sample(self, seq, k: int) -> list:
        """k distinct elements, order determined by the stream."""
        if k > len(seq):
            raise ValueError("sample larger than population")
        pool = list(seq)
        out = []
        for _ in range(k):
            out.append(pool.pop(self.below(len(pool))))
        return out

    def fraction(self, max_abs_num: int = 8, max_den_pow: int = 3) -> Fraction:
        """Dyadic rational p / 2^k with p in [-max_abs_num, max_abs_num]."""
        p = self.integer(-max_abs_num, max_abs_num)
        k = self.below(max_den_pow + 1)
        return Fraction(p, 1 << k)

    def nonzero_fraction(self, max_abs_num: int = 8,
                         max_den_pow: int = 3) -> Fraction:
        while True:
            f = self.fraction(max_abs_num, max_den_pow)
            if f != 0:
                return f

    def spawn(self) -> "Sampler":
        """Independent child stream, derived deterministically."""
        return Sampler(self.u64())
