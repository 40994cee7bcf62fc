"""Deterministic random input generation for fuzzing and tests.

The generator is splitmix64: a fixed 64-bit state transition with a finalizer
mix.  It produces the same stream on every platform and Python version, which
makes fuzz summaries and CSV outputs byte-reproducible.

splitmix64 is counter-based: output k of a stream at state s is
`mix(s + k * gamma)` and depends on k alone.  `SplitMix64.take(n)` uses that
to mix a block of n outputs at once: it packs the n states into the 128-bit
lanes of one Python int and runs the xor-shift-multiply mix on the whole int,
masking each lane back to 64 bits before every multiply so that a 64 x 64-bit
product stays inside its own lane.  `next64` runs the same `_mix` on a single
lane; both give the same stream.

Every sampler reads coordinates through one draw routine, `_draw`: one
`take` for a block of coordinates, two outputs per coordinate, numerator then
denominator.  `random_zonotope` keeps the draws as integers: it clears them
to a common scale (the lcm of the drawn denominators) with integer
arithmetic only and builds the body from that integer view
(`Zonotope3.from_scaled`), so no `Fraction` is made until the body's
rational generators are read.  `random_vectors`, the lemma fuzz target's
3 x m matrix, is that body: a matrix is the body of its columns.  Only
`random_vec3` returns rationals.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .numeric import Vec3
from .zonotope import Zonotope3

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the golden-ratio increment of splitmix64
_LANE_BITS = 128  # room for a 64 x 64-bit product per lane

# `take` unpacks its lanes as 64-bit words.
assert array("Q").itemsize == 8


def _mix(z: int, mask: int) -> int:
    """The splitmix64 output mix of every 64-bit lane of z that `mask` selects.

    z holds its values in the lanes of `mask` (all ones below each lane's 64th
    bit).  Each xor-shift pulls bits of the next lane down into the high half
    of this one, so the mask clears them before the multiply; the last
    xor-shift is not masked, and only the low 64 bits of each lane of the
    result are the outputs.
    """
    z = (((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
    z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


# A fuzz body takes blocks of n = 6m for m up to verify.MAX_M_MAX = 64, so the
# cache holds every block size the CLI asks for, about 0.6 MB at most.
@lru_cache(maxsize=256)
def _lanes(n: int) -> tuple[int, int, int]:
    """(ONES, gamma * RAMP, lane mask) for a block of n lanes.

    Lane k (from 0) of ONES is 1, of RAMP is k + 1 and of the mask is 2^64 - 1,
    so s * ONES + gamma * RAMP holds s + (k + 1) * gamma in lane k.
    """
    ones = sum(1 << (_LANE_BITS * k) for k in range(n))
    ramp = sum((k + 1) << (_LANE_BITS * k) for k in range(n))
    return ones, _GAMMA * ramp, _MASK * ones


class SplitMix64:
    """splitmix64: state += golden gamma; output = mixed state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state, _MASK)

    def take(self, n: int) -> list[int]:
        """The next n outputs, in order; the state ends where n `next64` calls leave it."""
        ones, gamma_ramp, mask = _lanes(n)
        z = _mix((self._state * ones + gamma_ramp) & mask, mask)
        self._state = (self._state + n * _GAMMA) & _MASK
        words = array("Q", z.to_bytes(_LANE_BITS // 8 * n, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        return words[::2].tolist()

    def below(self, n: int) -> int:
        # Modulo bias of order 2^-60 is irrelevant for input sampling.
        return self.next64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return lo + self.below(hi - lo + 1)


def trial_seed(seed: int, trial: int) -> int:
    """Seed of the stream that fuzz trial `trial` of a run seeded `seed` draws from.

    Following the split construction of Steele, Lea and Flood (OOPSLA 2014),
    the run seed is first mixed into a fresh state, and trial t takes output
    t of the splitmix64 stream started there.  The trials of one run get
    distinct seeds (the output mix is a bijection), two runs share a trial
    seed only by chance, and trial t depends on (seed, t) alone, so a longer
    run extends a shorter one.
    """
    start = SplitMix64(seed).next64()
    return SplitMix64(start + trial * _GAMMA).next64()


def trial_seeds(seed: int) -> SplitMix64:
    """The stream whose output t is `trial_seed(seed, t)`, the run seed mixed once."""
    return SplitMix64(SplitMix64(seed).next64())


def _draw(rng: SplitMix64, count: int, bound: int) -> tuple[list[int], list[int]]:
    """`count` coordinates as numerators and denominators, in stream order.

    Numerator in [-bound, bound], denominator in [1, bound]: the same two
    draws, in the same order, as `randint(-bound, bound)` and
    `randint(1, bound)` per coordinate, from one `take(2 * count)`.  The
    pairs are not reduced.
    """
    draws = rng.take(2 * count)
    span = 2 * bound + 1
    return [d % span - bound for d in draws[0::2]], [d % bound + 1 for d in draws[1::2]]


def random_vec3(rng: SplitMix64, bound: int) -> Vec3:
    return Vec3(*map(Fraction, *_draw(rng, 3, bound)))


def random_vectors(rng: SplitMix64, m_max: int, bound: int) -> Zonotope3:
    """A 3 x m matrix, as the body of its m columns: the draw of `random_zonotope`."""
    return random_zonotope(rng, m_max, bound)


def random_zonotope(rng: SplitMix64, m_max: int, bound: int) -> Zonotope3:
    """A body of 1 to m_max generators, each coordinate a / b with |a|, b <= bound.

    Built from its integer view: the m drawn numerators, each multiplied up
    to the lcm of the drawn denominators.
    """
    m = rng.randint(1, m_max)
    nums, dens = _draw(rng, 3 * m, bound)
    scale = lcm(*dens)
    ints = [num * (scale // den) for num, den in zip(nums, dens)]
    # A list, not the zip: `tuple` of an iterator with no length resizes its
    # result, and freeing such tuples filled CPython's per-size tuple free
    # lists, about 0.8 MB held for the life of a fuzz process.
    return Zonotope3.from_scaled(list(zip(ints[0::3], ints[1::3], ints[2::3])), scale)
