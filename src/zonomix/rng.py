"""Deterministic random input generation for fuzzing and tests.

The generator is splitmix64: a fixed 64-bit state transition with a finalizer
mix.  It produces the same stream on every platform and Python version, which
makes fuzz summaries and CSV outputs byte-reproducible.

Every sampler reads coordinates through one draw routine, `_draw`: two
`next64` outputs per coordinate, numerator then denominator.
`random_zonotope` keeps the draws as integers: it clears them to a common
scale (the lcm of the drawn denominators) with integer arithmetic only and
builds the body from that integer view (`Zonotope3.from_scaled`), so no
`Fraction` is made until the body's rational generators are read.
`random_rational`, `random_vec3` and `random_vectors` return rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .numeric import Vec3
from .zonotope import Zonotope3

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the golden-ratio increment of splitmix64


class SplitMix64:
    """splitmix64: state += golden gamma; output = mixed state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

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


def _draw(rng: SplitMix64, count: int, bound: int) -> list[tuple[int, int]]:
    """`count` coordinates as (numerator, denominator) pairs, in stream order.

    Numerator in [-bound, bound], denominator in [1, bound]: the same two
    draws, in the same order, as `randint(-bound, bound)` and
    `randint(1, bound)`, straight from `next64` without their per-draw call
    chain.  The pairs are not reduced.
    """
    next64 = rng.next64
    span = 2 * bound + 1
    return [(next64() % span - bound, next64() % bound + 1) for _ in range(count)]


def random_rational(rng: SplitMix64, bound: int) -> Fraction:
    """Numerator in [-bound, bound], denominator in [1, bound]; zero included."""
    ((num, den),) = _draw(rng, 1, bound)
    return Fraction(num, den)


def random_vec3(rng: SplitMix64, bound: int) -> Vec3:
    return Vec3(*(Fraction(num, den) for num, den in _draw(rng, 3, bound)))


def random_vectors(rng: SplitMix64, m_max: int, bound: int) -> list[Vec3]:
    m = rng.randint(1, m_max)
    coords = [Fraction(num, den) for num, den in _draw(rng, 3 * m, bound)]
    return [Vec3(*coords[i:i + 3]) for i in range(0, 3 * m, 3)]


def random_zonotope(rng: SplitMix64, m_max: int, bound: int) -> Zonotope3:
    """The body of `random_vectors`, from the same draws, built from its integer view."""
    m = rng.randint(1, m_max)
    coords = _draw(rng, 3 * m, bound)
    scale = lcm(*[den for _, den in coords])
    ints = [num * (scale // den) for num, den in coords]
    return Zonotope3.from_scaled(zip(ints[0::3], ints[1::3], ints[2::3]), scale)
