"""Deterministic random input generation for fuzzing and tests.

The generator is splitmix64: a fixed 64-bit state transition with a finalizer
mix.  It produces the same stream on every platform and Python version, which
makes fuzz summaries and CSV outputs byte-reproducible.

`random_rational` reads the stream directly (two `next64` draws per
rational), and the zonotopes built here are cleared to integer generators
once, on first use by a volume (`Zonotope3.scaled`), with integer
arithmetic only.
"""

from __future__ import annotations

from fractions import Fraction

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


def random_rational(rng: SplitMix64, bound: int) -> Fraction:
    """Numerator in [-bound, bound], denominator in [1, bound]; zero included.

    Draws the numerator and then the denominator straight from `next64`:
    the same two draws, in the same order, as `randint(-bound, bound)` and
    `randint(1, bound)`, without their per-draw call chain.
    """
    next64 = rng.next64
    return Fraction(next64() % (2 * bound + 1) - bound, next64() % bound + 1)


def random_vec3(rng: SplitMix64, bound: int) -> Vec3:
    return Vec3(random_rational(rng, bound), random_rational(rng, bound),
                random_rational(rng, bound))


def random_vectors(rng: SplitMix64, m_max: int, bound: int) -> list[Vec3]:
    m = rng.randint(1, m_max)
    return [random_vec3(rng, bound) for _ in range(m)]


def random_zonotope(rng: SplitMix64, m_max: int, bound: int) -> Zonotope3:
    return Zonotope3(tuple(random_vectors(rng, m_max, bound)))
