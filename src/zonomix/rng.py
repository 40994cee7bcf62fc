"""Deterministic random input generation for fuzzing and tests.

The generator is splitmix64: a fixed 64-bit state transition with a finalizer
mix.  It produces the same stream on every platform and Python version, which
makes fuzz summaries and CSV outputs byte-reproducible.

splitmix64 is counter-based: output k of a stream at state s is
`mix(s + k * gamma)` and depends on k alone.  `SplitMix64._block(n)` uses
that to mix a block of n outputs at once: it packs the n states into the
128-bit lanes of one Python int and runs the xor-shift-multiply mix on the
whole int, masking each lane back to 64 bits before every multiply so that a
64 x 64-bit product stays inside its own lane.  `next64` runs the same `_mix`
on a single lane; `take` and `_block` give the same stream.

Every sampler draws through that one block and builds its bodies with one
routine, `_body`: two outputs per coordinate, numerator then denominator,
read straight from the block's words and cleared to a common scale (the lcm
of the drawn denominators) with integer arithmetic only.  The body is built
from that integer view (`Zonotope3.from_scaled`), so no `Fraction` is made
until its rational generators are read.  `random_columns` draws n columns in
one block.  `random_bodies` draws a fuzz trial's bodies, each a generator
count and then its coordinates: it reads the counts first, each on its own at
its stream position, and then mixes every output of the trial in one block,
so a trial pays the block's fixed cost once.  A matrix is the body of its
columns: `random_zonotope` and `random_vectors` (the lemma fuzz target's
3 x m matrix) are `random_bodies` of one body, and `grassmann-sample` calls
`random_columns` at a fixed count.
"""

from __future__ import annotations

import sys
from array import array
from math import lcm

from .zonotope import Zonotope3

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the golden-ratio increment of splitmix64
_LANE_BITS = 128  # room for a 64 x 64-bit product per lane

# `_block` unpacks its lanes as 64-bit words.
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


# The largest block the CLI draws is one af-square trial at m_max =
# verify.MAX_M_MAX = 64: four bodies of 6 * 64 lanes and their four count
# draws.  The lane constants hold that many lanes, 79 KB in all, made once at
# import in O(n) from bytes (0.3 ms).  A block of n lanes is their top n
# lanes, cut off with shifts in O(n), so nothing is built or kept per block
# size: 300 af-square trials at m_max 64 peak at 0.17 MB under tracemalloc
# (Python 3.11.7).  Longer blocks are drawn in pieces of this size.
_MAX_LANES = 6 * 4 * 64 + 4
_LANE_BYTES = _LANE_BITS // 8
# Lane k of ONES is 1, of GAMMA_RAMP gamma * (k + 1) and of LANE_MASKS 2^64 - 1.
_ONES = int.from_bytes((b"\x01" + bytes(_LANE_BYTES - 1)) * _MAX_LANES, "little")
_GAMMA_RAMP = _GAMMA * int.from_bytes(
    b"".join(k.to_bytes(_LANE_BYTES, "little") for k in range(1, _MAX_LANES + 1)), "little")
_LANE_MASKS = _MASK * _ONES


class SplitMix64:
    """splitmix64: state += golden gamma; output = mixed state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state, _MASK)

    def take(self, n: int) -> list[int]:
        """The next n outputs, in order; the state ends where n `next64` calls leave it."""
        return self._block(n)[::2].tolist()

    def _block(self, n: int) -> array:
        """The next n outputs, mixed as one block: output k + 1 is word 2k.

        Word 2k + 1 is the high half of lane k, not an output.  The state
        ends where n `next64` calls leave it.
        """
        if n > _MAX_LANES:
            return self._block(_MAX_LANES) + self._block(n - _MAX_LANES)
        # Lane k of the top n lanes of GAMMA_RAMP holds (MAX - n + 1 + k) * gamma,
        # so the block starts MAX - n gammas back: lane k holds s + (k + 1) * gamma.
        shift = _LANE_BITS * (_MAX_LANES - n)
        mask = _LANE_MASKS >> shift
        start = (self._state - (_MAX_LANES - n) * _GAMMA) & _MASK
        z = _mix((start * (_ONES >> shift) + (_GAMMA_RAMP >> shift)) & mask, mask)
        self._state = (self._state + n * _GAMMA) & _MASK
        words = array("Q", z.to_bytes(_LANE_BYTES * n, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        return words

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


def _body(words: array, at: int, n: int, bound: int) -> Zonotope3:
    """The body of n columns whose coordinates are drawn from `words` from word `at` on.

    Coordinate j is a / b with a = draw % (2 bound + 1) - bound from word
    at + 4j and b = draw % bound + 1 from word at + 4j + 2: the two draws, in
    the same order, of `randint(-bound, bound)` and `randint(1, bound)`.
    The body is built from its integer view: the 3n numerators, each
    multiplied up to the lcm of the denominators.
    """
    end = at + 12 * n
    span = 2 * bound + 1
    dens = [d % bound + 1 for d in words[at + 2:end:4]]
    scale = lcm(*dens)
    ints = iter([(d % span - bound) * (scale // den) for d, den in zip(words[at:end:4], dens)])
    # A list, not the zip: `tuple` of an iterator with no length resizes its
    # result, and freeing such tuples filled CPython's per-size tuple free
    # lists, about 0.8 MB held for the life of a fuzz process.
    return Zonotope3.from_scaled(list(zip(ints, ints, ints)), scale)


def random_vectors(rng: SplitMix64, m_max: int, bound: int) -> Zonotope3:
    """A 3 x m matrix, as the body of its m columns: the draw of `random_zonotope`."""
    return random_zonotope(rng, m_max, bound)


def random_zonotope(rng: SplitMix64, m_max: int, bound: int) -> Zonotope3:
    """A body of 1 to m_max generators, the count drawn first: `random_bodies` of one."""
    return random_bodies(rng, 1, m_max, bound)[0]


def random_bodies(rng: SplitMix64, count: int, m_max: int, bound: int) -> list[Zonotope3]:
    """`count` bodies of 1 to m_max generators, drawn one after another from one block.

    Each body takes one output for its generator count n, drawn as
    `randint(1, m_max)`, then 6n for its coordinates, so the bodies and the
    final state are those of `count` calls of `random_zonotope`.  The counts
    are read first, each on its own at its stream position; then every output
    of the draw is mixed in one block and each body is built from its words.
    """
    state = rng._state
    sizes, pos = [], 1  # pos: the stream position of the next count draw
    for _ in range(count):
        n = _mix((state + pos * _GAMMA) & _MASK, _MASK) % m_max + 1
        sizes.append(n)
        pos += 6 * n + 1
    words = rng._block(pos - 1)
    bodies, at = [], 2  # at: the first coordinate word of the next body
    for n in sizes:
        bodies.append(_body(words, at, n, bound))
        at += 12 * n + 2
    return bodies


def random_columns(rng: SplitMix64, n: int, bound: int) -> Zonotope3:
    """The body of n columns, each coordinate a / b with |a|, b <= bound."""
    return _body(rng._block(6 * n), 0, n, bound)
