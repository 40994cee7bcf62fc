"""splitmix64 and its block draw, and the integer sampler against the rational one it replaces."""

import hashlib
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from zonomix import rng as rng_module
from zonomix.cli import main
from zonomix.rng import SplitMix64, random_bodies, random_vectors, random_zonotope
from zonomix.zonotope import Zonotope3, mixed_volume, mixed_volume_repeated, volume
from oracles import brute_mixed_volume, brute_volume, random_rational

OTHER = [(1, 0, 0), (0, 1, 0), (1, 1, 1)]

GAMMA = 0x9E3779B97F4A7C15


# Outputs of the splitmix64 reference algorithm, pinned so that a change to
# the shared mix cannot pass by moving next64 and take together.
@pytest.mark.parametrize("seed, outputs", [
    (0, [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec]),
    (1234567, [0x599ed017fb08fc85]),
])
def test_reference_outputs(seed, outputs):
    rng = SplitMix64(seed)
    assert [rng.next64() for _ in outputs] == outputs
    assert SplitMix64(seed).take(len(outputs)) == outputs


# 2^64 - 1 wraps on the first step; -(3 * GAMMA) wraps inside a block of 7 and more.
# A block longer than the lane constants is drawn in pieces.
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, -3 * GAMMA % 2 ** 64])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 384, rng_module._MAX_LANES, rng_module._MAX_LANES + 1,
                               3001])
def test_take_is_n_calls_of_next64(seed, n):
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    assert rng.take(n) == [ref.next64() for _ in range(n)]
    assert rng.take(3) == [ref.next64() for _ in range(3)]  # both left at one state


@pytest.mark.parametrize("m_max, seeds", [(1, 60), (6, 40), (64, 10)])
@pytest.mark.parametrize("bound", [1, 2, 16, 1000])
def test_random_zonotope_is_the_body_of_random_vectors(bound, m_max, seeds):
    other = Zonotope3.from_generators(OTHER)
    for seed in range(seeds):
        rng, ref, rational = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
        body = random_zonotope(rng, m_max, bound)
        expected = Zonotope3(tuple(random_vectors(ref, m_max, bound)))
        # The same draws, one `Fraction` per coordinate, numerator then denominator.
        m = rational.randint(1, m_max)
        assert tuple(tuple(random_rational(rational, bound) for _ in range(3))
                     for _ in range(m)) == expected.generators
        # The draws left all three streams at one position.
        assert rng.next64() == ref.next64() == rational.next64()
        gens = expected.generators
        assert body.generators == gens and body == expected
        ints, scale = body.scaled
        assert all(scale % q.denominator == 0 for g in gens for q in g)
        assert [tuple(c * scale for c in g) for g in gens] == list(ints)
        # The oracles enumerate O(m^3) Fraction determinants; above 16
        # generators the two cubic ones give way to the rational body's view.
        small = len(gens) <= 16
        assert volume(body) == (brute_volume(gens) if small else volume(expected))
        assert mixed_volume_repeated(body, other) == (
            brute_mixed_volume(gens, gens, OTHER) if small
            else mixed_volume_repeated(expected, other))
        assert mixed_volume_repeated(other, body) == brute_mixed_volume(OTHER, OTHER, gens)
        assert mixed_volume(body, other, other) == brute_mixed_volume(gens, OTHER, OTHER)


@given(seed=st.integers(0, 2 ** 64 - 1), count=st.integers(1, 4),
       m_max=st.integers(1, 64), bound=st.integers(1, 2 ** 32))
@example(seed=2 ** 64 - 1, count=4, m_max=64, bound=2 ** 32)  # the longest block, wrapping
@example(seed=0, count=1, m_max=1, bound=1)
@example(seed=5, count=0, m_max=6, bound=16)  # draws nothing
def test_random_bodies_is_count_random_zonotope_calls(seed, count, m_max, bound):
    rng, twin, rational = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
    bodies = random_bodies(rng, count, m_max, bound)
    expected = [random_zonotope(twin, m_max, bound) for _ in range(count)]
    assert [body.scaled for body in bodies] == [body.scaled for body in expected]
    assert rng._state == twin._state
    # Both are the draws of `next64` one at a time: a count, then a
    # numerator and a denominator per coordinate.
    for body in bodies:
        m = rational.randint(1, m_max)
        assert body.generators == tuple(tuple(random_rational(rational, bound) for _ in range(3))
                                        for _ in range(m))
    assert rng._state == rational._state


# The words of a block are little-endian bytes read as native 64-bit words;
# a big-endian host swaps them.  Faked here on a little-endian one.
@pytest.mark.skipif(sys.byteorder != "little", reason="fakes a big-endian host")
def test_block_words_are_swapped_on_a_big_endian_host(monkeypatch):
    words = SplitMix64(7)._block(9)
    monkeypatch.setattr(rng_module, "sys", SimpleNamespace(byteorder="big"))
    swapped = SplitMix64(7)._block(9)
    swapped.byteswap()
    assert swapped == words


# Digests of whole outputs, taken with the rational sampler that built every
# coordinate as a Fraction; the integer sampler must print the same bytes.
SAMPLED_DIGESTS = {
    "fuzz --target af-square --output csv --trials 200 --seed 9":
        "eac1f8ac7b3969a18f2e4da6160e0ae14115e80e2cd9f56fe10b4fd4a40b4787",
    "report --seed 5": "a97a569a74b198730e32e9409a48498046c41e9367a0a6e4c03777ffd401a8ed",
    "report --seed 5 --output csv":
        "a9db752850166be689cb843d09e6f04313b139b868561d7a978f0b00d50a81fa",
}


@pytest.mark.parametrize("command", SAMPLED_DIGESTS)
def test_sampled_output_is_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLED_DIGESTS[command]
