import random
from fractions import Fraction
from itertools import permutations

import pytest

from zonomix import zonotope
from zonomix.numeric import E1, E2, det3, vec3
from zonomix.rng import SplitMix64, random_columns, random_zonotope
from zonomix.zonotope import (
    Zonotope3,
    mixed_volume,
    mixed_volume_repeated,
    parse_zonotope,
    render_zonotope,
    volume,
    volume_float,
)
from oracles import (
    brute_mixed_volume,
    brute_volume,
    linear_image,
    random_rational,
    scale_vec,
)

E3 = vec3(0, 0, 1)
CUBE = Zonotope3((E1, E2, E3))
SEG1 = Zonotope3((E1,))
SEG2 = Zonotope3((E2,))
# the 4-generator configuration where the 3/2 bound is attained
TIGHT = Zonotope3.from_generators([(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)])


class TestCanonicalize:
    def test_preserves_mixed_volumes(self):
        # [0, -g] is a translate of [0, g] and [0, 0] is a point, so A salted
        # with -g1, -g2 and 0 is A with g1 and g2 doubled, up to translation.
        rng = SplitMix64(11)
        for _ in range(60):
            a = random_zonotope(rng, 5, 8)
            gens = a.generators
            salted = Zonotope3(gens + tuple(
                vec3(-g.x, -g.y, -g.z) for g in gens[:2]) + (vec3(0, 0, 0),))
            merged = Zonotope3.from_generators(
                [scale_vec(2, g) for g in gens[:2]] + list(gens[2:]))
            b = random_zonotope(rng, 4, 8)
            c = random_zonotope(rng, 4, 8)
            assert mixed_volume(merged, b, c) == mixed_volume(salted, b, c)


class TestMixedVolume:
    def test_unit_cube(self):
        assert mixed_volume(CUBE, CUBE, CUBE) == 1

    def test_segment_triple_is_sixth_of_det(self):
        assert mixed_volume(CUBE, SEG1, SEG2) == Fraction(1, 6)

    def test_four_generator_example(self):
        assert brute_mixed_volume(TIGHT.generators, SEG1.generators, SEG2.generators) \
            == Fraction(2, 3)
        assert mixed_volume(TIGHT, SEG1, SEG2) == Fraction(2, 3)

    def test_agrees_with_brute_force(self):
        rng = SplitMix64(5)
        for _ in range(40):
            a = random_zonotope(rng, 4, 9)
            b = random_zonotope(rng, 4, 9)
            c = random_zonotope(rng, 4, 9)
            assert mixed_volume(a, b, c) == brute_mixed_volume(
                a.generators, b.generators, c.generators)

    def test_symmetry(self):
        rng = SplitMix64(6)
        for _ in range(25):
            bodies = [random_zonotope(rng, 4, 9) for _ in range(3)]
            vals = {mixed_volume(*p) for p in permutations(bodies)}
            assert len(vals) == 1

    def test_multilinearity_and_homogeneity(self):
        rng = SplitMix64(7)
        for _ in range(25):
            a, a2, b, c = (random_zonotope(rng, 4, 9) for _ in range(4))
            lam = abs(random_rational(rng, 9))
            assert mixed_volume(Zonotope3(a.generators + a2.generators), b, c) == \
                mixed_volume(a, b, c) + mixed_volume(a2, b, c)
            scaled = Zonotope3.from_generators(scale_vec(lam, g) for g in a.generators)
            assert mixed_volume(scaled, b, c) == lam * mixed_volume(a, b, c)

    def test_parallel_segments_vanish(self):
        rng = SplitMix64(8)
        for _ in range(25):
            a = random_zonotope(rng, 5, 9)
            (u,) = random_columns(rng, 1, 9)
            lam = random_rational(rng, 9)
            scaled = vec3(lam * u.x, lam * u.y, lam * u.z)
            assert mixed_volume(a, Zonotope3((u,)), Zonotope3((scaled,))) == 0

    def test_repeated_slot_helper(self):
        rng = SplitMix64(9)
        for _ in range(25):
            a = random_zonotope(rng, 5, 9)
            b = random_zonotope(rng, 4, 9)
            assert mixed_volume_repeated(a, b) == mixed_volume(a, a, b)


class TestVolume:
    def test_cube(self):
        assert volume(CUBE) == 1

    def test_four_generator_example(self):
        assert brute_volume(TIGHT.generators) == 4
        assert volume(TIGHT) == 4

    def test_flat(self):
        assert volume(Zonotope3((E1, E2))) == 0
        assert volume(Zonotope3(())) == 0

    def test_is_diagonal_mixed_volume(self):
        rng = SplitMix64(10)
        for _ in range(30):
            a = random_zonotope(rng, 6, 9)
            assert volume(a) == mixed_volume(a, a, a)


class TestScaledCache:
    GENS = [(1, "-1/2", 0), ("2/3", 4, "-5/7"), (0, 0, 0)]

    def test_scaled_once_per_body(self, monkeypatch):
        calls = []
        inner = zonotope.int_scaled
        monkeypatch.setattr(zonotope, "int_scaled", lambda gens: calls.append(gens) or inner(gens))
        body = Zonotope3.from_generators(self.GENS)
        first = volume(body)
        assert volume(body) == mixed_volume(body, body, body) == first
        assert mixed_volume_repeated(body, body) == first
        assert calls == [body.generators]
        assert body.scaled is body.scaled

    def test_cache_does_not_leak_into_identity(self):
        body = Zonotope3.from_generators(self.GENS)
        fresh = Zonotope3.from_generators(self.GENS)
        before = (repr(fresh), hash(fresh))
        ints, scale = body.scaled
        volume(body)
        # Built from the integer view, at the lcm scale and at a multiple of it.
        built = Zonotope3.from_scaled(ints, scale)
        doubled = Zonotope3.from_scaled([tuple(2 * c for c in v) for v in ints], 2 * scale)
        for other in (fresh, built, doubled):
            assert body == other and other == body
            assert (repr(other), hash(other)) == (repr(body), hash(body)) == before
        assert repr(body) == f"Zonotope3(generators={body.generators!r})"
        assert len({body, fresh, built, doubled}) == 1
        assert body != Zonotope3.from_scaled(ints, 3 * scale)

    def test_from_scaled_derives_generators_once(self, monkeypatch):
        calls = []
        inner = zonotope.unscaled
        monkeypatch.setattr(zonotope, "unscaled",
                            lambda ints, scale: calls.append(scale) or inner(ints, scale))
        body = Zonotope3.from_scaled([(6, -3, 0), (4, 24, -5)], 6)
        assert body.scaled == (((6, -3, 0), (4, 24, -5)), 6)
        assert volume(body) == mixed_volume(body, body, body) == 0 and calls == []
        assert body.generators == (vec3(1, "-1/2", 0), vec3("2/3", 4, "-5/6"))
        assert body.generators is body.generators and calls == [6]
        assert render_zonotope(body) == "zonotope3\n1 -1/2 0\n2/3 4 -5/6\n"

    @pytest.mark.parametrize("gen", [(1, 2, 3), (0.5, 1.0, 2.0)])
    def test_plain_tuple_generator_names_the_real_cause(self, gen):
        # A failure inside `scaled` must not come out as a bare "AttributeError: scaled".
        body = Zonotope3((gen,))
        for read in (lambda: body.scaled, lambda: volume(body)):
            with pytest.raises(TypeError, match="'tuple' object has no attribute 'x'"):
                read()
        assert volume(Zonotope3.from_generators([gen])) == 0

    @pytest.mark.parametrize("scale", [0, -1])
    def test_from_scaled_refuses_a_scale_below_one(self, scale):
        with pytest.raises(ValueError, match="scale"):
            Zonotope3.from_scaled([(1, 0, 0)], scale)

    def test_cached_volumes_match_oracle(self):
        body = Zonotope3.from_generators(self.GENS + [(3, 1, "1/2")])
        for _ in range(2):
            assert volume(body) == brute_volume(body.generators)
            assert mixed_volume(body, CUBE, TIGHT) == \
                brute_mixed_volume(body.generators, CUBE.generators, TIGHT.generators)


class TestSegmentForm:
    """V(A, A, [0,u]) through mixed_volume_repeated with a one-segment body."""

    def test_cube_axis(self):
        assert mixed_volume_repeated(CUBE, Zonotope3((E1,))) == Fraction(1, 3)

    def test_four_generator_example(self):
        assert mixed_volume_repeated(TIGHT, Zonotope3((E1,))) == Fraction(4, 3)

    def test_single_generator(self):
        assert mixed_volume_repeated(Zonotope3((E1,)), Zonotope3((vec3(2, 5, 7),))) == 0

    def test_matches_mixed_volume(self):
        rng = SplitMix64(12)
        for _ in range(30):
            a = random_zonotope(rng, 5, 9)
            (u,) = random_columns(rng, 1, 9)
            seg = Zonotope3((u,))
            assert mixed_volume_repeated(a, seg) == mixed_volume(a, a, seg)


def _image(columns, zono: Zonotope3) -> Zonotope3:
    return Zonotope3.from_generators(linear_image(columns, g) for g in zono.generators)


class TestApplyLinear:
    def test_diagonal_scaling(self):
        assert volume(_image([(2, 0, 0), (0, 1, 0), (0, 0, 1)], CUBE)) == 2

    def test_singular_flattens(self):
        columns = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
        rng = SplitMix64(13)
        for _ in range(10):
            a = random_zonotope(rng, 5, 9)
            assert volume(_image(columns, a)) == 0

    def test_equivariance(self):
        rng = SplitMix64(14)
        for _ in range(25):
            columns = random_columns(rng, 3, 6).generators
            a, b, c = (random_zonotope(rng, 4, 6) for _ in range(3))
            assert mixed_volume(_image(columns, a), _image(columns, b),
                                _image(columns, c)) == \
                abs(det3(*columns)) * mixed_volume(a, b, c)


class TestZonotopeFormat:
    def test_round_trip(self):
        rng = SplitMix64(15)
        for _ in range(25):
            z = random_zonotope(rng, 6, 16)
            assert parse_zonotope(render_zonotope(z)) == z

    def test_round_trip_keeps_zero_generators(self):
        z = Zonotope3.from_generators([(0, 0, 0), (1, 2, 3)])
        assert parse_zonotope(render_zonotope(z)) == z

    def test_comments_and_blanks(self):
        text = "# a cube\n\nzonotope3\n1 0 0\n# middle comment\n0 1 0\n0 0 1\n"
        assert parse_zonotope(text) == CUBE

    def test_empty_generator_list(self):
        z = Zonotope3(())
        assert parse_zonotope(render_zonotope(z)) == z

    @pytest.mark.parametrize("bad", [
        "",
        "zonotope2\n1 0 0\n",
        "zonotope3\n1 0\n",
        "zonotope3\n1 0 1/0\n",
        "zonotope3\n1 0 x\n",
    ])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_zonotope(bad)


class TestFloatLane:
    # perfbench's traced `float_lane` fails a run whose float volume misses
    # the exact one by more than 1e-9 relative; these keep that check true.
    def test_tracks_exact_values(self):
        rng = SplitMix64(16)
        for _ in range(10):
            a = random_zonotope(rng, 5, 9)
            assert abs(volume_float(a) - float(volume(a))) <= 1e-9 * max(1.0, float(volume(a)))

    def test_stays_on_the_cubic_loops_past_the_sweep_crossover(self):
        # The exact kernels sweep at m = 48; the sweep divides exactly, which
        # floats cannot, so a float routed into it misses by far more than this.
        rng = SplitMix64(48)
        a = Zonotope3(random_columns(rng, 48, 9).generators)
        assert abs(volume_float(a) - float(volume(a))) <= 1e-9 * float(volume(a))

    @pytest.mark.parametrize("m", [24, 48, 96])
    def test_tracks_exact_values_at_the_float_lanes_sizes(self, m):
        # The float lane's bodies: m generators p/q with |p|, q <= 16.
        rnd = random.Random(m)
        a = Zonotope3.from_generators([[random_rational(rnd, 16) for _ in range(3)]
                                       for _ in range(m)])
        assert abs(volume_float(a) - float(volume(a))) <= 1e-9 * float(volume(a))
