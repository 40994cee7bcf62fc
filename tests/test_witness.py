import random
from fractions import Fraction
from itertools import combinations

import pytest

from zonomix import witness
from zonomix.numeric import E1, E2, cross, det3, int_scaled, vec3
from zonomix.reduction import SStats, extremal_config
from zonomix.rng import SplitMix64, random_columns, random_zonotope
from zonomix.witness import (
    PolytopeV,
    _hull_facets,
    mv_body_body_seg,
    mv_seg_seg,
    polytope_of_zonotope,
    pyramid_equality_report,
    square_pyramid,
    volume_polytope,
)
from zonomix.zonotope import Zonotope3, mixed_volume, mixed_volume_repeated, volume
from oracles import brute_mixed_volume, random_rational, scale_vec, subset_sums

E3 = vec3(0, 0, 1)
ZERO3 = vec3(0, 0, 0)
F = Fraction

TETRA = PolytopeV.from_vertices((ZERO3, E1, E2, E3))
CUBE_VERTS = PolytopeV.from_vertices(
    [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])


class TestVolumePolytope:
    def test_unit_tetrahedron(self):
        assert volume_polytope(TETRA) == F(1, 6)

    def test_square_pyramid(self):
        # two unit tetrahedra: conv(0,e1,e2,e3) and conv(e1,e2,e1+e2,e3)
        assert volume_polytope(square_pyramid()) == F(1, 3)

    def test_cube(self):
        assert volume_polytope(CUBE_VERTS) == 1

    def test_planar_set(self):
        flat = PolytopeV.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        assert volume_polytope(flat) == 0

    def test_collinear_and_single_point(self):
        assert volume_polytope(PolytopeV.from_vertices([(1, 2, 3)])) == 0
        assert volume_polytope(PolytopeV.from_vertices([(0, 0, 0), (1, 1, 1), (2, 2, 2)])) == 0
        # Four distinct points pass the hull's point-count test and reach its collinearity test.
        assert volume_polytope(PolytopeV.from_vertices(
            [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)])) == 0

    def test_duplicates_and_interior_points_tolerated(self):
        padded = PolytopeV.from_vertices(
            TETRA.vertices + TETRA.vertices + (vec3("1/8", "1/8", "1/8"),))
        assert volume_polytope(padded) == F(1, 6)

    def test_rational_coordinates(self):
        shrunk = PolytopeV.from_vertices(
            [("0", "0", "0"), ("1/2", "0", "0"), ("0", "1/3", "0"), ("0", "0", "1/5")])
        assert volume_polytope(shrunk) == F(1, 6) * F(1, 2) * F(1, 3) * F(1, 5)

    def test_shuffled_grid(self):
        # 27 points, most of them on facet planes or edges of the hull.
        grid = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        rng = SplitMix64(53)
        for _ in range(10):
            grid.sort(key=lambda _: rng.next64())
            cube = PolytopeV.from_vertices(grid)
            assert volume_polytope(cube) == 8
            assert mv_body_body_seg(cube, E1) == F(4, 3)  # (2 x 2 x 3 - 8) / 3

    def test_points_on_facet_planes_keep_faces(self):
        # Corners of the [0,2]^3 cube first: the other 19 grid points lie on
        # facet planes or inside, so none is inserted and 12 triangles remain.
        corners = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        others = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)
                  if (x, y, z) not in corners]
        facets = _hull_facets(corners + others)
        assert len(facets) == 12 and all(max(f) < 8 for f in facets)
        for (nx, ny, nz, h) in facets.values():
            assert (nx, ny, nz) != (0, 0, 0)
            assert all(nx * x + ny * y + nz * z <= h for (x, y, z) in corners + others)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PolytopeV((), 1)
        with pytest.raises(ValueError):
            PolytopeV.from_vertices(())


class TestMvSegSeg:
    def test_pyramid_unit_segments(self):
        assert mv_seg_seg(square_pyramid(), E1, E2) == F(1, 6)

    def test_cube_matches_zonotope(self):
        assert mv_seg_seg(CUBE_VERTS, E1, E2) == F(1, 6)

    def test_parallel_segments(self):
        rng = SplitMix64(51)
        for _ in range(20):
            (u,) = random_columns(rng, 1, 9)
            lam = random_rational(rng, 9)
            assert mv_seg_seg(TETRA, u, vec3(lam * u.x, lam * u.y, lam * u.z)) == 0


class TestMvBodyBodySeg:
    def test_pyramid_sweeps(self):
        assert mv_body_body_seg(square_pyramid(), E1) == F(1, 6)
        assert mv_body_body_seg(square_pyramid(), E2) == F(1, 6)

    def test_zero_segment(self):
        assert mv_body_body_seg(TETRA, ZERO3) == 0

    def test_body_volume_is_hulled_once(self, monkeypatch):
        hulled = []
        monkeypatch.setattr(witness, "_hull_facets",
                            lambda pts: hulled.append(len(pts)) or _hull_facets(pts))
        pyramid = square_pyramid()
        assert pyramid_equality_report().slack == 0
        # Vol(P) once; both sweeps read P's facets and hull nothing.
        assert hulled == [5]
        hulled.clear()
        assert mv_body_body_seg(pyramid, E1) == mv_body_body_seg(pyramid, E2) == F(1, 6)
        assert volume_polytope(pyramid) == F(1, 3)
        # The sweep reads P's hull first, and Vol(P) reuses it.
        assert hulled == [5]
        # The kept facets are not a field: equality, hash and repr are unchanged.
        fresh = square_pyramid()
        assert "facets" in vars(pyramid) and "facets" not in vars(fresh)
        assert pyramid == fresh and hash(pyramid) == hash(fresh) and repr(pyramid) == repr(fresh)

    def test_sweep_hulls_only_vertices(self, monkeypatch):
        # Four generators in general position: 4^2 - 4 + 2 = 14 vertices, all
        # on P's hull; once P is hulled, the sweep builds no hull of its own.
        zono = Zonotope3.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)])
        poly = polytope_of_zonotope(zono)
        assert len(poly.points) == len({i for face in poly.facets for i in face}) == 14
        hulled = []
        monkeypatch.setattr(witness, "_hull_facets",
                            lambda pts: hulled.append(len(pts)) or _hull_facets(pts))
        u = vec3("1/2", "-2/3", "3/5")
        assert mv_body_body_seg(poly, u) == mixed_volume_repeated(zono, Zonotope3((u,)))
        assert hulled == []
        assert mv_body_body_seg(poly, u) == _swept_reference(poly, u)


def _swept_reference(poly, u):
    """V(P, P, [0,u]) from a fresh hull of every point and its translate by u."""
    points = poly.vertices
    swept = PolytopeV.from_vertices(points + tuple(_add(p, u) for p in points))
    return (volume_polytope(swept) - volume_polytope(PolytopeV.from_vertices(points))) / 3


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


class TestMvBodyBodySegEdgeCases:
    SEGMENTS = (ZERO3, E1, E3, vec3("1/3", "-2/7", "5/11"), vec3(-2, 1, "3/2"))

    @pytest.mark.parametrize("points", [
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],  # unit square
        [(0, 0, 0), ("1/2", 0, 0), (0, "1/4", 0), ("1/4", "1/8", 0), (0, 0, 0)],
        [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)],  # collinear
        [(1, "2/3", 0), (0, 1, "1/2"), (2, "1/3", "-1/2"), (3, 0, -1)],  # coplanar
    ])
    def test_flat_bodies(self, points):
        poly = PolytopeV.from_vertices(points)
        assert poly.facets is None
        for u in self.SEGMENTS:
            assert mv_body_body_seg(poly, u) == _swept_reference(poly, u)

    def test_unit_square_swept_up(self):
        square = PolytopeV.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        assert mv_body_body_seg(square, E3) == F(1, 3)
        assert mv_body_body_seg(square, E1) == 0

    @pytest.mark.parametrize("points", [
        [(1, 2, 3)],
        [("1/2", 0, "1/3"), (1, 1, 1)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
        [(0, 0, 0), ("1/2", "1/3", 0), ("-1/5", "1/7", "2/9")],
    ])
    def test_one_to_three_points(self, points):
        poly = PolytopeV.from_vertices(points)
        for u in self.SEGMENTS:
            assert mv_body_body_seg(poly, u) == _swept_reference(poly, u)

    def test_triangle_prism(self):
        triangle = PolytopeV.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert mv_body_body_seg(triangle, vec3(5, 7, 2)) == F(1, 3)  # area 1/2 times 2, over 3

    def test_repeated_and_interior_points(self):
        rng = SplitMix64(55)
        for base in (TETRA, CUBE_VERTS, square_pyramid()):
            inner = [vec3(*(sum(c) / (2 * len(base.vertices)) for c in zip(*base.vertices)))]
            padded = PolytopeV.from_vertices(base.vertices * 3 + tuple(inner))
            for _ in range(5):
                (u,) = random_columns(rng, 1, 9)
                assert mv_body_body_seg(padded, u) == mv_body_body_seg(base, u) \
                    == _swept_reference(base, u)

    def test_coprime_denominators(self):
        # P's coordinates have denominators 2, 4 and 8; u's 3, 5 and 7.
        poly = PolytopeV.from_vertices(
            [(0, 0, 0), ("1/2", 0, 0), (0, "3/4", 0), (0, 0, "5/8"), ("1/2", "3/4", "5/8")])
        u = vec3("1/3", "-2/5", "4/7")
        assert poly.scale == 8
        assert mv_body_body_seg(poly, u) == _swept_reference(poly, u)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_zonotope_polytopes_match_the_oracle(self, m):
        rng = SplitMix64(57 + m)
        for _ in range(4):
            gens = random_columns(rng, m, 7).generators
            poly = polytope_of_zonotope(Zonotope3(gens))
            (u,) = random_columns(rng, 1, 11)
            expected = brute_mixed_volume(gens, gens, [u])
            assert mv_body_body_seg(poly, u) == _swept_reference(poly, u) == expected
            assert mv_body_body_seg(poly, ZERO3) == 0


class TestPyramidEquality:
    def test_exact_equality(self):
        report = pyramid_equality_report()
        assert report.lhs == report.rhs == F(1, 18)
        assert report.slack == 0 and report.holds

    def test_scaled_pyramid(self):
        doubled = PolytopeV.from_vertices(
            [(2 * v.x, 2 * v.y, 2 * v.z) for v in square_pyramid().vertices])
        lhs = volume_polytope(doubled) * mv_seg_seg(doubled, E1, E2)
        rhs = 2 * mv_body_body_seg(doubled, E1) * mv_body_body_seg(doubled, E2)
        assert lhs == rhs == 16 * F(1, 18)

    def test_parallel_replacement_still_holds(self):
        pyramid = square_pyramid()
        lhs = volume_polytope(pyramid) * mv_seg_seg(pyramid, E1, E1)
        rhs = 2 * mv_body_body_seg(pyramid, E1) ** 2
        assert lhs == 0
        assert rhs == F(1, 18)
        assert lhs <= rhs


class TestCrossModuleAgreement:
    def test_random_zonotope_realizations(self):
        rng = SplitMix64(52)
        for _ in range(30):
            zono = random_zonotope(rng, 4, 6)
            poly = polytope_of_zonotope(zono)
            assert volume_polytope(poly) == volume(zono)
            u, v = random_columns(rng, 2, 6)
            assert mv_seg_seg(poly, u, v) == \
                mixed_volume(zono, Zonotope3((u,)), Zonotope3((v,)))
            assert mv_body_body_seg(poly, u) == mixed_volume_repeated(zono, Zonotope3((u,)))

    def test_eight_generator_zonotopes(self):
        # 8^2 - 8 + 2 = 58 vertices per body, as in the benchmark's witness pass.
        rng = SplitMix64(54)
        for _ in range(3):
            zono = Zonotope3(random_columns(rng, 8, 16).generators)
            poly = polytope_of_zonotope(zono)
            assert len(poly.points) == 58
            assert len({i for face in poly.facets for i in face}) == 58
            assert volume_polytope(poly) == volume(zono)
            (u,) = random_columns(rng, 1, 16)
            assert mv_body_body_seg(poly, u) == mixed_volume_repeated(zono, Zonotope3((u,)))

    def test_zonotope_route_stays_on_the_body_integers(self, monkeypatch):
        made, cleared = [], []
        monkeypatch.setattr(witness, "unscaled", lambda *args: made.append(args))
        monkeypatch.setattr(witness, "int_scaled",
                            lambda vectors: cleared.append(len(vectors)) or int_scaled(vectors))
        rng = SplitMix64(56)
        for _ in range(6):
            zono = random_zonotope(rng, 8, 16)
            poly = polytope_of_zonotope(zono)
            assert poly.scale == zono.scaled[1]
            u, v = random_columns(rng, 2, 16)
            assert volume_polytope(poly) == volume(zono)
            assert mv_body_body_seg(poly, u) == mixed_volume_repeated(zono, Zonotope3((u,)))
            assert mv_seg_seg(poly, u, v) == mixed_volume(zono, Zonotope3((u,)), Zonotope3((v,)))
        # Nothing made rational vertices; only the segments were cleared.
        assert made == [] and set(cleared) == {1, 2}

    def test_body_scale_above_its_lcm(self):
        # random_zonotope clears at the lcm of the drawn denominators, before
        # any reduction, so 2/4 keeps a 4 where the lcm of reduced ones has 2.
        rng = SplitMix64(59)
        bodies = (random_zonotope(rng, 8, 6) for _ in range(200))
        zono = next(z for z in bodies
                    if len(z.scaled[0]) >= 4 and z.scaled[1] > int_scaled(z.generators)[1])
        poly = polytope_of_zonotope(zono)
        assert poly.scale == zono.scaled[1]
        gens = zono.generators
        u, v = random_columns(rng, 2, 6)
        assert volume_polytope(poly) == volume(zono) == brute_mixed_volume(gens, gens, gens)
        assert mv_body_body_seg(poly, u) == mixed_volume_repeated(zono, Zonotope3((u,))) \
            == brute_mixed_volume(gens, gens, [u])
        assert mv_seg_seg(poly, u, v) == mixed_volume(zono, Zonotope3((u,)), Zonotope3((v,))) \
            == brute_mixed_volume(gens, [u], [v])


def _rank(vectors):
    if any(det3(a, b, c) for a, b, c in combinations(vectors, 3)):
        return 3
    if any(any(cross(a, b)) for a, b in combinations(vectors, 2)):
        return 2
    return 1 if any(any(v) for v in vectors) else 0


def _subset_sum_vertices(gens):
    """The vertices of conv(`oracles.subset_sums(gens)`), from a hull of every subset sum.

    A body of rank r < 3 first gets 3 - r apexes from e1, e2, e3 off its
    span, which makes the hull a pyramid (or a tetrahedron) whose other
    vertices are the body's.  A point is a vertex iff the facet planes
    through it have normals of rank 3.
    """
    apexes = []
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        if _rank(list(gens) + apexes + [e]) > _rank(list(gens) + apexes):
            apexes.append(e)
    hull = PolytopeV.from_vertices(subset_sums(gens) + apexes)
    planes = set(hull.facets.values())
    vertices = set()
    for x, y, z in hull.points:
        normals = [(nx, ny, nz) for nx, ny, nz, h in planes if nx * x + ny * y + nz * z == h]
        if _rank(normals) == 3:
            vertices.add((F(x, hull.scale), F(y, hull.scale), F(z, hull.scale)))
    return vertices - set(apexes)


def _general_position(gens):
    return all(det3(a, b, c) for a, b, c in combinations(gens, 3))


def _integer_body(rng, m, bound):
    return Zonotope3.from_generators(
        [(rng.randint(-bound, bound), rng.randint(-bound, bound), rng.randint(-bound, bound))
         for _ in range(m)])


class TestZonotopeVertices:
    @pytest.mark.parametrize("gens", [
        [],
        [(0, 0, 0), (0, 0, 0)],
        [(1, 2, 3)],
        [(1, 2, 3), (0, 0, 0), (-2, -4, -6), ("1/2", 1, "3/2")],  # rank 1
        [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 0), (-1, 3, 0), (0, 0, 0), (3, -1, 0),
         (-2, 0, 0)],  # rank 2, in z = 0, parallel pairs and a zero generator
        [(1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -2, 0), ("-1/2", 1, "-1/2"),
         (0, "-1/3", "1/3")],  # rank 2, in x + y + z = 0
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 0), (0, 0, 0), (1, 1, 1),
         (-1, -1, -1), (1, 2, 3), (3, -1, 2)],  # rank 3: parallels, coplanar triples, a zero
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)],
    ])
    def test_vertices_of_subset_sums(self, gens):
        zono = Zonotope3.from_generators(gens)
        poly = polytope_of_zonotope(zono)
        assert len(set(poly.vertices)) == len(poly.vertices)
        assert set(poly.vertices) == _subset_sum_vertices(zono.generators)

    @pytest.mark.parametrize("m", [5, 8, 10])
    def test_small_entries_tie_often(self, m):
        # Entries in [-2, 2]: parallel pairs, coplanar triples and zero generators abound.
        rng = SplitMix64(60 + m)
        for _ in range(2):
            zono = _integer_body(rng, m, 2)
            poly = polytope_of_zonotope(zono)
            assert set(poly.vertices) == _subset_sum_vertices(zono.generators)

    @pytest.mark.parametrize("m", range(3, 13))
    def test_general_position_count(self, m):
        rng = SplitMix64(70 + m)
        zono = _integer_body(rng, m, 16)
        while not _general_position(zono.scaled[0]):
            zono = _integer_body(rng, m, 16)
        assert len(polytope_of_zonotope(zono).vertices) == m * m - m + 2

    def test_planar_forty_generators(self):
        # 40 directions in z = 0: a 2^40 subset-sum route would never return.
        zono = Zonotope3.from_generators([(1, k, 0) for k in range(-20, 20)])
        poly = polytope_of_zonotope(zono)
        assert len(poly.points) == 80
        assert poly.facets is None
        assert mv_body_body_seg(poly, E3) == mixed_volume_repeated(zono, Zonotope3((E3,)))


class TestPolytopeReferee:
    """The hull route against the |det| sums, which it shares no formula with, from m = 12 on."""

    @staticmethod
    def _agree(zono, rng):
        poly = polytope_of_zonotope(zono)
        u, v = random_columns(rng, 2, 9)
        assert volume_polytope(poly) == volume(zono)
        assert mv_body_body_seg(poly, u) == mixed_volume_repeated(zono, Zonotope3((u,)))
        assert mv_seg_seg(poly, u, v) == mixed_volume(zono, Zonotope3((u,)), Zonotope3((v,)))

    @pytest.mark.parametrize("m", [12, 16, 24])
    def test_random_bodies(self, m):
        rng = SplitMix64(80 + m)
        self._agree(_integer_body(rng, m, 16), rng)

    def test_tied_bodies(self):
        rng = SplitMix64(81)
        base = list(random_columns(rng, 6, 7).generators)
        parallel = base + [scale_vec(F(-3, 2), g) for g in base]
        coplanar = base + [_add(a, b) for a, b in combinations(base[:4], 2)]
        zeros = base + [ZERO3] * 3 + [scale_vec(F(2), g) for g in base[:3]]
        for gens in (parallel, coplanar, zeros):
            assert len(gens) >= 12
            self._agree(Zonotope3.from_generators(gens), rng)

    @pytest.mark.parametrize("weights", [(1, 1, 1, 1), (2, 3, 4, 6)])
    def test_split_extremal_config(self, weights):
        # As in test_reduction's split test: A's generators cut into 3-5
        # pieces each, signs mixed, which keeps every volume of A.
        a, _, _ = extremal_config(SStats(*map(F, weights)), F(0), F(1), F(0), F(1))
        rnd = random.Random(sum(weights))
        pieces = []
        for g in a.generators:
            parts = [rnd.randint(1, 9) for _ in range(rnd.randint(3, 5))]
            pieces += [scale_vec(F(rnd.choice((-w, w)), sum(parts)), g) for w in parts]
        rnd.shuffle(pieces)
        assert len(pieces) >= 12
        self._agree(Zonotope3.from_generators(pieces), SplitMix64(82))
