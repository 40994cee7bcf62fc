from fractions import Fraction

import pytest

from zonomix.numeric import E1, E2, E3, ZERO3, vec3
from zonomix.rng import SplitMix64, random_rational, random_vec3, random_zonotope
from zonomix.witness import (
    PolytopeV,
    mv_body_body_seg,
    mv_seg_seg,
    polytope_of_zonotope,
    pyramid_equality_report,
    square_pyramid,
    volume_polytope,
)
from zonomix.zonotope import Zonotope3, mixed_volume, mixed_volume_repeated, volume

F = Fraction

TETRA = PolytopeV((ZERO3, E1, E2, E3))
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

    def test_duplicates_and_interior_points_tolerated(self):
        padded = PolytopeV(TETRA.vertices + TETRA.vertices + (vec3("1/8", "1/8", "1/8"),))
        assert volume_polytope(padded) == F(1, 6)

    def test_rational_coordinates(self):
        shrunk = PolytopeV.from_vertices(
            [("0", "0", "0"), ("1/2", "0", "0"), ("0", "1/3", "0"), ("0", "0", "1/5")])
        assert volume_polytope(shrunk) == F(1, 6) * F(1, 2) * F(1, 3) * F(1, 5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PolytopeV(())


class TestMvSegSeg:
    def test_pyramid_unit_segments(self):
        assert mv_seg_seg(square_pyramid(), E1, E2) == F(1, 6)

    def test_cube_matches_zonotope(self):
        assert mv_seg_seg(CUBE_VERTS, E1, E2) == F(1, 6)

    def test_parallel_segments(self):
        rng = SplitMix64(51)
        for _ in range(20):
            u = random_vec3(rng, 9)
            lam = random_rational(rng, 9)
            assert mv_seg_seg(TETRA, u, vec3(lam * u.x, lam * u.y, lam * u.z)) == 0


class TestMvBodyBodySeg:
    def test_pyramid_sweeps(self):
        assert mv_body_body_seg(square_pyramid(), E1) == F(1, 6)
        assert mv_body_body_seg(square_pyramid(), E2) == F(1, 6)

    def test_zero_segment(self):
        assert mv_body_body_seg(TETRA, ZERO3) == 0


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
            u = random_vec3(rng, 6)
            v = random_vec3(rng, 6)
            assert mv_seg_seg(poly, u, v) == \
                mixed_volume(zono, Zonotope3((u,)), Zonotope3((v,)))
            assert mv_body_body_seg(poly, u) == mixed_volume_repeated(zono, Zonotope3((u,)))

