"""Exact mixed volumes of a convex polytope with one or two segments.

This is the only place general convex bodies (not zonotopes) appear: the
square pyramid conv(0, e1, e2, e1+e2, e3) together with two unit segments
attains equality in V(A,A,D)*V(B,C,D) <= 2*V(A,B,D)*V(A,C,D), showing the
constant 2 cannot be improved for general bodies.  Everything reduces to
exact polytope volumes:

  V(P, [0,u], [0,v])  =  (width of P along u x v) / 6
  V(P, P, [0,u])      =  (Vol(P + [0,u]) - Vol(P)) / 3

and P + [0,u] is the hull of the vertices and their translates by u, so no
irrational quantity ever appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .numeric import (
    E1,
    E2,
    E3,
    Vec3,
    ZERO3,
    cross,
    det3,
    dot,
    int_scaled,
    vadd,
    vec3,
)
from .verify import IneqReport, af_square_report
from .zonotope import Zonotope3


@dataclass(frozen=True)
class PolytopeV:
    """A convex polytope given by (a superset of) its vertices; hull implied.

    Duplicate and interior points are tolerated on input.
    """

    vertices: tuple[Vec3, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")

    @classmethod
    def from_vertices(cls, verts: Iterable) -> "PolytopeV":
        return cls(tuple(v if isinstance(v, Vec3) else vec3(*v) for v in verts))


def square_pyramid() -> PolytopeV:
    """conv(0, e1, e2, e1+e2, e3): unit square base with apex above a corner."""
    return PolytopeV((ZERO3, E1, E2, vadd(E1, E2), E3))


def polytope_of_zonotope(zono: Zonotope3) -> PolytopeV:
    """Vertex realization of a zonotope: all 2^m subset sums of its generators.

    Exponential in the generator count; intended for desk-scale cross-checks
    of the zonotope formulas against the polytope pipeline.
    """
    points = [ZERO3]
    for g in zono.generators:
        points += [vadd(p, g) for p in points]
    return PolytopeV(tuple(points))


# ---------------------------------------------------------------------------
# Exact 3D convex hull on integer-scaled points.
#
# Incremental insertion with exact orientation predicates.  Faces are stored
# as outward-oriented index triangles: orient(face, q) < 0 for interior q.
# A point is "outside" iff it sees some face strictly (orient > 0); points on
# facet planes therefore never remove faces, which can leave a facet
# triangulated into coplanar triangles - harmless for the volume sum.  A new
# point can never be collinear with a horizon edge (it would then be coplanar
# with the visible face adjacent to that edge), so cone faces are never
# degenerate.

_IntPoint = tuple[int, int, int]


def _sub(p: _IntPoint, q: _IntPoint) -> _IntPoint:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _orient(a: _IntPoint, b: _IntPoint, c: _IntPoint, d: _IntPoint) -> int:
    return det3(_sub(b, a), _sub(c, a), _sub(d, a))


def _hull_facets(pts: list[_IntPoint]) -> Optional[list[tuple[int, int, int]]]:
    """Outward-oriented facet triangles of conv(pts); None if affinely dependent.

    `pts` must be pairwise distinct.
    """
    n = len(pts)
    if n < 4:
        return None
    a, b = 0, 1
    c = next((j for j in range(2, n)
              if cross(_sub(pts[b], pts[a]), _sub(pts[j], pts[a])) != (0, 0, 0)), None)
    if c is None:
        return None
    d = next((j for j in range(2, n)
              if j != c and _orient(pts[a], pts[b], pts[c], pts[j]) != 0), None)
    if d is None:
        return None

    faces = []
    for (u, v, w, other) in ((a, b, c, d), (a, b, d, c), (a, c, d, b), (b, c, d, a)):
        if _orient(pts[u], pts[v], pts[w], pts[other]) > 0:
            u, v = v, u  # flip so the omitted vertex lies on the negative side
        faces.append((u, v, w))

    simplex = {a, b, c, d}
    for p in range(n):
        if p in simplex:
            continue
        point = pts[p]
        visible = [f for f in faces
                   if _orient(pts[f[0]], pts[f[1]], pts[f[2]], point) > 0]
        if not visible:
            continue  # inside or on the boundary
        vis = set(visible)
        edges = set()
        for (u, v, w) in visible:
            edges.update(((u, v), (v, w), (w, u)))
        faces = [f for f in faces if f not in vis]
        for (u, v) in edges:
            # horizon edge: its reverse belongs to a face that cannot see p
            if (v, u) not in edges:
                faces.append((u, v, p))
    return faces


def _six_volume(pts: list[_IntPoint]) -> int:
    """6 x hull volume of distinct integer points (0 when lower-dimensional)."""
    facets = _hull_facets(pts)
    if facets is None:
        return 0
    origin = pts[0]
    return sum(det3(_sub(pts[i], origin), _sub(pts[j], origin), _sub(pts[k], origin))
               for (i, j, k) in facets)


def _hull_volume(vertices: Iterable[Vec3]) -> Fraction:
    ints, scale = int_scaled(list(vertices))
    distinct = list(dict.fromkeys(ints))
    return Fraction(_six_volume(distinct), 6 * scale ** 3)


def volume_polytope(poly: PolytopeV) -> Fraction:
    """Exact volume of the convex hull of the vertices; 0 if lower-dimensional."""
    return _hull_volume(poly.vertices)


def mv_seg_seg(poly: PolytopeV, u: Vec3, v: Vec3) -> Fraction:
    """V(P, [0,u], [0,v]) = (max - min of <u x v, p> over vertices) / 6.

    Vanishes for parallel segments; no normalization, so the result is exact
    for arbitrary rational u, v.
    """
    normal = cross(u, v)
    if normal == ZERO3:
        return Fraction(0)
    heights = [dot(normal, p) for p in poly.vertices]
    return Fraction(max(heights) - min(heights), 6)


def mv_body_body_seg(poly: PolytopeV, u: Vec3) -> Fraction:
    """V(P, P, [0,u]) = (Vol(P + [0,u]) - Vol(P)) / 3.

    The sweep P + [0,u] is the hull of the vertices and their translates by
    u; the volume expansion along a segment is linear, so the difference
    captures the mixed term exactly.
    """
    swept = list(poly.vertices) + [vadd(p, u) for p in poly.vertices]
    return (_hull_volume(swept) - volume_polytope(poly)) / 3


def pyramid_equality_report() -> IneqReport:
    """Evaluate the segment inequality on its sharpness witness.

    A = square pyramid, B = [0,e1], C = [0,e2], third slot filled by A:
    Vol(A) * V(B,C,A) against 2 * V(A,B,A) * V(A,C,A).  Both sides come out
    to exactly 1/18.
    """
    pyramid = square_pyramid()
    return af_square_report(
        volume_polytope(pyramid),
        mv_seg_seg(pyramid, E1, E2),
        mv_body_body_seg(pyramid, E1),
        mv_body_body_seg(pyramid, E2),
    )
