"""Exact mixed volumes of a convex polytope with one or two segments.

This is the only place general convex bodies (not zonotopes) appear: the
square pyramid conv(0, e1, e2, e1+e2, e3) together with two unit segments
attains equality in V(A,A,D)*V(B,C,D) <= 2*V(A,B,D)*V(A,C,D), showing the
constant 2 cannot be improved for general bodies.  Everything reduces to
exact polytope volumes:

  V(P, [0,u], [0,v])  =  (width of P along u x v) / 6
  V(P, P, [0,u])      =  (Vol(P + [0,u]) - Vol(P)) / 3

and P + [0,u] is the hull of P's hull vertices and their translates by u
(only a vertex of P can give a vertex of the sweep), so no irrational
quantity ever appears.  Each polytope is hulled once, on cleared integers,
and both volumes are read from that hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Optional

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


class _Hull(NamedTuple):
    """The distinct points of a polytope cleared to integers, their scale L, and their hull."""

    points: list[_IntPoint]
    scale: int
    facets: Optional[dict[_Face, _Plane]]


@dataclass(frozen=True)
class PolytopeV:
    """A convex polytope given by (a superset of) its vertices; hull implied.

    Duplicate and interior points are tolerated on input.  The hull is built
    once, on first use, and kept with the polytope: the distinct input points
    cleared to integers (L times the input), the scale L, and the facet
    triangles of `_hull_facets` (None when the points are affinely
    dependent).  Like `Zonotope3.scaled`, it lives in the instance dict,
    outside the dataclass fields, so equality, hashing and repr see the
    vertices only; so does `volume`, which reads it.
    """

    vertices: tuple[Vec3, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")

    @classmethod
    def from_vertices(cls, verts: Iterable) -> "PolytopeV":
        return cls(tuple(v if isinstance(v, Vec3) else vec3(*v) for v in verts))

    @cached_property
    def hull(self) -> _Hull:
        ints, scale = int_scaled(self.vertices)
        points = list(dict.fromkeys(ints))
        return _Hull(points, scale, _hull_facets(points))

    @cached_property
    def volume(self) -> Fraction:
        """Exact volume of the hull, 0 if lower-dimensional."""
        _, scale, facets = self.hull
        return Fraction(_six_volume(facets), 6 * scale ** 3)


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
# Incremental insertion.  Each face is an outward-oriented index triangle
# (u, v, w) stored with its integer plane (nx, ny, nz, h): n = (v-u) x (w-u)
# and h = n.u, so n.q < h for interior q.  The plane is computed once, when
# the face is created, so a visibility test is n.p > h.  A point is
# "outside" iff it sees some face strictly; points on facet planes therefore
# never remove faces, which can leave a facet triangulated into coplanar
# triangles - harmless for the volume sum.  A new point can never be
# collinear with a horizon edge (it would then be coplanar with the visible
# face adjacent to that edge), so cone faces are never degenerate.  Faces
# live in an insertion-ordered dict: deleting the visible faces keeps the
# others in order and cone faces go to the end.  The full orientation
# determinant (`_orient`) only picks and orients the seed simplex.

_IntPoint = tuple[int, int, int]
_Face = tuple[int, int, int]
_Plane = tuple[int, int, int, int]


def _sub(p: _IntPoint, q: _IntPoint) -> _IntPoint:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _orient(a: _IntPoint, b: _IntPoint, c: _IntPoint, d: _IntPoint) -> int:
    return det3(_sub(b, a), _sub(c, a), _sub(d, a))


def _plane(u: _IntPoint, v: _IntPoint, w: _IntPoint) -> _Plane:
    """(nx, ny, nz, h) with n = (v-u) x (w-u) and h = n.u; n.p - h = _orient(u, v, w, p)."""
    nx, ny, nz = cross(_sub(v, u), _sub(w, u))
    return (nx, ny, nz, nx * u[0] + ny * u[1] + nz * u[2])


def _hull_facets(pts: list[_IntPoint]) -> Optional[dict[_Face, _Plane]]:
    """Outward-oriented facet triangles of conv(pts) with their planes; None if affinely dependent.

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

    faces = {}
    for (u, v, w, other) in ((a, b, c, d), (a, b, d, c), (a, c, d, b), (b, c, d, a)):
        if _orient(pts[u], pts[v], pts[w], pts[other]) > 0:
            u, v = v, u  # flip so the omitted vertex lies on the negative side
        faces[u, v, w] = _plane(pts[u], pts[v], pts[w])

    simplex = {a, b, c, d}
    for p in range(n):
        if p in simplex:
            continue
        x, y, z = point = pts[p]
        visible = [f for f, (nx, ny, nz, h) in faces.items() if nx * x + ny * y + nz * z > h]
        if not visible:
            continue  # inside or on the boundary
        edges = set()
        for (u, v, w) in visible:
            del faces[u, v, w]
            edges.update(((u, v), (v, w), (w, u)))
        for (u, v) in edges:
            # horizon edge: its reverse belongs to a face that cannot see p
            if (v, u) not in edges:
                faces[u, v, p] = _plane(pts[u], pts[v], point)
    return faces


def _six_volume(facets: Optional[dict[_Face, _Plane]]) -> int:
    """6 x the volume enclosed by `_hull_facets`' facets (0 for None).

    The facets close up into an outward surface, so the volume is the sum of
    det(u, v, w) over them, and det(u, v, w) is the facet's plane offset h.
    """
    if facets is None:
        return 0
    return sum(h for (_, _, _, h) in facets.values())


def volume_polytope(poly: PolytopeV) -> Fraction:
    """Exact volume of the convex hull of the vertices; 0 if lower-dimensional."""
    return poly.volume


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

    The sweep P + [0,u] is the hull of P's hull vertices and their
    translates by u; the volume expansion along a segment is linear, so the
    difference captures the mixed term exactly.  The vertices are the points
    of P's kept hull that lie on its facet triangles (every distinct point
    when P is flat), brought with u to the common scale lcm(L, L_u), so both
    volumes are integers over one denominator.
    """
    points, scale, facets = poly.hull
    if facets is not None:
        points = [points[i] for i in sorted({i for face in facets for i in face})]
    common = lcm(scale, *(c.denominator for c in u))
    ux, uy, uz = (c.numerator * (common // c.denominator) for c in u)
    k = common // scale
    points = [(k * x, k * y, k * z) for x, y, z in points]
    swept = list(dict.fromkeys(points + [(x + ux, y + uy, z + uz) for x, y, z in points]))
    six = _six_volume(_hull_facets(swept)) - _six_volume(facets) * k ** 3
    return Fraction(six, 18 * common ** 3)


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
