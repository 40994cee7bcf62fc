"""Exact mixed volumes of a convex polytope with one or two segments.

This is the only place general convex bodies (not zonotopes) appear: the
square pyramid conv(0, e1, e2, e1+e2, e3) together with two unit segments
attains equality in V(A,A,D)*V(B,C,D) <= 2*V(A,B,D)*V(A,C,D), showing the
constant 2 cannot be improved for general bodies.  Everything reduces to
exact polytope data:

  V(P, [0,u], [0,v])  =  (width of P along u x v) / 6
  V(P, P, [0,u])      =  (1/3) sum over the facets F of P of h_[0,u](n_F) area(F)

The second is V(K,K,L) = (1/3) * integral of h_L dS_K (Schneider, Convex
Bodies: The Brunn-Minkowski Theory, section 5.1) for a polytope K = P.  The
support function of [0,u] at a unit normal n is max(0, <u, n>), and a facet
triangle's cross-product normal has twice its area as length, so each
triangle adds max(0, <u, normal>) / 6 and no irrational quantity ever
appears.  A flat P has no facets: then V(P, P, [0,u]) is the volume of the
pyramid conv(P, p + u) for any point p of P.  A polytope is its integer
points over one scale, is hulled at most once, and every volume is read
from those integers and that hull; no volume makes a rational vertex.

`polytope_of_zonotope` gives a zonotope's vertices, not its 2^m subset sums:
m^2 - m + 2 of them for m generators in general position, as integers at
the body's own scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Optional

from .numeric import (
    E1,
    E2,
    Vec3,
    _exact_angle,
    cross,
    det3,
    int_scaled,
    unscaled,
    vec3,
)
from .verify import IneqReport, ineq_report
from .zonotope import Zonotope3


@dataclass(frozen=True)
class PolytopeV:
    """A convex polytope given by (a superset of) its vertices, as integer points over one scale.

    Point i is points[i] / scale, as in `Zonotope3.scaled`; the scale may be
    any common multiple of the denominators.  Duplicate and interior points
    are tolerated.  `from_vertices` takes
    rational vertices and clears them once; `polytope_of_zonotope` passes a
    body's integers as they are.  `facets` is the hull of the distinct
    points, built on first use and kept: the facet triangles of
    `_hull_facets`, None when the points are affinely dependent.  Like
    `Zonotope3.scaled`, it lives in the instance dict, outside the dataclass
    fields, so equality, hashing and repr see the points and scale only.
    """

    points: tuple[_IntPoint, ...]
    scale: int

    def __post_init__(self):
        if not self.points:
            raise ValueError("polytope needs at least one vertex")

    @classmethod
    def from_vertices(cls, verts: Iterable) -> "PolytopeV":
        ints, scale = int_scaled([v if isinstance(v, Vec3) else vec3(*v) for v in verts])
        return cls(tuple(ints), scale)

    @property
    def vertices(self) -> tuple[Vec3, ...]:
        """The points as rational `Vec3`s, made on each read; no volume reads them."""
        return unscaled(self.points, self.scale)

    @cached_property
    def facets(self) -> Optional[dict[_Face, _Plane]]:
        return _hull_facets(list(dict.fromkeys(self.points)))


def square_pyramid() -> PolytopeV:
    """conv(0, e1, e2, e1+e2, e3): unit square base with apex above a corner."""
    return PolytopeV(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)), 1)


def polytope_of_zonotope(zono: Zonotope3) -> PolytopeV:
    """The vertices of a zonotope: m^2 - m + 2 of them for m generators in general position.

    A vertex is the sum of the generators g with <g, c> > 0 for every c in an
    open cone, and each such cone has a ray n = +-(g_i x g_j) on its
    boundary.  The face that n exposes is base + the plane zonotope of the
    generators with <g, n> = 0, base being the sum of those with <g, n> > 0.
    So the vertices are the points base + w over the distinct directions n,
    both signs, and the vertices w of that plane zonotope (`_zonogon`).
    When no two generators are independent, the single direction of the
    first one (or none at all) gives the segment's two endpoints, or the
    origin.  Works on the integer view and returns its points at the
    body's scale, however that scale was chosen; O(m^3) for the bases,
    plus the in-plane sorts.
    """
    ints, scale = zono.scaled
    gens = [g for g in ints if g != (0, 0, 0)]
    normals = {}
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            n = cross(a, b)
            if n != (0, 0, 0):
                d = gcd(*n) if n > (0, 0, 0) else -gcd(*n)
                normals[n[0] // d, n[1] // d, n[2] // d] = None
    if not normals:
        normals[gens[0] if gens else (0, 0, 0)] = None
    points = {}
    for n in normals:
        nx, ny, nz = n
        px = py = pz = qx = qy = qz = 0
        flat = []
        for g in gens:
            x, y, z = g
            s = nx * x + ny * y + nz * z
            if s > 0:
                px, py, pz = px + x, py + y, pz + z
            elif s < 0:
                qx, qy, qz = qx + x, qy + y, qz + z
            else:
                flat.append(g)
        for x, y, z in _zonogon(flat, n):
            points[px + x, py + y, pz + z] = None
            points[qx + x, qy + y, qz + z] = None
    return PolytopeV(tuple(points), scale)


def _zonogon(gens: list[_IntPoint], n: _IntPoint) -> list[_IntPoint]:
    """The vertices of the sum of the segments [0, g] over `gens`, all in the plane <x, n> = 0.

    Each g is read through the two coordinates other than one where n is
    nonzero, a projection that is one to one on the plane, and flipped into
    the upper half-plane of them, which moves the body by g.  Sorted into
    angular order by the sign of their cross products
    (`numeric._exact_angle`), their partial sums at each change of direction
    are the vertices of one chain, from the lowest point to the highest; the
    body is symmetric about their midpoint, which gives the other chain.
    Parallel generators lie in one run of that order and give no vertex
    between them.  No generators give the origin.
    """
    p, q = (0, 1) if n[2] else (2, 0) if n[1] else (1, 2)
    items = []
    ox = oy = oz = 0
    for g in gens:
        u, v = g[p], g[q]
        if v > 0 or (v == 0 and u > 0):
            items.append((g, u, v))
        else:
            x, y, z = g
            ox, oy, oz = ox + x, oy + y, oz + z
            items.append(((-x, -y, -z), -u, -v))
    items.sort(key=_exact_angle)
    chain = [(ox, oy, oz)]
    for k, ((x, y, z), u, v) in enumerate(items, 1):
        ox, oy, oz = ox + x, oy + y, oz + z
        if k == len(items) or u * items[k][2] != v * items[k][1]:
            chain.append((ox, oy, oz))
    # The first point of the chain plus the last is twice the centre.
    cx, cy, cz = chain[0][0] + ox, chain[0][1] + oy, chain[0][2] + oz
    return chain + [(cx - x, cy - y, cz - z) for x, y, z in chain[1:-1]]


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
    return Fraction(_six_volume(poly.facets), 6 * poly.scale ** 3)


def mv_seg_seg(poly: PolytopeV, u: Vec3, v: Vec3) -> Fraction:
    """V(P, [0,u], [0,v]) = (max - min of <u x v, p> over P) / 6, read from P's integer points.

    With P's integer points at scale L and u, v cleared together at scale
    L_uv, their heights along (L_uv u) x (L_uv v) span L L_uv^2 times that
    width; 0 for parallel segments.  Exact for arbitrary rational u, v.
    """
    (uint, vint), uvscale = int_scaled((u, v))
    nx, ny, nz = cross(uint, vint)
    heights = [nx * x + ny * y + nz * z for x, y, z in poly.points]
    return Fraction(max(heights) - min(heights), 6 * poly.scale * uvscale * uvscale)


def mv_body_body_seg(poly: PolytopeV, u: Vec3) -> Fraction:
    """V(P, P, [0,u]), read from P's facet triangles.

    With P cleared to integers at scale L and u at scale L_u, a triangle of
    integer normal n adds max(0, <L_u u, n>) / (6 L^2 L_u).  A flat P has
    no facets; then the result is Vol(conv(P, p + u)) for any point p of P,
    a pyramid whose volume is linear in its height.  The integer points of
    P and the one apex p + L_u u hull to L^3 (L_u / L) times that volume,
    which shares the facet sum's denominator.
    """
    points, scale, facets = poly.points, poly.scale, poly.facets
    (uint,), uscale = int_scaled((u,))
    ux, uy, uz = uint
    if facets is None:
        x, y, z = points[0]
        six = _six_volume(_hull_facets(list(dict.fromkeys(points + ((x + ux, y + uy, z + uz),)))))
    else:
        six = sum(max(0, nx * ux + ny * uy + nz * uz) for nx, ny, nz, _ in facets.values())
    return Fraction(six, 6 * scale * scale * uscale)


def pyramid_equality_report() -> IneqReport:
    """Evaluate the segment inequality on its sharpness witness.

    A = square pyramid, B = [0,e1], C = [0,e2], third slot filled by A:
    Vol(A) * V(B,C,A) against 2 * V(A,B,A) * V(A,C,A).  Both sides come out
    to exactly 1/18.
    """
    pyramid = square_pyramid()
    return ineq_report(volume_polytope(pyramid) * mv_seg_seg(pyramid, E1, E2),
                       mv_body_body_seg(pyramid, E1), mv_body_body_seg(pyramid, E2), Fraction(2))
