"""Exact rational scalars, 3-vectors, 3x3 determinants, |det| sums, text I/O.

Every scalar in this package is a ``fractions.Fraction``, which keeps
canonical form (positive denominator, gcd 1) after every operation, so
equality tests are exact and unambiguous.  The two text formats (zonotope,
matrix) share one reader, `parse_rows`, and one writer, `render_rows`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby
from math import lcm
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: optional sign, integer, optional '/' integer."""
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"invalid rational literal: {text!r}")
    if "/" in s:
        num, _, den = s.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def int_str(n: int) -> str:
    """The decimal digits of n, at any size.

    str() refuses integers of more than sys.get_int_max_str_digits() digits
    (4300 by default), a guard against slow parsing that also stops exact
    results from printing; Decimal converts without that limit.
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def render_rational(q: Fraction) -> str:
    """Canonical form: "p/q" with q > 0 and gcd(p, q) = 1, integers without "/"."""
    if q.denominator == 1:
        return int_str(q.numerator)
    return f"{int_str(q.numerator)}/{int_str(q.denominator)}"


_APPROX_DIGITS = 12


def approx_str(q: Fraction) -> str:
    """Decimal annotation for human-readable output; never parsed back."""
    with localcontext() as ctx:
        ctx.prec = _APPROX_DIGITS
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)


class Vec3(NamedTuple):
    x: Fraction
    y: Fraction
    z: Fraction


def vec3(x, y, z) -> Vec3:
    """Build a Vec3, coercing ints and strings to exact rationals."""
    return Vec3(Fraction(x), Fraction(y), Fraction(z))


ZERO3 = vec3(0, 0, 0)
E1 = vec3(1, 0, 0)
E2 = vec3(0, 1, 0)
E3 = vec3(0, 0, 1)


def vadd(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(a.x + b.x, a.y + b.y, a.z + b.z)


def vneg(a: Vec3) -> Vec3:
    return Vec3(-a.x, -a.y, -a.z)


def vscale(q: Fraction, a: Vec3) -> Vec3:
    return Vec3(q * a.x, q * a.y, q * a.z)


def cross(a, b) -> Vec3:
    """Cross product of two 3-tuples; like det3, exact for Vec3 and integer triples."""
    return Vec3(a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def dot(a: Vec3, b: Vec3) -> Fraction:
    return a.x * b.x + a.y * b.y + a.z * b.z


def det3(a, b, c):
    """Determinant of the 3x3 matrix with columns a, b, c (any numeric 3-tuples).

    Exact for Vec3 and for integer triples alike.  Direct cofactor expansion
    along the first column; no pivoting is ever needed at this size.
    """
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


@dataclass(frozen=True)
class Mat3xM:
    """A 3 x m collection of column vectors; column order is significant."""

    columns: tuple[Vec3, ...]

    @classmethod
    def from_columns(cls, cols: Iterable) -> "Mat3xM":
        return cls(tuple(c if isinstance(c, Vec3) else vec3(*c) for c in cols))

    @property
    def m(self) -> int:
        return len(self.columns)

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return (tuple(c.x for c in self.columns),
                tuple(c.y for c in self.columns),
                tuple(c.z for c in self.columns))


def minor3(mat: Mat3xM, indices: Sequence[int]) -> Fraction:
    """3x3 minor of the columns selected by three distinct 1-based indices.

    The determinant is taken over the columns in increasing index order.
    """
    if len(indices) != 3 or len(set(indices)) != 3:
        raise ValueError(f"need 3 distinct column indices, got {tuple(indices)}")
    i, j, k = sorted(indices)
    if i < 1 or k > mat.m:
        raise ValueError(f"column index out of range 1..{mat.m}: {tuple(indices)}")
    cols = mat.columns
    return det3(cols[i - 1], cols[j - 1], cols[k - 1])


def mat_vec(mat: Mat3xM, v: Vec3) -> Vec3:
    """Apply the 3x3 matrix (columns c1, c2, c3) to v."""
    if mat.m != 3:
        raise ValueError(f"need a square 3x3 matrix, got 3x{mat.m}")
    c1, c2, c3 = mat.columns
    return vadd(vadd(vscale(v.x, c1), vscale(v.y, c2)), vscale(v.z, c3))


# ---------------------------------------------------------------------------
# Integer scaling and absolute-determinant summation kernels.
#
# Clearing denominators once and summing plain-int determinants is much
# faster than Fraction arithmetic in the inner loops, and stays exact: all
# results are divided back by the scale factors as a single Fraction.  The
# clearing itself is integer-only: a coordinate p/q scaled by L (a multiple
# of q) is p * (L // q), with no Fraction product to build and normalise.
# A zonotope is cleared at most once: `Zonotope3.scaled` caches the result
# per body, so every volume of a check reads the same integer generators.
#
# The three 3D sums are dispatchers over two exact integer paths.  The cubic
# loops evaluate one determinant per triple.  The sweep fixes one pivot
# generator a at a time and projects the others into the plane along a, so
# that |det(a, b, c)| becomes a 2D |cross| scaled by a pivot coordinate; over
# the vectors in angular order, the sum of |cross| over all pairs is one pass
# of prefix sums.  That is O(m^2 log m) instead of O(m^3).  The sweep
# overtakes the loops at about m = 8 to 9 (triples first, combos last) and
# runs 10-16x faster at m = 96 (Python 3.11, Intel Xeon, coordinates p/q
# with |p|, q <= 16); the loops stay the small-m path, and fuzz at its
# default m_max = 6 never leaves them.

# Smallest size at which the 3D sums sweep: the length of ga for pairs and
# combos, and the middle length of the three lists for triples (the sweep
# pivots over the shortest list and sorts the other two).
SWEEP_MIN = 9


def int_scaled(vectors: Sequence[Vec3]) -> tuple[list[tuple[int, int, int]], int]:
    """Scale vectors by the lcm of all coordinate denominators.

    Returns integer coordinate triples and the scale factor L, so that the
    returned tuples are exactly L times the inputs.
    """
    scale = 1
    for v in vectors:
        scale = lcm(scale, v.x.denominator, v.y.denominator, v.z.denominator)
    out = [(x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator),
            z.numerator * (scale // z.denominator)) for x, y, z in vectors]
    return out, scale


def sum_abs_det3_triples_cubic(ga, gb, gc):
    """Sum of |det(a, b, c)| over all (a, b, c) in ga x gb x gc, one determinant each."""
    total = 0
    for bx, by, bz in gb:
        for cx, cy, cz in gc:
            px = by * cz - bz * cy
            py = bz * cx - bx * cz
            pz = bx * cy - by * cx
            for ax, ay, az in ga:
                d = ax * px + ay * py + az * pz
                total += d if d >= 0 else -d
    return total


def sum_abs_det3_pairs_cubic(ga, gb):
    """Sum of |det(a_i, a_j, b)| over pairs i < j from ga and all b in gb, one determinant each."""
    total = 0
    n = len(ga)
    for i in range(n):
        ax, ay, az = ga[i]
        for j in range(i + 1, n):
            bx, by, bz = ga[j]
            px = ay * bz - az * by
            py = az * bx - ax * bz
            pz = ax * by - ay * bx
            for cx, cy, cz in gb:
                d = cx * px + cy * py + cz * pz
                total += d if d >= 0 else -d
    return total


def sum_abs_det3_combos_cubic(g):
    """Sum of |det(a_i, a_j, a_k)| over index triples i < j < k, one determinant each."""
    total = 0
    n = len(g)
    for i in range(n):
        ax, ay, az = g[i]
        for j in range(i + 1, n):
            bx, by, bz = g[j]
            px = ay * bz - az * by
            py = az * bx - ax * bz
            pz = ax * by - ay * bx
            for k in range(j + 1, n):
                cx, cy, cz = g[k]
                d = cx * px + cy * py + cz * pz
                total += d if d >= 0 else -d
    return total


def _pivot_images(a, gens, tag):
    """The plane images of `gens` along the pivot a, keyed by angle, and |a_p|.

    With a_p a nonzero coordinate of a (z if it can), each g maps to
    (a_p g_q - a_q g_p, a_p g_r - a_r g_p) over the other two coordinates q, r
    in cyclic order, so the cross product of the images of b and c is
    a_p * det(a, b, c) and a sum of |cross| over images divides exactly by
    |a_p|.  Each nonzero image is flipped into the upper half-plane (which
    leaves every |cross| alone) and returned as (key, x, y, tag); the key
    -x / (|x| + y) grows strictly with the angle in [0, pi) and lies in
    [-1, 1], so it never overflows.  A zero pivot gives no images.
    """
    ax, ay, az = a
    if not az:
        if ay:
            ax, ay, az = az, ax, ay
            gens = [(z, x, y) for x, y, z in gens]
        elif ax:
            ax, ay, az = ay, az, ax
            gens = [(y, z, x) for x, y, z in gens]
        else:
            return [], 0
    return [(-u / ((u if u >= 0 else -u) + v), u, v, tag) if v > 0 or (v == 0 and u > 0)
            else (u / ((u if u >= 0 else -u) - v), -u, -v, tag)
            for x, y, z in gens for u, v in ((az * x - ax * z, az * y - ay * z),)
            if u or v], abs(az)


def _cross_order(u, v):
    """Negative if u comes before v in angular order, positive if after, 0 if parallel."""
    return u[2] * v[1] - u[1] * v[2]


_key = itemgetter(0)
_exact_angle = cmp_to_key(_cross_order)


def _angular_order(items):
    """Sort (key, x, y, tag) items by the exact angle of (x, y).

    int / int division is correctly rounded, so the float keys are in exact
    angular order except inside runs of equal keys, which are re-sorted by
    the sign of the cross product.
    """
    items.sort(key=_key)
    if len(set(map(_key, items))) == len(items):
        return items
    return [item for _, run in groupby(items, _key) for item in sorted(run, key=_exact_angle)]


def _all_pairs2(items):
    """Sum of |u x v| over unordered pairs of keyed upper half-plane vectors.

    In angular order every u before v has u x v >= 0, so the sum is that of
    P_j x v_j, with P_j the sum of the vectors before v_j.  Parallel vectors
    add 0 in either order.
    """
    total = px = py = 0
    for _, x, y, _ in _angular_order(items):
        total += px * y - py * x
        px += x
        py += y
    return total


def _bipartite2(items):
    """Sum of |b x c| over the pairs of a b item (tag true) and a c item (tag false).

    Each c adds (2 P_B(c) - T_B) x c, with P_B(c) the sum of the b before c
    in angular order and T_B the sum of all b; the T_B part is taken once,
    against the sum of all c, at the end.
    """
    total = px = py = sx = sy = 0
    for _, x, y, is_b in _angular_order(items):
        if is_b:
            px += x
            py += y
        else:
            total += px * y - py * x
            sx += x
            sy += y
    return 2 * total - (px * sy - py * sx)


def _sweep_triples(ga, gb, gc):
    ga, gb, gc = sorted((ga, gb, gc), key=len)
    total = 0
    for a in ga:
        images, f = _pivot_images(a, gb, True)
        if f:
            total += _bipartite2(images + _pivot_images(a, gc, False)[0]) // f
    return total


def _sweep_pairs(ga, gb):
    total = 0
    for b in gb:
        images, f = _pivot_images(b, ga, None)
        if f:
            total += _all_pairs2(images) // f
    return total


def _sweep_combos(g):
    total = 0
    for i, a in enumerate(g):
        images, f = _pivot_images(a, g[i + 1:], None)
        if f:
            total += _all_pairs2(images) // f
    return total


def sum_abs_det3_triples(ga, gb, gc):
    """Sum of |det(a, b, c)| over all (a, b, c) in ga x gb x gc."""
    # Two lists shorter than SWEEP_MIN: the middle length is below it.
    if (len(ga) < SWEEP_MIN) + (len(gb) < SWEEP_MIN) + (len(gc) < SWEEP_MIN) >= 2:
        return sum_abs_det3_triples_cubic(ga, gb, gc)
    return _sweep_triples(ga, gb, gc)


def sum_abs_det3_pairs(ga, gb):
    """Sum of |det(a_i, a_j, b)| over pairs i < j from ga and all b in gb."""
    if len(ga) < SWEEP_MIN:
        return sum_abs_det3_pairs_cubic(ga, gb)
    return _sweep_pairs(ga, gb)


def sum_abs_det3_combos(g):
    """Sum of |det(a_i, a_j, a_k)| over index triples i < j < k."""
    if len(g) < SWEEP_MIN:
        return sum_abs_det3_combos_cubic(g)
    return _sweep_combos(g)


def sum_abs_det2_pairs(us, vs):
    """Sum of |u_i v_j - u_j v_i| over index pairs i < j."""
    total = 0
    n = len(us)
    for i in range(n):
        ui, vi = us[i], vs[i]
        for j in range(i + 1, n):
            d = ui * vs[j] - us[j] * vi
            total += d if d >= 0 else -d
    return total


# ---------------------------------------------------------------------------
# Text formats.  Each is a header line followed by rows of whitespace-separated
# rational literals; "#" starts a comment line and blank lines are ignored.
#   zonotope: "zonotope3", then one generator "x y z" per row;
#   matrix:   "matrix 3 n", then 3 rows of n entries (none when n = 0).

# Most generators one body file may hold, 3 coordinates each.  A check costs
# O(m^2 log m) through the sweep: check bezout took 1.0 s at m = 400, 3.9 s at
# 800, 16 s at 1600 and 28-29 s at 2000, and check af-square (three triple
# sums) 24 s at 1600 and 52 s at 2000 (Python 3.11, Intel Xeon, coordinates
# p/q with |p|, q <= 16).
MAX_GENERATORS = 2000

# A line of a text file: a run between the line boundaries of str.splitlines.
# Scanning runs lazily keeps an oversized file from being split whole.  Runs
# of boundaries ("\r\n", blank lines) match nothing, as blank lines are skipped.
_LINE_RE = re.compile(r"[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+")


def parse_rows(text: str, kind: str) -> tuple[str, list[list[Fraction]]]:
    """The header line and the parsed rows of a `kind` file ("zonotope", ...).

    Reading stops with an error as soon as the rows hold more than
    3 * MAX_GENERATORS literals, before any literal is parsed.
    """
    lines = (match.group().strip() for match in _LINE_RE.finditer(text))
    lines = (line for line in lines if line and not line.startswith("#"))
    header = next(lines, None)
    if header is None:
        raise ValueError(f"empty {kind} file")
    rows, literals = [], 0
    for line in lines:
        row = line.split()
        literals += len(row)
        if literals > 3 * MAX_GENERATORS:
            raise ValueError(f"{kind}: at most {MAX_GENERATORS} generators "
                             f"({3 * MAX_GENERATORS} coordinates) per file")
        rows.append(row)
    return header, [[parse_rational(e) for e in row] for row in rows]


def render_rows(header: str, rows: Iterable[Iterable[Fraction]]) -> str:
    """The header line, then one line of canonical rationals per row."""
    lines = [header]
    for row in rows:
        lines.append(" ".join(render_rational(q) for q in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Mat3xM:
    header, rows = parse_rows(text, "matrix")
    fields = header.split()
    if len(fields) != 3 or fields[0] != "matrix" or fields[1] != "3":
        raise ValueError(f"expected header 'matrix 3 n', got {header!r}")
    try:
        n = int(fields[2])
    except ValueError:
        raise ValueError(f"invalid column count in header: {header!r}") from None
    if n < 0:
        raise ValueError(f"negative column count in header: {header!r}")
    if n == 0:
        if rows:
            raise ValueError("matrix with 0 columns must have no rows")
        return Mat3xM(())
    if len(rows) != 3:
        raise ValueError(f"expected 3 matrix rows, got {len(rows)}")
    for row in rows:
        if len(row) != n:
            raise ValueError(f"matrix: expected {n} entries per row, got {len(row)}")
    return Mat3xM(tuple(Vec3(*col) for col in zip(*rows)))


def render_matrix(mat: Mat3xM) -> str:
    return render_rows(f"matrix 3 {mat.m}", mat.rows() if mat.m > 0 else ())
