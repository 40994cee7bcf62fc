"""Exact rational scalars, 3-vectors, 3x3 determinants, text I/O.

Every scalar in this package is a ``fractions.Fraction``, which keeps
canonical form (positive denominator, gcd 1) after every operation, so
equality tests are exact and unambiguous.  A floating-point lane exists only
for throughput experiments; nothing that verifies an inequality ever touches
it.  The two text formats (zonotope, matrix) share one reader, `parse_rows`,
and one writer, `render_rows`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm
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


def render_rational(q: Fraction) -> str:
    """Canonical form: "p/q" with q > 0 and gcd(p, q) = 1, integers without "/"."""
    return str(q)


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


def sum_abs_det3_triples(ga, gb, gc):
    """Sum of |det(a, b, c)| over all (a, b, c) in ga x gb x gc."""
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


def sum_abs_det3_pairs(ga, gb):
    """Sum of |det(a_i, a_j, b)| over pairs i < j from ga and all b in gb."""
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


def sum_abs_det3_combos(g):
    """Sum of |det(a_i, a_j, a_k)| over index triples i < j < k."""
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

def parse_rows(text: str, kind: str) -> tuple[str, list[list[Fraction]]]:
    """The header line and the parsed rows of a `kind` file ("zonotope", ...)."""
    lines = [line for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#")]
    if not lines:
        raise ValueError(f"empty {kind} file")
    return lines[0], [[parse_rational(e) for e in line.split()] for line in lines[1:]]


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
