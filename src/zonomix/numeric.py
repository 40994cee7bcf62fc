"""Exact rational scalars, 3-vectors, 3x3 determinants, |det| sums, text I/O.

Values at the edges (parsed literals, `Vec3` coordinates, reported volumes)
are ``fractions.Fraction``s, which keep canonical form (positive
denominator, gcd 1), so equality tests are exact and unambiguous.  Inside,
the |det| kernels work on plain integers: `int_scaled` clears a body's
denominators once, and results are divided back as one `Fraction`.  The two
text formats (zonotope, matrix) share one reader, `parse_rows`, and one
writer, `render_rows`.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cmp_to_key
from itertools import compress, islice
from math import lcm
from operator import eq, itemgetter
from typing import Iterable, NamedTuple, Sequence

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: optional sign, integer, optional '/' integer."""
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"invalid rational literal: {text!r}")
    # int() refuses more digits than the interpreter's limit, with advice
    # meant for programmers; name the limit in the literal's terms instead.
    limit = sys.get_int_max_str_digits()
    if limit and len(s) > limit:
        digits = max(len(part) for part in s.lstrip("+-").split("/"))
        if digits > limit:
            raise ValueError(f"integer in rational literal has {digits} digits, "
                             f"more than the limit ({limit} digits)")
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
# A sampled zonotope is never cleared: `rng.random_zonotope` scales the
# drawn numerators the same way and builds the body from its integer view,
# and `unscaled` makes its rational generators only when they are read.
#
# Every 3D sum is a total of one kernel contract: given (p, (A, B, C))
# pairs, return the sums of |det(p, u, v)| over the pairs u, v from A x A
# (i < j), A x B, A x C and B x C.  Two kernels keep it.  The loop,
# `_class_loop`, takes one determinant per pair, a cross product p x u
# dotted with v: O(m^3) for a single sum.  The sweep, `_class_sweep`,
# projects the classes into the plane along p, so that |det(p, u, v)|
# becomes a 2D |cross| scaled by a pivot coordinate; over the images in
# angular order, one pass of prefix sums (`_three_classes2`) gives all four
# totals.  That is O(m^2 log m).  Each dispatcher picks its kernel by size
# and reads one total.  For a single sum the sweep overtakes the loop at
# about m = 7 to 10 (triples first, combos last) and runs 10-16x faster at
# m = 96 (Python 3.11, Intel Xeon, coordinates p/q with |p|, q <= 16).
#
# A check needs four sums of the same bodies, and `sum_abs_det3_bezout` and
# `sum_abs_det3_af_square` take all four from one kernel call.  On the sweep
# each pivot projects and sorts the three classes once: a bezout check
# projects 2.5 m^2 images instead of 4.5 m^2, an af-square check 3 m^2
# instead of 7 m^2.  On the loop each cross product is taken once and dotted
# with every class it pairs with.  fuzz at its default m_max = 6 never
# leaves the loop.

# Smallest size at which a sum sweeps instead of looping: the length of ga
# for pairs and combos, the middle length of the three lists for triples
# (both kernels pivot over the shortest list), and the longest list for the
# four sums of a check.
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


def unscaled(ints: Iterable[tuple[int, int, int]], scale: int) -> tuple[Vec3, ...]:
    """The rational vectors ints[i] / scale: `int_scaled` undone."""
    return tuple(Vec3(Fraction(x, scale), Fraction(y, scale), Fraction(z, scale))
                 for x, y, z in ints)


def _pivot_images(a, classes):
    """The plane images of the generators of each class along the pivot a, and |a_p|.

    With a_p a nonzero coordinate of a (z if it can), each g maps to
    (a_p g_q - a_q g_p, a_p g_r - a_r g_p) over the other two coordinates q, r
    in cyclic order, so the cross product of the images of b and c is
    a_p * det(a, b, c) and a sum of |cross| over images divides exactly by
    |a_p|.  Each nonzero image is flipped into the upper half-plane (which
    leaves every |cross| alone) and returned as (key, x, y, tag), tag being
    the index of its class in `classes`; the key -x / (|x| + y) grows
    strictly with the angle in [0, pi) and lies in [-1, 1], so it never
    overflows.  A zero pivot gives no images.
    """
    ax, ay, az = a
    if not az:
        if ay:
            ax, ay, az = az, ax, ay
            classes = [[(z, x, y) for x, y, z in gens] for gens in classes]
        elif ax:
            ax, ay, az = ay, az, ax
            classes = [[(y, z, x) for x, y, z in gens] for gens in classes]
        else:
            return [], 0
    return [(-u / ((u if u >= 0 else -u) + v), u, v, tag) if v > 0 or (v == 0 and u > 0)
            else (u / ((u if u >= 0 else -u) - v), -u, -v, tag)
            for tag, gens in enumerate(classes) for x, y, z in gens
            for u, v in ((az * x - ax * z, az * y - ay * z),) if u or v], abs(az)


def _cross_order(u, v):
    """Negative if u comes before v in angular order, positive if after, 0 if parallel."""
    return u[2] * v[1] - u[1] * v[2]


_key = itemgetter(0)
_exact_angle = cmp_to_key(_cross_order)


def _angular_order(items):
    """Sort (key, x, y, tag) items by the exact angle of (x, y), in place.

    int / int division is correctly rounded, so the float keys are in exact
    angular order except inside runs of equal keys, which are re-sorted by
    the sign of the cross product.  Most runs are single items or exact
    parallels; only the runs of two or more are touched.
    """
    items.sort(key=_key)
    if len(set(map(_key, items))) == len(items):
        return items
    keys = list(map(_key, items))
    for key in set(compress(keys, map(eq, keys, islice(keys, 1, None)))):
        lo, hi = bisect_left(keys, key), bisect_right(keys, key)
        items[lo:hi] = sorted(items[lo:hi], key=_exact_angle)
    return items


def _three_classes2(items):
    """Pair-class sums AA, AB, AC, BC of |u x v| over items tagged 0 (A), 1 (B), 2 (C).

    The items are upper half-plane vectors (key, x, y, tag).  In angular
    order every u before v has u x v >= 0, so the sum of |u x v| over pairs
    within A is that of P_A(v) x v over the A items v, with P_A(v) the sum
    of the A items before v.  Across two classes X, Y, |x x y| is x x y for
    the x before y and y x x for the x after it, so each y adds
    (2 P_X(y) - T_X) x y, with T_X the sum of all of X; the T_X part is
    taken once, against the sum of all of Y, at the end.  Parallel vectors
    add 0 in either order.  All four sums come from one pass.
    """
    aa = ab = ac = bc = 0
    ax = ay = bx = by = cx = cy = 0
    for _, x, y, tag in _angular_order(items):
        if not tag:
            aa += ax * y - ay * x
            ax += x
            ay += y
        elif tag == 1:
            ab += ax * y - ay * x
            bx += x
            by += y
        else:
            ac += ax * y - ay * x
            bc += bx * y - by * x
            cx += x
            cy += y
    return (aa, 2 * ab - (ax * by - ay * bx), 2 * ac - (ax * cy - ay * cx),
            2 * bc - (bx * cy - by * cx))


def _class_sweep(pivoted):
    """Sums of |det(p, u, v)| over the (p, (A, B, C)) pairs, by the classes of u and v.

    Returns the four totals over pairs u, v from A x A (i < j), A x B, A x C
    and B x C.  Each pivot projects and sorts its three classes once; an
    empty class costs nothing.
    """
    aa = ab = ac = bc = 0
    for p, classes in pivoted:
        images, f = _pivot_images(p, classes)
        if f:
            s_aa, s_ab, s_ac, s_bc = _three_classes2(images)
            aa += s_aa // f
            ab += s_ab // f
            ac += s_ac // f
            bc += s_bc // f
    return aa, ab, ac, bc


def _class_loop(pivoted):
    """`_class_sweep`'s four totals, one determinant at a time: the small-m path.

    For each pivot p, p x u is taken once per A item u and dotted with the
    A items after u, all of B and all of C; p x b once per B item and dotted
    with all of C.  Any numbers serve, floats included: nothing is divided.
    """
    aa = ab = ac = bc = 0
    for (px, py, pz), (ga, gb, gc) in pivoted:
        for i, (ux, uy, uz) in enumerate(ga):
            wx, wy, wz = py * uz - pz * uy, pz * ux - px * uz, px * uy - py * ux
            for vx, vy, vz in ga[i + 1:]:
                d = wx * vx + wy * vy + wz * vz
                aa += d if d >= 0 else -d
            for vx, vy, vz in gb:
                d = wx * vx + wy * vy + wz * vz
                ab += d if d >= 0 else -d
            for vx, vy, vz in gc:
                d = wx * vx + wy * vy + wz * vz
                ac += d if d >= 0 else -d
        for ux, uy, uz in gb:
            wx, wy, wz = py * uz - pz * uy, pz * ux - px * uz, px * uy - py * ux
            for vx, vy, vz in gc:
                d = wx * vx + wy * vy + wz * vz
                bc += d if d >= 0 else -d
    return aa, ab, ac, bc


def sum_abs_det3_triples(ga, gb, gc):
    """Sum of |det(a, b, c)| over all (a, b, c) in ga x gb x gc."""
    # Both paths pivot over the shortest list; the size rule reads the middle one.
    ga, gb, gc = sorted((ga, gb, gc), key=len)
    kernel = _class_loop if len(gb) < SWEEP_MIN else _class_sweep
    return kernel((a, ((), gb, gc)) for a in ga)[3]


def sum_abs_det3_pairs(ga, gb):
    """Sum of |det(a_i, a_j, b)| over pairs i < j from ga and all b in gb."""
    # The loop pivots over ga, which takes each a_i x a_j once; the sweep
    # pivots over gb, which sorts ga once per b.
    if len(ga) < SWEEP_MIN:
        return _class_loop((a, ((), ga[i + 1:], gb)) for i, a in enumerate(ga))[3]
    return _class_sweep((b, (ga, (), ())) for b in gb)[0]


def sum_abs_det3_combos(g):
    """Sum of |det(a_i, a_j, a_k)| over index triples i < j < k."""
    kernel = _class_loop if len(g) < SWEEP_MIN else _class_sweep
    return kernel((a, (g[i + 1:], (), ())) for i, a in enumerate(g))[0]


def sum_abs_det3_bezout(ga, gb, gc):
    """The four sums of a bezout check: combos(A), pairs(A, B), pairs(A, C), triples(A, B, C).

    Pivoting over A with the classes (the A after the pivot, B, C) gives all
    four at once: the A x A pairs after each pivot make combos(A), the A x B
    and A x C pairs the two pair sums, and the B x C pairs the triples.
    """
    kernel = _class_loop if max(len(ga), len(gb), len(gc)) < SWEEP_MIN else _class_sweep
    return kernel((a, (ga[i + 1:], gb, gc)) for i, a in enumerate(ga))


def sum_abs_det3_af_square(ga, gb, gc, gd):
    """The four sums of an af-square check: pairs(A, D) and triples (A, B, D), (A, C, D), (B, C, D).

    Pivoting over D with the classes (A, B, C) gives all four at once.
    """
    kernel = _class_loop if max(len(ga), len(gb), len(gc), len(gd)) < SWEEP_MIN else _class_sweep
    return kernel((d, (ga, gb, gc)) for d in gd)


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
# O(m^2 log m) through one sweep for its four sums: at m = 800 and 2000,
# check bezout took 3.0-3.4 s and 20 s, and check af-square 3.6-3.7 s and
# 24-25 s (Python 3.11, Intel Xeon, coordinates p/q with |p|, q <= 16).
MAX_GENERATORS = 2000

# Most bits one body file may clear to: its generator count times the bit
# length of its common scale L plus that of its largest numerator, a bound on
# the bit length of every integer `int_scaled` makes of it.  Kernel cost grows
# with digits as well as with generators: check bezout took 17 s on 50
# generators of 4000-digit integers.  Under this limit the generator cap is
# the slowest input: on 2000 generators of 31-bit integers (64,000 bits) check
# bezout took 22-23 s and check af-square 26-27 s, about as long as on the
# cap's p/q with |p|, q <= 16 (50,000 bits), timed alongside (Python 3.11,
# Intel Xeon).
MAX_CLEARED_BITS = 2 ** 16

# A line of a text file: a run between the line boundaries of str.splitlines.
# Scanning runs lazily keeps an oversized file from being split whole.  Runs
# of boundaries ("\r\n", blank lines) match nothing, as blank lines are skipped.
_LINE_RE = re.compile(r"[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+")


def parse_rows(text: str, kind: str) -> tuple[str, list[list[Fraction]]]:
    """The header line and the parsed rows of a `kind` file ("zonotope", ...).

    Reading stops with an error as soon as the rows hold more than
    3 * MAX_GENERATORS literals, before any literal is parsed, and as soon
    as the literals read so far pass MAX_CLEARED_BITS, before any kernel.
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
    generators = max(1, -(-literals // 3))
    budget = MAX_CLEARED_BITS // generators
    scale, top = 1, 0
    for row in rows:
        for i, literal in enumerate(row):
            q = row[i] = parse_rational(literal)
            d, n = q.denominator, abs(q.numerator)
            if scale % d or n > top:
                scale, top = lcm(scale, d), max(top, n)
                if scale.bit_length() + top.bit_length() > budget:
                    raise ValueError(f"{kind}: {generators} generators cleared to integers "
                                     f"need more than {budget} bits each; at most "
                                     f"{MAX_CLEARED_BITS} bits per file (generators times bits)")
    return header, rows


def render_rows(header: str, rows: Iterable[Iterable[Fraction]]) -> str:
    """The header line, then one line of canonical rationals per row."""
    lines = [header]
    for row in rows:
        lines.append(" ".join(render_rational(q) for q in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> tuple[Vec3, ...]:
    """A 3 x n matrix file as its n columns, in order."""
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
        return ()
    if len(rows) != 3:
        raise ValueError(f"expected 3 matrix rows, got {len(rows)}")
    for row in rows:
        if len(row) != n:
            raise ValueError(f"matrix: expected {n} entries per row, got {len(row)}")
    return tuple(Vec3(*col) for col in zip(*rows))


def render_matrix(columns: Sequence[Vec3]) -> str:
    """The matrix file of these columns: header, then the x, y and z rows."""
    return render_rows(f"matrix 3 {len(columns)}", zip(*columns))
