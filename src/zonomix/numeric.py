"""Exact rational scalars, 3-vectors, 3x3 determinants, |det| sums, text I/O.

Values at the edges (`parse_rational`, `Vec3` coordinates, reported
volumes) are ``fractions.Fraction``s, which keep canonical form (positive
denominator, gcd 1), so equality tests are exact and unambiguous.  Inside,
the |det| kernels work on plain integers, and results are divided back as
one `Fraction`.  The two text formats (zonotope, matrix) share one reader,
`parse_rows`, which reads each literal straight to a reduced integer pair and
returns the common scale with the rows, and one writer, `render_rows`.
`parse_rational` reads a flag's literal through the same loop.
`int_scaled` clears a body built from rational generators, once.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cmp_to_key
from itertools import compress, islice
from math import gcd, inf, lcm
from operator import eq, itemgetter
from typing import Iterable, NamedTuple, Sequence

# A rational literal: signed integer (group 1), then optionally "/" integer (group 2).
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: optional sign, integer, optional '/' integer."""
    row = [text]
    _read_literals([row])
    return Fraction(*row[0])


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


E1 = vec3(1, 0, 0)
E2 = vec3(0, 1, 0)


def cross(a, b) -> Vec3:
    """Cross product of two 3-tuples; like det3, exact for Vec3 and integer triples."""
    return Vec3(a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


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
# A sampled or parsed zonotope is never cleared, nor is a matrix, which is the
# body of its columns: `rng.random_columns` scales the drawn numerators the
# same way, `parse_rows` returns reduced pairs with their lcm scale, and each
# builds the body from its integer view; `unscaled` makes its rational
# generators only when they are read.
#
# Every 3D sum is a total of one kernel contract: given (p, (A, B, C))
# pairs, return the sums of |det(p, u, v)| over the pairs u, v from A x A
# (i < j), A x B, A x C and B x C.  Two kernels keep it.  The loop,
# `_class_loop`, takes one determinant per pair, a cross product p x u
# dotted with v: O(m^3) for a single sum.  The sweep, `_class_sweep`,
# projects the classes into the plane along p, so that |det(p, u, v)|
# becomes a 2D |cross| scaled by a pivot coordinate; over the images in
# angular order, one pass of prefix sums (`_three_classes2`) gives all four
# totals.  That is O(m^2 log m).  The pass sorts the images by a float key
# of their angle and checks each run of equal keys as it goes; only a run
# out of exact order sends them through `_angular_order`, which re-sorts
# such runs by exact cross products, and through the pass again.  No pivot
# of `rng.random_columns` bodies of 24 or 96 generators at coefficient bound
# 16 needs it: their runs of equal keys are exact parallels.  Images at 2^60
# whose keys collide do.  Each single-sum dispatcher picks its kernel by
# size and reads one total.  For a single sum the sweep overtakes the loop
# at about m = 6 to 9 (triples first, combos last) and runs 12-19x faster
# at m = 96; on three bodies of m generators the bezout kernel's sweep
# overtakes its loop at m = 5, and the lemma's sweep overtakes its own loop
# at m = 11 (Python 3.11, Intel Xeon, coordinates p/q with |p|, q <= 16).
#
# A check needs four sums of the same bodies, and `sum_abs_det3_bezout` and
# `sum_abs_det3_af_square` take all four from one kernel call.  On the sweep
# each pivot projects and sorts the three classes once: a bezout check
# projects 2.5 m^2 images instead of 4.5 m^2, an af-square check 3 m^2
# instead of 7 m^2.  The bezout kernel picks by size too: on its loop each
# cross product is taken once and dotted with every class it pairs with,
# and fuzz at its default m_max = 6 never leaves it (always sweeping made
# 3000 default bezout fuzz trials 1.12x slower).  The af-square kernel has
# one path, the sweep, at every size: on 3000 af-square draws at `report`'s
# settings (up to 6 generators a body, coefficient bound 12) it took
# 0.78-0.81x the loop's kernel time.
#
# The lemma check's four sums are a bezout check's with B = [e1] and
# C = [e2], and its matrix is small in fuzz.  Below SWEEP_MIN
# `sum_abs_det3_lemma` runs its own loop over index triples: the two pair
# sums are coordinates of the cross product g_i x g_j that combos dots with
# each later g_k, and the last sum is that of |z_i|, so the unit classes cost
# no product.  From SWEEP_MIN on it is the bezout sweep.
#
# Every sweep runs in the calling process.  Splitting its pivots across
# forked helpers gained nothing on a 2-vCPU Intel Xeon whose second CPU was
# shared: a bezout check took 0.99-1.09x the serial time at m = 24 to 96
# (Python 3.11, in process, interleaved).

# Smallest size at which a sum sweeps instead of looping: the length of ga
# for pairs and combos, the middle length of the three lists for triples
# (both kernels pivot over the shortest list), the longest list for the
# four sums of a bezout check and the column count for a lemma check.  An
# af-square check always sweeps.
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
    parallels; only the runs of two or more are touched.  `_three_classes2`
    calls it only when its own float-key order leaves a run out of exact
    order; `witness._zonogon` calls it on every zonogon.
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

    The items are upper half-plane vectors (key, x, y, tag), sorted here by
    the float key.  int / int division is correctly rounded and rounding is
    monotone, so distinct keys are in exact angular order; a run of equal
    keys is in it when no neighbour pair u, v in the run has u x v < 0, which
    the pass checks as it goes.  At the first such pair the items go through
    `_angular_order` and the pass runs again.  In angular order every u
    before v has u x v >= 0, so the sum of |u x v| over pairs within A is
    that of P_A(v) x v over the A items v, with P_A(v) the sum of the A items
    before v.  Across two classes X, Y, |x x y| is x x y for the x before y
    and y x x for the x after it, so each y adds (2 P_X(y) - T_X) x y, with
    T_X the sum of all of X; the T_X part is taken once, against the sum of
    all of Y, at the end.  Parallel vectors add 0 in either order.  All four
    sums come from one pass.
    """
    items.sort(key=_key)
    aa = ab = ac = bc = 0
    ax = ay = bx = by = cx = cy = 0
    lk = lx = ly = None
    for k, x, y, tag in items:
        if k == lk and lx * y < ly * x:
            return _three_classes2(_angular_order(items))
        lk, lx, ly = k, x, y
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


def _pivots(g, a=None, b=(), c=()):
    """The (pivot, classes) pairs (g[i], (A, b, c)) of a sweep, over the indices i of g.

    B and C are the lists b and c for every pivot, and A is the list a, or
    the g after the pivot, g[i + 1:], when a is None.  Each pair is built
    when read, so a kernel holds one slice g[i + 1:] at a time, where a list
    of the pairs would hold all m^2 / 2 references of the slices at once.
    """
    for i, p in enumerate(g):
        yield p, (g[i + 1:] if a is None else a, b, c)


def _class_sweep(pivoted):
    """Sums of |det(p, u, v)| over (p, (A, B, C)) pairs, by the classes of u and v.

    Returns the four totals over pairs u, v from A x A (i < j), A x B, A x C
    and B x C.  Each pivot projects its three classes once and sorts them
    once, unless `_three_classes2` finds a run of equal keys out of exact
    order; an empty class costs nothing.
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
    return kernel(_pivots(ga, (), gb, gc))[3]


def sum_abs_det3_pairs(ga, gb):
    """Sum of |det(a_i, a_j, b)| over pairs i < j from ga and all b in gb."""
    # The loop pivots over ga, which takes each a_i x a_j once; the sweep
    # pivots over gb, which sorts ga once per b.
    if len(ga) < SWEEP_MIN:
        return _class_loop((a, ((), ga[i + 1:], gb)) for i, a in enumerate(ga))[3]
    return _class_sweep(_pivots(gb, ga))[0]


def sum_abs_det3_combos(g):
    """Sum of |det(a_i, a_j, a_k)| over index triples i < j < k."""
    kernel = _class_loop if len(g) < SWEEP_MIN else _class_sweep
    return kernel(_pivots(g))[0]


def sum_abs_det3_bezout(ga, gb, gc):
    """The four sums of a bezout check: combos(A), pairs(A, B), pairs(A, C), triples(A, B, C).

    Pivoting over A with the classes (the A after the pivot, B, C) gives all
    four at once: the A x A pairs after each pivot make combos(A), the A x B
    and A x C pairs the two pair sums, and the B x C pairs the triples.
    """
    kernel = _class_loop if max(len(ga), len(gb), len(gc)) < SWEEP_MIN else _class_sweep
    return kernel(_pivots(ga, None, gb, gc))


def sum_abs_det3_af_square(ga, gb, gc, gd):
    """The four sums of an af-square check: pairs(A, D) and triples (A, B, D), (A, C, D), (B, C, D).

    Pivoting over D with the classes (A, B, C) gives all four at once, from
    one sweep at every size: on the check's own small draws the sweep is the
    faster kernel too (see the kernel comment).
    """
    return _class_sweep(_pivots(gd, ga, gb, gc))


def sum_abs_det3_lemma(g):
    """The four sums of a lemma check: `sum_abs_det3_bezout(g, [e1], [e2])`.

    That is combos(g), the sums of |y_i z_j - z_i y_j| and |x_i z_j - z_i x_j|
    over pairs i < j, and the sum of |z_i|.  Below SWEEP_MIN one loop over
    index triples takes each w = g_i x g_j once: |w_x| and |w_y| are the two
    pair terms, and w . g_k each later determinant.
    """
    m = len(g)
    if m >= SWEEP_MIN:
        return sum_abs_det3_bezout(g, ((1, 0, 0),), ((0, 1, 0),))
    combos = pairs_yz = pairs_xz = zsum = 0
    for i in range(m):
        ux, uy, uz = g[i]
        zsum += uz if uz >= 0 else -uz
        for j in range(i + 1, m):
            vx, vy, vz = g[j]
            wx, wy, wz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
            pairs_yz += wx if wx >= 0 else -wx
            pairs_xz += wy if wy >= 0 else -wy
            for k in range(j + 1, m):
                px, py, pz = g[k]
                d = wx * px + wy * py + wz * pz
                combos += d if d >= 0 else -d
    return combos, pairs_yz, pairs_xz, zsum


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
# O(m^2 log m) through one sweep for its four sums: at m = 2000 check bezout
# took 10.2 s and check af-square 11.4 s (coordinates p/q with |p|, q <= 16).
# A file whose images collide at every pivot, so that every pivot goes
# through `_angular_order` and a second pass, took 13.6 s and 18.6 s
# (2000 generators (2^30 + i, 1, 0) beside 2000 random ones; Python 3.11,
# 2-vCPU Intel Xeon, medians of 4 runs).
MAX_GENERATORS = 2000

# Most bits one body file may clear to: its generator count times the bit
# length of its common scale L plus that of its largest numerator, a bound on
# the bit length of every integer `int_scaled` makes of it.  Kernel cost grows
# with digits as well as with generators: `check_bezout` took 7.4 s on three
# bodies of 50 generators of 4000-digit integers.  Under this limit the
# generator cap is the slowest input: on 2000 generators of 31-bit integers
# (64,000 bits) check bezout took 12.6 s and check af-square 16.1 s, against
# 10.2 s and 11.4 s on the cap's p/q with |p|, q <= 16 (50,000 bits), timed
# alongside (Python 3.11, 2-vCPU Intel Xeon, medians of 4 runs).
MAX_CLEARED_BITS = 2 ** 16

# A line of a text file: a run between the line boundaries of str.splitlines.
# Scanning runs lazily keeps an oversized file from being split whole.  Runs
# of boundaries ("\r\n", blank lines) match nothing, as blank lines are skipped.
_LINE_RE = re.compile(r"[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+")


def parse_rows(text: str, kind: str) -> tuple[str, list[list[tuple[int, int]]], int]:
    """The header line, the rows of a `kind` file ("zonotope", ...), and their scale.

    Each literal becomes its reduced (numerator, denominator) pair, and the
    scale is the lcm of the denominators: the L of `int_scaled`.  Reading
    stops with an error as soon as the rows hold more than
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
    return header, rows, _read_literals(rows, kind, max(1, -(-literals // 3)))


def _read_literals(rows: list[list], kind: str = "", generators: int = 0) -> int:
    """Replace each rational literal in rows by its reduced (numerator, denominator > 0) pair.

    Returns the lcm of the denominators.  This is the one literal rule, for
    files and flags alike: surrounding whitespace is ignored, and the
    refusals come literal by literal, in order of precedence: an invalid
    literal, an integer of more digits than the interpreter's limit, a zero
    denominator.  The `generators` of a `kind` file also share
    MAX_CLEARED_BITS: reading stops at the first literal that takes the
    bit length of the scale plus that of the largest numerator past
    MAX_CLEARED_BITS // generators, before the scale grows further.
    """
    limit = sys.get_int_max_str_digits()
    budget = MAX_CLEARED_BITS // generators if generators else inf
    fullmatch = _RATIONAL_RE.fullmatch
    scale, top = 1, 0
    for row in rows:
        for i, text in enumerate(row):
            literal = text.strip()
            match = fullmatch(literal)
            if match is None:
                raise ValueError(f"invalid rational literal: {text!r}")
            num, den = match.groups()
            # int() refuses more digits than the interpreter's limit (0 is no
            # limit), with advice meant for programmers; name the limit in
            # the literal's terms instead.
            if limit and len(literal) > limit:
                digits = max(len(num.lstrip("+-")), len(den or ""))
                if digits > limit:
                    raise ValueError(f"integer in rational literal has {digits} digits, "
                                     f"more than the limit ({limit} digits)")
            n, d = int(num), 1
            if den is not None:
                d = int(den)
                if not d:
                    raise ValueError(f"zero denominator in rational literal: {text!r}")
                g = gcd(n, d)
                n, d = n // g, d // g
            row[i] = n, d
            if scale % d or abs(n) > top:
                scale, top = lcm(scale, d), max(top, abs(n))
                if scale.bit_length() + top.bit_length() > budget:
                    raise ValueError(f"{kind}: {generators} generators cleared to integers "
                                     f"need more than {budget} bits each; at most "
                                     f"{MAX_CLEARED_BITS} bits per file (generators times bits)")
    return scale


def render_rows(header: str, rows: Iterable[Iterable[Fraction]]) -> str:
    """The header line, then one line of canonical rationals per row."""
    lines = [header]
    for row in rows:
        lines.append(" ".join(render_rational(q) for q in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> "Zonotope3":
    """A 3 x n matrix file as the body of its n columns, in order.

    The body is built from its integer view, the reader's reduced pairs at
    their lcm scale, as `parse_zonotope` builds one; no `Fraction` is made
    until its columns are read.
    """
    from .zonotope import _from_pairs  # zonotope imports this module

    header, rows, scale = parse_rows(text, "matrix")
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
    elif len(rows) != 3:
        raise ValueError(f"expected 3 matrix rows, got {len(rows)}")
    for row in rows:
        if len(row) != n:
            raise ValueError(f"matrix: expected {n} entries per row, got {len(row)}")
    return _from_pairs(zip(*rows), scale)


def render_matrix(columns: "Zonotope3") -> str:
    """The matrix file of a body's columns, in order: header, then the x, y and z rows."""
    return render_rows(f"matrix 3 {len(columns)}", zip(*columns))
