"""The computable reduction steps behind the zonotope inequality.

The generator-matrix inequality compares f(x, y) against g(x) * g(y), where
g is piecewise affine in x (affine on each cell of the slope-sorting
arrangement of x_i / z_i) and f is convex in x and in y separately.  Such an
inequality only needs checking on the arrangement's generating points: the
vectors whose slope sequence x_i / z_i takes at most two distinct values.
This module implements those two-valued points, the closed forms both sides
collapse to there, the four aggregate weights s1..s4 the closed forms depend
on, and the exact square identity that settles the inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .numeric import E1, E2, Vec3, sum_abs_det2_pairs, vec3
from .verify import check_lemma_matrix
from .zonotope import Zonotope3

RatVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class TwoValuePattern:
    """A two-valued slope assignment: slope `lo` on the marked indices, `hi` off them.

    Either side of the split may be empty, and lo may equal hi.
    """

    membership: tuple[bool, ...]
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class SStats:
    """The four aggregate weights of |z_i| over the common refinement of two splits."""

    s1: Fraction
    s2: Fraction
    s3: Fraction
    s4: Fraction

    def __post_init__(self):
        for name in ("s1", "s2", "s3", "s4"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


@dataclass(frozen=True)
class BraidCell:
    """A sort order of the slopes x_i / z_i: sigma lists 1-based indices ascending."""

    sigma: tuple[int, ...]


def _require_same_length(*vectors) -> int:
    lengths = {len(v) for v in vectors}
    if len(lengths) > 1:
        raise ValueError(f"vector length mismatch: {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def generating_point(pattern: TwoValuePattern, z: Sequence[Fraction]) -> RatVector:
    """The vector x with x_i = lo*z_i on marked indices and hi*z_i elsewhere."""
    _require_same_length(pattern.membership, z)
    return tuple(pattern.lo * zi if inside else pattern.hi * zi
                 for inside, zi in zip(pattern.membership, z))


def g_direct(x: Sequence[Fraction], z: Sequence[Fraction]) -> Fraction:
    """Sum of |x_i z_j - x_j z_i| over index pairs i < j."""
    _require_same_length(x, z)
    return Fraction(sum_abs_det2_pairs(list(x), list(z)))


def g_closed_form(pattern: TwoValuePattern, z: Sequence[Fraction]) -> Fraction:
    """|lo - hi| * (sum of |z_i| on the marked side) * (sum of |z_i| off it).

    Equals g_direct at the corresponding two-valued point: pairs within one
    side are proportional and vanish, cross pairs each contribute
    |lo - hi| |z_i| |z_j|.
    """
    _require_same_length(pattern.membership, z)
    inside = sum(abs(zi) for sel, zi in zip(pattern.membership, z) if sel)
    outside = sum(abs(zi) for sel, zi in zip(pattern.membership, z) if not sel)
    return abs(pattern.lo - pattern.hi) * Fraction(inside) * Fraction(outside)


def s_stats(pattern_e: Sequence[bool], pattern_f: Sequence[bool],
            z: Sequence[Fraction]) -> SStats:
    """Aggregate |z_i| over the four parts cut out by two boolean splits."""
    _require_same_length(pattern_e, pattern_f, z)
    sums = [Fraction(0)] * 4
    for in_e, in_f, zi in zip(pattern_e, pattern_f, z):
        part = (0 if in_e else 2) + (0 if in_f else 1)
        sums[part] += abs(zi)
    return SStats(*sums)


def f_direct(x: Sequence[Fraction], y: Sequence[Fraction],
             z: Sequence[Fraction]) -> Fraction:
    """(sum over i<j<k of |det3 of columns (x_i,y_i,z_i)|) * (sum of |z_i|)."""
    _require_same_length(x, y, z)
    return check_lemma_matrix(Zonotope3(tuple(map(Vec3, x, y, z)))).lhs


def _e3_e1(s: SStats) -> Fraction:
    """e3(s) * e1(s): elementary symmetric polynomials of degree 3 and 1 in s1..s4."""
    s1, s2, s3, s4 = s.s1, s.s2, s.s3, s.s4
    e3 = s2 * s3 * s4 + s1 * s3 * s4 + s1 * s2 * s4 + s1 * s2 * s3
    return e3 * (s1 + s2 + s3 + s4)


def f_closed_form(s: SStats, dl: Fraction, dm: Fraction) -> Fraction:
    """Value of the triple-minor side at a pair of two-valued points.

    dl and dm are the absolute slope gaps of the two patterns.  Each surviving
    determinant is |z_i z_j z_k| * dl * dm (one index from each of three
    distinct parts), so the sum collapses to dl * dm * e3(s) * e1(s).
    """
    if dl < 0:
        raise ValueError(f"dl must be nonnegative, got {dl}")
    if dm < 0:
        raise ValueError(f"dm must be nonnegative, got {dm}")
    return dl * dm * _e3_e1(s)


def slack_identity(s: SStats) -> tuple[Fraction, Fraction]:
    """The exact identity settling the inequality at generating points.

    Returns (slack, square) with
      slack  = (s1+s2)(s3+s4)(s1+s3)(s2+s4) - e3(s)*e1(s)
      square = (s1*s4 - s2*s3)^2
    and slack == square identically, which is the whole proof that the
    two-valued case holds, with equality exactly when s1*s4 == s2*s3.
    """
    s1, s2, s3, s4 = s.s1, s.s2, s.s3, s.s4
    prod4 = (s1 + s2) * (s3 + s4) * (s1 + s3) * (s2 + s4)
    return prod4 - _e3_e1(s), (s1 * s4 - s2 * s3) ** 2


def braid_cell_of(x: Sequence[Fraction], z: Sequence[Fraction]) -> BraidCell:
    """The slope-sorting cell containing x: indices ordered by x_i / z_i.

    Ties break by ascending original index, so boundary points get a unique
    cell.  Requires all z_i nonzero.
    """
    _require_same_length(x, z)
    for i, zi in enumerate(z):
        if zi == 0:
            raise ValueError(f"z[{i + 1}] = 0: slopes undefined")
    order = sorted(range(len(x)), key=lambda i: x[i] / z[i])
    return BraidCell(tuple(i + 1 for i in order))


def biconvexity_probe(x0: Sequence[Fraction], x1: Sequence[Fraction],
                      y: Sequence[Fraction], z: Sequence[Fraction]) -> bool:
    """Exact midpoint-convexity check of the triple-minor side in its first block.

    F(x) = f_direct(x, y, z) is a conic combination of absolute values of
    linear forms in x, hence convex; the probe must always return True.
    """
    _require_same_length(x0, x1, y, z)
    mid = tuple((a + b) / 2 for a, b in zip(x0, x1))
    return f_direct(mid, y, z) * 2 <= f_direct(x0, y, z) + f_direct(x1, y, z)


def extremal_config(s: SStats, lo: Fraction, hi: Fraction, lo2: Fraction,
                    hi2: Fraction) -> tuple[Zonotope3, Zonotope3, Zonotope3]:
    """The 4-generator family on which the constant 3/2 is attained.

    A has generators s_i * (xv, yv, 1) for the four combinations of
    xv in {lo, hi} and yv in {lo2, hi2}; B and C are the unit segments along
    e1 and e2.  Zero-weight generators are omitted.  Feeding the result to
    check_bezout always holds, with equality exactly when s1*s4 == s2*s3.
    """
    weights = (s.s1, s.s2, s.s3, s.s4)
    values = ((lo, lo2), (lo, hi2), (hi, lo2), (hi, hi2))
    gens = []
    for w, (xv, yv) in zip(weights, values):
        if w != 0:
            gens.append(vec3(w * xv, w * yv, w))
    return Zonotope3(tuple(gens)), Zonotope3((E1,)), Zonotope3((E2,))
