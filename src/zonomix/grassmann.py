"""Pluecker coordinates of 3 x n matrices and the quadratic minor inequality.

The vector of all 3 x 3 minors of a 3 x n matrix, indexed by 3-subsets of
column indices in lexicographic order, determines a point whose componentwise
absolute value carries all the minor sums the zonotope inequality compares.
`check_gp3` decides whether a vector is realizable, that is the minor vector
of some matrix; appending the two unit columns e1, e2 to a generator matrix
turns the zonotope inequality into a quadratic inequality in these
coordinates.

A matrix is the body of its columns, a `Zonotope3`, as everywhere in the
package.  Its minor vector is integers with one scale, the cube of the
body's (`Zonotope3.scaled`), and every check reads those integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .numeric import det3, render_rational
from .verify import IneqReport
from .zonotope import Zonotope3

Subset3 = tuple[int, int, int]

# Largest column count `pluecker` accepts.  check_gp3 tests any vector with
# C(n,3) integer determinants, O(n^3): 0.2 ms at n = 12 and 0.6 ms at
# n = 16, realizable or not (best of 30, Python 3.11.7, 2-core Intel Xeon),
# so its cost is far from binding this cap.
MAX_COLUMNS = 16


@dataclass(frozen=True)
class PlueckerVector:
    """All C(n,3) minors of a 3 x n matrix: coords[t] / scale, t an ascending 1-based triple."""

    n: int
    coords: dict[Subset3, int]
    scale: int

    def __post_init__(self):
        expected = list(combinations(range(1, self.n + 1), 3))
        if sorted(self.coords) != expected:
            raise ValueError(f"coords must carry exactly the {len(expected)} "
                             f"3-subsets of 1..{self.n}")


def pluecker(columns: Zonotope3) -> PlueckerVector:
    """Minor vector of the 3 x n matrix whose columns generate this body, 3 <= n <= MAX_COLUMNS.

    The minors are taken on the body's integer view: each column is its
    integer triple over the scale L, so each integer determinant is L^3
    times the rational minor, and L^3 is the scale.
    """
    cols, scale = columns.scaled
    n = len(cols)
    if n < 3:
        raise ValueError(f"need at least 3 columns, got {n}")
    if n > MAX_COLUMNS:
        raise ValueError(f"need at most {MAX_COLUMNS} columns, got {n}")
    coords = {(i + 1, j + 1, k + 1): det3(cols[i], cols[j], cols[k])
              for i, j, k in combinations(range(n), 3)}
    return PlueckerVector(n, coords, scale ** 3)


def abs_map(p: PlueckerVector) -> PlueckerVector:
    """Componentwise absolute value, at the same scale; idempotent."""
    return PlueckerVector(p.n, {k: abs(v) for k, v in p.coords.items()}, p.scale)


def check_gp3(p: PlueckerVector) -> list[Subset3]:
    """The triples at which p fails the affine-chart test, in lexicographic order.

    The list is empty exactly when p is realizable: when some 3 x n matrix
    has p as its minor vector.  Write q[i,j,k] for distinct indices in any
    order: the coordinate of the sorted triple, negated when the order is an
    odd permutation of it.  With q_abc the lexicographically first nonzero
    coordinate and C_j = (q[j,b,c], q[a,j,c], q[a,b,j]), p fails the test at
    each triple ijk where det(C_i, C_j, C_k) differs from q_abc^2 q_ijk.
    Proof: for any matrix M of q, Cramer's rule gives M_abc^-1 M the columns
    C_j / q_abc, whose minors are q / q_abc; conversely C, one row divided
    by q_abc^2, is a matrix of q.  The zero vector is realizable.

    The test is homogeneous, so it runs on the integer coordinates: C(n,3)
    integer determinants, O(n^3).  A realizable vector also satisfies every
    quadratic exchange relation, and the relations of 6 or more columns
    vanish on some vectors that fail the test (at n = 6, on any vector whose
    coordinates with one index are all 0).
    """
    q = p.coords
    base = min((t for t, v in q.items() if v), default=None)
    if base is None:
        return []
    a, b, c = base
    cols = [None] + [(_signed(q, j, b, c), _signed(q, a, j, c), _signed(q, a, b, j))
                     for j in range(1, p.n + 1)]
    square = q[base] * q[base]
    return [(i, j, k) for i, j, k in combinations(range(1, p.n + 1), 3)
            if det3(cols[i], cols[j], cols[k]) != square * q[i, j, k]]


def _signed(q: dict[Subset3, int], i: int, j: int, k: int) -> int:
    """q[i,j,k] for indices in any order: 0 on a repeat, else the sorted
    triple's coordinate times the sign of the sorting permutation."""
    if i == j or j == k or i == k:
        return 0
    sign = 1
    if i > j:
        i, j, sign = j, i, -sign
    if j > k:
        j, k, sign = k, j, -sign
    if i > j:
        i, j, sign = j, i, -sign
    return sign * q[i, j, k]


def check_quad_ineq(q: PlueckerVector) -> IneqReport:
    """The zonotope inequality as a quadratic in nonnegative minor coordinates.

    For q with n = m + 2 columns (m generators then the two unit columns):

        (sum of q_I over 3-subsets I of 1..m) * (sum over i of q_{i,m+1,m+2})
            <= (sum over 2-subsets S of q_{S+(m+1,)}) * (same with m+2).

    Holds whenever q is the componentwise absolute value of a realizable
    minor vector.  Both sides are sums of integer coordinates, each product
    over the scale squared.
    """
    m = q.n - 2
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    coords = q.coords
    for key, value in coords.items():
        if value < 0:
            raise ValueError(f"negative coordinate at {key}: {Fraction(value, q.scale)}")
    body = sum(coords[idx] for idx in combinations(range(1, m + 1), 3))
    seg = sum(coords[i, m + 1, m + 2] for i in range(1, m + 1))
    side1 = sum(coords[i, j, m + 1] for i, j in combinations(range(1, m + 1), 2))
    side2 = sum(coords[i, j, m + 2] for i, j in combinations(range(1, m + 1), 2))
    square = q.scale ** 2
    return IneqReport(body * seg, square, side1 * side2, square)


def render_pluecker_csv(p: PlueckerVector) -> str:
    """CSV rows "i,j,k,value" in subset order; the one place a minor becomes a `Fraction`."""
    lines = [f"{i},{j},{k},{render_rational(Fraction(p.coords[i, j, k], p.scale))}"
             for (i, j, k) in combinations(range(1, p.n + 1), 3)]
    return "\n".join(lines) + "\n"
