"""Pluecker coordinates of 3 x n matrices and the quadratic minor inequality.

The vector of all 3 x 3 minors of a 3 x n matrix, indexed by 3-subsets of
column indices in lexicographic order, determines a point whose componentwise
absolute value carries all the minor sums the zonotope inequality compares.
Realizable vectors satisfy the quadratic exchange relations checked here;
appending the two unit columns e1, e2 to a generator matrix turns the
zonotope inequality into a quadratic inequality in these coordinates.

A matrix is the body of its columns, a `Zonotope3`, as everywhere in the
package.  Its minor vector is integers with one scale, the cube of the
body's (`Zonotope3.scaled`), and every check reads those integers; an
exchange residual is an integer over the scale squared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .numeric import det3, render_rational
from .verify import IneqReport
from .zonotope import Zonotope3

Subset3 = tuple[int, int, int]

# Largest column count `pluecker` accepts.  check_gp3 settles a realizable
# vector, which every `pluecker` output is, with C(n,3) integer determinants
# in O(n^3), but still returns its C(n,2) * C(n-2,4) integer zeros as one
# list, 120,120 at n = 16 and 813,960 at n = 21: 0.3 ms at n = 12 and 0.5 ms
# at n = 16 with the list.  Only a vector that fails that test is walked
# relation by relation, O(n^6): 6 ms at n = 12, 46 ms at 16 (best of 7,
# Python 3.11.7, 2-core Intel Xeon).
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


def check_gp3(p: PlueckerVector) -> list[int]:
    """Residuals of the quadratic exchange relations, one per (2-subset, 4-subset) pair.

    Write q[i,j,k] for distinct indices in any order: the coordinate of the
    sorted triple, negated when the order is an odd permutation of it.  For
    each 2-subset S and each disjoint 4-subset T = {t1 < t2 < t3 < t4},

        q[S+t1] q[t2,t3,t4] - q[S+t2] q[t1,t3,t4]
            + q[S+t3] q[t1,t2,t4] - q[S+t4] q[t1,t2,t3]

    vanishes on every minor vector of an actual matrix.  Returns the residuals
    on the integer coordinates, C(n,2) * C(n-2,4) of them, ordered by S and
    then by T, both lexicographically; a residual r stands for r / scale^2.
    Nonempty only for n >= 6.

    A vector that passes the affine-chart test (`_chart_realizable`, O(n^3))
    is realizable, so it gets that many integer zeros without a relation
    being visited.  Test: with q_abc the lexicographically first nonzero
    coordinate and C_j = (q[j,b,c], q[a,j,c], q[a,b,j]), every
    det(C_i, C_j, C_k) must equal q_abc^2 q_ijk.  Proof: for any matrix M of q, Cramer's rule gives
    M_abc^-1 M the columns C_j / q_abc; conversely C, one row divided by
    q_abc^2, is one.

    Both the test and the relations are homogeneous, so they run on the
    integer coordinates.  A vector that fails the test is not realizable,
    but its residuals may still all vanish (at n = 6, when every coordinate
    with one index is 0, so is every residual).  It is walked relation by
    relation, O(n^6).
    """
    n = p.n
    if n < 6:
        return []
    if _chart_realizable(n, p.coords):
        return [0] * (comb(n, 2) * comb(n - 2, 4))
    return _relation_residuals(n, p.coords)


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


def _chart_realizable(n: int, q: dict[Subset3, int]) -> bool:
    """Whether the integer minor vector q (ascending triples as keys) is the
    minor vector of some 3 x n matrix, by the chart test of `check_gp3`; the
    zero vector is."""
    base = min((t for t, v in q.items() if v), default=None)
    if base is None:
        return True
    a, b, c = base
    cols = [None] + [(_signed(q, j, b, c), _signed(q, a, j, c), _signed(q, a, b, j))
                     for j in range(1, n + 1)]
    square = q[base] * q[base]
    return all(det3(cols[i], cols[j], cols[k]) == square * v for (i, j, k), v in q.items())


def _relation_residuals(n: int, q: dict[Subset3, int]) -> list[int]:
    """Every exchange-relation residual of the integer vector q (ascending
    triples as keys), as `check_gp3` orders them."""
    indices = range(1, n + 1)
    # The signed cofactor of each S + t_k, one tuple per 4-subset T.
    cofactors = {(t1, t2, t3, t4): (q[t2, t3, t4], -q[t1, t3, t4], q[t1, t2, t4], -q[t1, t2, t3])
                 for t1, t2, t3, t4 in combinations(indices, 4)}
    residuals = []
    for a, b in combinations(indices, 2):
        row = [0] + [_signed(q, a, b, t) for t in indices]
        for t in combinations([i for i in indices if i != a and i != b], 4):
            c1, c2, c3, c4 = cofactors[t]
            residuals.append(row[t[0]] * c1 + row[t[1]] * c2 + row[t[2]] * c3 + row[t[3]] * c4)
    return residuals


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
