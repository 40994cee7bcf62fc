"""Pluecker coordinates of 3 x n matrices and the quadratic minor inequality.

The vector of all 3 x 3 minors of a 3 x n matrix, indexed by 3-subsets of
column indices in lexicographic order, determines a point whose componentwise
absolute value carries all the minor sums the zonotope inequality compares.
Realizable vectors satisfy the quadratic exchange relations checked here;
appending the two unit columns e1, e2 to a generator matrix turns the
zonotope inequality into a quadratic inequality in these coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Sequence

from .numeric import Vec3, det3, int_scaled, render_rational
from .verify import IneqReport, ineq_report

Subset3 = tuple[int, int, int]

# Largest column count `pluecker` accepts.  check_gp3 settles a realizable
# vector, which every `pluecker` output is, with C(n,3) integer determinants
# in O(n^3): 0.5-0.7 ms at n = 12 and 1.5-2.0 ms at n = 16 (Python 3.11.7,
# 2-core Intel Xeon).  It still returns its C(n,2) * C(n-2,4) zeros as one
# list, 120,120 at n = 16 and 813,960 at n = 21.  Only a vector that fails
# that test is walked relation by relation, O(n^6): 9-15 ms at n = 12 and
# about 70 ms at n = 16.
MAX_COLUMNS = 16

ZERO = Fraction(0)


@dataclass(frozen=True)
class PlueckerVector:
    """All C(n,3) minors of a 3 x n matrix, keyed by ascending 1-based index triples."""

    n: int
    coords: dict[Subset3, Fraction]

    def __post_init__(self):
        expected = list(combinations(range(1, self.n + 1), 3))
        if sorted(self.coords) != expected:
            raise ValueError(f"coords must carry exactly the {len(expected)} "
                             f"3-subsets of 1..{self.n}")


def pluecker(columns: Sequence[Vec3]) -> PlueckerVector:
    """Minor vector of the 3 x n matrix with these columns, 3 <= n <= MAX_COLUMNS.

    The minors are taken on cleared integers: `int_scaled` multiplies the
    columns by L, the lcm of their denominators, so each integer
    determinant is L^3 times the rational minor and becomes one `Fraction`.
    """
    n = len(columns)
    if n < 3:
        raise ValueError(f"need at least 3 columns, got {n}")
    if n > MAX_COLUMNS:
        raise ValueError(f"need at most {MAX_COLUMNS} columns, got {n}")
    cols, scale = int_scaled(columns)
    cube = scale ** 3
    coords = {(i + 1, j + 1, k + 1): Fraction(det3(cols[i], cols[j], cols[k]), cube)
              for i, j, k in combinations(range(n), 3)}
    return PlueckerVector(n=n, coords=coords)


def abs_map(p: PlueckerVector) -> PlueckerVector:
    """Componentwise absolute value; idempotent."""
    return PlueckerVector(n=p.n, coords={k: abs(v) for k, v in p.coords.items()})


def check_gp3(p: PlueckerVector) -> list[Fraction]:
    """Residuals of the quadratic exchange relations, one per (2-subset, 4-subset) pair.

    Write q[i,j,k] for distinct indices in any order: the coordinate of the
    sorted triple, negated when the order is an odd permutation of it.  For
    each 2-subset S and each disjoint 4-subset T = {t1 < t2 < t3 < t4},

        q[S+t1] q[t2,t3,t4] - q[S+t2] q[t1,t3,t4]
            + q[S+t3] q[t1,t2,t4] - q[S+t4] q[t1,t2,t3]

    vanishes on every minor vector of an actual matrix.  Returns the residual
    values, C(n,2) * C(n-2,4) of them, ordered by S and then by T, both
    lexicographically.  Nonempty only for n >= 6.

    A vector that passes the affine-chart test (`_chart_realizable`, O(n^3))
    is realizable, so it gets that many zeros without a relation being
    visited.  Test: with q_abc the lexicographically first nonzero coordinate
    and C_j = (q[j,b,c], q[a,j,c], q[a,b,j]), every det(C_i, C_j, C_k) must
    equal q_abc^2 q_ijk.  Proof: for any matrix M of q, Cramer's rule gives
    M_abc^-1 M the columns C_j / q_abc; conversely C, one row divided by
    q_abc^2, is one.

    A vector that fails the test is not realizable, but its residuals may
    still all vanish (at n = 6, when every coordinate with one index is 0, so
    is every residual).  It is walked relation by relation, O(n^6), on
    cleared integers: every coordinate is multiplied by L, the lcm of their
    denominators (for a `pluecker` vector L divides the cube of the matrix's
    scale), so an integer residual r stands for r / L^2.
    """
    n = p.n
    if n < 6:
        return []
    scale = lcm(*(v.denominator for v in p.coords.values()))
    q = {t: v.numerator * (scale // v.denominator) for t, v in p.coords.items()}
    if _chart_realizable(n, q):
        return [ZERO] * (comb(n, 2) * comb(n - 2, 4))
    return _relation_residuals(n, q, scale * scale)


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


def _relation_residuals(n: int, ints: dict[Subset3, int], denominator: int) -> list[Fraction]:
    """Every exchange-relation residual of the cleared vector `ints`, as
    `check_gp3` orders them, each divided by `denominator`."""
    # S is an ascending pair and T ascending, so S + t is the sorted triple,
    # its cyclic shift (j, k, i) or the odd (i, k, j): only those are stored.
    q = {}
    for (i, j, k), c in ints.items():
        q[i, j, k] = q[j, k, i] = c
        q[i, k, j] = -c
    indices = range(1, n + 1)
    # The signed cofactor of each S + t_k, one tuple per 4-subset T.
    cofactors = {(t1, t2, t3, t4): (q[t2, t3, t4], -q[t1, t3, t4], q[t1, t2, t4], -q[t1, t2, t3])
                 for t1, t2, t3, t4 in combinations(indices, 4)}
    residuals = []
    for a, b in combinations(indices, 2):
        row = [0] + [q[a, b, t] if t != a and t != b else 0 for t in indices]
        for t in combinations([i for i in indices if i != a and i != b], 4):
            c1, c2, c3, c4 = cofactors[t]
            r = row[t[0]] * c1 + row[t[1]] * c2 + row[t[2]] * c3 + row[t[3]] * c4
            residuals.append(Fraction(r, denominator) if r else ZERO)
    return residuals


def check_quad_ineq(q: PlueckerVector) -> IneqReport:
    """The zonotope inequality as a quadratic in nonnegative minor coordinates.

    For q with n = m + 2 columns (m generators then the two unit columns):

        (sum of q_I over 3-subsets I of 1..m) * (sum over i of q_{i,m+1,m+2})
            <= (sum over 2-subsets S of q_{S+(m+1,)}) * (same with m+2).

    Holds whenever q is the componentwise absolute value of a realizable
    minor vector.
    """
    m = q.n - 2
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    for key, value in q.coords.items():
        if value < 0:
            raise ValueError(f"negative coordinate at {key}: {value}")
    coords = q.coords
    body = sum((coords[idx] for idx in combinations(range(1, m + 1), 3)), Fraction(0))
    seg = sum((coords[(i, m + 1, m + 2)] for i in range(1, m + 1)), Fraction(0))
    side1 = sum((coords[(i, j, m + 1)] for i, j in combinations(range(1, m + 1), 2)),
                Fraction(0))
    side2 = sum((coords[(i, j, m + 2)] for i, j in combinations(range(1, m + 1), 2)),
                Fraction(0))
    return ineq_report(body * seg, side1, side2)


def render_pluecker_csv(p: PlueckerVector) -> str:
    """CSV rows "i,j,k,value" in lexicographic subset order."""
    lines = [f"{i},{j},{k},{render_rational(p.coords[(i, j, k)])}"
             for (i, j, k) in combinations(range(1, p.n + 1), 3)]
    return "\n".join(lines) + "\n"
