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
from math import lcm

from .numeric import Mat3xM, det3, int_scaled, render_rational
from .verify import IneqReport, ineq_report

Subset3 = tuple[int, int, int]

# Largest column count `pluecker` accepts.  check_gp3 walks C(n,2) * C(n-2,4)
# exchange relations on cleared integers, at about 0.4 us each for integer
# entries and 0.9 us for the rationals of `random_vec3(rng, 16)` (Python 3.11,
# Intel Xeon): 13,860 (5-13 ms) at n = 12 and 120,120 (50-105 ms) at n = 16,
# but 813,960 at n = 21 and O(n^6) beyond, every residual held in one list.
MAX_COLUMNS = 16


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


def pluecker(mat: Mat3xM) -> PlueckerVector:
    """Minor vector of a 3 x n matrix, 3 <= n <= MAX_COLUMNS.

    The minors are taken on cleared integers: `int_scaled` multiplies the
    columns by L, the lcm of their denominators, so each integer
    determinant is L^3 times the rational minor and becomes one `Fraction`.
    """
    n = mat.m
    if n < 3:
        raise ValueError(f"need at least 3 columns, got {n}")
    if n > MAX_COLUMNS:
        raise ValueError(f"need at most {MAX_COLUMNS} columns, got {n}")
    cols, scale = int_scaled(mat.columns)
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
    lexicographically; every one is 0 on a realizable vector.  Nonempty only
    for n >= 6.  This family is a realizability smoke test, not a
    completeness claim.

    The relations are evaluated on cleared integers: every coordinate is
    multiplied by L, the lcm of their denominators (for a `pluecker` vector L
    divides the cube of the matrix's scale), so an integer residual r stands
    for r / L^2.
    """
    scale = lcm(*(v.denominator for v in p.coords.values()))
    # S is an ascending pair and T ascending, so S + t is the sorted triple,
    # its cyclic shift (j, k, i) or the odd (i, k, j): only those are stored.
    q = {}
    for (i, j, k), v in p.coords.items():
        q[i, j, k] = q[j, k, i] = c = v.numerator * (scale // v.denominator)
        q[i, k, j] = -c
    indices = range(1, p.n + 1)
    # The signed cofactor of each S + t_k, one tuple per 4-subset T.
    cofactors = {(t1, t2, t3, t4): (q[t2, t3, t4], -q[t1, t3, t4], q[t1, t2, t4], -q[t1, t2, t3])
                 for t1, t2, t3, t4 in combinations(indices, 4)}
    denominator = scale * scale
    zero = Fraction(0)
    residuals = []
    for a, b in combinations(indices, 2):
        row = [0] + [q[a, b, t] if t != a and t != b else 0 for t in indices]
        for t in combinations([i for i in indices if i != a and i != b], 4):
            c1, c2, c3, c4 = cofactors[t]
            r = row[t[0]] * c1 + row[t[1]] * c2 + row[t[2]] * c3 + row[t[3]] * c4
            residuals.append(Fraction(r, denominator) if r else zero)
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
