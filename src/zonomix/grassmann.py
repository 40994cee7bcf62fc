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

from .numeric import Mat3xM, minor3, render_rational
from .verify import IneqReport, ineq_report

Subset3 = tuple[int, int, int]

# Largest column count `pluecker` accepts.  check_gp3 walks C(n,2) * C(n-2,4)
# exchange relations at about 25 us each (Python 3.11, Intel Xeon): 13,860
# (0.4 s) at n = 12 and 120,120 (3 s) at n = 16, but 813,960 at n = 21 and
# O(n^6) beyond.
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
    """Minor vector of a 3 x n matrix, 3 <= n <= MAX_COLUMNS."""
    n = mat.m
    if n < 3:
        raise ValueError(f"need at least 3 columns, got {n}")
    if n > MAX_COLUMNS:
        raise ValueError(f"need at most {MAX_COLUMNS} columns, got {n}")
    coords = {idx: minor3(mat, idx) for idx in combinations(range(1, n + 1), 3)}
    return PlueckerVector(n=n, coords=coords)


def abs_map(p: PlueckerVector) -> PlueckerVector:
    """Componentwise absolute value; idempotent."""
    return PlueckerVector(n=p.n, coords={k: abs(v) for k, v in p.coords.items()})


def _sorted_with_sign(pair: tuple[int, int], extra: int) -> tuple[Subset3, int]:
    # Sign of sorting (a, b, extra) ascending, a < b, extra distinct from both.
    a, b = pair
    if extra > b:
        return (a, b, extra), 1
    if extra < a:
        return (extra, a, b), 1
    return (a, extra, b), -1


def check_gp3(p: PlueckerVector) -> list[Fraction]:
    """Residuals of the quadratic exchange relations, one per (2-subset, 4-subset) pair.

    For each 2-subset S and each disjoint 4-subset T = {t1 < t2 < t3 < t4},
    the alternating sum over k of q[S + t_k] * q[T - t_k] vanishes on every
    minor vector of an actual matrix (signs adjusted for sorting S + t_k).
    Returns the residual values, C(n,2) * C(n-2,4) of them, ordered by S and
    then by T, both lexicographically; every one is 0 on a realizable vector.
    Nonempty only for n >= 6.  This family is a realizability smoke test, not
    a completeness claim.
    """
    residuals = []
    indices = range(1, p.n + 1)
    coords = p.coords
    for s in combinations(indices, 2):
        rest = [i for i in indices if i not in s]
        for t in combinations(rest, 4):
            value = Fraction(0)
            for k, tk in enumerate(t):
                key, sort_sign = _sorted_with_sign(s, tk)
                remainder = t[:k] + t[k + 1:]
                sign = sort_sign if k % 2 == 0 else -sort_sign
                value += sign * coords[key] * coords[remainder]
            residuals.append(value)
    return residuals


def check_quad_ineq(q: PlueckerVector, m: int) -> IneqReport:
    """The zonotope inequality as a quadratic in nonnegative minor coordinates.

    For q with n = m + 2 columns (generators then the two unit columns):

        (sum of q_I over 3-subsets I of 1..m) * (sum over i of q_{i,m+1,m+2})
            <= (sum over 2-subsets S of q_{S+(m+1,)}) * (same with m+2).

    Holds whenever q is the componentwise absolute value of a realizable
    minor vector.
    """
    if q.n != m + 2:
        raise ValueError(f"coordinate count n = {q.n} does not match m + 2 = {m + 2}")
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
