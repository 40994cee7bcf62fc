"""Independent oracles for expected values.

Everything here is deliberately naive and separate from the package
implementation: determinants by the signed permutation sum, mixed volumes by
full triple enumeration over Fractions (no integer rescaling), elementary
symmetric polynomials by direct expansion.  Tests freeze values computed by
these oracles and assert the package agrees exactly.  The last three helpers
build test inputs: a rational draw, a scaled vector and a linear image;
`count_fractions` counts the `Fraction`s a test's code builds.
"""

from fractions import Fraction
from itertools import combinations, product

_PERMS = (
    ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
    ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
)


def leibniz_det3(a, b, c):
    """det of the matrix with columns a, b, c by the signed permutation sum."""
    cols = (a, b, c)
    total = Fraction(0)
    for perm, sign in _PERMS:
        term = Fraction(1)
        for col, row in enumerate(perm):
            term *= cols[col][row]
        total += sign * term
    return total


def brute_mixed_volume(gens_a, gens_b, gens_c):
    """(1/6) sum of |det| over the full generator-triple product."""
    total = Fraction(0)
    for a, b, c in product(gens_a, gens_b, gens_c):
        total += abs(leibniz_det3(a, b, c))
    return total / 6


def brute_volume(gens):
    """Sum of |det| over index combinations i < j < k."""
    total = Fraction(0)
    for a, b, c in combinations(gens, 3):
        total += abs(leibniz_det3(a, b, c))
    return total


def brute_pair_abs_sum(us, vs):
    """Sum of |u_i v_j - u_j v_i| over pairs i < j, in Fraction arithmetic."""
    total = Fraction(0)
    n = len(us)
    for i in range(n):
        for j in range(i + 1, n):
            total += abs(Fraction(us[i]) * Fraction(vs[j]) - Fraction(us[j]) * Fraction(vs[i]))
    return total


def esym(values, k):
    """Elementary symmetric polynomial e_k of the given values."""
    total = Fraction(0)
    for subset in combinations(values, k):
        term = Fraction(1)
        for v in subset:
            term *= v
        total += term
    return total


def subset_sums(gens):
    """All 2^m subset sums of the generators: a vertex superset of the zonotope."""
    points = [(Fraction(0), Fraction(0), Fraction(0))]
    for g in gens:
        points += [(p[0] + g[0], p[1] + g[1], p[2] + g[2]) for p in points]
    return points


def exchange_residuals(n, coords):
    """Exchange-relation residuals of a minor vector, term by term from the definition.

    `coords` maps ascending 1-based index triples to values.  For each
    2-subset S and disjoint 4-subset T = (t1 < t2 < t3 < t4), both in
    lexicographic order, the residual is the sum over k of
    (-1)^k * sign(S + t_k) * coords[sorted(S + t_k)] * coords[T - t_k], where
    sign(S + t_k) is -1 raised to the inversion count of the sequence (s1, s2, t_k).
    """
    out = []
    for s in combinations(range(1, n + 1), 2):
        rest = [i for i in range(1, n + 1) if i not in s]
        for t in combinations(rest, 4):
            total = Fraction(0)
            for k, tk in enumerate(t):
                seq = s + (tk,)
                inversions = sum(1 for i, j in combinations(range(3), 2) if seq[i] > seq[j])
                remainder = t[:k] + t[k + 1:]
                total += (-1) ** (k + inversions) * coords[tuple(sorted(seq))] * coords[remainder]
            out.append(total)
    return out


def count_fractions(monkeypatch) -> list:
    """A list that gains one entry per `Fraction` built from here on."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting)
    return built


def random_rational(rng, bound):
    """Numerator in [-bound, bound], then denominator in [1, bound], drawn from rng."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def scale_vec(q, v):
    """q * v, coordinate by coordinate."""
    return tuple(q * x for x in v)


def linear_image(columns, v):
    """The image of v under the 3x3 matrix with the given columns."""
    return tuple(sum(col[row] * x for col, x in zip(columns, v)) for row in range(3))
