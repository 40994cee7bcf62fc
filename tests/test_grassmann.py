from fractions import Fraction
from itertools import combinations, permutations
from math import comb, lcm

import pytest

from zonomix import grassmann
from zonomix.grassmann import (
    MAX_COLUMNS,
    PlueckerVector,
    abs_map,
    check_gp3,
    check_quad_ineq,
    pluecker,
    render_pluecker_csv,
)
from zonomix.cli import main
from zonomix.numeric import E1, E2, render_matrix, vec3
from zonomix.rng import SplitMix64, random_vec3, random_vectors
from zonomix.verify import check_lemma_matrix
from zonomix.zonotope import Zonotope3
from oracles import exchange_residuals, leibniz_det3

E3 = vec3(0, 0, 1)
F = Fraction

# The 63 primes between 10^4 and 10,600 (trial division up to sqrt(10,600) < 103): one per
# entry of a 3 x 7 matrix and one per perturbed minor.
_PRIMES_NEAR_10K = [p for p in range(10_001, 10_600) if all(p % d for d in range(2, 103))]


def _random_matrix(rng, n, bound=9):
    return tuple(random_vec3(rng, bound) for _ in range(n))


def _coprime_matrix(rng, n):
    """n columns whose 3n entries have pairwise coprime denominators, one prime each."""
    primes = iter(_PRIMES_NEAR_10K)
    return tuple(vec3(*(F(rng.below(2 * 9973) - 9973, next(primes)) for _ in range(3)))
                 for _ in range(n))


def _vector(n, coords):
    """The minor vector of these rational coordinates, cleared to integers over their lcm."""
    scale = lcm(*(F(v).denominator for v in coords.values()))
    return PlueckerVector(n, {t: int(v * scale) for t, v in coords.items()}, scale)


def _minors(p):
    """The rational coordinates of a minor vector."""
    return {t: F(v, p.scale) for t, v in p.coords.items()}


def _residuals(p):
    """The exchange residuals of a minor vector as rationals: each integer over scale^2."""
    return [F(r, p.scale ** 2) for r in check_gp3(p)]


class TestPluecker:
    def test_basis(self):
        p = pluecker((E1, E2, E3))
        assert p.coords == {(1, 2, 3): F(1)}

    def test_basis_plus_ones(self):
        mat = (E1, E2, E3, vec3(1, 1, 1))
        expected = {idx: leibniz_det3(*(mat[i - 1] for i in idx))
                    for idx in combinations(range(1, 5), 3)}
        assert expected == {(1, 2, 3): 1, (1, 2, 4): 1, (1, 3, 4): -1, (2, 3, 4): 1}
        assert pluecker(mat).coords == expected

    def test_repeated_column_kills_coords(self):
        mat = (E1, E2, E1, E3)
        p = pluecker(mat)
        for idx, value in p.coords.items():
            if 1 in idx and 3 in idx:
                assert value == 0

    def test_too_few_columns(self):
        with pytest.raises(ValueError):
            pluecker((E1, E2))

    def test_coords_must_be_complete(self):
        with pytest.raises(ValueError, match="exactly the 4 3-subsets of 1..4"):
            PlueckerVector(n=4, coords={}, scale=1)

    def test_column_limit(self):
        assert len(pluecker((E1,) * MAX_COLUMNS).coords) == comb(MAX_COLUMNS, 3)
        with pytest.raises(ValueError, match=f"at most {MAX_COLUMNS} columns"):
            pluecker((E1,) * (MAX_COLUMNS + 1))

    def test_column_permutation_equivariance_up_to_sign(self):
        rng = SplitMix64(41)
        for _ in range(20):
            cols = tuple(random_vec3(rng, 9) for _ in range(5))
            base = abs_map(pluecker(cols))
            perm = list(permutations(range(5)))[rng.below(120)]
            permuted = abs_map(pluecker(tuple(cols[i] for i in perm)))
            relabel = {old + 1: new + 1 for new, old in enumerate(perm)}
            for idx, value in base.coords.items():
                new_idx = tuple(sorted(relabel[i] for i in idx))
                assert permuted.coords[new_idx] == value


class TestPlueckerAgainstTheOracle:
    @staticmethod
    def _columns(n, degenerate):
        rng = SplitMix64(60 + n)
        # Denominators up to 16 from the sampler, and one column of three large primes.
        cols = [random_vec3(rng, 16) for _ in range(n - 1)] + [vec3("1/101", "-7/103", "5/107")]
        if degenerate:
            cols[1] = vec3(0, 0, 0)
            cols[-1] = cols[0]
        return tuple(cols)

    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("n", [3, 6, 12, 16])
    def test_every_minor_is_the_leibniz_determinant(self, n, degenerate):
        mat = self._columns(n, degenerate)
        p = pluecker(mat)
        coords = p.coords
        assert list(coords) == list(combinations(range(1, n + 1), 3))
        for idx, value in coords.items():
            assert type(value) is int
            assert Fraction(value, p.scale) == leibniz_det3(*(mat[i - 1] for i in idx))
        if degenerate:
            assert all(coords[idx] == 0 for idx in coords if 2 in idx or {1, n} <= set(idx))

    def test_no_fraction_between_matrix_and_verdict(self, monkeypatch, tmp_path, capsys):
        mat = self._columns(12, False)
        path = tmp_path / "twelve.mat"
        path.write_text(render_matrix(mat))

        def refuse(*args):
            raise AssertionError(f"grassmann made a Fraction of {args}")

        monkeypatch.setattr(grassmann, "Fraction", refuse)
        p = pluecker(mat)
        assert check_gp3(p) == [0] * (comb(12, 2) * comb(10, 4))
        # A vector that fails the chart test is walked, on integers too.
        rng = SplitMix64(47)
        for n in range(6, 10):
            q = pluecker(_random_matrix(rng, n))
            coords = dict(q.coords)
            coords[1, 2, 3] += 1
            residuals = check_gp3(PlueckerVector(n, coords, q.scale))
            assert any(residuals) and all(type(r) is int for r in residuals)
        assert abs_map(p).scale == p.scale > 1
        assert check_quad_ineq(abs_map(pluecker(mat[:-2] + (E1, E2)))).holds
        assert main(["check", "grassmann", str(path)]) == 0
        assert "nonzero residuals = 0" in capsys.readouterr().out


class TestAbsMap:
    def test_flips_negatives_only(self):
        p = pluecker((E1, E2, E3, vec3(1, 1, 1)))
        q = abs_map(p)
        assert q.coords[(1, 3, 4)] == 1
        assert all(v >= 0 for v in q.coords.values())

    def test_zero_vector(self):
        zero = _vector(3, {(1, 2, 3): F(0)})
        assert abs_map(zero) == zero

    def test_idempotent(self):
        rng = SplitMix64(42)
        p = pluecker(_random_matrix(rng, 6))
        assert abs_map(abs_map(p)) == abs_map(p)
        assert abs_map(p).scale == p.scale > 1


class TestExchangeRelations:
    def test_zero_on_realizable(self):
        rng = SplitMix64(43)
        for n in (6, 7, 8):
            residuals = check_gp3(pluecker(_random_matrix(rng, n)))
            assert residuals and all(r == 0 for r in residuals)

    def test_relation_count(self):
        rng = SplitMix64(44)
        for n in (6, 7, 8, 9):
            residuals = check_gp3(pluecker(_random_matrix(rng, n)))
            # one relation per 2-subset and disjoint 4-subset: 15, 105, 420, 1260
            assert len(residuals) == comb(n, 2) * comb(n - 2, 4)

    def test_perturbation_breaks_realizability(self):
        rng = SplitMix64(45)
        p = pluecker(_random_matrix(rng, 6))
        coords = _minors(p)
        coords[(1, 2, 3)] += 1
        perturbed = _vector(6, coords)
        assert any(r != 0 for r in check_gp3(perturbed))

    @pytest.fixture
    def walked(self, monkeypatch):
        """The argument tuples of each walk of the relations, which still runs."""
        calls = []
        relation_residuals = grassmann._relation_residuals
        monkeypatch.setattr(grassmann, "_relation_residuals",
                            lambda *args: calls.append(args) or relation_residuals(*args))
        return calls

    @staticmethod
    def _vectors(rng, n):
        """(name, coords, realizable) at n columns: minor vectors of a random matrix, of a
        rank-2 one (all zero), of ones whose first triples vanish, and perturbations."""
        def minors(cols):
            return _minors(pluecker(tuple(cols)))

        cols = [random_vec3(rng, 9) for _ in range(n)]
        realizable = minors(cols)
        dependent = minors(cols[:2] + [vec3(*(x - 2 * y for x, y in zip(cols[0], cols[1])))]
                           + cols[3:])
        keys = list(realizable)
        single = dict(realizable)
        single[keys[rng.below(len(keys))]] += 1
        shifted = dict(dependent)
        shifted[2, 4, n] += F(1, 2)
        return [
            ("realizable", realizable, True),
            ("rank 2", minors([vec3(x, y, 0) for x, y, _ in cols]), True),
            ("first three columns dependent", dependent, True),
            ("zero first column", minors([vec3(0, 0, 0)] + cols[1:]), True),
            ("one coordinate perturbed", single, False),
            ("dependent, one coordinate perturbed", shifted, False),
            ("every coordinate perturbed",
             {k: v + F(rng.below(5) - 2, 3) for k, v in realizable.items()}, False),
            ("random coordinates",
             {k: F(rng.below(19) - 9, rng.below(4) + 1) for k in keys}, False),
        ]

    def test_values_match_oracle(self):
        rng = SplitMix64(49)
        for n in (6, 7, 8, 9):
            for name, coords, realizable in self._vectors(rng, n):
                residuals = _residuals(_vector(n, coords))
                assert residuals == exchange_residuals(n, coords), (n, name)
                assert any(r != 0 for r in residuals) != realizable, (n, name)
                assert (set(coords.values()) == {0}) == (name == "rank 2")
        # Pairwise coprime denominators: the cleared scale is a product of many primes.
        n = 7
        primes = iter(_PRIMES_NEAR_10K[3 * n:])
        realizable = _minors(pluecker(_coprime_matrix(rng, n)))
        perturbed = {k: v + F(rng.below(5) - 2, next(primes)) for k, v in realizable.items()}
        for coords, nonzero in ((realizable, False), (perturbed, True)):
            vector = _vector(n, coords)
            assert vector.scale.bit_length() > 150
            residuals = _residuals(vector)
            assert residuals == exchange_residuals(n, coords)
            assert any(r != 0 for r in residuals) == nonzero

    def test_chart_decides_what_the_relations_decide(self, walked):
        rng = SplitMix64(51)
        for n in (6, 7, 8, 9):
            for _ in range(3):
                for name, coords, _ in self._vectors(rng, n):
                    del walked[:]
                    check_gp3(_vector(n, coords))
                    oracle = exchange_residuals(n, coords)
                    assert bool(walked) == any(r != 0 for r in oracle), (n, name)

    def test_relations_miss_a_vector_the_chart_rejects(self, walked):
        # With column 1 zero, every product in a 6-index relation has a factor whose
        # triple contains 1, so every residual is 0; columns 2..6 are not realizable.
        cols = (vec3(0, 0, 0),) + _random_matrix(SplitMix64(53), 5)
        coords = _minors(pluecker(cols))
        coords[4, 5, 6] += 1
        assert check_gp3(_vector(6, coords)) == exchange_residuals(6, coords) == [0] * 15
        assert walked

    def test_realizable_cli_paths_never_walk_the_relations(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "sixteen.mat"
        path.write_text(render_matrix(_random_matrix(SplitMix64(52), MAX_COLUMNS, 16)))
        runs = (["grassmann-sample", "--n", "12", "--seed", "3"], ["check", "grassmann", str(path)])
        expected = []
        for argv in runs:
            assert main(argv) == 0
            expected.append(capsys.readouterr())

        def walk(*args):
            raise AssertionError("the exchange relations were walked")

        monkeypatch.setattr(grassmann, "_relation_residuals", walk)
        for argv, output in zip(runs, expected):
            assert main(argv) == 0
            assert capsys.readouterr() == output
        assert "nonzero residuals = 0" in expected[0].out

    def test_zero_at_column_limit(self):
        residuals = check_gp3(pluecker(_random_matrix(SplitMix64(50), MAX_COLUMNS, 16)))
        assert len(residuals) == comb(MAX_COLUMNS, 2) * comb(MAX_COLUMNS - 2, 4) == 120_120
        assert all(r == 0 for r in residuals)

    def test_small_n_has_no_relations(self):
        rng = SplitMix64(46)
        assert check_gp3(pluecker(_random_matrix(rng, 4))) == []
        assert check_gp3(pluecker(_random_matrix(rng, 5))) == []


class TestQuadIneq:
    def test_equality_configuration(self):
        gens = [vec3(0, 0, 1), vec3(0, 1, 1), vec3(1, 0, 1), vec3(1, 1, 1)]
        q = abs_map(pluecker(tuple(gens) + (E1, E2)))
        report = check_quad_ineq(q)
        assert report.lhs == report.rhs == 16
        assert report.slack == 0 and report.holds

    def test_degenerate_columns(self):
        q = abs_map(pluecker((E1, E2, E3, E1, E2)))
        report = check_quad_ineq(q)
        assert report.holds
        assert report.lhs == 1 and report.rhs == 1  # frozen by direct minor count

    def test_single_nonzero_coordinate(self):
        coords = {idx: F(0) for idx in combinations(range(1, 6), 3)}
        coords[(1, 2, 3)] = F(5)
        report = check_quad_ineq(_vector(5, coords))
        assert report.lhs == 0 and report.rhs == 0 and report.holds

    def test_needs_three_generators(self):
        q = abs_map(pluecker((E1, E2, E1, E2)))
        with pytest.raises(ValueError, match="need m >= 3, got 2"):
            check_quad_ineq(q)

    def test_rejects_negative_coordinate(self):
        coords = {idx: F(0) for idx in combinations(range(1, 6), 3)}
        for value in (F(-1), F(-3, 4)):
            coords[(1, 2, 4)] = value
            with pytest.raises(ValueError, match=rf"at \(1, 2, 4\): {value}$"):
                check_quad_ineq(_vector(5, coords))

    def test_matches_generator_matrix_form(self):
        rng = SplitMix64(48)
        inputs = [random_vectors(rng, 6, 9) for _ in range(60)]
        # Pairwise coprime denominators: the minors' scale is a product of many primes.
        inputs.append(_coprime_matrix(rng, 7))
        for vectors in inputs:
            if len(vectors) < 3:
                continue
            q = abs_map(pluecker(tuple(vectors) + (E1, E2)))
            quad = check_quad_ineq(q)
            lemma = check_lemma_matrix(Zonotope3.from_generators(vectors))
            assert (quad.lhs, quad.rhs, quad.holds) == (lemma.lhs, lemma.rhs, lemma.holds)
        assert q.scale.bit_length() > 150


class TestPlueckerCsv:
    def test_rows_in_lex_order(self):
        p = pluecker((E1, E2, E3, vec3(1, 1, 1)))
        assert render_pluecker_csv(p) == ("1,2,3,1\n"
                                          "1,2,4,1\n"
                                          "1,3,4,-1\n"
                                          "2,3,4,1\n")
