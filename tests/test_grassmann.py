from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from zonomix.grassmann import (
    MAX_COLUMNS,
    PlueckerVector,
    abs_map,
    check_gp3,
    check_quad_ineq,
    pluecker,
    render_pluecker_csv,
)
from zonomix.numeric import E1, E2, E3, Mat3xM, vec3
from zonomix.rng import SplitMix64, random_vec3, random_vectors
from zonomix.verify import check_lemma_matrix
from oracles import leibniz_det3

F = Fraction


def _random_matrix(rng, n, bound=9):
    return Mat3xM(tuple(random_vec3(rng, bound) for _ in range(n)))


class TestPluecker:
    def test_basis(self):
        p = pluecker(Mat3xM((E1, E2, E3)))
        assert p.coords == {(1, 2, 3): F(1)}

    def test_basis_plus_ones(self):
        mat = Mat3xM((E1, E2, E3, vec3(1, 1, 1)))
        expected = {idx: leibniz_det3(*(mat.columns[i - 1] for i in idx))
                    for idx in combinations(range(1, 5), 3)}
        assert expected == {(1, 2, 3): 1, (1, 2, 4): 1, (1, 3, 4): -1, (2, 3, 4): 1}
        assert pluecker(mat).coords == expected

    def test_repeated_column_kills_coords(self):
        mat = Mat3xM((E1, E2, E1, E3))
        p = pluecker(mat)
        for idx, value in p.coords.items():
            if 1 in idx and 3 in idx:
                assert value == 0

    def test_too_few_columns(self):
        with pytest.raises(ValueError):
            pluecker(Mat3xM((E1, E2)))

    def test_column_limit(self):
        # C(n,3) minors are cheap at the limit; check_gp3 never runs this wide here.
        assert len(pluecker(Mat3xM((E1,) * MAX_COLUMNS)).coords) == comb(MAX_COLUMNS, 3)
        with pytest.raises(ValueError, match=f"at most {MAX_COLUMNS} columns"):
            pluecker(Mat3xM((E1,) * (MAX_COLUMNS + 1)))

    def test_column_permutation_equivariance_up_to_sign(self):
        rng = SplitMix64(41)
        for _ in range(20):
            cols = tuple(random_vec3(rng, 9) for _ in range(5))
            base = abs_map(pluecker(Mat3xM(cols)))
            perm = list(permutations(range(5)))[rng.below(120)]
            permuted = abs_map(pluecker(Mat3xM(tuple(cols[i] for i in perm))))
            relabel = {old + 1: new + 1 for new, old in enumerate(perm)}
            for idx, value in base.coords.items():
                new_idx = tuple(sorted(relabel[i] for i in idx))
                assert permuted.coords[new_idx] == value


class TestAbsMap:
    def test_flips_negatives_only(self):
        p = pluecker(Mat3xM((E1, E2, E3, vec3(1, 1, 1))))
        q = abs_map(p)
        assert q.coords[(1, 3, 4)] == 1
        assert all(v >= 0 for v in q.coords.values())

    def test_zero_vector(self):
        zero = PlueckerVector(3, {(1, 2, 3): F(0)})
        assert abs_map(zero) == zero

    def test_idempotent(self):
        rng = SplitMix64(42)
        p = pluecker(_random_matrix(rng, 6))
        assert abs_map(abs_map(p)) == abs_map(p)


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
        coords = dict(p.coords)
        coords[(1, 2, 3)] += 1
        perturbed = PlueckerVector(6, coords)
        assert any(r != 0 for r in check_gp3(perturbed))

    def test_small_n_has_no_relations(self):
        rng = SplitMix64(46)
        assert check_gp3(pluecker(_random_matrix(rng, 4))) == []
        assert check_gp3(pluecker(_random_matrix(rng, 5))) == []


class TestQuadIneq:
    def test_equality_configuration(self):
        gens = [vec3(0, 0, 1), vec3(0, 1, 1), vec3(1, 0, 1), vec3(1, 1, 1)]
        q = abs_map(pluecker(Mat3xM(tuple(gens) + (E1, E2))))
        report = check_quad_ineq(q, 4)
        assert report.lhs == report.rhs == 16
        assert report.slack == 0 and report.holds

    def test_degenerate_columns(self):
        q = abs_map(pluecker(Mat3xM((E1, E2, E3, E1, E2))))
        report = check_quad_ineq(q, 3)
        assert report.holds
        assert report.lhs == 1 and report.rhs == 1  # frozen by direct minor count

    def test_single_nonzero_coordinate(self):
        coords = {idx: F(0) for idx in combinations(range(1, 6), 3)}
        coords[(1, 2, 3)] = F(5)
        report = check_quad_ineq(PlueckerVector(5, coords), 3)
        assert report.lhs == 0 and report.rhs == 0 and report.holds

    def test_rejects_negative_coordinate(self):
        coords = {idx: F(0) for idx in combinations(range(1, 6), 3)}
        coords[(1, 2, 4)] = F(-1)
        with pytest.raises(ValueError):
            check_quad_ineq(PlueckerVector(5, coords), 3)

    def test_rejects_size_mismatch(self):
        rng = SplitMix64(47)
        q = abs_map(pluecker(_random_matrix(rng, 6)))
        with pytest.raises(ValueError):
            check_quad_ineq(q, 5)

    def test_matches_generator_matrix_form(self):
        rng = SplitMix64(48)
        for _ in range(60):
            vectors = random_vectors(rng, 6, 9)
            if len(vectors) < 3:
                continue
            m = len(vectors)
            q = abs_map(pluecker(Mat3xM(tuple(vectors) + (E1, E2))))
            quad = check_quad_ineq(q, m)
            lemma = check_lemma_matrix(vectors)
            assert (quad.lhs, quad.rhs, quad.holds) == (lemma.lhs, lemma.rhs, lemma.holds)


class TestPlueckerCsv:
    def test_rows_in_lex_order(self):
        p = pluecker(Mat3xM((E1, E2, E3, vec3(1, 1, 1))))
        assert render_pluecker_csv(p) == ("1,2,3,1\n"
                                          "1,2,4,1\n"
                                          "1,3,4,-1\n"
                                          "2,3,4,1\n")
