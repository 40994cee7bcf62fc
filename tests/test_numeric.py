from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from zonomix.numeric import (
    E1,
    E2,
    E3,
    Mat3xM,
    Vec3,
    det2,
    det3,
    int_scaled,
    minor3,
    parse_matrix,
    parse_rational,
    render_matrix,
    render_rational,
    vadd,
    vec3,
    vscale,
)
from oracles import leibniz_det3

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
vectors = st.builds(Vec3, rationals, rationals, rationals)


def test_det2_examples():
    assert det2(1, 0, 0, 1) == 1
    assert det2(1, 2, 3, 4) == -2
    assert det2(0, 1, 1, 0) == -1


def test_det3_identity_and_repeats():
    assert det3(E1, E2, E3) == 1
    assert det3(E1, E1, E3) == 0


def test_det3_derived_value():
    a, b, c = vec3(1, 4, 7), vec3(2, 5, 8), vec3(3, 6, 10)
    assert leibniz_det3(a, b, c) == -3
    assert det3(a, b, c) == -3


@given(vectors, vectors, vectors)
def test_det3_matches_permutation_sum(a, b, c):
    assert det3(a, b, c) == leibniz_det3(a, b, c)


@given(vectors, vectors, vectors)
def test_det3_antisymmetry(a, b, c):
    d = det3(a, b, c)
    assert det3(b, a, c) == -d
    assert det3(a, c, b) == -d
    assert det3(c, b, a) == -d


@given(vectors, vectors, vectors, vectors, rationals, rationals)
def test_det3_multilinear_first_slot(a, a2, b, c, alpha, beta):
    combined = vadd(vscale(alpha, a), vscale(beta, a2))
    assert det3(combined, b, c) == alpha * det3(a, b, c) + beta * det3(a2, b, c)


@given(vectors, vectors, rationals, rationals)
def test_det3_vanishes_on_dependent_columns(a, b, alpha, beta):
    c = vadd(vscale(alpha, a), vscale(beta, b))
    assert det3(a, b, c) == 0


_M4 = Mat3xM((E1, E2, E3, vec3(1, 1, 1)))


@pytest.mark.parametrize("indices, expected", [
    ((1, 2, 3), 1),
    ((1, 3, 4), -1),  # frozen from the permutation-sum oracle
    ((2, 3, 4), 1),
])
def test_minor3_examples(indices, expected):
    cols = [_M4.columns[i - 1] for i in sorted(indices)]
    assert leibniz_det3(*cols) == expected
    assert minor3(_M4, indices) == expected


def test_minor3_rejects_bad_indices():
    with pytest.raises(ValueError):
        minor3(_M4, (1, 1, 2))
    with pytest.raises(ValueError):
        minor3(_M4, (0, 1, 2))
    with pytest.raises(ValueError):
        minor3(_M4, (2, 3, 5))


def _scaled_by_fraction_product(vectors):
    """int_scaled's contract by its definition: L = lcm of denominators, int(q * L)."""
    scale = lcm(1, *(q.denominator for v in vectors for q in v))
    return [tuple(int(q * scale) for q in v) for v in vectors], scale


BIG = Fraction(3 ** 50 + 1, 2 ** 70 + 3)  # numerator and denominator above 64 bits


@pytest.mark.parametrize("vectors", [
    [],
    [vec3(0, 0, 0)],
    [vec3(0, 0, 0), vec3(-1, -2, -3)],
    [vec3("-1/2", "-7/3", -5), vec3("5/6", 0, "-1/4")],
    [vec3("1/2", "1/3", "1/5"), vec3("2/7", "-3/11", "9/13"), vec3(4, "1/6", "-1/10")],
    [vec3(BIG, -BIG, 1), vec3(2 ** 65 + 1, "1/3", -BIG * 7)],
], ids=["empty", "zero", "negative", "mixed-sign", "mixed-denominator", "large"])
def test_int_scaled_matches_fraction_product(vectors):
    ints, scale = int_scaled(vectors)
    assert (ints, scale) == _scaled_by_fraction_product(vectors)
    assert all(type(c) is int for v in ints for c in v)


@given(st.lists(vectors, max_size=6))
def test_int_scaled_is_exactly_l_times_the_input(vs):
    ints, scale = int_scaled(vs)
    assert (ints, scale) == _scaled_by_fraction_product(vs)
    assert [Vec3(*(Fraction(c, scale) for c in v)) for v in ints] == vs


@given(vectors, vectors, vectors)
def test_int_scaled_determinant_matches_oracle(a, b, c):
    ints, scale = int_scaled([a, b, c])
    assert Fraction(det3(*ints), scale ** 3) == leibniz_det3(a, b, c)


class TestRationalLiterals:
    def test_parse_basic(self):
        assert parse_rational("-3/7") == Fraction(-3, 7)
        assert parse_rational("2") == 2
        assert parse_rational("+4/6") == Fraction(2, 3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")

    @pytest.mark.parametrize("bad", ["", "1.5", "1e3", "3/", "/4", "1/-2", "a", "1 2"])
    def test_garbage_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(render_rational(q)) == q

    def test_render_canonical(self):
        assert render_rational(Fraction(4, 6)) == "2/3"
        assert render_rational(Fraction(-4, 2)) == "-2"
        assert render_rational(Fraction(3, -9)) == "-1/3"


class TestMatrixFormat:
    def test_round_trip(self):
        mat = Mat3xM((vec3(1, 2, 3), vec3("1/2", -1, 0)))
        assert parse_matrix(render_matrix(mat)) == mat

    def test_zero_columns(self):
        mat = Mat3xM(())
        assert parse_matrix(render_matrix(mat)) == mat

    def test_comments_and_blanks(self):
        text = "# generators\n\nmatrix 3 1\n1\n# middle\n2\n\n3\n"
        assert parse_matrix(text) == Mat3xM((vec3(1, 2, 3),))

    @pytest.mark.parametrize("bad", [
        "",
        "matrix 2 3\n1 1 1\n1 1 1\n",
        "matrix 3 2\n1 1\n1 1\n",
        "matrix 3 2\n1 1\n1 1\n1 1\n1 1\n",
        "matrix 3 1\n1 2\n3\n4\n",
        "matrix 3 1\n1\n1/0\n3\n",
    ])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_matrix(bad)
