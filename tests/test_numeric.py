import random
import sys
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from zonomix import numeric
from zonomix.numeric import (
    SWEEP_MIN,
    E1,
    E2,
    E3,
    Mat3xM,
    Vec3,
    det3,
    int_scaled,
    minor3,
    parse_matrix,
    parse_rational,
    render_matrix,
    render_rational,
    sum_abs_det3_combos,
    sum_abs_det3_combos_cubic,
    sum_abs_det3_pairs,
    sum_abs_det3_pairs_cubic,
    sum_abs_det3_triples,
    sum_abs_det3_triples_cubic,
    vadd,
    vec3,
    vscale,
)
from oracles import brute_mixed_volume, brute_volume, leibniz_det3

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
vectors = st.builds(Vec3, rationals, rationals, rationals)


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


# |det| kernels.  Each dispatcher must equal its cubic loop and the oracle
# exactly, whichever path it takes: the cubic loop below SWEEP_MIN, the
# angular sweep at or above it.

def _expected(ga, gb, gc):
    """(triples, pairs, combos) sums from the oracles; pairs counts i < j once."""
    return (6 * brute_mixed_volume(ga, gb, gc), 3 * brute_mixed_volume(ga, ga, gb),
            brute_volume(ga))


def _assert_kernels_agree(ga, gb, gc):
    triples, pairs, combos = _expected(ga, gb, gc)
    assert sum_abs_det3_triples(ga, gb, gc) == sum_abs_det3_triples_cubic(ga, gb, gc) == triples
    assert sum_abs_det3_pairs(ga, gb) == sum_abs_det3_pairs_cubic(ga, gb) == pairs
    assert sum_abs_det3_combos(ga) == sum_abs_det3_combos_cubic(ga) == combos
    assert all(type(k(*args)) is int for k, args in (
        (sum_abs_det3_triples, (ga, gb, gc)), (sum_abs_det3_pairs, (ga, gb)),
        (sum_abs_det3_combos, (ga,))))


HUGE = 10 ** 400  # float(HUGE) and HUGE / 1 overflow
P60 = 2 ** 60
# Under the pivot e3 these project to (P60, k): all their float angle keys
# round to -1.0, while their exact angles differ.  Listed by falling angle,
# so a sort by the float key alone keeps the wrong order.
COLLIDING = [(0, 0, 1)] + [(P60, k, 0) for k in range(12, 0, -1)]

EDGE_CASES = {
    "empty": ([], [], []),
    "empty-pivot-list": ([], [(1, 2, 3), (4, 5, 6)], [(7, 8, 10), (1, 0, 0)]),
    "one-generator": ([(1, 2, 3)], [(4, 5, 6)], [(7, 8, 10)]),
    "two-generators": ([(1, 2, 3), (-2, 1, 5)], [(4, 5, 6), (0, 1, 0)], [(7, 8, 10)]),
    "zero-generators": ([(0, 0, 0), (1, 2, 3), (0, 0, 0), (3, -1, 2)],
                        [(0, 0, 0), (4, 5, 6)], [(7, 8, 10), (0, 0, 0)]),
    "parallel-and-antiparallel": ([(1, 2, 3), (2, 4, 6), (-1, -2, -3), (0, 1, 1), (0, -3, -3)],
                                  [(1, 2, 3), (-3, -6, -9), (5, 1, 2)],
                                  [(2, 4, 6), (1, 0, 0), (-1, 0, 0)]),
    "parallel-to-pivot": ([(1, 1, 2), (3, 3, 6), (-2, -2, -4), (1, 0, 1)],
                          [(2, 2, 4), (0, 1, 3)], [(-1, -1, -2), (5, 0, 1)]),
    "pivot-z-zero": ([(1, 2, 0), (3, -1, 0), (2, 2, 5), (0, 4, 0)],
                     [(1, 2, 0), (1, 1, 1), (-2, 3, 0)], [(4, 0, 0), (0, 1, 2), (3, 3, 0)]),
    "pivot-yz-zero": ([(5, 0, 0), (-2, 0, 0), (1, 2, 3), (0, 0, 7)],
                      [(3, 0, 0), (1, -1, 2)], [(-4, 0, 0), (2, 5, -1), (0, 3, 0)]),
    "huge-coordinates": ([(HUGE, 1, 7), (3, HUGE, -2), (HUGE + 1, -HUGE, HUGE), (-HUGE, 5, 0)],
                         [(1, HUGE, HUGE - 1), (HUGE, 0, -HUGE)],
                         [(2, -3, HUGE), (HUGE, HUGE, 1)]),
    "colliding-float-keys": (COLLIDING, [(0, 0, 1), (P60, 3, 5)], COLLIDING[:5]),
}


@pytest.fixture(params=["cubic", "sweep"])
def forced_path(request, monkeypatch):
    """Route every dispatcher call to one path, whatever the input size."""
    monkeypatch.setattr(numeric, "SWEEP_MIN", 0 if request.param == "sweep" else 10 ** 9)
    return request.param


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_kernels_agree_on_edge_cases(case, forced_path):
    _assert_kernels_agree(*EDGE_CASES[case])


def _random_generators(rnd, m):
    """Small integer generators with zero, repeated and (anti)parallel ones mixed in."""
    gens = []
    for _ in range(m):
        r = rnd.random()
        if r < 0.1:
            gens.append((0, 0, 0))
        elif r < 0.3 and gens:
            k = rnd.choice((-3, -2, -1, 1, 2))
            gens.append(tuple(k * c for c in rnd.choice(gens)))
        else:
            gens.append(tuple(rnd.randint(-6, 6) for _ in range(3)))
    return gens


@pytest.mark.parametrize("m", [SWEEP_MIN - 1, SWEEP_MIN, SWEEP_MIN + 3])
def test_kernels_agree_on_each_side_of_the_crossover(m):
    rnd = random.Random(m)
    for _ in range(6):
        _assert_kernels_agree(*(_random_generators(rnd, m) for _ in range(3)))


def test_collision_reaches_the_sweep_at_its_natural_size():
    assert len(COLLIDING) >= SWEEP_MIN
    _assert_kernels_agree(COLLIDING, COLLIDING[::-1], COLLIDING[1:SWEEP_MIN + 1])


@pytest.mark.parametrize("kernel, args", [
    ("triples", lambda g: (g[:2], g, g)),
    ("pairs", lambda g: (g, g[:2])),
    ("combos", lambda g: (g,)),
])
def test_dispatch_switches_at_sweep_min(kernel, args, monkeypatch):
    calls = []
    cubic = getattr(numeric, f"sum_abs_det3_{kernel}_cubic")
    monkeypatch.setattr(numeric, f"sum_abs_det3_{kernel}_cubic",
                        lambda *a: calls.append(1) or cubic(*a))
    dispatcher = getattr(numeric, f"sum_abs_det3_{kernel}")
    g = _random_generators(random.Random(1), SWEEP_MIN)
    dispatcher(*args(g[:-1]))
    assert calls == [1]
    dispatcher(*args(g))
    assert calls == [1]


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

    def test_render_past_the_int_string_limit(self):
        # str() refuses integers over sys.get_int_max_str_digits() digits.
        digits = max(sys.get_int_max_str_digits(), 4300) + 700
        big = 10 ** digits + 7
        assert render_rational(Fraction(big)) == "1" + "0" * (digits - 1) + "7"
        assert render_rational(Fraction(-2, big)) == "-2/1" + "0" * (digits - 1) + "7"


# Every line boundary that str.splitlines recognises.
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


class TestRowReader:
    @pytest.mark.parametrize("sep", LINE_BREAKS, ids=ascii)
    def test_lines_are_those_of_splitlines(self, sep):
        text = sep.join(["# body", "zonotope3", "", "1 2 3", " 4/5\t-6 7 ", "#", "8 9 0", ""])
        lines = [line.strip() for line in text.splitlines()]
        lines = [line for line in lines if line and not line.startswith("#")]
        assert len(lines) == 4
        header, rows = numeric.parse_rows(text, "zonotope")
        assert header == lines[0]
        assert rows == [[parse_rational(e) for e in line.split()] for line in lines[1:]]

    def test_oversized_text_is_refused_without_splitting_it(self):
        text = "zonotope3\n" + "1 0 0\n" * 200_000
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at most"):
                numeric.parse_rows(text, "zonotope")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Splitting the whole text into lines first peaked at 12.7 MB.
        assert peak < 2_000_000


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
