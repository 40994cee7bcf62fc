import itertools
import random
import sys
import tracemalloc
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, strategies as st

from zonomix import numeric, verify
from zonomix.numeric import (
    MAX_CLEARED_BITS,
    MAX_GENERATORS,
    SWEEP_MIN,
    E1,
    E2,
    E3,
    Vec3,
    det3,
    int_scaled,
    parse_matrix,
    parse_rational,
    parse_rows,
    render_matrix,
    render_rational,
    sum_abs_det2_pairs,
    sum_abs_det3_af_square,
    sum_abs_det3_bezout,
    sum_abs_det3_combos,
    sum_abs_det3_pairs,
    sum_abs_det3_triples,
    vec3,
)
from zonomix.zonotope import Zonotope3
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
    combined = tuple(alpha * x + beta * y for x, y in zip(a, a2))
    assert det3(combined, b, c) == alpha * det3(a, b, c) + beta * det3(a2, b, c)


@given(vectors, vectors, rationals, rationals)
def test_det3_vanishes_on_dependent_columns(a, b, alpha, beta):
    c = tuple(alpha * x + beta * y for x, y in zip(a, b))
    assert det3(a, b, c) == 0


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


# |det| kernels.  Each dispatcher must equal the oracle exactly on both of
# its paths, the loop below SWEEP_MIN and the angular sweep at or above it,
# and so must the two check kernels.  The two paths share one contract:
# `_class_loop` and `_class_sweep` return the same four totals for the same
# (pivot, classes) pairs.

def _expected(ga, gb, gc):
    """(triples, pairs, combos) sums from the oracles; pairs counts i < j once."""
    return (6 * brute_mixed_volume(ga, gb, gc), 3 * brute_mixed_volume(ga, ga, gb),
            brute_volume(ga))


def _on_path(path, kernel, *args):
    """kernel(*args) with every dispatch routed to one path: "cubic" (the loop) or "sweep"."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric, "SWEEP_MIN", 0 if path == "sweep" else 10 ** 9)
        return kernel(*args)


def _assert_kernels_agree(ga, gb, gc):
    triples, pairs, combos = _expected(ga, gb, gc)
    for kernel, args, expected in ((sum_abs_det3_triples, (ga, gb, gc), triples),
                                   (sum_abs_det3_pairs, (ga, gb), pairs),
                                   (sum_abs_det3_combos, (ga,), combos)):
        assert kernel(*args) == _on_path("cubic", kernel, *args) \
            == _on_path("sweep", kernel, *args) == expected
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


MIXED_SIZES = (1, 2, SWEEP_MIN - 1, SWEEP_MIN, 40)


def _pivot_lists(ga, gb, gc):
    """(pivot, classes) lists over the three generator lists, as the kernels get them and more.

    The dispatchers' and check kernels' own shapes, a zero pivot, pivots from
    every list, and every class left empty in turn.
    """
    pivots = [(0, 0, 0)] + ga + gb + gc
    return [
        [(a, (ga[i + 1:], gb, gc)) for i, a in enumerate(ga)],
        [(a, ((), ga[i + 1:], gb)) for i, a in enumerate(ga)],
        [(d, (ga, gb, gc)) for d in gc[::-1] + ga],
        [(p, (ga, gb, gc)) for p in pivots],
        [(p, ((), gb, gc)) for p in pivots],
        [(p, (gc, (), gb)) for p in pivots],
        [(p, (gb, ga, ())) for p in pivots],
    ]


def _assert_loop_matches_sweep(ga, gb, gc):
    for pivoted in _pivot_lists(ga, gb, gc):
        loop = numeric._class_loop(pivoted)
        assert loop == numeric._class_sweep(pivoted)
        assert all(type(s) is int for s in loop)


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_class_loop_matches_class_sweep_on_edge_cases(case):
    _assert_loop_matches_sweep(*EDGE_CASES[case])


def test_class_loop_matches_class_sweep_on_mixed_sizes():
    rnd = random.Random(13)
    for sizes in itertools.product(MIXED_SIZES, repeat=3):
        _assert_loop_matches_sweep(*(_random_generators(rnd, m) for m in sizes))


class _Counted(int):
    """An integer coordinate that counts the products it is the right factor of."""

    products = 0

    def __rmul__(self, other):
        _Counted.products += 1
        return int(self) * other


def test_class_loop_takes_one_determinant_per_pair():
    # A cross product p x u is 6 products with the coordinates of u, taken
    # once per A and B item; each determinant (p x u) . v is 3 more.
    rnd = random.Random(14)
    ga, gb, gc = ([tuple(map(_Counted, g)) for g in _random_generators(rnd, m)]
                  for m in (5, 3, 4))
    pivoted = [((1, 2, 3), (ga, gb, gc)), ((-4, 0, 5), (ga[2:], (), gc))]
    _Counted.products = 0
    numeric._class_loop(pivoted)
    crosses = (5 + 3) + (3 + 0)
    pairs = (comb(5, 2) + 5 * 3 + 5 * 4 + 3 * 4) + (comb(3, 2) + 3 * 4)
    assert _Counted.products == 6 * crosses + 3 * pairs


@pytest.fixture
def kernel_calls(monkeypatch):
    """The list of kernel paths run, in order: "cubic" for each loop, "sweep" for each sweep."""
    calls = []
    for path, name in (("cubic", "_class_loop"), ("sweep", "_class_sweep")):
        kernel = getattr(numeric, name)
        monkeypatch.setattr(numeric, name,
                            lambda p, _path=path, _f=kernel: calls.append(_path) or _f(p))
    return calls


@pytest.mark.parametrize("kernel, args", [
    ("triples", lambda g: (g[:2], g, g)),
    ("pairs", lambda g: (g, g[:2])),
    ("combos", lambda g: (g,)),
])
def test_dispatch_switches_at_sweep_min(kernel, args, kernel_calls):
    dispatcher = getattr(numeric, f"sum_abs_det3_{kernel}")
    g = _random_generators(random.Random(1), SWEEP_MIN)
    dispatcher(*args(g[:-1]))
    assert kernel_calls == ["cubic"]
    kernel_calls.clear()
    # At SWEEP_MIN: one sweep, no loop.
    dispatcher(*args(g))
    assert kernel_calls == ["sweep"]


# The four-sum kernels of a check.  Each must equal the separate dispatcher
# sums and the oracles, on either path.

def _bezout_parts(ga, gb, gc, kernels):
    combos, pairs, triples = kernels
    return combos(ga), pairs(ga, gb), pairs(ga, gc), triples(ga, gb, gc)


def _af_square_parts(ga, gb, gc, gd, kernels):
    _, pairs, triples = kernels
    return pairs(ga, gd), triples(ga, gb, gd), triples(ga, gc, gd), triples(gb, gc, gd)


DISPATCHERS = (sum_abs_det3_combos, sum_abs_det3_pairs, sum_abs_det3_triples)


def _assert_check_kernels_agree(ga, gb, gc, gd):
    bezout = sum_abs_det3_bezout(ga, gb, gc)
    assert bezout == _on_path("cubic", sum_abs_det3_bezout, ga, gb, gc) \
        == _on_path("sweep", sum_abs_det3_bezout, ga, gb, gc) \
        == _bezout_parts(ga, gb, gc, DISPATCHERS)
    af_square = sum_abs_det3_af_square(ga, gb, gc, gd)
    assert af_square == _on_path("cubic", sum_abs_det3_af_square, ga, gb, gc, gd) \
        == _on_path("sweep", sum_abs_det3_af_square, ga, gb, gc, gd) \
        == _af_square_parts(ga, gb, gc, gd, DISPATCHERS)
    assert all(type(s) is int for s in bezout + af_square)
    return bezout, af_square


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_check_kernels_agree_on_edge_cases(case, forced_path):
    ga, gb, gc = EDGE_CASES[case]
    gd = gc[::-1] + ga
    bezout, af_square = _assert_check_kernels_agree(ga, gb, gc, gd)
    triples, pairs_ab, combos = _expected(ga, gb, gc)
    assert bezout == (combos, pairs_ab, 3 * brute_mixed_volume(ga, ga, gc), triples)
    assert af_square == (3 * brute_mixed_volume(ga, ga, gd), 6 * brute_mixed_volume(ga, gb, gd),
                         6 * brute_mixed_volume(ga, gc, gd), 6 * brute_mixed_volume(gb, gc, gd))


def test_check_kernels_agree_on_mixed_sizes():
    rnd = random.Random(11)
    for i, sizes in enumerate(itertools.product(MIXED_SIZES, repeat=3)):
        ga, gb, gc, gd = (_random_generators(rnd, m)
                          for m in sizes + (MIXED_SIZES[i % len(MIXED_SIZES)],))
        _assert_check_kernels_agree(ga, gb, gc, gd)


def test_check_kernels_on_one_generator_b_and_c():
    # V(A,A,B) and V(A,A,C) through the sweep with B = e1, C = e2 are the
    # 2D pair sums of the lemma's matrix form.
    rnd = random.Random(12)
    ga = [g for g in _random_generators(rnd, 40) if g[2]]
    assert len(ga) >= SWEEP_MIN
    combos, pairs_ab, pairs_ac, triples = sum_abs_det3_bezout(ga, [(1, 0, 0)], [(0, 1, 0)])
    xs, ys, zs = zip(*ga)
    assert pairs_ab == sum_abs_det2_pairs(ys, zs) and pairs_ac == sum_abs_det2_pairs(xs, zs)
    assert triples == sum(abs(z) for z in zs)
    assert combos == brute_volume(ga)


@pytest.mark.parametrize("check, count", [("check_bezout", 3), ("check_af_square", 4)])
def test_checks_stay_on_the_cubic_loops_below_sweep_min(check, count, kernel_calls):
    g = _random_generators(random.Random(2), SWEEP_MIN)
    small, big = Zonotope3.from_scaled(g[:-1], 1), Zonotope3.from_scaled(g, 1)
    assert getattr(verify, check)(*[small] * count).holds
    # Below it: one loop gives all four sums.
    assert kernel_calls == ["cubic"]
    kernel_calls.clear()
    # One list at SWEEP_MIN: one sweep gives all four sums.
    assert getattr(verify, check)(*[small] * (count - 1), big).holds
    assert kernel_calls == ["sweep"]


class TestRationalLiterals:
    def test_parse_basic(self):
        assert parse_rational("-3/7") == Fraction(-3, 7)
        assert parse_rational("2") == 2
        assert parse_rational("+4/6") == Fraction(2, 3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_digit_limit_names_the_count(self):
        limit = sys.get_int_max_str_digits()
        ones = "1" * limit
        assert parse_rational(f"-{ones}/{ones}") == -1
        for text, digits in ((f"1/{ones}0", limit + 1), (f"+0{ones}", limit + 1)):
            with pytest.raises(ValueError) as info:
                parse_rational(text)
            assert str(info.value) == (f"integer in rational literal has {digits} digits, "
                                       f"more than the limit ({limit} digits)")

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
        mat = (vec3(1, 2, 3), vec3("1/2", -1, 0))
        assert parse_matrix(render_matrix(mat)) == mat

    def test_zero_columns(self):
        assert parse_matrix(render_matrix(())) == ()

    def test_comments_and_blanks(self):
        text = "# generators\n\nmatrix 3 1\n1\n# middle\n2\n\n3\n"
        assert parse_matrix(text) == (vec3(1, 2, 3),)

    # The header errors, by the message each must give.
    HEADER_ERRORS = {
        "matrix 3 x\n": "invalid column count",
        "matrix 3 -1\n": "negative column count",
        "matrix 3 0\n1\n": "must have no rows",
    }

    @pytest.mark.parametrize("bad", [
        "",
        "matrix 2 3\n1 1 1\n1 1 1\n",
        "matrix 3 2\n1 1\n1 1\n",
        "matrix 3 2\n1 1\n1 1\n1 1\n1 1\n",
        "matrix 3 1\n1 2\n3\n4\n",
        "matrix 3 1\n1\n1/0\n3\n",
        *HEADER_ERRORS,
    ])
    def test_malformed(self, bad):
        with pytest.raises(ValueError, match=self.HEADER_ERRORS.get(bad)):
            parse_matrix(bad)


class TestClearedBits:
    """parse_rows refuses a file whose cleared integers pass MAX_CLEARED_BITS."""

    @staticmethod
    def _zonotope(rows):
        return "zonotope3\n" + "".join(" ".join(row) + "\n" for row in rows)

    def test_admits_the_generator_cap_at_small_literals(self):
        # Every denominator 1..16 (scale lcm = 720720) and numerators of 16.
        rows = [(f"{(-1) ** i * 16}/{i % 16 + 1}", "16", f"1/{(i + 7) % 16 + 1}")
                for i in range(MAX_GENERATORS)]
        _, parsed = parse_rows(self._zonotope(rows), "zonotope")
        assert int_scaled([Vec3(*row) for row in parsed])[1] == lcm(*range(1, 17))

    def test_refuses_just_past_the_limit(self):
        generators = 8
        bits = MAX_CLEARED_BITS // generators
        at = [(str(2 ** (bits - 2)), "0", "0")] + [("1", "0", "0")] * (generators - 1)
        parse_rows(self._zonotope(at), "zonotope")
        over = [(str(2 ** (bits - 1)), "0", "0")] + at[1:]
        with pytest.raises(ValueError, match=f"at most {MAX_CLEARED_BITS} bits per file"):
            parse_rows(self._zonotope(over), "zonotope")

    def test_stops_before_the_scale_grows_past_the_limit(self, monkeypatch):
        # 2000 generators with distinct 1000-digit denominators: the full lcm
        # would have millions of bits.
        seen, parsed = [], []
        monkeypatch.setattr(numeric, "lcm", lambda *a: seen.append(lcm(*a)) or seen[-1])
        monkeypatch.setattr(numeric, "parse_rational",
                            lambda text: parsed.append(text) or parse_rational(text))
        den = 10 ** 999
        rows = [(f"1/{den + 3 * i}", f"1/{den + 3 * i + 1}", f"1/{den + 3 * i + 2}")
                for i in range(MAX_GENERATORS)]
        with pytest.raises(ValueError, match="cleared to integers"):
            parse_rows(self._zonotope(rows), "zonotope")
        budget = MAX_CLEARED_BITS // MAX_GENERATORS
        assert max(s.bit_length() for s in seen) <= budget + den.bit_length() + 1
        assert len(parsed) == 1  # the first denominator alone passes the budget
