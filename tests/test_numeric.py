import itertools
import random
import sys
import tracemalloc
from fractions import Fraction
from math import comb, lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from zonomix import numeric, verify
from zonomix.numeric import (
    MAX_CLEARED_BITS,
    MAX_GENERATORS,
    SWEEP_MIN,
    E1,
    E2,
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
    sum_abs_det3_lemma,
    sum_abs_det3_pairs,
    sum_abs_det3_triples,
    vec3,
)
from zonomix.rng import SplitMix64, random_columns, random_zonotope
from zonomix.zonotope import Zonotope3, parse_zonotope
from oracles import brute_mixed_volume, brute_pair_abs_sum, brute_volume, leibniz_det3

E3 = vec3(0, 0, 1)
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
# and so must the bezout check kernel.  The af-square check kernel has one
# path, the sweep, and must equal the loop's sums.  The two paths share one
# contract: `_class_loop` and `_class_sweep` return the same four totals for
# the same (pivot, classes) pairs.

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


# The sweep's pass sorts its images by the float key alone and checks each
# run of equal keys as it goes: only a run out of exact angular order sends
# the images through `_angular_order`.

@pytest.fixture
def exact_orders(monkeypatch):
    """The list of item counts `numeric._angular_order` is called on, in order."""
    calls = []
    order = numeric._angular_order
    monkeypatch.setattr(numeric, "_angular_order",
                        lambda items: calls.append(len(items)) or order(items))
    return calls


def _item(x, y, tag):
    """A sweep item (key, x, y, tag) for an upper half-plane vector, keyed as `_pivot_images` keys it."""
    assert y > 0 or (y == 0 and x > 0)
    return -x / (abs(x) + y), x, y, tag


def _brute_class_pairs(items):
    """`_three_classes2`'s sums AA, AB, AC, BC, one |u x v| per pair of items."""
    sums = dict.fromkeys(((0, 0), (0, 1), (0, 2), (1, 2)), 0)
    for (_, ux, uy, s), (_, vx, vy, t) in itertools.combinations(items, 2):
        if (min(s, t), max(s, t)) in sums:
            sums[min(s, t), max(s, t)] += abs(ux * vy - uy * vx)
    return tuple(sums.values())


# Runs of equal float keys, each with the count of `_angular_order` calls it
# needs: exact parallels need none in either insertion order; 2^60 images
# listed by falling angle are out of exact order; in the run of three only
# the second neighbour pair is.
KEY_RUNS = {
    "parallel": ([(1, 2, 0), (2, 4, 1), (3, 6, 2), (-1, 3, 0), (5, 10, 2)], 0),
    "parallel-reversed": ([(3, 6, 2), (2, 4, 1), (1, 2, 0), (4, 8, 0), (-2, 6, 1)], 0),
    "parallel-2^60": ([(P60, 3, 0), (2 * P60, 6, 2), (3 * P60, 9, 1), (P60, 3, 1)], 0),
    "colliding": ([(P60, k, k % 3) for k in range(12, 0, -1)], 1),
    "colliding-rising": ([(P60, k, k % 3) for k in range(1, 13)], 0),
    "second-pair-only": ([(P60, 1, 0), (P60, 3, 1), (P60, 2, 2)], 1),
    "second-pair-only-one-class": ([(P60, 1, 0), (P60, 3, 0), (P60, 2, 0)], 1),
}


@pytest.mark.parametrize("case", list(KEY_RUNS))
def test_three_classes_meet_the_brute_sums_on_key_runs(case, exact_orders):
    vectors, fallbacks = KEY_RUNS[case]
    items = [_item(*v) for v in vectors]
    assert len({k for k, *_ in items}) < len(items)
    assert numeric._three_classes2(list(items)) == _brute_class_pairs(items)
    assert len(exact_orders) == fallbacks


def test_three_classes_meet_the_brute_sums_in_any_order(exact_orders):
    # Key runs of each kind among distinct keys, in random insertion orders.
    rnd = random.Random(17)
    for trial in range(200):
        vectors = [v for case in rnd.sample(list(KEY_RUNS), 3) for v in KEY_RUNS[case][0]]
        for _ in range(rnd.randint(0, 12)):
            x, y = rnd.randint(-9, 9), rnd.randint(0, 9)
            if y or x > 0:
                vectors.append((x, y, rnd.randrange(3)))
        rnd.shuffle(vectors)
        items = [_item(*v) for v in vectors]
        assert numeric._three_classes2(list(items)) == _brute_class_pairs(items), trial
    assert 0 < len(exact_orders) < 200


@pytest.mark.parametrize("m", [24, 96])
def test_sweep_keeps_the_float_order_of_random_bodies(m, exact_orders):
    rng = SplitMix64(m)
    bodies = [random_columns(rng, m, 16).scaled[0] for _ in range(3)]
    assert sum_abs_det3_bezout(*bodies) == _on_path("cubic", sum_abs_det3_bezout, *bodies)
    assert exact_orders == []


def test_sweep_orders_colliding_keys_exactly(exact_orders):
    ga, gb, gc = EDGE_CASES["colliding-float-keys"]
    assert sum_abs_det3_bezout(ga, gb, gc) == _on_path("cubic", sum_abs_det3_bezout, ga, gb, gc)
    assert exact_orders


MIXED_SIZES = (1, 2, SWEEP_MIN - 1, SWEEP_MIN, 40)


def _pivot_lists(ga, gb, gc):
    """Pivot sequences over the three generator lists, as the kernels get them and more.

    The dispatchers' and check kernels' own shapes, a zero pivot, pivots from
    every list, and every class left empty in turn.  The pair sum's loop
    shape, with the tail of ga as class B, is built in place.  Each is a
    list, so that it can be run more than once.
    """
    pivots = [(0, 0, 0)] + ga + gb + gc
    return [
        list(numeric._pivots(ga, None, gb, gc)),
        [(a, ((), ga[i + 1:], gb)) for i, a in enumerate(ga)],
        list(numeric._pivots(gc[::-1] + ga, ga, gb, gc)),
        list(numeric._pivots(pivots, ga, gb, gc)),
        list(numeric._pivots(pivots, (), gb, gc)),
        list(numeric._pivots(pivots, gc, (), gb)),
        list(numeric._pivots(pivots, gb, ga, ())),
    ]


def _sweep_each(pairs):
    """`_class_sweep` of (pivot, classes) pairs: each pivot swept alone, the totals added."""
    return tuple(map(sum, zip(*(numeric._class_sweep([(p, classes)])
                                for p, classes in pairs), (0, 0, 0, 0))))


def _assert_loop_matches_sweep(ga, gb, gc):
    for pivots in _pivot_lists(ga, gb, gc):
        loop = numeric._class_loop(pivots)
        assert loop == _sweep_each(pivots) == numeric._class_sweep(pivots)
        assert all(type(s) is int for s in loop)


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_class_loop_matches_class_sweep_on_edge_cases(case):
    _assert_loop_matches_sweep(*EDGE_CASES[case])


def test_class_loop_matches_class_sweep_on_mixed_sizes():
    rnd = random.Random(13)
    for sizes in itertools.product(MIXED_SIZES, repeat=3):
        _assert_loop_matches_sweep(*(_random_generators(rnd, m) for m in sizes))


class _Counted(int):
    """An integer coordinate that counts the products it is a factor of, once each."""

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


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
# sums and the oracles: the bezout kernel on either path, the af-square
# kernel, which always sweeps, against the dispatchers on the loop.

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
    assert af_square == _on_path("cubic", _af_square_parts, ga, gb, gc, gd, DISPATCHERS) \
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


@pytest.mark.parametrize("m", range(SWEEP_MIN + 1))
def test_af_square_sweep_matches_the_loop_at_each_size(m):
    # Up to SWEEP_MIN, where the other checks still loop: D of m generators,
    # A, B and C of m or fewer.
    rnd = random.Random(m)
    for trial in range(4):
        gd = _random_generators(rnd, m)
        ga, gb, gc = (_random_generators(rnd, m if trial == 0 else rnd.randint(0, m))
                      for _ in range(3))
        af_square = sum_abs_det3_af_square(ga, gb, gc, gd)
        assert af_square == _on_path("cubic", _af_square_parts, ga, gb, gc, gd, DISPATCHERS) \
            == (3 * brute_mixed_volume(ga, ga, gd), 6 * brute_mixed_volume(ga, gb, gd),
                6 * brute_mixed_volume(ga, gc, gd), 6 * brute_mixed_volume(gb, gc, gd))


UNITS = ([(1, 0, 0)], [(0, 1, 0)])


def test_check_kernels_on_one_generator_b_and_c():
    # V(A,A,B) and V(A,A,C) with B = e1, C = e2 are the 2D pair sums of the
    # lemma's matrix form: through the sweep, and below SWEEP_MIN through the
    # bezout loop and the lemma's own.
    rnd = random.Random(12)
    ga = [g for g in _random_generators(rnd, 40) if g[2]]
    assert len(ga) >= SWEEP_MIN
    for g in (ga, ga[:SWEEP_MIN - 1]):
        four = sum_abs_det3_bezout(g, *UNITS)
        combos, pairs_ab, pairs_ac, triples = four
        xs, ys, zs = zip(*g)
        assert pairs_ab == sum_abs_det2_pairs(ys, zs) and pairs_ac == sum_abs_det2_pairs(xs, zs)
        assert triples == sum(abs(z) for z in zs)
        assert combos == brute_volume(g)
        assert sum_abs_det3_lemma(g) == four


# The lemma's four sums are the bezout kernel's with the unit classes [e1]
# and [e2].  Below SWEEP_MIN they come from the lemma's own loop, from it on
# from the sweep; on either path they must be the bezout kernel's integers
# on that path, and the oracles' values.

def _assert_lemma_kernel_agrees(g):
    xs, ys, zs = zip(*g) if g else ((), (), ())
    expected = (brute_volume(g), brute_pair_abs_sum(ys, zs), brute_pair_abs_sum(xs, zs),
                6 * brute_mixed_volume(g, *UNITS))
    lemma = sum_abs_det3_lemma(g)
    assert lemma == sum_abs_det3_bezout(g, *UNITS) == expected
    for path in ("cubic", "sweep"):
        assert _on_path(path, sum_abs_det3_lemma, g) \
            == _on_path(path, sum_abs_det3_bezout, g, *UNITS) == expected
    assert all(type(s) is int for s in lemma)


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_lemma_kernel_agrees_on_edge_cases(case):
    for g in EDGE_CASES[case]:
        _assert_lemma_kernel_agrees(g)


@pytest.mark.parametrize("m", sorted(set(range(SWEEP_MIN + 1)) | set(MIXED_SIZES)))
def test_lemma_kernel_agrees_at_each_size(m):
    rnd = random.Random(m)
    for _ in range(3 if m < 40 else 1):
        _assert_lemma_kernel_agrees(_random_generators(rnd, m))


def test_lemma_loop_takes_one_cross_product_per_pair():
    # The cross product g_i x g_j is 6 products, taken once per pair, and each
    # determinant (g_i x g_j) . g_k 3 more; the two pair sums read coordinates
    # of the cross product and the last sum the z coordinates, with none.
    rnd = random.Random(15)
    for m in range(SWEEP_MIN):
        g = [tuple(map(_Counted, v)) for v in _random_generators(rnd, m)]
        _Counted.products = 0
        sum_abs_det3_lemma(g)
        assert _Counted.products == 6 * comb(m, 2) + 3 * comb(m, 3), m


# A metamorphic referee at sizes the oracles cannot reach: an integer T with
# det T = 1 leaves every |det| sum alone, while its 2^40 shears change every
# plane image, float key and tie pattern the sweep sees.  An upper
# unitriangular T keeps each generator's last nonzero coordinate, which is
# the pivot coordinate the sweep divides by; its transpose moves it.
SHEAR = ((1, 2 ** 40, 0), (0, 1, 2 ** 40 + 1), (0, 0, 1))
UNIMODULAR = (SHEAR, tuple(zip(*SHEAR)))


def _sampled_bodies(count, m, bound=16):
    """The integer generators of `count` bodies of exactly m generators from
    `rng.random_zonotope`, one per stream seed whose first draw (the count) is m."""
    seeds = (s for s in itertools.count() if SplitMix64(s).randint(1, m) == m)
    return [random_zonotope(SplitMix64(s), m, bound).scaled[0]
            for s in itertools.islice(seeds, count)]


def test_unimodular_image_keeps_the_check_sums_at_200_generators():
    bodies = _sampled_bodies(4, 200)
    assert [len(g) for g in bodies] == [200] * 4
    kernels = ((sum_abs_det3_bezout, 3), (sum_abs_det3_af_square, 4))
    sums = [kernel(*bodies[:count]) for kernel, count in kernels]
    assert all(all(four) for four in sums)
    assert all(type(s) is int for four in sums for s in four)
    for t in UNIMODULAR:
        assert det3(*t) == 1
        images = [[tuple(sum(a * c for a, c in zip(row, g)) for row in t) for g in gens]
                  for gens in bodies]
        assert [kernel(*images[:count]) for kernel, count in kernels] == sums, t


# More relations at those sizes.  Each catches a different fault: a pivot
# spot-check sees a swapped class total, which cancels in a self-comparison;
# additivity and scaling see a lost division by the pivot coordinate; the
# unimodular images see a broken angular order.

def _image(t, gens):
    """The generators g mapped to T g, T given by its rows."""
    return [tuple(sum(a * c for a, c in zip(row, g)) for row in t) for g in gens]


def test_sweep_pivots_match_the_loop_at_200_generators():
    ga, gb, gc, gd = _sampled_bodies(4, 200)
    pivoted = ([(a, (ga[i + 1:], gb, gc)) for i, a in enumerate(ga)]
               + [(d, (ga, gb, gc)) for d in gd])
    spots = random.Random(200).sample(pivoted, 8)
    # The sweep divides by the pivot's last nonzero coordinate; let it not be a unit.
    assert any(abs(next(c for c in p[::-1] if c)) > 1 for p, _ in spots)
    for spot in spots:
        assert _sweep_each([spot]) == numeric._class_loop([spot])


def test_single_sums_add_over_a_split_of_a():
    (whole,) = _sampled_bodies(1, 400)
    gb, gc = _sampled_bodies(2, 200)
    a1, a2 = whole[:150], whole[150:]
    assert sum_abs_det3_triples(whole, gb, gc) == \
        sum_abs_det3_triples(a1, gb, gc) + sum_abs_det3_triples(a2, gb, gc)
    assert sum_abs_det3_combos(whole) == (sum_abs_det3_combos(a1) + sum_abs_det3_combos(a2)
                                          + sum_abs_det3_pairs(a1, a2) + sum_abs_det3_pairs(a2, a1))


def test_integer_map_scales_every_check_sum_by_its_determinant():
    t = ((3, 1, 0), (0, 2, 1), (1, 0, -2))
    d = det3(*t)
    assert abs(d) > 1
    bodies = _sampled_bodies(4, 200)
    images = [_image(t, gens) for gens in bodies]
    for kernel, count in ((sum_abs_det3_bezout, 3), (sum_abs_det3_af_square, 4)):
        sums = kernel(*bodies[:count])
        assert kernel(*images[:count]) == tuple(abs(d) * s for s in sums)


def test_unimodular_image_keeps_the_single_sums_at_200_generators():
    ga, gb, gc = _sampled_bodies(3, 200)

    def sums(ga, gb, gc):
        return (sum_abs_det3_triples(ga, gb, gc), sum_abs_det3_pairs(ga, gb),
                sum_abs_det3_combos(gc))

    expected = sums(ga, gb, gc)
    assert all(expected)
    for t in UNIMODULAR:
        assert sums(*(_image(t, gens) for gens in (ga, gb, gc))) == expected, t


@pytest.mark.parametrize("check, count", [("check_bezout", 3)])
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


# The class kernels each check runs on bodies of m generators, below
# SWEEP_MIN and at it: the bezout check loops then sweeps, the lemma check
# runs its own loop (neither class kernel) then sweeps, and the af-square
# check sweeps once at every size.
CHECK_PATHS = {
    "check_bezout": (3, ["cubic"], ["sweep"]),
    "check_lemma_matrix": (1, [], ["sweep"]),
    "check_af_square": (4, ["sweep"], ["sweep"]),
}


@pytest.mark.parametrize("m", [0, 1, SWEEP_MIN - 1, SWEEP_MIN])
@pytest.mark.parametrize("check", list(CHECK_PATHS))
def test_each_check_runs_its_kernel_path_at_every_size(check, m, kernel_calls):
    count, below, at = CHECK_PATHS[check]
    body = Zonotope3.from_scaled(_random_generators(random.Random(2), SWEEP_MIN)[:m], 1)
    assert getattr(verify, check)(*[body] * count).holds
    assert kernel_calls == (below if m < SWEEP_MIN else at)


def test_tails_are_the_pairs_of_a_pivot_over_its_own_list():
    rnd = random.Random(16)
    for sizes in itertools.product((0, 1, 5), repeat=4):
        ga, gb, gc, gd = (_random_generators(rnd, m) for m in sizes)
        assert list(numeric._pivots(ga, None, gb, gc)) == \
            [(a, (ga[i + 1:], gb, gc)) for i, a in enumerate(ga)]
        assert list(numeric._pivots(gd, ga, gb, gc)) == [(d, (ga, gb, gc)) for d in gd]


def test_a_tail_sweep_holds_one_slice_at_a_time():
    (g,) = _sampled_bodies(1, 300)
    slices = sum(sys.getsizeof(g[i + 1:]) for i in range(len(g)))
    tracemalloc.start()
    try:
        sum_abs_det3_combos(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A list of all the (pivot, classes) pairs peaked at 435 KB, above the
    # 371 KB of the slices; one pair at a time, 105 KB.
    assert peak < slices / 2


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

    # Literals that a flag and a body file read alike: values, and refusals
    # in their order of precedence (invalid, digit limit, zero denominator).
    ONES = "1" * sys.get_int_max_str_digits()
    LITERALS = ["-3/7", "+4/6", "007/010", "-0", "0/5", f"-{ONES}/{ONES}",
                f"{ONES[:-1]}2/{ONES[:-1]}3", "1/0", "0/000", "x", "1.5", "3/", "1/-2", "x/0",
                f"1/{ONES}0", f"+0{ONES}", f"{ONES}1/0", f"1x{ONES}"]

    @pytest.mark.parametrize("pad", ["", " ", "\t \n"], ids=ascii)
    @pytest.mark.parametrize("literal", LITERALS, ids=lambda literal: (
        literal if len(literal) < 12 else f"{literal[:6]}..{len(literal)}"))
    def test_flag_reads_as_a_body_file(self, literal, pad):
        def outcome(read):
            try:
                return read()
            except ValueError as error:
                return str(error)

        flag = outcome(lambda: parse_rational(pad + literal + pad))
        body = outcome(lambda: parse_zonotope(f"zonotope3\n{literal} 0 0\n").generators[0].x)
        if isinstance(body, str):
            # A message shows the flag as given, padding included.
            assert flag == body.replace(repr(literal), repr(pad + literal + pad))
        else:
            assert type(flag) is Fraction and flag == body == Fraction(literal)

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
        header, rows, scale = numeric.parse_rows(text, "zonotope")
        assert header == lines[0]
        parsed = [[parse_rational(e) for e in line.split()] for line in lines[1:]]
        assert rows == [[(q.numerator, q.denominator) for q in row] for row in parsed]
        assert scale == 5

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


def _reader_texts(rows, seps, comment):
    """The zonotope file and the matrix file of `rows` (3 literals each).

    Lines end with seps[i % len(seps)], and `comment` lines are spread among
    them.  A matrix column is a generator, so both texts hold one body.
    """
    def text(lines):
        lines = [comment, *lines[:1], "", *lines[1:2], comment, *lines[2:], comment]
        return "".join(line + seps[i % len(seps)] for i, line in enumerate(lines))

    columns = [" ".join(row[k] for row in rows) for k in range(3)] if rows else []
    return (text(["zonotope3", *(" \t".join(row) for row in rows)]),
            text([f"matrix 3 {len(rows)}", *columns]))


def _random_literal(rnd):
    """p/q with |p|, q <= 16, often unreduced, signed or zero-padded."""
    p, q, k = rnd.randint(-16, 16), rnd.randint(1, 16), rnd.choice((1, 1, 2, 3, 6))
    sign = "-" if p < 0 else rnd.choice(("", "", "+", "-" if p == 0 else ""))
    num = "0" * rnd.randint(0, 2) + str(abs(p) * k)
    return sign + num if q == 1 and k == 1 else f"{sign}{num}/{'0' * rnd.randint(0, 1)}{q * k}"


class TestIntegerReader:
    """The reader's integer view against `int_scaled` of the per-literal parse.

    Each literal's `parse_rational` value is also checked against the parser
    of `Fraction`, which shares no code with it.
    """

    LIMIT = sys.get_int_max_str_digits()
    UNREDUCED = [["4/6", "-0/3", "+7"], ["007/010", "-12/8", "0"], ["+0/1", "-5/15", "-0"],
                 # Longer than the digit limit, though neither integer is.
                 [f"{'0' * (LIMIT // 2)}4/{'0' * (LIMIT // 2)}6", "1", f"-{'2' * (LIMIT // 2)}"]]

    @staticmethod
    def _check(rows, seps=("\n",), comment="# c"):
        expected = tuple(Vec3(*map(parse_rational, row)) for row in rows)
        assert all(q == Fraction(literal) for row, v in zip(rows, expected)
                   for literal, q in zip(row, v))
        ints, scale = int_scaled(expected)
        zonotope_text, matrix_text = _reader_texts(rows, seps, comment)
        body = parse_zonotope(zonotope_text)
        assert body.scaled == (tuple(ints), scale)
        assert body == Zonotope3(expected)
        columns = parse_matrix(matrix_text)
        assert columns.scaled == (tuple(ints), scale)
        assert tuple(columns) == expected
        assert all(type(x) is Fraction for column in columns for x in column)

    def test_unreduced_and_signed_literals(self):
        self._check(self.UNREDUCED)
        for row in self.UNREDUCED:  # alone, an unreduced denominator would change the scale
            self._check([row])
        assert parse_zonotope("zonotope3\n4/6 -0/3 +7\n").scaled == (((2, 0, 21),), 3)

    @pytest.mark.parametrize("sep", LINE_BREAKS, ids=ascii)
    def test_every_line_boundary_and_comments(self, sep):
        self._check(self.UNREDUCED, (sep,))
        self._check(self.UNREDUCED, (sep, "\n", "\r\n"), comment="#4/6 x")

    def test_no_generators(self):
        self._check([])

    @pytest.mark.parametrize("m", [1, 2, 3, 24, 96, MAX_GENERATORS])
    def test_random_files(self, m):
        rnd = random.Random(f"reader:{m}")
        rows = [[_random_literal(rnd) for _ in range(3)] for _ in range(m)]
        self._check(rows, rnd.sample(LINE_BREAKS, 4))

    # Refusals in their order of precedence: the count cap before any literal
    # is read; then literal by literal, each literal's own refusal (invalid,
    # too many digits, zero denominator, in that order) or the bit budget;
    # then the header and the row lengths.
    _OVER = f"1/{2 ** 40 + 1}"  # 41 bits of scale: past the budget of 2000 generators
    _CAP = (f"zonotope: at most {MAX_GENERATORS} generators "
            f"({3 * MAX_GENERATORS} coordinates) per file")
    _BITS = (f"zonotope: {MAX_GENERATORS} generators cleared to integers need more than "
             f"{MAX_CLEARED_BITS // MAX_GENERATORS} bits each; at most {MAX_CLEARED_BITS} "
             f"bits per file (generators times bits)")
    _DIGITS = (f"integer in rational literal has {LIMIT + 1} digits, "
               f"more than the limit ({LIMIT} digits)")
    _FILL = "1 0 0\n" * (MAX_GENERATORS - 2)
    REFUSALS = {
        "x 0 0\n" + "1 0 0\n" * MAX_GENERATORS: _CAP,
        f"{_OVER} 0 0\nx 0 0\n" + _FILL: _BITS,
        f"x 0 0\n{_OVER} 0 0\n" + _FILL: "invalid rational literal: 'x'",
        f"{_OVER} 0 0\n{'1' * (LIMIT + 1)} 0 0\n" + _FILL: _BITS,
        "1 2\n1 x 3\n": "invalid rational literal: 'x'",
        "1 2\n1 2 3\n": "zonotope: expected 3 coordinates per generator, got 2",
        "1 2 3/0\n": "zero denominator in rational literal: '3/0'",
        "0/000 x 1\n": "zero denominator in rational literal: '0/000'",
        "x 0/0 1\n": "invalid rational literal: 'x'",
        f"{'1' * (LIMIT + 1)} 0 0\n": _DIGITS,
        f"-{'0' * LIMIT}1 0 0\n": _DIGITS,
        f"1 0 {'1' * (LIMIT + 1)}/0\n": _DIGITS,
        f"1/0 0 {'1' * (LIMIT + 1)}\n": "zero denominator in rational literal: '1/0'",
        f"1x{'1' * LIMIT} 0 0\n": f"invalid rational literal: '1x{'1' * LIMIT}'",
    }

    @pytest.mark.parametrize("rows", REFUSALS, ids=lambda rows: ascii(rows[:24]))
    def test_refusals_in_order_of_precedence(self, rows):
        with pytest.raises(ValueError) as info:
            parse_zonotope("zonotope3\n" + rows)
        assert str(info.value) == self.REFUSALS[rows]

    def test_header_refused_after_the_literals(self):
        with pytest.raises(ValueError, match="invalid rational literal: 'x'"):
            parse_zonotope("zonotope 3\n1 x 3\n")
        with pytest.raises(ValueError, match="expected header 'zonotope3'"):
            parse_zonotope("zonotope 3\n1 2 3\n")


class TestMatrixFormat:
    def test_round_trip(self):
        mat = (vec3(1, 2, 3), vec3("1/2", -1, 0))
        assert tuple(parse_matrix(render_matrix(mat))) == mat

    def test_zero_columns(self):
        assert tuple(parse_matrix(render_matrix(()))) == ()

    def test_comments_and_blanks(self):
        text = "# generators\n\nmatrix 3 1\n1\n# middle\n2\n\n3\n"
        assert tuple(parse_matrix(text)) == (vec3(1, 2, 3),)

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
        _, parsed, scale = parse_rows(self._zonotope(rows), "zonotope")
        assert scale == lcm(*range(1, 17))
        assert int_scaled([Vec3(*(Fraction(*q) for q in row)) for row in parsed])[1] == scale

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
        pattern = numeric._RATIONAL_RE  # the reader matches each literal once, in order
        monkeypatch.setattr(numeric, "_RATIONAL_RE", SimpleNamespace(
            fullmatch=lambda text: parsed.append(text) or pattern.fullmatch(text)))
        den = 10 ** 999
        rows = [(f"1/{den + 3 * i}", f"1/{den + 3 * i + 1}", f"1/{den + 3 * i + 2}")
                for i in range(MAX_GENERATORS)]
        with pytest.raises(ValueError, match="cleared to integers"):
            parse_rows(self._zonotope(rows), "zonotope")
        budget = MAX_CLEARED_BITS // MAX_GENERATORS
        assert max(s.bit_length() for s in seen) <= budget + den.bit_length() + 1
        assert len(parsed) == 1  # the first denominator alone passes the budget
