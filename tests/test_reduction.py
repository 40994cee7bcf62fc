import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zonomix.numeric import SWEEP_MIN
from zonomix.reduction import (
    BraidCell,
    SStats,
    TwoValuePattern,
    biconvexity_probe,
    braid_cell_of,
    extremal_config,
    f_closed_form,
    f_direct,
    g_closed_form,
    g_direct,
    generating_point,
    s_stats,
    slack_identity,
)
from zonomix.rng import SplitMix64
from zonomix.verify import check_bezout
from zonomix.zonotope import Zonotope3, mixed_volume, mixed_volume_repeated, volume
from oracles import esym, random_rational, scale_vec

F = Fraction
nonneg = st.fractions(min_value=0, max_value=30, max_denominator=10)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def frs(*values):
    return tuple(F(v) for v in values)


def _random_two_valued(rng, m_max=6, bound=9):
    m = rng.randint(1, m_max)
    membership = tuple(rng.below(2) == 0 for _ in range(m))
    return (TwoValuePattern(membership, random_rational(rng, bound),
                            random_rational(rng, bound)),
            tuple(random_rational(rng, bound) for _ in range(m)))


class TestGeneratingPoint:
    def test_basic(self):
        p = TwoValuePattern((True, False, False), F(0), F(1))
        assert generating_point(p, frs(1, 1, 1)) == frs(0, 1, 1)

    def test_all_inside(self):
        p = TwoValuePattern((True, True, True), F(1), F(7))
        assert generating_point(p, frs(2, 3, 5)) == frs(2, 3, 5)

    def test_alternating(self):
        p = TwoValuePattern((True, False, True), F(1), F(2))
        assert generating_point(p, frs(1, 1, 2)) == frs(1, 2, 2)

    def test_length_mismatch(self):
        p = TwoValuePattern((True,), F(0), F(1))
        with pytest.raises(ValueError):
            generating_point(p, frs(1, 2))


class TestG:
    def test_direct_example(self):
        assert g_direct(frs(0, 1, 1), frs(1, 1, 1)) == 2

    def test_direct_proportional(self):
        assert g_direct(frs(2, 3, 5), frs(2, 3, 5)) == 0

    def test_direct_pair(self):
        assert g_direct(frs(1, 0), frs(0, 1)) == 1

    def test_closed_form_examples(self):
        p = TwoValuePattern((True, False, False), F(0), F(1))
        assert g_closed_form(p, frs(1, 1, 1)) == 2
        assert g_closed_form(TwoValuePattern((True, False), F(3), F(3)), frs(1, 1)) == 0
        assert g_closed_form(TwoValuePattern((True, True), F(0), F(5)), frs(1, 1)) == 0

    def test_closed_form_matches_direct(self):
        rng = SplitMix64(31)
        for _ in range(200):
            pattern, z = _random_two_valued(rng)
            x = generating_point(pattern, z)
            assert g_direct(x, z) == g_closed_form(pattern, z)


class TestSStats:
    def test_one_index_per_part(self):
        s = s_stats((True, True, False, False), (True, False, True, False),
                    frs(1, 1, 1, 1))
        assert s == SStats(F(1), F(1), F(1), F(1))

    def test_everything_in_first_part(self):
        s = s_stats((True,) * 3, (True,) * 3, frs(1, -2, 3))
        assert s == SStats(F(6), F(0), F(0), F(0))

    def test_weighted(self):
        s = s_stats((True, True, False, False), (True, False, True, False),
                    frs(1, 2, 3, 4))
        assert s == SStats(F(1), F(2), F(3), F(4))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SStats(F(1), F(-1), F(0), F(0))


class TestF:
    def test_direct_equality_configuration(self):
        assert f_direct(frs(0, 0, 1, 1), frs(0, 1, 0, 1), frs(1, 1, 1, 1)) == 16

    def test_direct_small_m(self):
        assert f_direct(frs(1, 2), frs(0, 1), frs(1, 1)) == 0

    def test_direct_repeated_rows(self):
        x = frs(1, 2, 3, 4)
        assert f_direct(x, x, frs(1, 1, 1, 2)) == 0

    def test_closed_form_examples(self):
        assert f_closed_form(SStats(*frs(1, 1, 1, 1)), F(1), F(1)) == 16
        assert f_closed_form(SStats(*frs(1, 1, 1, 1)), F(0), F(5)) == 0
        s = SStats(*frs(1, 2, 3, 4))
        assert esym((F(1), F(2), F(3), F(4)), 3) * esym((F(1), F(2), F(3), F(4)), 1) == 500
        assert f_closed_form(s, F(1), F(1)) == 500

    def test_negative_gaps_rejected(self):
        with pytest.raises(ValueError):
            f_closed_form(SStats(*frs(1, 1, 1, 1)), F(-1), F(1))
        with pytest.raises(ValueError):
            f_closed_form(SStats(*frs(1, 1, 1, 1)), F(1), F(-1))

    def test_closed_form_matches_direct(self):
        rng = SplitMix64(32)
        for _ in range(200):
            m = rng.randint(1, 6)
            z = tuple(random_rational(rng, 9) for _ in range(m))
            pe = tuple(rng.below(2) == 0 for _ in range(m))
            pf = tuple(rng.below(2) == 0 for _ in range(m))
            lam, lam2 = random_rational(rng, 9), random_rational(rng, 9)
            mu, mu2 = random_rational(rng, 9), random_rational(rng, 9)
            x = generating_point(TwoValuePattern(pe, lam, lam2), z)
            y = generating_point(TwoValuePattern(pf, mu, mu2), z)
            s = s_stats(pe, pf, z)
            assert f_direct(x, y, z) == f_closed_form(s, abs(lam - lam2), abs(mu - mu2))


class TestSlackIdentity:
    @pytest.mark.parametrize("s, expected", [
        ((1, 1, 1, 1), 0),
        ((1, 2, 3, 4), 4),   # 504 - 500 = (1*4 - 2*3)^2
        ((1, 0, 0, 1), 1),
    ])
    def test_examples(self, s, expected):
        slack, square = slack_identity(SStats(*frs(*s)))
        assert slack == square == expected

    @given(nonneg, nonneg, nonneg, nonneg)
    def test_identity_everywhere(self, s1, s2, s3, s4):
        slack, square = slack_identity(SStats(s1, s2, s3, s4))
        assert slack == square
        assert square == (s1 * s4 - s2 * s3) ** 2

    @given(nonneg, nonneg, nonneg, nonneg,
           st.fractions(min_value=0, max_value=9, max_denominator=6),
           st.fractions(min_value=0, max_value=9, max_denominator=6))
    def test_bounds_closed_form(self, s1, s2, s3, s4, dl, dm):
        s = SStats(s1, s2, s3, s4)
        bound = dl * dm * (s1 + s2) * (s3 + s4) * (s1 + s3) * (s2 + s4)
        value = f_closed_form(s, dl, dm)
        assert value <= bound
        assert bound - value == dl * dm * (s1 * s4 - s2 * s3) ** 2


class TestBraidCell:
    def test_sorting(self):
        assert braid_cell_of(frs(3, 1, 2), frs(1, 1, 1)) == BraidCell((2, 3, 1))

    def test_ties_break_by_index(self):
        assert braid_cell_of(frs(2, 3, 5), frs(2, 3, 5)) == BraidCell((1, 2, 3))

    def test_negative_denominators(self):
        assert braid_cell_of(frs(1, -1), frs(1, -1)) == BraidCell((1, 2))

    def test_zero_z_rejected(self):
        with pytest.raises(ValueError):
            braid_cell_of(frs(1, 2), frs(1, 0))

    def test_two_valued_points_sort_by_side(self):
        rng = SplitMix64(33)
        for _ in range(100):
            m = rng.randint(1, 6)
            membership = tuple(rng.below(2) == 0 for _ in range(m))
            lo = random_rational(rng, 9)
            hi = lo + F(1 + rng.below(5), 1 + rng.below(5))
            z = tuple(F(1 + rng.below(9), 1 + rng.below(4)) for _ in range(m))
            x = generating_point(TwoValuePattern(membership, lo, hi), z)
            cell = braid_cell_of(x, z)
            inside = [i + 1 for i, sel in enumerate(membership) if sel]
            outside = [i + 1 for i, sel in enumerate(membership) if not sel]
            assert cell.sigma == tuple(inside + outside)


class TestBiconvexity:
    def test_equal_endpoints(self):
        x = frs(1, 2, 3)
        assert biconvexity_probe(x, x, frs(0, 1, 0), frs(1, 1, 1))

    def test_random_probes(self):
        rng = SplitMix64(34)
        for _ in range(150):
            m = rng.randint(1, 6)
            draw = lambda: tuple(random_rational(rng, 9) for _ in range(m))
            x0, x1, y, z = draw(), draw(), draw(), draw()
            assert biconvexity_probe(x0, x1, y, z)

    def test_swapped_blocks(self):
        # |det| is unchanged when the first two rows swap, so probing the
        # second block reduces to probing the first with x and y exchanged.
        rng = SplitMix64(36)
        for _ in range(150):
            m = rng.randint(1, 6)
            draw = lambda: tuple(random_rational(rng, 9) for _ in range(m))
            y0, y1, x, z = draw(), draw(), draw(), draw()
            assert f_direct(x, y0, z) == f_direct(y0, x, z)
            assert biconvexity_probe(y0, y1, x, z)


class TestExtremalConfig:
    def test_unit_weights(self):
        a, b, c = extremal_config(SStats(*frs(1, 1, 1, 1)), F(0), F(1), F(0), F(1))
        assert set(a.generators) == {(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)}
        assert check_bezout(a, b, c).ratio == F(3, 2)

    def test_unbalanced_weights_fall_short(self):
        a, b, c = extremal_config(SStats(*frs(1, 2, 3, 4)), F(0), F(1), F(0), F(1))
        ratio = check_bezout(a, b, c).ratio
        assert ratio < F(3, 2)
        # frozen via the closed forms: ratio = (3/2) * 500 / 504
        assert ratio == F(3, 2) * F(500, 504)

    def test_balanced_weights_attain(self):
        a, b, c = extremal_config(SStats(*frs(1, 2, 2, 4)), F(0), F(1), F(0), F(1))
        assert check_bezout(a, b, c).ratio == F(3, 2)

    @pytest.mark.parametrize("weights", [(1, 1, 1, 1), (1, 2, 2, 4), (2, 3, 4, 6)])
    def test_split_generators_attain_on_the_sweep(self, weights):
        # The segments [0, +-t_k g], with t_k > 0 summing to 1, add up to a
        # translate of [0, g].  Split so, A keeps its volumes, now with at
        # least SWEEP_MIN generators and exact angular ties, so every sum
        # below runs on the sweep.
        a, b, c = extremal_config(SStats(*frs(*weights)), F(0), F(1), F(0), F(1))
        rnd = random.Random(sum(weights))
        pieces = []
        for g in a.generators:
            parts = [rnd.randint(1, 9) for _ in range(rnd.randint(3, 5))]
            pieces += [scale_vec(F(rnd.choice((-w, w)), sum(parts)), g) for w in parts]
        rnd.shuffle(pieces)
        assert len(pieces) >= SWEEP_MIN
        split = Zonotope3.from_generators(pieces)
        assert check_bezout(split, b, c).ratio == F(3, 2)
        assert volume(split) == volume(a)
        assert mixed_volume(split, split, b) == mixed_volume(a, a, b)
        assert mixed_volume_repeated(split, c) == mixed_volume_repeated(a, c)

    def test_zero_weights_omitted(self):
        a, _, _ = extremal_config(SStats(*frs(0, 1, 1, 0)), F(0), F(1), F(0), F(1))
        assert len(a.generators) == 2

    def test_always_holds_with_equality_iff_balanced(self):
        rng = SplitMix64(35)
        for _ in range(100):
            s = SStats(*(F(rng.below(5), 1) for _ in range(4)))
            lo, lo2 = random_rational(rng, 6), random_rational(rng, 6)
            hi = lo + F(1 + rng.below(6), 1 + rng.below(3))
            hi2 = lo2 + F(1 + rng.below(6), 1 + rng.below(3))
            triple = extremal_config(s, lo, hi, lo2, hi2)
            report = check_bezout(*triple)
            assert report.holds
            if report.ratio is not None:
                assert (report.slack == 0) == (s.s1 * s.s4 == s.s2 * s.s3)
