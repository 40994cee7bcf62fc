from fractions import Fraction

import pytest

from zonomix import zonotope
from zonomix.numeric import E1, E2, E3, Vec3, vec3
from zonomix.rng import SplitMix64, random_vectors, random_zonotope, trial_seed
from zonomix.verify import (
    TARGETS,
    FuzzConfig,
    check_af_square,
    check_bezout,
    check_lemma_matrix,
    fuzz,
    tightness_ratio,
)
from zonomix.zonotope import Zonotope3, mixed_volume, mixed_volume_repeated, volume
from oracles import brute_mixed_volume, brute_pair_abs_sum, brute_volume

CUBE = Zonotope3((E1, E2, E3))
SEG1 = Zonotope3((E1,))
SEG2 = Zonotope3((E2,))
TIGHT = Zonotope3.from_generators([(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)])


class TestBezout:
    def test_cube_triple(self):
        report = check_bezout(CUBE, CUBE, CUBE)
        assert (report.lhs, report.rhs) == (1, Fraction(3, 2))
        assert report.holds and report.slack == Fraction(1, 2)
        assert report.ratio == 1  # lhs over the rhs product without the 3/2

    def test_equality_configuration(self):
        # oracle: lhs = 4 * 2/3 = 8/3, rhs = (3/2) * (4/3)^2 = 8/3
        assert brute_volume(TIGHT.generators) == 4
        assert brute_mixed_volume(TIGHT.generators, SEG1.generators, SEG2.generators) \
            == Fraction(2, 3)
        report = check_bezout(TIGHT, SEG1, SEG2)
        assert report.lhs == report.rhs == Fraction(8, 3)
        assert report.slack == 0 and report.holds
        assert report.ratio == Fraction(3, 2)

    def test_flat_body(self):
        flat = Zonotope3((E1, E2))
        report = check_bezout(flat, CUBE, TIGHT)
        assert report.lhs == 0 and report.holds

    def test_ratio_none_when_factor_vanishes(self):
        report = check_bezout(SEG1, SEG1, SEG2)
        assert report.ratio is None


class TestScalingPerCheck:
    """Each body is cleared to integers once per check, not once per volume."""

    @pytest.fixture
    def scaled_calls(self, monkeypatch):
        calls = []
        inner = zonotope.int_scaled
        monkeypatch.setattr(zonotope, "int_scaled", lambda gens: calls.append(gens) or inner(gens))
        return calls

    def test_bezout_scales_three_bodies_once_each(self, scaled_calls):
        rng = SplitMix64(35)  # 4, 5 and 6 generators; every volume is nonzero
        a, b, c = (random_zonotope(rng, 6, 16) for _ in range(3))
        report = check_bezout(a, b, c)
        assert scaled_calls == [a.generators, b.generators, c.generators]
        assert report.ratio is not None and report.ratio > 0
        assert report == check_bezout(*(Zonotope3(z.generators) for z in (a, b, c)))
        ga, gb, gc = a.generators, b.generators, c.generators
        assert (report.lhs, report.rhs) == (
            brute_volume(ga) * brute_mixed_volume(ga, gb, gc),
            Fraction(3, 2) * brute_mixed_volume(ga, ga, gb) * brute_mixed_volume(ga, ga, gc))

    def test_af_square_scales_four_bodies_once_each(self, scaled_calls):
        rng = SplitMix64(32)
        bodies = [random_zonotope(rng, 5, 16) for _ in range(4)]
        check_af_square(*bodies)
        assert len(scaled_calls) == 4


class TestTightnessRatio:
    def test_equality_configuration(self):
        assert tightness_ratio(TIGHT, SEG1, SEG2) == Fraction(3, 2)

    def test_cube_with_segments(self):
        assert tightness_ratio(CUBE, SEG1, SEG2) == Fraction(3, 2)

    def test_cube_plus_diagonal(self):
        a = Zonotope3((E1, E2, E3, vec3(1, 1, 1)))
        # frozen from the minor-sum oracle: 4 * (1/3) / (1 * 1)
        assert brute_volume(a.generators) == 4
        assert brute_mixed_volume(a.generators, SEG1.generators, SEG2.generators) \
            == Fraction(1, 3)
        assert tightness_ratio(a, SEG1, SEG2) == Fraction(4, 3)

    def test_zero_denominator_names_factor(self):
        flat = Zonotope3((E1, E2))
        with pytest.raises(ZeroDivisionError, match=r"V\(A,A,B\)"):
            tightness_ratio(flat, SEG1, SEG2)
        with pytest.raises(ZeroDivisionError, match=r"V\(A,A,C\)"):
            tightness_ratio(CUBE, SEG1, Zonotope3(()))


class TestAfSquare:
    def test_cube_example(self):
        report = check_af_square(CUBE, SEG1, SEG2, CUBE)
        assert report.lhs == Fraction(1, 6)
        assert report.rhs == Fraction(2, 9)
        assert report.holds

    def test_all_degenerate(self):
        report = check_af_square(SEG1, SEG1, SEG1, SEG1)
        assert report.lhs == 0 and report.rhs == 0 and report.holds

    def test_holds_on_random_zonotopes(self):
        rng = SplitMix64(21)
        for _ in range(50):
            bodies = [random_zonotope(rng, 5, 9) for _ in range(4)]
            assert check_af_square(*bodies).holds


class TestLemma:
    def test_basis_vectors(self):
        report = check_lemma_matrix([E1, E2, E3])
        assert report.lhs == 1
        assert report.rhs == 1

    def test_equality_configuration(self):
        vectors = list(TIGHT.generators)
        # brute force: triple-minor sum 4, z-sum 4; each pair-minor sum 4
        assert brute_volume(vectors) * 4 == 16
        report = check_lemma_matrix(vectors)
        assert report.lhs == 16
        assert report.rhs == 16

    def test_small_and_flat(self):
        vectors = [vec3(1, 0, 0), vec3(0, 1, 0)]
        report = check_lemma_matrix(vectors)
        assert report.lhs == 0
        assert report.rhs == 0
        assert report.holds and report.ratio is None

    def test_agrees_with_brute_force(self):
        rng = SplitMix64(22)
        for _ in range(40):
            vectors = random_vectors(rng, 6, 9)
            xs = [v.x for v in vectors]
            ys = [v.y for v in vectors]
            zs = [v.z for v in vectors]
            report = check_lemma_matrix(vectors)
            assert report.lhs == brute_volume(vectors) * sum(abs(z) for z in zs)
            assert report.rhs == \
                brute_pair_abs_sum(ys, zs) * brute_pair_abs_sum(xs, zs)

    def test_bridge_to_mixed_volumes(self):
        rng = SplitMix64(23)
        for _ in range(40):
            vectors = random_vectors(rng, 6, 9)
            a = Zonotope3(tuple(vectors))
            lemma_report = check_lemma_matrix(vectors)
            assert lemma_report.lhs == 6 * volume(a) * mixed_volume(a, SEG1, SEG2)
            assert lemma_report.rhs == \
                9 * mixed_volume_repeated(a, SEG1) * mixed_volume_repeated(a, SEG2)
            bezout_report = check_bezout(a, SEG1, SEG2)
            assert lemma_report.holds == bezout_report.holds
            assert lemma_report.slack == 6 * bezout_report.slack

    def test_degenerate_z_entries(self):
        vectors = [vec3(1, 2, 0), vec3(3, 1, 0), vec3(2, 2, 1), vec3(-1, 0, 0)]
        report = check_lemma_matrix(vectors)
        assert report.holds


class TestFuzz:
    def test_bezout_never_fails(self):
        summary = fuzz(FuzzConfig(target="bezout", trials=300, m_max=5,
                                  coeff_bound=9, seed=42))
        assert summary.failures == 0
        assert summary.min_slack >= 0
        assert summary.max_ratio is not None and summary.max_ratio <= Fraction(3, 2)

    def test_lemma_never_fails(self):
        summary = fuzz(FuzzConfig(target="lemma", trials=300, m_max=6,
                                  coeff_bound=9, seed=7))
        assert summary.failures == 0 and summary.min_slack >= 0

    def test_af_square_never_fails(self):
        summary = fuzz(FuzzConfig(target="af_square", trials=200, m_max=5,
                                  coeff_bound=9, seed=3))
        assert summary.failures == 0

    def test_deterministic(self):
        cfg = FuzzConfig(target="bezout", trials=60, m_max=6, coeff_bound=16, seed=99)
        assert fuzz(cfg) == fuzz(cfg)

    def test_worst_case_is_serialized_input(self):
        summary = fuzz(FuzzConfig(target="lemma", trials=20, m_max=4,
                                  coeff_bound=5, seed=1))
        assert summary.worst_case.startswith("matrix 3 ")

    def test_trial_callback_sees_every_trial(self):
        seen = []
        fuzz(FuzzConfig(target="bezout", trials=25, m_max=4, coeff_bound=5, seed=2),
             on_trial=lambda t, m, rep: seen.append((t, m, rep.holds)))
        assert [t for t, _, _ in seen] == list(range(25))
        assert all(ok for _, _, ok in seen)

    @pytest.mark.parametrize("seeds", [(0, 1), (42, 43)])
    def test_neighbouring_seeds_share_no_trial(self, seeds):
        # With seed XOR t as the trial seed, these pairs ran the same trials.
        first, second = ({trial_seed(s, t) for t in range(10_000)} for s in seeds)
        assert len(first) == len(second) == 10_000
        assert first.isdisjoint(second)

    def test_neighbouring_seeds_give_different_runs(self):
        runs = [fuzz(FuzzConfig(target="lemma", trials=30, seed=s)) for s in (0, 1)]
        # Same multiset of trials under seed XOR t, hence the same max ratio.
        assert runs[0].max_ratio != runs[1].max_ratio

    @pytest.mark.parametrize("target", TARGETS)
    def test_shorter_run_is_a_prefix(self, target):
        def run(trials):
            seen = []
            fuzz(FuzzConfig(target=target, trials=trials, m_max=4, coeff_bound=7, seed=11),
                 on_trial=lambda t, m, rep: seen.append((t, m, rep)))
            return seen

        assert run(40)[:15] == run(15)

    @pytest.mark.parametrize("bad", [
        dict(target="nope", trials=10),
        dict(target="bezout", trials=0),
        dict(target="bezout", trials=5, m_max=0),
        dict(target="bezout", trials=5, coeff_bound=0),
    ])
    def test_invalid_config(self, bad):
        with pytest.raises(ValueError):
            fuzz(FuzzConfig(**bad))
