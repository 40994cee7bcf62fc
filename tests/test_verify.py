from dataclasses import astuple
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from zonomix import verify, zonotope
from zonomix.numeric import SWEEP_MIN, E1, E2, Vec3, parse_matrix, vec3
from zonomix.rng import SplitMix64, random_vectors, random_zonotope, trial_seed
from zonomix.verify import (
    TARGETS,
    FuzzConfig,
    IneqReport,
    check_af_square,
    check_bezout,
    check_lemma_matrix,
    fuzz,
    ineq_report,
)
from zonomix.zonotope import (
    Zonotope3,
    mixed_volume,
    mixed_volume_repeated,
    parse_zonotope,
    render_zonotope,
    volume,
)
from oracles import brute_mixed_volume, brute_pair_abs_sum, brute_volume, count_fractions
from test_numeric import EDGE_CASES

E3 = vec3(0, 0, 1)
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
    """A body built from generators is cleared once per check; a sampled or parsed one never."""

    @pytest.fixture
    def scaled_calls(self, monkeypatch):
        calls = []
        inner = zonotope.int_scaled
        monkeypatch.setattr(zonotope, "int_scaled", lambda gens: calls.append(gens) or inner(gens))
        return calls

    @staticmethod
    def _rebuilt(sampled):
        """Each sampled body built again from its generators, and parsed from its text."""
        return ([Zonotope3.from_generators(z.generators) for z in sampled],
                [parse_zonotope(render_zonotope(z)) for z in sampled])

    def test_bezout_scales_three_bodies_once_each(self, scaled_calls):
        rng = SplitMix64(35)  # 4, 5 and 6 generators; every volume is nonzero
        sampled = [random_zonotope(rng, 6, 16) for _ in range(3)]
        report = check_bezout(*sampled)
        assert scaled_calls == []
        assert report.ratio is not None and report.ratio > 0
        built, parsed = self._rebuilt(sampled)
        assert check_bezout(*parsed) == report
        check_bezout(*parsed)
        assert scaled_calls == []
        assert check_bezout(*built) == report
        assert scaled_calls == [z.generators for z in built]
        check_bezout(*built)
        assert len(scaled_calls) == 3
        ga, gb, gc = (z.generators for z in sampled)
        assert (report.lhs, report.rhs) == (
            brute_volume(ga) * brute_mixed_volume(ga, gb, gc),
            Fraction(3, 2) * brute_mixed_volume(ga, ga, gb) * brute_mixed_volume(ga, ga, gc))

    def test_af_square_scales_four_bodies_once_each(self, scaled_calls):
        rng = SplitMix64(32)
        sampled = [random_zonotope(rng, 5, 16) for _ in range(4)]
        report = check_af_square(*sampled)
        assert scaled_calls == []
        built, parsed = self._rebuilt(sampled)
        assert check_af_square(*parsed) == report
        assert scaled_calls == []
        assert check_af_square(*built) == report
        assert len(scaled_calls) == 4
        assert {id(g) for g in scaled_calls} == {id(z.generators) for z in built}


def _fraction_report(lhs, factor1, factor2, constant):
    """ineq_report by Fraction arithmetic throughout: (lhs, rhs, slack, holds, ratio)."""
    product = factor1 * factor2
    slack = constant * product - lhs
    return (lhs, constant * product, slack, slack >= 0,
            lhs / product if product != 0 else None)


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
constants = st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)])


class TestIneqReport:
    @given(rationals, rationals, rationals, constants)
    @example(Fraction(0), Fraction(2, 3), Fraction(5, 7), Fraction(3, 2))  # zero lhs
    @example(Fraction(4, 9), Fraction(0), Fraction(5, 7), Fraction(3, 2))  # ratio None
    @example(Fraction(0), Fraction(0), Fraction(0), Fraction(2))
    @example(Fraction(7, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1))  # negative slack
    @example(Fraction(6, 4), Fraction(-2, 3), Fraction(-9, 8), Fraction(2))
    def test_matches_fraction_formula(self, lhs, factor1, factor2, constant):
        report = ineq_report(lhs, factor1, factor2, constant)
        assert astuple(report) == _fraction_report(lhs, factor1, factor2, constant)
        for q in (report.rhs, report.slack, report.ratio):
            if q is not None:
                assert type(q) is Fraction
                assert q.denominator > 0 and gcd(q.numerator, q.denominator) == 1


ints = st.integers(min_value=-10**6, max_value=10**6)
positive = st.integers(min_value=1, max_value=10**6)


class TestIntegerReport:
    """The integer constructor against the Fraction formula, and its lazy fields."""

    @staticmethod
    def _pair(ln, ld, n1, d1, n2, d2, cn, cd):
        return (IneqReport(ln, ld, n1 * n2, d1 * d2, cn, cd),
                _fraction_report(Fraction(ln, ld), Fraction(n1, d1), Fraction(n2, d2),
                                 Fraction(cn, cd)))

    @given(ints, positive, ints, positive, ints, positive, positive, positive)
    @example(0, 6, 2, 3, 5, 7, 3, 2)  # zero lhs
    @example(4, 9, 0, 1, 5, 7, 3, 2)  # a zero factor: ratio None
    @example(0, 1, 0, 1, 0, 1, 2, 1)
    @example(7, 3, 1, 2, 1, 3, 1, 1)  # negative slack
    @example(6, 4, -2, 3, 9, 8, 2, 1)  # one negative factor
    @example(-6, 4, -2, 3, -9, 8, 2, 1)  # two negative factors
    def test_matches_fraction_formula(self, ln, ld, n1, d1, n2, d2, cn, cd):
        report, expected = self._pair(ln, ld, n1, d1, n2, d2, cn, cd)
        lhs, rhs, slack, holds, ratio = expected
        assert report.holds == holds
        for name, value in (("lhs", lhs), ("rhs", rhs), ("slack", slack), ("ratio", ratio)):
            q = getattr(report, name)
            assert q == value
            if q is not None:
                assert type(q) is Fraction
                assert q.denominator > 0 and gcd(q.numerator, q.denominator) == 1
        assert astuple(report) == expected
        # Fresh reports: repr, hash and equality build the fields themselves.
        assert repr(self._pair(ln, ld, n1, d1, n2, d2, cn, cd)[0]) == repr(report) == (
            f"IneqReport(lhs={lhs!r}, rhs={rhs!r}, slack={slack!r}, holds={holds!r}, "
            f"ratio={ratio!r})")
        assert hash(self._pair(ln, ld, n1, d1, n2, d2, cn, cd)[0]) == hash(report)
        fresh = self._pair(ln, ld, n1, d1, n2, d2, cn, cd)[0]
        assert fresh == report and report == fresh

    @given(ints, positive, ints, positive, ints, positive, positive, positive)
    @example(6, 4, -2, 3, 9, 8, 2, 1)
    def test_pairs_have_positive_denominators(self, ln, ld, n1, d1, n2, d2, cn, cd):
        report, (_, _, expected_slack, _, expected_ratio) = self._pair(ln, ld, n1, d1, n2, d2,
                                                                        cn, cd)
        slack, ratio = report._pairs()
        assert slack[1] > 0 and Fraction(*slack) == expected_slack
        if ratio is None:
            assert expected_ratio is None
        else:
            assert ratio[1] > 0 and Fraction(*ratio) == expected_ratio

    def test_fields_are_built_on_first_read_and_kept(self):
        report = IneqReport(4, 6, 10, 15, 3, 2)
        assert report.holds and "lhs" not in vars(report) and "ratio" not in vars(report)
        assert report.lhs is report.lhs == Fraction(2, 3)
        assert "lhs" in vars(report) and "slack" not in vars(report)
        assert report.ratio == 1
        with pytest.raises(AttributeError):
            report.nothing
        with pytest.raises(AttributeError):
            IneqReport(1, 1, 0, 1).nothing


def _bezout_by_volumes(a, b, c):
    return _fraction_report(volume(a) * mixed_volume(a, b, c), mixed_volume_repeated(a, b),
                            mixed_volume_repeated(a, c), Fraction(3, 2))


def _af_square_by_volumes(a, b, c, d):
    return _fraction_report(mixed_volume(a, a, d) * mixed_volume(b, c, d),
                            mixed_volume(a, b, d), mixed_volume(a, c, d), Fraction(2))


def _lemma_by_sums(vectors):
    xs, ys, zs = ([v[k] for v in vectors] for k in range(3))
    return _fraction_report(brute_volume(vectors) * sum(abs(z) for z in zs),
                            brute_pair_abs_sum(ys, zs), brute_pair_abs_sum(xs, zs), Fraction(1))


class TestChecksMatchFractionFormulas:
    """Each check's integer-built report equals the Fraction formula over its volumes."""

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_edge_cases(self, case):
        a, b, c = (Zonotope3.from_generators(g) for g in EDGE_CASES[case])
        assert astuple(check_bezout(a, b, c)) == _bezout_by_volumes(a, b, c)
        assert astuple(check_af_square(a, b, c, a)) == _af_square_by_volumes(a, b, c, a)
        assert astuple(check_af_square(b, c, a, b)) == _af_square_by_volumes(b, c, a, b)
        vectors = list(a.generators)
        assert astuple(check_lemma_matrix(a)) == _lemma_by_sums(vectors)

    @pytest.mark.parametrize("seed", [4, 2 ** 64 - 1])
    def test_fuzz_draws(self, seed):
        for t in range(100):
            rng = SplitMix64(trial_seed(seed, t))
            bodies = [random_zonotope(rng, 6, 16) for _ in range(4)]
            assert astuple(check_bezout(*bodies[:3])) == _bezout_by_volumes(*bodies[:3])
            assert astuple(check_af_square(*bodies)) == _af_square_by_volumes(*bodies)
            vectors = random_vectors(rng, 6, 16)
            assert astuple(check_lemma_matrix(vectors)) == _lemma_by_sums(vectors)

    def test_lemma_on_the_sweep(self):
        # From SWEEP_MIN vectors on, the lemma's sums come from the sweep,
        # with B = e1 and C = e2 as two one-generator classes.
        rng = SplitMix64(40)
        draws = [random_vectors(rng, 40, 16) for _ in range(6)]
        assert sum(len(vectors) >= SWEEP_MIN for vectors in draws) >= 4
        for vectors in draws:
            assert astuple(check_lemma_matrix(vectors)) == _lemma_by_sums(vectors)


class TestTightnessRatio:
    def test_equality_configuration(self):
        assert check_bezout(TIGHT, SEG1, SEG2).ratio == Fraction(3, 2)

    def test_cube_with_segments(self):
        assert check_bezout(CUBE, SEG1, SEG2).ratio == Fraction(3, 2)

    def test_cube_plus_diagonal(self):
        a = Zonotope3((E1, E2, E3, vec3(1, 1, 1)))
        # frozen from the minor-sum oracle: 4 * (1/3) / (1 * 1)
        assert brute_volume(a.generators) == 4
        assert brute_mixed_volume(a.generators, SEG1.generators, SEG2.generators) \
            == Fraction(1, 3)
        assert check_bezout(a, SEG1, SEG2).ratio == Fraction(4, 3)


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
        report = check_lemma_matrix(Zonotope3.from_generators([E1, E2, E3]))
        assert report.lhs == 1
        assert report.rhs == 1

    def test_equality_configuration(self):
        vectors = list(TIGHT.generators)
        # brute force: triple-minor sum 4, z-sum 4; each pair-minor sum 4
        assert brute_volume(vectors) * 4 == 16
        report = check_lemma_matrix(Zonotope3.from_generators(vectors))
        assert report.lhs == 16
        assert report.rhs == 16

    def test_small_and_flat(self):
        vectors = [vec3(1, 0, 0), vec3(0, 1, 0)]
        report = check_lemma_matrix(Zonotope3.from_generators(vectors))
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
        report = check_lemma_matrix(Zonotope3.from_generators(vectors))
        assert report.holds


class TestLemmaBuildsNoFraction:
    """A matrix is integers from reader or sampler to verdict."""

    @pytest.mark.parametrize("text", [
        "matrix 3 4\n1 1/2 0 2\n2 -1 1 0\n3 0 -2/3 1\n",
        # 12 columns: the four sums come from the sweep.
        "matrix 3 12\n" + "\n".join(" ".join(f"{(i * r + 3) % 7 - 3}/{1 + (i + r) % 5}"
                                             for i in range(12)) for r in range(3)) + "\n",
    ])
    def test_check_of_a_parsed_matrix(self, text, monkeypatch):
        built = count_fractions(monkeypatch)
        assert check_lemma_matrix(parse_matrix(text)).holds
        assert built == []

    def test_fuzz_builds_the_summary_and_the_worst_case_only(self, monkeypatch):
        built = count_fractions(monkeypatch)
        counts = []
        for trials in (10, 200):
            del built[:]
            summary = fuzz(FuzzConfig(target="lemma", trials=trials, seed=1),
                           on_trial=lambda t, m, rep: (rep.holds, rep._pairs()))
            counts.append(len(built))
            # min slack, max ratio, and the three coordinates of each worst-case column
            columns = int(summary.worst_case.split("\n", 1)[0].split()[2])
            assert summary.max_ratio is not None
            assert len(built) == 2 + 3 * columns
        assert counts[0] == counts[1]


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

    def test_bezout_derives_generators_only_to_render_worst_cases(self, monkeypatch):
        derived, scaled = [], []
        unscaled, int_scaled = zonotope.unscaled, zonotope.int_scaled
        monkeypatch.setattr(zonotope, "unscaled",
                            lambda ints, scale: derived.append(ints) or unscaled(ints, scale))
        monkeypatch.setattr(zonotope, "int_scaled",
                            lambda gens: scaled.append(gens) or int_scaled(gens))
        slacks = []
        fuzz(FuzzConfig(target="bezout", trials=500, seed=5),
             on_trial=lambda t, m, rep: slacks.append(rep.slack))
        new_worst, least = 0, None
        for slack in slacks:
            if least is None or slack < least:
                new_worst, least = new_worst + 1, slack
        assert new_worst > 1
        # One render, of the final worst case: its three bodies.
        assert len(derived) == 3
        assert scaled == []

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

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("seed", [0, 13, 2 ** 64 - 1])
    def test_summary_matches_a_fraction_loop(self, target, seed):
        config = FuzzConfig(target=target, trials=300, m_max=5, coeff_bound=9, seed=seed)
        reports = []
        summary = fuzz(config, on_trial=lambda t, m, rep: reports.append(rep))
        least = most = None
        for t, report in enumerate(reports):
            if least is None or report.slack < reports[least].slack:
                least = t
            if report.ratio is not None and (most is None or report.ratio > most):
                most = report.ratio
        _, _, serialize = TARGETS[target](SplitMix64(trial_seed(seed, least)), config)
        assert summary == verify.FuzzSummary(
            trials=300, failures=sum(not r.holds for r in reports),
            min_slack=reports[least].slack, max_ratio=most, worst_case=serialize(), seed=seed)
        assert type(summary.min_slack) is Fraction and type(summary.max_ratio) is Fraction

    def test_first_of_equal_minimum_slacks_is_kept(self, monkeypatch):
        # Two reports of slack -2 in different terms; the largest ratio, 2,
        # comes through a negative factor.
        reports = [
            IneqReport(1, 2, 2, 1),  # slack 3/2, ratio 1/4
            IneqReport(3, 6, 1, 1),  # slack 1/2, ratio 1/2
            ineq_report(Fraction(-1), Fraction(-1, 2), Fraction(1)),  # slack 1/2, ratio 2
            IneqReport(0, 1, 1, 2),  # slack 1/2, ratio 0
            IneqReport(-4, 2, -6, 3, 2, 1),  # slack -2, ratio 1
            IneqReport(-16, 8, -12, 6, 2, 1),  # slack -2, ratio 1
        ]
        trials = iter(enumerate(reports))

        def trial(rng, config):
            t, report = next(trials)
            return report, 1, lambda: f"trial {t}"

        monkeypatch.setitem(TARGETS, "bezout", trial)
        summary = fuzz(FuzzConfig(target="bezout", trials=len(reports)))
        assert summary.min_slack == -2 and summary.worst_case == "trial 4"
        assert summary.max_ratio == 2 and summary.failures == 2

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
    def test_loop_seeds_are_trial_seeds(self, seed, monkeypatch):
        seen = []

        class Recording(SplitMix64):
            def __init__(self, s):
                seen.append(s)
                super().__init__(s)

        monkeypatch.setattr(verify, "SplitMix64", Recording)
        monkeypatch.setitem(TARGETS, "bezout",
                            lambda rng, config: (IneqReport(0, 1, 0, 1), 1, str))
        fuzz(FuzzConfig(target="bezout", trials=2000, seed=seed))
        assert seen == [trial_seed(seed, t) for t in range(2000)]

    def test_bezout_builds_no_fraction_per_trial(self, monkeypatch):
        built = []

        class Counting(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(verify, "Fraction", Counting)
        holds = []
        summary = fuzz(FuzzConfig(target="bezout", trials=200, seed=6),
                       on_trial=lambda t, m, rep: holds.append(rep.holds))
        assert len(holds) == 200 and all(holds)
        assert summary.max_ratio is not None
        assert len(built) == 2  # min_slack and max_ratio, once each

    # Each bad field alone, then two at once: the first in field order is named.
    BAD_CONFIGS = [
        (dict(target="nope", trials=10),
         "unknown fuzz target 'nope'; expected one of ('bezout', 'lemma', 'af_square')"),
        (dict(target="bezout", trials=0), "--trials must be >= 1, got 0"),
        (dict(target="bezout", trials=5, m_max=0), "--m-max must be >= 1, got 0"),
        (dict(target="bezout", trials=5, coeff_bound=0), "--coeff-bound must be >= 1, got 0"),
        (dict(target="bezout", trials=5, coeff_bound=2 ** 32 + 1),
         f"--coeff-bound must be <= {2 ** 32}, got {2 ** 32 + 1}"),
        (dict(target="af_square", trials=1, seed=-1),
         f"--seed must be between 0 and {2 ** 64 - 1}, got -1"),
        (dict(target="af_square", trials=1, seed=2 ** 64),
         f"--seed must be between 0 and {2 ** 64 - 1}, got {2 ** 64}"),
        (dict(target="lemma", trials=1, m_max=65), "--m-max must be <= 64, got 65"),
        (dict(target="nope", trials=0), "unknown fuzz target 'nope'; "
                                        "expected one of ('bezout', 'lemma', 'af_square')"),
        (dict(target="lemma", trials=-1, seed=-1), "--trials must be >= 1, got -1"),
        (dict(target="lemma", trials=1, m_max=0, coeff_bound=0), "--m-max must be >= 1, got 0"),
        (dict(target="lemma", trials=1, coeff_bound=0, seed=2 ** 64),
         "--coeff-bound must be >= 1, got 0"),
    ]

    @pytest.mark.parametrize("bad,message", BAD_CONFIGS,
                             ids=[f"bad{i}" for i in range(len(BAD_CONFIGS))])
    def test_invalid_config(self, bad, message):
        # Refused when made, so no caller can run or hold an invalid config.
        with pytest.raises(ValueError) as info:
            FuzzConfig(**bad)
        assert str(info.value) == message
