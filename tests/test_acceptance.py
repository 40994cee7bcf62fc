"""Acceptance criteria, one test per criterion.

Every check is exact (rational arithmetic, zero tolerance).  Each criterion
prints one PASS/FAIL line, with the elapsed wall time for reference; run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they happen.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

from zonomix.grassmann import abs_map, check_gp3, check_quad_ineq, pluecker
from zonomix.numeric import E1, E2, Vec3, det3, vec3
from zonomix.reduction import (
    SStats,
    TwoValuePattern,
    biconvexity_probe,
    extremal_config,
    f_closed_form,
    f_direct,
    g_closed_form,
    g_direct,
    generating_point,
    s_stats,
    slack_identity,
)
from zonomix.rng import SplitMix64, random_columns, random_zonotope
from zonomix.verify import (
    FuzzConfig,
    check_af_square,
    check_bezout,
    check_lemma_matrix,
    fuzz,
)
from zonomix.witness import (
    mv_body_body_seg,
    mv_seg_seg,
    polytope_of_zonotope,
    pyramid_equality_report,
    volume_polytope,
)
from zonomix.zonotope import (
    Zonotope3,
    mixed_volume,
    mixed_volume_repeated,
    volume,
)
from zonomix.cli import main
from oracles import linear_image, random_rational, scale_vec

F = Fraction
SEG1 = Zonotope3((E1,))
SEG2 = Zonotope3((E2,))
HALF3 = F(3, 2)


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d} "
              f"({time.perf_counter() - started:6.1f}s): {description}")
        raise
    print(f"[PASS] criterion {number:2d} "
          f"({time.perf_counter() - started:6.1f}s): {description}")


def test_criterion_01_mixed_volume_axioms():
    with criterion(1, "mixed-volume axioms on 500 random triples (m <= 6, coeffs <= 16)"):
        rng = SplitMix64(101)
        for _ in range(500):
            a = random_zonotope(rng, 6, 16)
            b = random_zonotope(rng, 6, 16)
            c = random_zonotope(rng, 6, 16)
            base = mixed_volume(a, b, c)
            # symmetry in all six argument orders
            assert all(mixed_volume(*p) == base for p in permutations((a, b, c)))
            # Minkowski additivity and nonnegative homogeneity in the first slot
            extra = random_zonotope(rng, 6, 16)
            assert mixed_volume(Zonotope3(a.generators + extra.generators), b, c) == \
                base + mixed_volume(extra, b, c)
            lam = abs(random_rational(rng, 16))
            scaled = Zonotope3.from_generators(scale_vec(lam, g) for g in a.generators)
            assert mixed_volume(scaled, b, c) == lam * base
            # diagonal equals the volume
            assert volume(a) == mixed_volume(a, a, a)
            # linear images scale by |det|
            columns = random_columns(rng, 3, 16).generators
            a2, b2, c2 = (Zonotope3.from_generators(linear_image(columns, g)
                                                    for g in body.generators)
                          for body in (a, b, c))
            assert mixed_volume(a2, b2, c2) == abs(det3(*columns)) * base
            # parallel segments kill the mixed volume
            (u,) = random_columns(rng, 1, 16)
            lam = random_rational(rng, 16)
            parallel = Zonotope3((vec3(lam * u.x, lam * u.y, lam * u.z),))
            assert mixed_volume(a, Zonotope3((u,)), parallel) == 0


def _positive_rational(rng, bound=9):
    return F(1 + rng.below(bound), 1 + rng.below(bound))


def _tight_slopes(rng):
    lo, lo2 = random_rational(rng, 9), random_rational(rng, 9)
    return lo, lo + _positive_rational(rng), lo2, lo2 + _positive_rational(rng)


def test_criterion_02_sharpness_of_the_constant():
    with criterion(2, "3/2 attained exactly iff s1*s4 == s2*s3 (1 + 100 + 100 configs)"):
        unit = extremal_config(SStats(F(1), F(1), F(1), F(1)), F(0), F(1), F(0), F(1))
        assert check_bezout(*unit).ratio == HALF3

        rng = SplitMix64(102)
        for _ in range(100):
            p, q, r, t = (_positive_rational(rng) for _ in range(4))
            s = SStats(p * q, p * r, t * q, t * r)  # forces s1*s4 == s2*s3
            triple = extremal_config(s, *_tight_slopes(rng))
            assert check_bezout(*triple).ratio == HALF3

        produced = 0
        while produced < 100:
            s1, s2, s3, s4 = (_positive_rational(rng) for _ in range(4))
            if s1 * s4 == s2 * s3:
                s4 += 1  # still positive, now strictly unbalanced
            triple = extremal_config(SStats(s1, s2, s3, s4), *_tight_slopes(rng))
            assert check_bezout(*triple).ratio < HALF3
            produced += 1


def test_criterion_03_main_inequality_fuzz():
    with criterion(3, "10,000 random zonotope triples (m <= 8) all satisfy the bound"):
        summary = fuzz(FuzzConfig(target="bezout", trials=10_000, m_max=8,
                                  coeff_bound=16, seed=103))
        assert summary.failures == 0
        assert summary.min_slack >= 0
        assert summary.max_ratio is not None and summary.max_ratio <= HALF3


def test_criterion_04_matrix_form_bridge():
    with criterion(4, "matrix form equals 6*Vol*V(A,B,C) vs 9*V(A,A,B)*V(A,A,C), 1,000 lists"):
        rng = SplitMix64(104)
        for _ in range(1000):
            a = random_zonotope(rng, 6, 16)
            vectors = list(a.generators)
            report = check_lemma_matrix(Zonotope3.from_generators(vectors))
            assert report.lhs == 6 * volume(a) * mixed_volume(a, SEG1, SEG2)
            assert report.rhs == 9 * mixed_volume_repeated(a, SEG1) * \
                mixed_volume_repeated(a, SEG2)


def test_criterion_05_proof_internals():
    with criterion(5, "closed forms, square identity and convexity probes, 1,000 each"):
        rng = SplitMix64(105)
        for _ in range(1000):
            m = rng.randint(1, 6)
            z = tuple(random_rational(rng, 9) for _ in range(m))
            pe = tuple(rng.below(2) == 0 for _ in range(m))
            pf = tuple(rng.below(2) == 0 for _ in range(m))
            lam, lam2 = random_rational(rng, 9), random_rational(rng, 9)
            mu, mu2 = random_rational(rng, 9), random_rational(rng, 9)
            x = generating_point(TwoValuePattern(pe, lam, lam2), z)
            y = generating_point(TwoValuePattern(pf, mu, mu2), z)
            assert g_direct(x, z) == g_closed_form(TwoValuePattern(pe, lam, lam2), z)
            assert f_direct(x, y, z) == \
                f_closed_form(s_stats(pe, pf, z), abs(lam - lam2), abs(mu - mu2))

        for _ in range(1000):
            s = SStats(*(F(rng.below(40), 1 + rng.below(8)) for _ in range(4)))
            slack, square = slack_identity(s)
            assert slack == square
            assert square == (s.s1 * s.s4 - s.s2 * s.s3) ** 2

        for _ in range(1000):
            m = rng.randint(1, 6)
            draw = lambda: tuple(random_rational(rng, 9) for _ in range(m))
            assert biconvexity_probe(draw(), draw(), draw(), draw())


def test_criterion_06_degenerate_third_coordinates():
    with criterion(6, "matrix form holds on 1,000 inputs with z_i = 0 at rate 1/4"):
        rng = SplitMix64(106)
        zero_seen = 0
        for _ in range(1000):
            m = rng.randint(1, 6)
            vectors = []
            for _ in range(m):
                zi = F(0) if rng.below(4) == 0 else random_rational(rng, 16)
                zero_seen += zi == 0
                vectors.append(Vec3(random_rational(rng, 16),
                                    random_rational(rng, 16), zi))
            report = check_lemma_matrix(Zonotope3.from_generators(vectors))
            assert report.holds and report.slack >= 0
        assert zero_seen > 500  # the degenerate case is actually exercised


def test_criterion_07_minor_coordinate_form():
    with criterion(7, "exchange residuals, quadratic form and equivalence (1,000 + 500)"):
        rng = SplitMix64(107)
        for _ in range(1000):
            point = pluecker(random_columns(rng, 6, 9))
            assert all(r == 0 for r in check_gp3(point))
            assert check_quad_ineq(abs_map(point)).holds

        for _ in range(500):
            gens = random_columns(rng, 4, 9)
            quad = check_quad_ineq(abs_map(pluecker(Zonotope3(gens.generators + (E1, E2)))))
            lemma = check_lemma_matrix(gens)
            assert (quad.lhs, quad.rhs, quad.holds) == (lemma.lhs, lemma.rhs, lemma.holds)

        equality_gens = tuple(
            vec3(*t) for t in ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
        report = check_quad_ineq(abs_map(pluecker(Zonotope3(equality_gens + (E1, E2)))))
        assert report.lhs == report.rhs == 16


def test_criterion_08_segment_witness_and_general_bound():
    with criterion(8, "pyramid equality 1/18 = 1/18; constant-2 bound on 1,000 4-tuples"):
        report = pyramid_equality_report()
        assert report.lhs == report.rhs == F(1, 18)
        assert report.slack == 0 and report.holds

        rng = SplitMix64(108)
        for _ in range(1000):
            bodies = [random_zonotope(rng, 5, 16) for _ in range(4)]
            assert check_af_square(*bodies).holds


def test_criterion_09_polytope_pipeline_cross_check():
    with criterion(9, "hull-based volumes match generator formulas on 200 zonotopes"):
        rng = SplitMix64(109)
        for _ in range(200):
            zono = random_zonotope(rng, 4, 8)
            poly = polytope_of_zonotope(zono)
            assert volume_polytope(poly) == volume(zono)
            u, v = random_columns(rng, 2, 8)
            assert mv_seg_seg(poly, u, v) == \
                mixed_volume(zono, Zonotope3((u,)), Zonotope3((v,)))
            assert mv_body_body_seg(poly, u) == mixed_volume_repeated(zono, Zonotope3((u,)))


def test_criterion_10_fuzz_determinism(tmp_path):
    with criterion(10, "identical seed/config fuzz runs emit byte-identical CSV"):
        for target, seed in (("bezout", 42), ("lemma", 7), ("af-square", 5)):
            paths = [tmp_path / f"{target}-{i}.csv" for i in (0, 1)]
            argv = ["fuzz", "--target", target, "--trials", "200", "--seed",
                    str(seed), "--m-max", "6", "--coeff-bound", "16",
                    "--output", "csv"]
            for path in paths:
                assert main(argv + ["--out", str(path)]) == 0
            first, second = (p.read_bytes() for p in paths)
            assert first == second and first.count(b"\n") == 201
