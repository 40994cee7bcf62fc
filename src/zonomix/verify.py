"""Inequality checkers and a deterministic randomized fuzz harness.

The central check: for zonotopes A, B, C in R^3,

    V(A,A,A) * V(A,B,C)  <=  (3/2) * V(A,A,B) * V(A,A,C).

The generator-matrix form of the same statement compares a triple-minor sum
against two pair-minor sums; both checkers share one report type carrying
exact rationals only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .numeric import (
    Mat3xM,
    Vec3,
    int_scaled,
    render_matrix,
    sum_abs_det2_pairs,
    sum_abs_det3_combos,
)
from .rng import SplitMix64, random_vectors, random_zonotope, trial_seed
from .zonotope import (
    Zonotope3,
    mixed_volume,
    mixed_volume_repeated,
    render_zonotope,
    volume,
)

TARGETS = ("bezout", "lemma", "af_square")

# Largest fuzz m_max.  A trial draws up to m_max generators per body, and a
# bezout trial evaluates O(m^3) determinants: 0.16 s with 64 generators in
# each body (Python 3.11, Intel Xeon).  The cap bounds the memory and the
# time of every trial before any is drawn.
MAX_M_MAX = 64


@dataclass(frozen=True)
class IneqReport:
    """One evaluated inequality: lhs <= rhs, with slack = rhs - lhs.

    `ratio` is lhs divided by the rhs product *without* its constant; it is
    present exactly when both rhs factors are nonzero.
    """

    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    holds: bool
    ratio: Optional[Fraction]


def ineq_report(lhs: Fraction, factor1: Fraction, factor2: Fraction,
                constant: Fraction = Fraction(1)) -> IneqReport:
    """Build a report for lhs <= constant * factor1 * factor2."""
    rhs = constant * factor1 * factor2
    slack = rhs - lhs
    ratio = lhs / (factor1 * factor2) if factor1 != 0 and factor2 != 0 else None
    return IneqReport(lhs=lhs, rhs=rhs, slack=slack, holds=slack >= 0, ratio=ratio)


def check_bezout(a: Zonotope3, b: Zonotope3, c: Zonotope3) -> IneqReport:
    """Check V(A,A,A)*V(A,B,C) <= (3/2)*V(A,A,B)*V(A,A,C).  Holds on all zonotopes."""
    vaaa = volume(a)
    vabc = mixed_volume(a, b, c)
    vaab = mixed_volume_repeated(a, b)
    vaac = mixed_volume_repeated(a, c)
    return ineq_report(vaaa * vabc, vaab, vaac, Fraction(3, 2))


def tightness_ratio(a: Zonotope3, b: Zonotope3, c: Zonotope3) -> Fraction:
    """V(A,A,A)*V(A,B,C) / (V(A,A,B)*V(A,A,C)); at most 3/2 on zonotopes."""
    ratio = check_bezout(a, b, c).ratio
    if ratio is None:
        zero = "V(A,A,B)" if mixed_volume_repeated(a, b) == 0 else "V(A,A,C)"
        raise ZeroDivisionError(f"{zero} = 0: tightness ratio undefined")
    return ratio


def af_square_report(v_aad: Fraction, v_bcd: Fraction, v_abd: Fraction,
                     v_acd: Fraction) -> IneqReport:
    """Report for V(A,A,D)*V(B,C,D) <= 2*V(A,B,D)*V(A,C,D) from its four volumes."""
    return ineq_report(v_aad * v_bcd, v_abd, v_acd, Fraction(2))


def check_af_square(a: Zonotope3, b: Zonotope3, c: Zonotope3, d: Zonotope3) -> IneqReport:
    """Check V(A,A,D)*V(B,C,D) <= 2*V(A,B,D)*V(A,C,D) on zonotopes.

    Holds for arbitrary convex bodies; the constant 2 is sharp in general but
    not on zonotopes.
    """
    return af_square_report(mixed_volume_repeated(a, d), mixed_volume(b, c, d),
                            mixed_volume(a, b, d), mixed_volume(a, c, d))


def check_lemma_matrix(vectors: Sequence[Vec3]) -> IneqReport:
    """Generator-matrix form of the zonotope inequality; holds for every input.

    Equivalent to check_bezout with B = [0,e1] and C = [0,e2]: the lhs here is
    6*V(A,A,A)*V(A,B,C) and the rhs is 9*V(A,A,B)*V(A,A,C), so slack scales by 6
    and the hold/violate verdicts coincide.
    """
    ints, scale = int_scaled(vectors)
    triples = sum_abs_det3_combos(ints)
    zsum = sum(v[2] if v[2] >= 0 else -v[2] for v in ints)
    xs = [v[0] for v in ints]
    ys = [v[1] for v in ints]
    zs = [v[2] for v in ints]
    lhs = Fraction(triples * zsum, scale ** 4)
    f1 = Fraction(sum_abs_det2_pairs(ys, zs), scale ** 2)
    f2 = Fraction(sum_abs_det2_pairs(xs, zs), scale ** 2)
    return ineq_report(lhs, f1, f2)


# ---------------------------------------------------------------------------
# Fuzz harness.

@dataclass(frozen=True)
class FuzzConfig:
    """Random-trial configuration; every field participates in determinism."""

    target: str
    trials: int
    m_max: int = 6
    coeff_bound: int = 16
    seed: int = 1

    def validate(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"unknown fuzz target {self.target!r}; expected one of {TARGETS}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {self.m_max}")
        if self.m_max > MAX_M_MAX:
            raise ValueError(f"m_max must be <= {MAX_M_MAX}, got {self.m_max}")
        if self.coeff_bound < 1:
            raise ValueError(f"coeff_bound must be >= 1, got {self.coeff_bound}")


@dataclass(frozen=True)
class FuzzSummary:
    """Aggregate of a fuzz run.  failures == 0 iff min_slack >= 0."""

    trials: int
    failures: int
    min_slack: Fraction
    max_ratio: Optional[Fraction]
    worst_case: str
    seed: int


def _serialize_zonotopes(labeled: Sequence[tuple[str, Zonotope3]]) -> str:
    parts = []
    for label, zono in labeled:
        parts.append(f"# {label}")
        parts.append(render_zonotope(zono).rstrip("\n"))
    return "\n".join(parts) + "\n"


def _bezout_trial(rng: SplitMix64, cfg: FuzzConfig):
    a = random_zonotope(rng, cfg.m_max, cfg.coeff_bound)
    b = random_zonotope(rng, cfg.m_max, cfg.coeff_bound)
    c = random_zonotope(rng, cfg.m_max, cfg.coeff_bound)
    report = check_bezout(a, b, c)
    return report, len(a.generators), lambda: _serialize_zonotopes([("A", a), ("B", b), ("C", c)])


def _lemma_trial(rng: SplitMix64, cfg: FuzzConfig):
    vectors = random_vectors(rng, cfg.m_max, cfg.coeff_bound)
    report = check_lemma_matrix(vectors)
    return report, len(vectors), lambda: render_matrix(Mat3xM(tuple(vectors)))


def _af_square_trial(rng: SplitMix64, cfg: FuzzConfig):
    bodies = [random_zonotope(rng, cfg.m_max, cfg.coeff_bound) for _ in range(4)]
    report = check_af_square(*bodies)
    return report, len(bodies[0].generators), \
        lambda: _serialize_zonotopes(list(zip("ABCD", bodies)))


_TRIALS: dict[str, Callable] = {
    "bezout": _bezout_trial,
    "lemma": _lemma_trial,
    "af_square": _af_square_trial,
}


def fuzz(config: FuzzConfig,
         on_trial: Optional[Callable[[int, int, IneqReport], None]] = None) -> FuzzSummary:
    """Run `config.trials` random checks of the target inequality, exactly.

    Trial t draws its inputs from a fresh splitmix64 stream seeded with
    `trial_seed(seed, t)`, so runs are reproducible, runs with different
    seeds draw different trials, and trials are independent of trial count.
    The summary keeps the input of the minimum-slack trial (first one on
    ties) serialized in the matching text format.
    """
    config.validate()
    run_trial = _TRIALS[config.target]
    failures = 0
    min_slack: Optional[Fraction] = None
    max_ratio: Optional[Fraction] = None
    worst_case = ""
    for t in range(config.trials):
        rng = SplitMix64(trial_seed(config.seed, t))
        report, m, serialize = run_trial(rng, config)
        if not report.holds:
            failures += 1
        if min_slack is None or report.slack < min_slack:
            min_slack = report.slack
            worst_case = serialize()
        if report.ratio is not None and (max_ratio is None or report.ratio > max_ratio):
            max_ratio = report.ratio
        if on_trial is not None:
            on_trial(t, m, report)
    assert min_slack is not None
    return FuzzSummary(trials=config.trials, failures=failures, min_slack=min_slack,
                       max_ratio=max_ratio, worst_case=worst_case, seed=config.seed)
