"""Inequality checkers and a deterministic randomized fuzz harness.

The central check: for zonotopes A, B, C in R^3,

    V(A,A,A) * V(A,B,C)  <=  (3/2) * V(A,A,B) * V(A,A,C).

The generator-matrix form of the same statement compares a triple-minor sum
against two pair-minor sums; every checker returns one report type,
`IneqReport`, carrying exact rationals only.

Inside, a check works on integers: it passes its |det| sums and scale
products to `IneqReport`, which decides `holds` from the sign of an integer
slack numerator and makes the report's `Fraction`s only when a caller
reads them.  `fuzz` compares slack and ratio as integer pairs and
makes the two `Fraction`s of its summary once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

# `int_scaled` has no caller here.  It is kept for perfbench, whose tracer
# wraps every module's binding of it and whose tests read this one; it goes
# when they stop.
from .numeric import (
    int_scaled,
    render_matrix,
    sum_abs_det3_af_square,
    sum_abs_det3_bezout,
    sum_abs_det3_lemma,
)
# `random_zonotope` has no caller here either.  The resource-guard tests trap
# every sampler by its name in this module, this one too, so a trial that
# drew through it again would still be caught.
from .rng import SplitMix64, random_bodies, random_vectors, random_zonotope, trial_seeds
from .zonotope import Zonotope3, render_zonotope

# Largest fuzz m_max.  A trial draws up to m_max generators per body, so the
# cap bounds the memory and the time of every trial before any is drawn: a
# bezout trial with 64 generators in each body took 0.011-0.016 s (Python
# 3.11, Intel Xeon).  Which kernel a check runs at which size is stated in
# `numeric`'s kernel comment.
MAX_M_MAX = 64

# Largest fuzz coeff_bound B.  A coordinate is one 64-bit draw modulo 2B + 1
# (and one modulo B), which covers [-B, B] only while B is far below 2^64:
# from B = 2^64 on, every numerator drawn is negative.  At B <= 2^32 the
# modulo bias of a draw is at most about 2^-31.
MAX_COEFF_BOUND = 2 ** 32


def check_coeff_bound(bound: int) -> None:
    """Refuse a --coeff-bound outside 1..MAX_COEFF_BOUND (fuzz and grassmann-sample)."""
    if bound < 1:
        raise ValueError(f"--coeff-bound must be >= 1, got {bound}")
    if bound > MAX_COEFF_BOUND:
        raise ValueError(f"--coeff-bound must be <= {MAX_COEFF_BOUND}, got {bound}")


def check_seed(seed: int) -> None:
    """Refuse a --seed outside 0..2^64 - 1 (fuzz, grassmann-sample and report).

    `SplitMix64` keeps only the low 64 bits of its seed, so a seed outside
    that range would replay the trials of the one inside it.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"--seed must be between 0 and {(1 << 64) - 1}, got {seed}")


@dataclass(frozen=True, init=False)
class IneqReport:
    """One evaluated inequality: lhs <= rhs, with slack = rhs - lhs.

    `ratio` is lhs divided by the rhs product *without* its constant; it is
    present exactly when both rhs factors are nonzero.

    A report is built from integer sums and scale products: `holds` is set
    at once, and lhs, rhs, slack and ratio are kept as unreduced integer
    pairs and become `Fraction`s on first read, as `Zonotope3.generators`
    does.  Equality, hashing and repr see the five fields only.
    """

    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    holds: bool
    ratio: Optional[Fraction]

    def __init__(self, ln: int, ld: int, pn: int, pd: int, cn: int = 1, cd: int = 1):
        """The report for ln/ld <= (cn/cd) * (pn/pd); ld, pd and cd must be positive.

        Nothing is reduced.  Every pair in the instance dict has a positive
        denominator (the ratio's sign moves to its numerator), so `fuzz`
        compares them by cross-multiplication.
        """
        rn, rd = cn * pn, cd * pd
        sn = rn * ld - ln * rd
        if pn > 0:
            ratio = (ln * pd, ld * pn)
        elif pn < 0:
            ratio = (-ln * pd, -ld * pn)
        else:
            ratio = None
        self.__dict__.update(holds=sn >= 0, _parts={
            "lhs": (ln, ld), "rhs": (rn, rd), "slack": (sn, rd * ld), "ratio": ratio})

    def __getattr__(self, name):
        # Reached only when normal lookup fails: a field not read before,
        # made from its integer pair and kept.
        parts = self.__dict__.get("_parts")
        if parts is None or name not in parts:
            raise AttributeError(name)
        pair = parts[name]
        value = self.__dict__[name] = Fraction(*pair) if pair is not None else None
        return value

    def _pairs(self):
        """(slack, ratio) as unreduced (numerator, denominator) pairs, denominators positive.

        ratio is None when undefined.  No `Fraction` is built.
        """
        parts = self._parts
        return parts["slack"], parts["ratio"]


def ineq_report(lhs: Fraction, factor1: Fraction, factor2: Fraction,
                constant: Fraction = Fraction(1)) -> IneqReport:
    """Build a report for lhs <= constant * factor1 * factor2.

    For callers that hold `Fraction`s: the report is made from their
    integer numerators and denominators, as the checks make theirs.
    """
    return IneqReport(lhs.numerator, lhs.denominator,
                      factor1.numerator * factor2.numerator,
                      factor1.denominator * factor2.denominator,
                      constant.numerator, constant.denominator)


def check_bezout(a: Zonotope3, b: Zonotope3, c: Zonotope3) -> IneqReport:
    """Check V(A,A,A)*V(A,B,C) <= (3/2)*V(A,A,B)*V(A,A,C).  Holds on all zonotopes.

    The four volumes are |det| sums over the integer views of the bodies,
    all four from one `sum_abs_det3_bezout` call.  With K = la^4 lb lc, lhs
    is combos * triples / 6K and the rhs product is pairs_ab * pairs_ac / 9K;
    the report is built from those integers.
    """
    ga, la = a.scaled
    gb, lb = b.scaled
    gc, lc = c.scaled
    combos, pairs_ab, pairs_ac, triples = sum_abs_det3_bezout(ga, gb, gc)
    k = la ** 4 * lb * lc
    return IneqReport(combos * triples, 6 * k, pairs_ab * pairs_ac, 9 * k, 3, 2)


def check_af_square(a: Zonotope3, b: Zonotope3, c: Zonotope3, d: Zonotope3) -> IneqReport:
    """Check V(A,A,D)*V(B,C,D) <= 2*V(A,B,D)*V(A,C,D) on zonotopes.

    Holds for arbitrary convex bodies; the constant 2 is sharp in general but
    not on zonotopes.  The four volumes come from one `sum_abs_det3_af_square`
    call (its kernel: see `numeric`).  With K = la^2 lb lc ld^2, lhs is
    pairs_ad * triples_bcd / 18K and the rhs product is
    triples_abd * triples_acd / 36K.
    """
    ga, la = a.scaled
    gb, lb = b.scaled
    gc, lc = c.scaled
    gd, ld = d.scaled
    pairs_ad, triples_abd, triples_acd, triples_bcd = sum_abs_det3_af_square(ga, gb, gc, gd)
    k = la * la * lb * lc * ld * ld
    return IneqReport(pairs_ad * triples_bcd, 18 * k, triples_abd * triples_acd, 36 * k, 2)


def check_lemma_matrix(a: Zonotope3) -> IneqReport:
    """Generator-matrix form of the zonotope inequality; holds for every input.

    The 3 x n matrix is the body A of its columns (`parse_matrix`,
    `rng.random_vectors`), read through its integer view.  Equivalent to
    check_bezout with B = [0,e1] and C = [0,e2]: the lhs here is
    6*V(A,A,A)*V(A,B,C) and the rhs is 9*V(A,A,B)*V(A,A,C), so slack scales
    by 6 and the hold/violate verdicts coincide.  The four sums are those of
    that check, from one `sum_abs_det3_lemma` call: |det(a_i, a_j, e1)| is
    |y_i z_j - z_i y_j|, |det(a_i, a_j, e2)| is |x_i z_j - z_i x_j| and
    |det(a_i, e1, e2)| is |z_i|.  Which kernel that call runs at which size
    is stated in `numeric`'s kernel comment.
    """
    ints, scale = a.scaled
    combos, pairs_yz, pairs_xz, zsum = sum_abs_det3_lemma(ints)
    scale4 = scale ** 4
    return IneqReport(combos * zsum, scale4, pairs_yz * pairs_xz, scale4)


# ---------------------------------------------------------------------------
# Fuzz harness.

@dataclass(frozen=True)
class FuzzConfig:
    """Random-trial configuration; every field participates in determinism.

    A config is checked when it is made, so one that exists is valid: a bad
    field raises ValueError, the first bad one in field order.
    """

    target: str
    trials: int
    m_max: int = 6
    coeff_bound: int = 16
    seed: int = 1

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"unknown fuzz target {self.target!r}; "
                             f"expected one of {tuple(TARGETS)}")
        if self.trials < 1:
            raise ValueError(f"--trials must be >= 1, got {self.trials}")
        if self.m_max < 1:
            raise ValueError(f"--m-max must be >= 1, got {self.m_max}")
        if self.m_max > MAX_M_MAX:
            raise ValueError(f"--m-max must be <= {MAX_M_MAX}, got {self.m_max}")
        check_coeff_bound(self.coeff_bound)
        check_seed(self.seed)


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
    a, b, c = random_bodies(rng, 3, cfg.m_max, cfg.coeff_bound)
    report = check_bezout(a, b, c)
    return report, len(a.scaled[0]), lambda: _serialize_zonotopes([("A", a), ("B", b), ("C", c)])


def _lemma_trial(rng: SplitMix64, cfg: FuzzConfig):
    matrix = random_vectors(rng, cfg.m_max, cfg.coeff_bound)
    report = check_lemma_matrix(matrix)
    return report, len(matrix), lambda: render_matrix(matrix)


def _af_square_trial(rng: SplitMix64, cfg: FuzzConfig):
    bodies = random_bodies(rng, 4, cfg.m_max, cfg.coeff_bound)
    report = check_af_square(*bodies)
    return report, len(bodies[0].scaled[0]), \
        lambda: _serialize_zonotopes(list(zip("ABCD", bodies)))


# The fuzz targets, each with its trial: (rng, config) -> (report, m, serialize).
TARGETS: dict[str, Callable] = {
    "bezout": _bezout_trial,
    "lemma": _lemma_trial,
    "af_square": _af_square_trial,
}


def fuzz(config: FuzzConfig,
         on_trial: Optional[Callable[[int, int, IneqReport], None]] = None) -> FuzzSummary:
    """Run `config.trials` random checks of the target inequality, exactly.

    Trial t draws its inputs from a fresh splitmix64 stream seeded with
    `trial_seed(seed, t)`, output t of `trial_seeds(seed)`, so runs are
    reproducible, runs with different seeds draw different trials, and
    trials are independent of trial count.  The summary keeps the input of
    the minimum-slack trial (first one on ties) serialized in the matching
    text format; drawn inputs never change, so it is rendered once, at the
    end.  Slack and ratio are compared as integer pairs (`IneqReport._pairs`);
    the summary's two `Fraction`s are made once, at the end too.
    """
    run_trial = TARGETS[config.target]
    seeds = trial_seeds(config.seed)
    failures = 0
    least = most = None  # (num, den), den > 0, of the min slack and the max ratio
    for t in range(config.trials):
        report, m, serialize = run_trial(SplitMix64(seeds.next64()), config)
        if not report.holds:
            failures += 1
        slack, ratio = report._pairs()
        if least is None or slack[0] * least[1] < least[0] * slack[1]:
            least = slack
            worst_serialize = serialize
        if ratio is not None and (most is None or ratio[0] * most[1] > most[0] * ratio[1]):
            most = ratio
        if on_trial is not None:
            on_trial(t, m, report)
    assert least is not None
    return FuzzSummary(trials=config.trials, failures=failures, min_slack=Fraction(*least),
                       max_ratio=Fraction(*most) if most is not None else None,
                       worst_case=worst_serialize(), seed=config.seed)
