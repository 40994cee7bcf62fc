"""Zonotopes in R^3 and their exact mixed volumes.

A zonotope is a Minkowski sum of segments.  We store only the generator
vectors a_i, each encoding the segment [0, a_i]: mixed volumes are invariant
under translation, so a base point would carry no information.  All mixed
volumes reduce, by multilinearity, to sums of |det| over generator triples,
with V([0,a],[0,b],[0,c]) = |det(a,b,c)| / 6 as the atomic case.  The
kernels in `numeric` take those sums exactly, with a cubic loop for small
bodies and an O(m^2 log m) angular sweep from `numeric.SWEEP_MIN`
generators on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .numeric import (
    Mat3xM,
    Vec3,
    ZERO3,
    cross,
    int_scaled,
    mat_vec,
    parse_rows,
    render_rows,
    sum_abs_det3_combos,
    sum_abs_det3_combos_cubic,
    sum_abs_det3_pairs,
    sum_abs_det3_triples,
    vec3,
    vneg,
    vscale,
)


@dataclass(frozen=True)
class Zonotope3:
    """Sum of the segments [0, a_i] over the generator list, up to translation.

    Zero generators are permitted (they are points and contribute nothing);
    `canonicalize` removes them.  Generator order never affects any volume.
    """

    generators: tuple[Vec3, ...]

    @classmethod
    def from_generators(cls, gens: Iterable) -> "Zonotope3":
        return cls(tuple(g if isinstance(g, Vec3) else vec3(*g) for g in gens))

    @cached_property
    def scaled(self) -> tuple[tuple[tuple[int, int, int], ...], int]:
        """`int_scaled(generators)`, computed on first use and kept with the body.

        The cache lives in the instance dict, outside the dataclass fields,
        so equality, hashing and repr see the generators only.  The integer
        generators are a tuple because every volume of the body shares them.
        """
        ints, scale = int_scaled(self.generators)
        return tuple(ints), scale


def minkowski_sum(a: Zonotope3, b: Zonotope3) -> Zonotope3:
    """Minkowski sum of two zonotopes: concatenation of generator lists."""
    return Zonotope3(a.generators + b.generators)


def scale_zonotope(q, zono: Zonotope3) -> Zonotope3:
    """Scale all generators by q.  Mixed volumes scale by |q| per slot."""
    q = Fraction(q)
    return Zonotope3(tuple(vscale(q, g) for g in zono.generators))


def canonicalize(zono: Zonotope3) -> Zonotope3:
    """Drop zero generators and merge parallel ones.

    Parallel segments sum to a translate of a single longer segment, so each
    parallel class collapses to one generator carrying the total length.  The
    class direction is the sign-normalised representative (lexicographically
    larger of +/-a), kept rational: no norms appear, the merged generator is
    (sum of |c_i|) * d where a_i = c_i * d.  Mixed volumes against any other
    bodies are unchanged.
    """
    merged: list[tuple[Vec3, Fraction]] = []
    for g in zono.generators:
        if g == ZERO3:
            continue
        for idx, (rep, total) in enumerate(merged):
            if cross(rep, g) == ZERO3:
                coeff = next(gc / rc for gc, rc in zip(g, rep) if rc != 0)
                merged[idx] = (rep, total + abs(coeff))
                break
        else:
            rep = g if g >= vneg(g) else vneg(g)
            merged.append((rep, abs(next(gc / rc for gc, rc in zip(g, rep) if rc != 0))))
    return Zonotope3(tuple(vscale(total, rep) for rep, total in merged))


def mixed_volume(a: Zonotope3, b: Zonotope3, c: Zonotope3) -> Fraction:
    """V(A, B, C) = (1/6) sum of |det(a_i, b_j, c_k)| over all generator triples.

    Symmetric in its arguments, Minkowski-linear in each, and nonnegative.
    """
    ga, la = a.scaled
    gb, lb = b.scaled
    gc, lc = c.scaled
    return Fraction(sum_abs_det3_triples(ga, gb, gc), 6 * la * lb * lc)


def mixed_volume_repeated(a: Zonotope3, b: Zonotope3) -> Fraction:
    """V(A, A, B), evaluated over generator pairs of A rather than all triples."""
    ga, la = a.scaled
    gb, lb = b.scaled
    return Fraction(sum_abs_det3_pairs(ga, gb), 3 * la * la * lb)


def volume(a: Zonotope3) -> Fraction:
    """Volume: sum of |det(a_i, a_j, a_k)| over generator triples i < j < k.

    Equals mixed_volume(A, A, A); zero whenever fewer than three
    independent generators exist.
    """
    ga, la = a.scaled
    return Fraction(sum_abs_det3_combos(ga), la ** 3)


def apply_linear(zono: Zonotope3, mat: Mat3xM) -> Zonotope3:
    """Image of the zonotope under a linear map given by its 3 columns."""
    return Zonotope3(tuple(mat_vec(mat, g) for g in zono.generators))


# ---------------------------------------------------------------------------
# Float volume, kept only for perfbench's traced `float_lane`, its one caller,
# which times it against `volume`; it goes when that metric does.  No verdict
# uses it.  It calls the cubic loop directly: the sweep divides exactly, which
# only integers can.

def volume_float(a: Zonotope3) -> float:
    return float(sum_abs_det3_combos_cubic([(float(x), float(y), float(z))
                                            for x, y, z in a.generators]))


# ---------------------------------------------------------------------------
# Zonotope text format: header "zonotope3", then one generator per row (see
# numeric.parse_rows).

def parse_zonotope(text: str) -> Zonotope3:
    header, rows = parse_rows(text, "zonotope")
    if header != "zonotope3":
        raise ValueError(f"expected header 'zonotope3', got {header!r}")
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"zonotope: expected 3 coordinates per generator, got {len(row)}")
    return Zonotope3(tuple(Vec3(*row) for row in rows))


def render_zonotope(zono: Zonotope3) -> str:
    return render_rows("zonotope3", zono.generators)
