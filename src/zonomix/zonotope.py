"""Zonotopes in R^3 and their exact mixed volumes.

A zonotope is a Minkowski sum of segments.  We store only the generator
vectors a_i, each encoding the segment [0, a_i]: mixed volumes are invariant
under translation, so a base point would carry no information.  All mixed
volumes reduce, by multilinearity, to sums of |det| over generator triples,
with V([0,a],[0,b],[0,c]) = |det(a,b,c)| / 6 as the atomic case.  The
kernels in `numeric` take those sums exactly, in O(m^2 log m) integer
arithmetic on large bodies; its kernel comment says which kernel each sum
and check runs at which size, and why.  The volumes here read one sum each
and the checks in `verify` four, from one call.  They all read a body's
integer view, which a parsed or sampled body is built from and a body built
from rational generators derives once.

A 3 x n generator matrix is a body too: its columns are the generators, in
order, duplicates and zero columns kept, so `parse_matrix`,
`rng.random_columns`, `verify.check_lemma_matrix` and `grassmann.pluecker`
work on the integer view as the volumes do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .numeric import (
    Vec3,
    _class_loop,
    _pivots,
    int_scaled,
    parse_rows,
    render_rows,
    sum_abs_det3_combos,
    sum_abs_det3_pairs,
    sum_abs_det3_triples,
    unscaled,
    vec3,
)


@dataclass(frozen=True)
class Zonotope3:
    """Sum of the segments [0, a_i] over the generator list, up to translation.

    Zero generators are permitted: they are points and contribute nothing.
    Generator order never affects any volume.

    A body has two views of its generators: `generators`, rational `Vec3`s,
    and `scaled`, integer triples with a scale L >= 1 such that each
    generator is its triple divided by L.  The constructor takes the first,
    `from_scaled` the second, as `parse_zonotope` and `rng.random_columns`
    do; the other view is derived on first read and kept with the body.
    L may be any common multiple of the coordinate denominators, not only
    their lcm: every volume divides it back out.
    Equality, hashing and repr see the rational generators only, however the
    body was built.

    A body iterates as its rational generators and its length is their
    count, read from the integer view, so a generator matrix held as a body
    reads as its sequence of columns.
    """

    generators: tuple[Vec3, ...]

    @classmethod
    def from_generators(cls, gens: Iterable) -> "Zonotope3":
        return cls(tuple(g if isinstance(g, Vec3) else vec3(*g) for g in gens))

    @classmethod
    def from_scaled(cls, ints: Iterable[tuple[int, int, int]], scale: int) -> "Zonotope3":
        """The body with generators ints[i] / scale; no `Vec3` is built until read."""
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        body = cls.__new__(cls)
        body.__dict__["scaled"] = (tuple(ints), scale)
        return body

    def __getattr__(self, name):
        # Reached only when normal lookup fails: the generators of a body
        # built by `from_scaled`, derived from its integer view and kept.
        if name != "generators" or "scaled" not in self.__dict__:
            raise AttributeError(name)
        gens = self.__dict__["generators"] = unscaled(*self.scaled)
        return gens

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.scaled[0])

    @cached_property
    def scaled(self) -> tuple[tuple[tuple[int, int, int], ...], int]:
        """The integer view: as given to `from_scaled`, or else `int_scaled(generators)`.

        The latter is computed on first use and kept with the body.  Either
        way the view lives in the instance dict, outside the dataclass
        fields, so equality, hashing and repr see the generators only.  The
        integer generators are a tuple because every volume of the body
        shares them.  An AttributeError raised in here would reach
        `__getattr__` and be hidden, so it leaves as a TypeError.
        """
        try:
            ints, scale = int_scaled(self.generators)
        except AttributeError as error:
            raise TypeError(f"generators must be Vec3s: {error}") from error
        return tuple(ints), scale


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


# ---------------------------------------------------------------------------
# Float volume, kept only for perfbench's traced `float_lane`, its one caller,
# which times it against `volume`; it goes when that metric does.  No verdict
# uses it.  It calls `numeric._class_loop` directly, never the sweep: the sweep
# divides exactly, which only integers can.

def volume_float(a: Zonotope3) -> float:
    g = [(float(x), float(y), float(z)) for x, y, z in a.generators]
    return float(_class_loop(_pivots(g))[0])


# ---------------------------------------------------------------------------
# Zonotope text format: header "zonotope3", then one generator per row (see
# numeric.parse_rows).

def _from_pairs(generators: Iterable, scale: int) -> Zonotope3:
    """The body of generators given as three (numerator, denominator) pairs each.

    `scale` is a common multiple of the denominators, as `parse_rows` returns.
    """
    return Zonotope3.from_scaled([(x * (scale // dx), y * (scale // dy), z * (scale // dz))
                                  for (x, dx), (y, dy), (z, dz) in generators], scale)


def parse_zonotope(text: str) -> Zonotope3:
    header, rows, scale = parse_rows(text, "zonotope")
    if header != "zonotope3":
        raise ValueError(f"expected header 'zonotope3', got {header!r}")
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"zonotope: expected 3 coordinates per generator, got {len(row)}")
    return _from_pairs(rows, scale)


def render_zonotope(zono: Zonotope3) -> str:
    return render_rows("zonotope3", zono.generators)
