"""zonomix: exact mixed volumes of zonotopes in R^3.

Computes mixed volumes of zonotopes (and of one general polytope with
segments) in exact rational arithmetic, and mechanically verifies the sharp
inequality

    V(A,A,A) * V(A,B,C) <= (3/2) * V(A,A,B) * V(A,A,C)

together with every computable step of its reduction: the generator-matrix
form, the two-valued generating points with their closed forms, the square
identity in the aggregate weights s1..s4, the quadratic minor-coordinate
formulation, and the sharpness witnesses on both sides.

The top level exports the headline names only; everything else (the
reduction steps, minor coordinates, polytope witnesses, the random
generator, the integer kernels) lives in the submodules.
"""

from .numeric import Mat3xM, Vec3, parse_matrix, render_matrix, vec3
from .verify import (
    FuzzConfig,
    FuzzSummary,
    IneqReport,
    check_af_square,
    check_bezout,
    check_lemma_matrix,
    fuzz,
)
from .zonotope import (
    Zonotope3,
    mixed_volume,
    mixed_volume_repeated,
    parse_zonotope,
    render_zonotope,
    volume,
)

__version__ = "0.1.0"

__all__ = [
    "FuzzConfig", "FuzzSummary", "IneqReport", "Mat3xM", "Vec3", "Zonotope3",
    "check_af_square", "check_bezout", "check_lemma_matrix", "fuzz",
    "mixed_volume", "mixed_volume_repeated", "parse_matrix", "parse_zonotope",
    "render_matrix", "render_zonotope", "vec3", "volume",
]
