"""The invariant S(X): the largest anticanonical volume of a K-semistable
log structure on a fixed toric X, realized by an optimal half-space cut of
the moment polytope subject to a barycenter constraint.

The general optimizer cuts perpendicular to the barycenter direction v and
solves the relaxed constraint

    integral over P cut at c of <v, x> dlambda = 0

by bisection over rational c.  Each step reads the sign of the integral
off one integer slab polynomial (``geometry.clip_family``, read off the
polytope's masks with no clip), so only the root itself is approximate.
This is the one root finder for the cut weight: w = max <u, P> - c is read
off the final bracket, and the Cardano radicals of the two benchmark
presets (``presets.SX_CLOSED_FORM_W``) are only compared with it.
The full barycenter of the optimizer is then checked: when it vanishes
(always in the symmetric benchmark cases) the result is certified as S(X);
otherwise it is an upper bound for the half-space family only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import geometry as geom
from .errors import DimensionMismatch, EmptyBody, OutOfRange
from .geometry import HPolytope, VPolytope
from .toric_heights import _to_float

_WIDTH = Fraction(1, 2**50)
_CERTIFY_TOL = 1e-9   # largest |barycenter coordinate| still counted as zero


@dataclass(frozen=True)
class SimplexDifference:
    """The truncated simplex (a*Delta_n - 1) \\ (b*Delta_n - 1), i.e.

        {x_i >= -1,  b - n <= sum x_i <= a - n},   0 <= b < a.

    ``det_correction`` records |det| of the linear map that brought the
    original moment polytope into this normal form (volumes computed here
    must be divided by it).
    """

    a: Fraction
    b: Fraction
    n: int = 3
    det_correction: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "det_correction", Fraction(self.det_correction))
        if self.n < 1:
            raise DimensionMismatch("dimension must be positive")
        if not 0 <= self.b < self.a:
            raise EmptyBody("need 0 <= b < a")
        if self.det_correction < 1:
            raise OutOfRange("det_correction must be >= 1")

    def to_hpolytope(self) -> HPolytope:
        n = self.n
        facets = [
            (tuple(1 if j == i else 0 for j in range(n)), Fraction(1))
            for i in range(n)
        ]
        facets.append((tuple(-1 for _ in range(n)), self.a - n))
        if self.b > 0:
            facets.append((tuple(1 for _ in range(n)), n - self.b))
        return HPolytope(n, tuple(facets))


@dataclass(frozen=True)
class SxResult:
    cut_weight: float          # w, measured along the primitive cut direction
    s_value: float             # n! S(X), degree convention, det-corrected
    certified: bool            # full barycenter of the optimizer vanished
    residual: float            # max |barycenter coordinate| of the optimizer
    cutoff: Fraction | None    # rational cut level <u, x> <= cutoff
    direction: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "w": self.cut_weight,
            "n_factorial_S": self.s_value,
            "certified": self.certified,
            "residual": self.residual,
        }


def _as_polytope(obj) -> tuple[VPolytope, Fraction]:
    if isinstance(obj, SimplexDifference):
        return geom.enumerate_vertices(obj.to_hpolytope()), obj.det_correction
    if isinstance(obj, VPolytope):
        return obj, Fraction(1)
    raise TypeError(f"cannot optimize over {type(obj).__name__}")


def sx_invariant(obj) -> SxResult:
    """n! S(X) for a moment polytope with the origin in its interior, given
    as a ``VPolytope`` or a ``SimplexDifference``; OutOfRange when some
    facet offset is <= 0, so that the origin is not interior, or when a
    reported number or the top cut level lies beyond the double range.

    Cuts perpendicular to the barycenter direction; the cutoff is bisected
    over rationals until the bracket is narrower than 2^-50, each step
    reading the sign of the moment integral off an integer slab polynomial
    at an integer pair; the only ``Fraction`` built is the cut-off.
    """
    verts, det = _as_polytope(obj)
    if any(f.offset <= 0 for f in verts.facets):
        raise OutOfRange("the origin must be interior: every facet offset must be positive")
    nf = math.factorial(verts.dim)
    vol, mom = geom.volume_and_moment(verts)
    if all(x == 0 for x in mom):
        return SxResult(0.0, _to_float(nf * vol / det), True, 0.0, None, None)
    u = geom.primitive_int_vector(mom)
    cmax = max(geom.dot(u, p) for p in verts.vertices)
    _to_float(cmax)   # the cut weight is a double: refuse a level beyond them before bisecting
    clip = geom.clip_family(verts, u)
    # <u, moment> < 0 at 0, the origin being interior, and > 0 at cmax.  After k
    # halvings the bracket is cmax [j, j + 1] / 2^k, halved to width 2^-50
    p, q, j = cmax.numerator, cmax.denominator, 0
    steps = (math.ceil(cmax / _WIDTH) - 1).bit_length()
    for k in range(1, steps + 1):
        j = 2 * j + (clip.moment_sign(p * (2 * j + 1), q << k) < 0)
    c = Fraction(p * (2 * j + 1), q << steps + 1)
    cvol, cmom = clip(c)
    residual = max(abs(_to_float(x / cvol)) for x in cmom)
    return SxResult(
        cut_weight=_to_float(cmax - c),
        s_value=_to_float(nf * cvol / det),
        certified=residual <= _CERTIFY_TOL,
        residual=residual,
        cutoff=c,
        direction=u,
    )
