"""The invariant S(X): the largest anticanonical volume of a K-semistable
log structure on a fixed toric X, realized by an optimal half-space cut of
the moment polytope subject to a barycenter constraint.

The general optimizer cuts perpendicular to the barycenter direction v and
solves the relaxed constraint

    integral over P cut at c of <v, x> dlambda = 0

by bisection over rational c.  Each step reads the sign of the integral
off one slab polynomial of ``geometry.clip_family``, fitted in integers
from the polytope's masks with no clip, so only the root is approximate.
It is the one root finder for the cut weight w = max <u, P> - c; the
Cardano radicals in ``presets.SX_CLOSED_FORM_W`` are only compared with
it.  When the optimizer's full barycenter vanishes (always in the
symmetric benchmark cases) the result is certified as S(X); otherwise it
is an upper bound for the half-space family only.

The input is one ``VPolytope``.  A body brought into a symmetric position by
a linear map, as ``presets.SX_PRESETS`` brings P(O + O(2)) by a determinant-2
map, comes with |det| of that map, and the volume is divided by it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import geometry as geom
from .errors import OutOfRange
from .geometry import VPolytope
from .toric_heights import _to_float

_WIDTH = Fraction(1, 2**50)
_CERTIFY_TOL = 1e-9   # largest |barycenter coordinate| still counted as zero


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


def sx_invariant(v: VPolytope, det=1) -> SxResult:
    """n! S(X) for a moment polytope v with the origin in its interior;
    ``det`` is |det| of the linear map that produced v from the moment
    polytope, so that the reported volume is n! cvol / det.  OutOfRange when
    some facet offset is <= 0, so that the origin is not interior, or when a
    reported number or the top cut level lies beyond the double range.

    Bisects the cut-off until the bracket is narrower than 2^-50, one
    integer ``moment_sign`` per step; the only ``Fraction`` built is the cut-off.
    """
    if any(f.offset <= 0 for f in v.facets):
        raise OutOfRange("the origin must be interior: every facet offset must be positive")
    nf = math.factorial(v.dim)
    vol, mom = geom.volume_and_moment(v)
    if all(x == 0 for x in mom):
        return SxResult(0.0, _to_float(nf * vol / det), True, 0.0, None, None)
    u = geom.primitive_int_vector(mom)
    cmax = max(geom.dot(u, p) for p in v.vertices)
    _to_float(cmax)   # the cut weight is a double: refuse a level beyond them before bisecting
    clip = geom.clip_family(v, u)
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
