"""Toric log Fano models: K-semistability, singularity diagnostics and the
closed-form height formulas and bounds attached to them.

A pair is one moment polytope, a ``VPolytope`` enumerated once when the pair
is built; every test below reads its vertices and facets, and the volume,
moment and vertex cones (``v.cones``) the polytope computes once and keeps.
No value here copies them: a caller that reports the cones reads ``v.cones``.

Three volume conventions occur, and each function names the one it takes:

* ``degree``       -- (-(K_X + Delta))^n, from ``log_fano_degree``;
* ``poly_volume``  -- degree / n!, the Euclidean volume of the moment polytope,
  which the universal bound takes;
* ``ratio``        -- lambda = v / v_0 in (0, 1], v_0 that of P^n, which the P^n family takes.

Heights are evaluated in double precision.  The rational part of each
formula is computed exactly and only the final transcendental combination is
floating point, so the reported ``abs_error`` is a few ulps.  Every height of
the P^n divisor family is one evaluation with one error model,
``pn_family_height`` at its ratio lambda: pn_height is its lambda = 1 member,
and the scaled-divisor, arrangement and Fermat heights differ only in lambda
and in their range checks.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import geometry as geom
from .errors import (
    NonpositiveVolume,
    NotAnticanonical,
    NotSemistable,
    OutOfRange,
)
from .geometry import HPolytope, VPolytope

_EPS = sys.float_info.epsilon


def _to_float(x: Fraction) -> float:
    """float(x); OutOfRange when x lies beyond the double range."""
    try:
        return float(x)
    except OverflowError as exc:
        raise OutOfRange("result exceeds the double-precision range") from exc


def _ulp_error(scale: float) -> float:
    """Crude but safe rounding bound: eight half-ulps at the given magnitude,
    and eight ulps of a subnormal, whose relative error can reach 1."""
    return abs(scale) * (8 * _EPS) + 8 * math.ulp(0.0)


class Convention(str, enum.Enum):
    RAW_HEIGHT = "raw_height"
    BOUND_ON_HEIGHT = "bound_on_height"


@dataclass(frozen=True)
class HeightReport:
    """A height value with its convention, formula tag and error bound;
    OutOfRange when the value or the bound is not a finite double."""

    value: float
    convention: Convention
    formula: str
    abs_error: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.abs_error)):
            raise OutOfRange("result exceeds the double-precision range")

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "convention": self.convention.value,
            "formula": self.formula,
            "abs_error": self.abs_error,
        }


@dataclass(frozen=True)
class ToricLogFano:
    """Moment-polytope presentation of a toric log Fano pair.

    Facet inequalities <l_F, p> >= -a_F with primitive integer l_F and
    a_F in (0, 1]; a_F = 1 for every facet is the anticanonical case.  An
    ``HPolytope`` has every given offset checked, then is enumerated once.
    """

    polytope: VPolytope

    def __post_init__(self):
        for f in self.polytope.facets:
            if not 0 < f.offset.numerator <= f.offset.denominator:
                raise OutOfRange(f"facet offset {f.offset} outside (0, 1]")
        if isinstance(self.polytope, HPolytope):
            object.__setattr__(self, "polytope", geom.enumerate_vertices(self.polytope))

    @property
    def dim(self) -> int:
        return self.polytope.dim


def is_k_semistable(t: ToricLogFano) -> bool:
    """True iff the moment the polytope keeps, so its barycenter, is exactly 0."""
    return not any(geom.volume_and_moment(t.polytope)[1])


def log_fano_degree(t: ToricLogFano) -> Fraction:
    """The degree (-(K_X + Delta))^n = n! vol of the moment polytope."""
    return math.factorial(t.dim) * geom.volume(t.polytope)


def is_smooth(t: ToricLogFano) -> bool:
    """True iff every vertex cone is simple of |det| 1 (``VPolytope.cones``)."""
    return all(d == 1 for _, d in t.polytope.cones)


def is_gorenstein(t: ToricLogFano) -> bool:
    """Reflexivity test: all vertices integral.  Requires a_F = 1 throughout."""
    if any(f.offset != 1 for f in t.polytope.facets):
        raise NotAnticanonical("Gorenstein test applies to the a_F = 1 polytope")
    return t.polytope.rows[0][-1] == 1   # the vertices' least common denominator


def is_pn_polytope(v: VPolytope) -> bool:
    """Does the normal fan equal the fan of P^n up to GL_n(Z)?

    Equivalent to: n+1 facets and every vertex cone, read off ``v.cones``,
    of |det| 1, since P^n has the only smooth complete fan with n+1 rays.
    """
    return len(v.facets) == v.dim + 1 and all(d == 1 for _, d in v.cones)


# -- closed-form heights -------------------------------------------------------

def _check_pn_n(n: int) -> None:
    """OutOfRange unless 1 <= n <= 142, where the lead (n+1)^{n+1}/2 of
    pn_height(n), the largest of its family, is a finite double; decided in
    logarithms, which lie at least 0.79 from log(DBL_MAX) at every n, before any
    work that grows with n.  The height itself leaves the double range at
    n = 142, which ``HeightReport`` refuses."""
    if n < 1:
        raise OutOfRange("n must be a positive integer")
    if (n + 1) * math.log(n + 1) - math.log(2) > math.log(sys.float_info.max):
        raise OutOfRange("result exceeds the double-precision range")


def _pn_constants(n: int) -> tuple[float, float]:
    """r = (n+1) H_n - n, from one integer sum over lcm(1..n) and a correctly
    rounded int / int quotient, and l = log(pi^n / n!), once n passes ``_check_pn_n``."""
    _check_pn_n(n)
    lcm = math.lcm(*range(1, n + 1))
    harmonic = sum(lcm // k for k in range(1, n + 1))
    return (((n + 1) * harmonic - n * lcm) / lcm,
            n * math.log(math.pi) - math.log(math.factorial(n)))


def pn_family_height(n: int, ratio: Fraction, convention: Convention,
                     formula: str) -> HeightReport:
    """The divisor family on P^n at volume ratio lambda = v / v_0 in (0, 1]:

        h = (1/2) (n+1)^{n+1} lambda (r + l - log lambda),  r + l = 2 a_n,

    the lead exact until rounded, at most (n+1)^{n+1}/2, a finite double; abs_error
    scales with |r| + |l| + |log lambda|, so it also covers a difference that cancels."""
    if not 0 < ratio <= 1:
        raise OutOfRange("volume ratio must satisfy 0 < lambda <= 1")
    r, l = _pn_constants(n)
    lead = float(Fraction((n + 1) ** (n + 1), 2) * ratio)
    log_ratio = _log_fraction(ratio)
    return HeightReport(lead * (r + l - log_ratio), convention, formula,
                        _ulp_error(lead) * (abs(r) + abs(l) + abs(log_ratio)))


def pn_height(n: int) -> HeightReport:
    """Height of projective n-space over Z with the volume-normalized Fubini-Study
    metric, (1/2) (n+1)^{n+1} ((n+1) H_n - n + log(pi^n / n!)): the family at lambda = 1."""
    return pn_family_height(n, 1, Convention.RAW_HEIGHT, "pn_fubini_study")


def a_n_constant(n: int) -> float:
    """Normalized P^n height a_n = pn_height(n) / (n+1)^{n+1} = f(n) / 2;
    f(n) = (n+1) H_n - n + log(pi^n / n!) > 1, as f(1) = 1 + log pi and
    f(n+1) - f(n) = H_{n+1} + log pi - log(n+1) > 0, since H_{n+1} > log(n+1)."""
    r, l = _pn_constants(n)
    return (r + l) / 2


def _log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def universal_height_bound(n: int, v: Fraction) -> HeightReport:
    """Universal bound (n+1)!/2 * v * log(C / v), C = (2 pi^2)^n, at poly-volume v,
    abs_error as in ``pn_family_height``.  OutOfRange, before (n+1)! and n * log(2 pi^2),
    which overflows at n = 10^400, when the lead's logarithm, from lgamma with n capped
    at 2^53 (which only lowers it), is more than 1 above log(DBL_MAX); a case nearer
    the boundary is left to the exact test."""
    if n < 1:
        raise OutOfRange("n must be a positive integer")
    if v <= 0:
        raise NonpositiveVolume("anticanonical volume must be positive")
    if (math.lgamma(min(n, 2**53) + 2) - math.log(2) + _log_fraction(v)
            > math.log(sys.float_info.max) + 1):
        raise OutOfRange("result exceeds the double-precision range")
    log_c, log_v = n * math.log(2 * math.pi**2), _log_fraction(v)
    lead = _to_float(Fraction(math.factorial(n + 1), 2) * v)
    return HeightReport(lead * (log_c - log_v), Convention.BOUND_ON_HEIGHT,
                        "universal_toric_bound", _ulp_error(lead) * (abs(log_c) + abs(log_v)))


def scaled_divisor_height(n: int, t) -> HeightReport:
    """Height of (P^n_Z, (1-t) D_0) for the standard toric anticanonical D_0,
    with the volume-normalized Kaehler-Einstein metric: the P^n family at
    lambda = t^n, a power formed only once n has passed its check."""
    t = Fraction(t)
    if not 0 < t <= 1:
        raise OutOfRange("t must lie in (0, 1]")
    _check_pn_n(n)
    return pn_family_height(n, t**n, Convention.RAW_HEIGHT, "scaled_divisor_family")


# -- gap check -------------------------------------------------------------------

class GapVerdict(str, enum.Enum):
    IS_PN = "IsPn"
    SATISFIES_GAP = "SatisfiesGap"
    VIOLATES_GAP = "ViolatesGap"


@dataclass(frozen=True)
class GapReport:
    verdict: GapVerdict
    poly_volume: Fraction
    gap_threshold: Fraction          # vol(P^{n-1} x P^1) = 2 n^n / n!
    singular: bool
    certificate_bound: Fraction | None   # (1/2)(n+1)^n / n! when singular
    certificate_holds: bool | None


def gap_check(t: ToricLogFano) -> GapReport:
    """Volume-gap verdict for a K-semistable toric log Fano pair.

    IsPn when the underlying variety is P^n; otherwise the gap holds iff
    poly_volume <= 2 n^n / n!.  For singular X (not ``is_smooth``) the
    stronger certificate poly_volume <= (1/2)(n+1)^n / n! is reported alongside.
    """
    if not is_k_semistable(t):
        raise NotSemistable("gap check requires barycenter zero")
    vol, n = geom.volume(t.polytope), t.dim
    threshold = Fraction(2 * n**n, math.factorial(n))
    singular = not is_smooth(t)
    cert_bound = Fraction((n + 1) ** n, 2 * math.factorial(n)) if singular else None
    cert_holds = (vol <= cert_bound) if singular else None
    if is_pn_polytope(t.polytope):
        verdict = GapVerdict.IS_PN
    elif vol <= threshold:
        verdict = GapVerdict.SATISFIES_GAP
    else:
        verdict = GapVerdict.VIOLATES_GAP
    return GapReport(verdict, vol, threshold, singular, cert_bound, cert_holds)
