"""Toric log Fano models: K-semistability, singularity diagnostics and the
closed-form height formulas and bounds attached to them.

A pair is one moment polytope, a ``VPolytope`` enumerated once when the pair
is built; every test below reads its vertices and facets, and the volume,
moment and vertex cones the polytope computes once and keeps.

Volume conventions are carried explicitly throughout:

* ``degree``       -- (-(K_X + Delta))^n,
* ``poly_volume``  -- degree / n!, the Euclidean volume of the moment polytope.

Heights are evaluated in double precision.  The rational part of each
formula is computed exactly and only the final transcendental combination is
floating point, so the reported ``abs_error`` is a few ulps.  Every height of
the toric family, (n+1)!/2 * v * log(C / v) at poly-volume v, is one
evaluation with one error model: the scaled-divisor, universal, arrangement
and Fermat bounds differ only in C and in their range checks.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import geometry as geom
from .errors import (
    NonpositiveVolume,
    NotAnticanonical,
    NotSemistable,
    NumericalError,
    OutOfRange,
)
from .geometry import HPolytope, Vec, VPolytope

_EPS = sys.float_info.epsilon


def _to_float(x: Fraction) -> float:
    """float(x); OutOfRange when x lies beyond the double range."""
    try:
        return float(x)
    except OverflowError as exc:
        raise OutOfRange("result exceeds the double-precision range") from exc


def _ulp_error(scale: float) -> float:
    """Crude but safe rounding bound: eight half-ulps at the given magnitude."""
    return abs(scale) * (8 * _EPS)


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
class VolumePair:
    """Degree and polytope-volume conventions of the same anticanonical volume."""

    degree: Fraction
    poly_volume: Fraction

    def __post_init__(self):
        if self.degree <= 0 or self.poly_volume <= 0:
            raise NonpositiveVolume("anticanonical volume must be positive")

    @classmethod
    def from_poly_volume(cls, n: int, poly_volume: Fraction) -> "VolumePair":
        if n < 1:
            raise OutOfRange("n must be a positive integer")
        check_lead_range(n, poly_volume)   # before the factorial n!, formed only for v > 0
        return cls(math.factorial(n) * poly_volume if poly_volume > 0 else 0, poly_volume)


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
            if not 0 < f.offset <= 1:
                raise OutOfRange(
                    f"facet offset {f.offset} outside (0, 1]"
                )
        if isinstance(self.polytope, HPolytope):
            object.__setattr__(self, "polytope", geom.enumerate_vertices(self.polytope))

    @property
    def dim(self) -> int:
        return self.polytope.dim


def is_k_semistable(t: ToricLogFano) -> bool:
    """True iff the moment the polytope keeps, so its barycenter, is exactly 0."""
    return not any(geom.volume_and_moment(t.polytope)[1])


def log_fano_volume(t: ToricLogFano) -> VolumePair:
    return VolumePair.from_poly_volume(t.dim, geom.volume(t.polytope))


class VertexSingularity(NamedTuple):
    vertex: Vec
    facet_indices: tuple[int, ...]
    simple: bool
    det: int | None  # |det| of the facet normals; None for non-simple vertices


def vertex_singularity_report(t: ToricLogFano) -> tuple[VertexSingularity, ...]:
    """Per-vertex |det| of the meeting facet normals.

    The variety is smooth iff every entry has det 1, Q-factorial iff every
    vertex is simple (exactly n facets meet).  Non-simple vertices are
    flagged, not fatal.
    """
    return tuple(VertexSingularity(p, tight, d is not None, d)
                 for p, (tight, d) in zip(t.polytope.vertices, t.polytope.cones))


def is_smooth(t: ToricLogFano) -> bool:
    """True iff every vertex cone is simple of |det| 1 (``VPolytope.cones``)."""
    return all(d == 1 for _, d in t.polytope.cones)


def is_gorenstein(t: ToricLogFano) -> bool:
    """Reflexivity test: all vertices integral.  Requires a_F = 1 throughout."""
    if any(f.offset != 1 for f in t.polytope.facets):
        raise NotAnticanonical("Gorenstein test applies to the a_F = 1 polytope")
    return all(x.denominator == 1 for p in t.polytope.vertices for x in p)


def is_pn_polytope(v: VPolytope) -> bool:
    """Does the normal fan equal the fan of P^n up to GL_n(Z)?

    Equivalent to: n+1 facets and every vertex cone, read off ``v.cones``,
    of |det| 1, since P^n has the only smooth complete fan with n+1 rays.
    """
    return len(v.facets) == v.dim + 1 and all(d == 1 for _, d in v.cones)


# -- closed-form heights -------------------------------------------------------

def _check_pn_n(n: int) -> None:
    """OutOfRange unless 1 <= n <= 142, where the lead (n+1)^{n+1}/2 of
    pn_height(n) is a finite double; decided in logarithms, which lie at
    least 0.79 from log(DBL_MAX) at every n, before any work that grows with n.
    The height itself leaves the double range at n = 142, which
    ``HeightReport`` refuses."""
    if n < 1:
        raise OutOfRange("n must be a positive integer")
    if (n + 1) * math.log(n + 1) - math.log(2) > math.log(sys.float_info.max):
        raise OutOfRange("result exceeds the double-precision range")


def pn_height(n: int) -> HeightReport:
    """Height of projective n-space over Z with the volume-normalized
    Fubini-Study metric:

        (1/2) (n+1)^{n+1} ( (n+1) H_n - n + log(pi^n / n!) ),  H_n = sum 1/k.
    """
    _check_pn_n(n)
    harmonic = sum(Fraction(1, k) for k in range(1, n + 1))
    lead = Fraction((n + 1) ** (n + 1), 2)
    rational_part = (n + 1) * harmonic - n
    log_part = n * math.log(math.pi) - math.log(math.factorial(n))
    lead_f = float(lead)
    value = lead_f * (float(rational_part) + log_part)
    # the lead is scaled first: lead_f * (...) overflows from n = 141 on
    err = _ulp_error(lead_f) * (abs(float(rational_part)) + abs(log_part))
    return HeightReport(value, Convention.RAW_HEIGHT, "pn_fubini_study", err)


def a_n_constant(n: int, height: HeightReport | None = None) -> float:
    """Normalized P^n height pn_height(n) / (n+1)^{n+1}, read off ``height`` if given."""
    a = (height or pn_height(n)).value / (n + 1) ** (n + 1)
    if 2 * a < 1:
        raise NumericalError("normalized height dropped below 1/2")
    return a


def _log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def check_lead_range(n: int, v: Fraction) -> None:
    """OutOfRange when n >= 1, v > 0 and the lead (n+1)!/2 * v of a toric
    height lies clearly beyond the double range: its logarithm, from lgamma
    with no factorial, more than 1 above log(DBL_MAX).  A case nearer the
    boundary is left to the exact test; n is capped at 2^53, which only
    lowers the logarithm, so that it converts to a float."""
    if n >= 1 and v > 0 and (math.lgamma(min(n, 2**53) + 2) - math.log(2) + _log_fraction(v)
                             > math.log(sys.float_info.max) + 1):
        raise OutOfRange("result exceeds the double-precision range")


def _toric_height(n: int, v: Fraction, log_c: float, convention: Convention,
                  formula: str) -> HeightReport:
    """(n+1)!/2 * v * log(C / v) at poly-volume v; abs_error scales with
    |log C| + |log v|, so it also covers a difference that cancels; v > 0."""
    check_lead_range(n, v)   # before the factorial (n+1)!
    lead = _to_float(Fraction(math.factorial(n + 1), 2) * v)
    log_v = _log_fraction(v)
    return HeightReport(lead * (log_c - log_v), convention, formula,
                        _ulp_error(lead) * (abs(log_c) + abs(log_v)))


def universal_height_bound(vol: VolumePair, n: int) -> HeightReport:
    """Universal bound (n+1)!/2 * v * log((2 pi^2)^n / v), v = poly_volume."""
    return _toric_height(n, Fraction(vol.poly_volume), n * math.log(2 * math.pi**2),
                         Convention.BOUND_ON_HEIGHT, "universal_toric_bound")


def pn_poly_volume(n: int) -> Fraction:
    """v_0 = (n+1)^n / n!, the poly-volume of P^n; every caller goes on to
    pn_height(n), so it refuses the same n."""
    _check_pn_n(n)
    return Fraction((n + 1) ** n, math.factorial(n))


def pn_family_height(n: int, v: Fraction, convention: Convention, formula: str,
                     height: HeightReport | None = None) -> HeightReport:
    """The divisor family on P^n at poly-volume v, equal to pn_height(n) at v_0:

        h / (n+1)! = (1/2) v log(v_0 e^{2 a_n} / v),  0 < v <= v_0 = pn_poly_volume(n),

    with a_n read off ``height`` = pn_height(n) if given.
    """
    v0 = pn_poly_volume(n)
    if not 0 < v <= v0:
        raise OutOfRange("volume must satisfy 0 < v <= (n+1)^n / n!")
    return _toric_height(n, v, 2 * a_n_constant(n, height) + _log_fraction(v0),
                         convention, formula)


def scaled_divisor_height(n: int, t) -> HeightReport:
    """Height of (P^n_Z, (1-t) D_0) for the standard toric anticanonical D_0,
    with the volume-normalized Kaehler-Einstein metric: the P^n family at
    v_t = t^n v_0.
    """
    t = Fraction(t)
    if not 0 < t <= 1:
        raise OutOfRange("t must lie in (0, 1]")
    return pn_family_height(n, pn_poly_volume(n) * t**n, Convention.RAW_HEIGHT,
                            "scaled_divisor_family")


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
    singularities: tuple[VertexSingularity, ...]


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
    report = vertex_singularity_report(t)
    singular = not is_smooth(t)
    cert_bound = Fraction((n + 1) ** n, 2 * math.factorial(n)) if singular else None
    cert_holds = (vol <= cert_bound) if singular else None
    if is_pn_polytope(t.polytope):
        verdict = GapVerdict.IS_PN
    elif vol <= threshold:
        verdict = GapVerdict.SATISFIES_GAP
    else:
        verdict = GapVerdict.VIOLATES_GAP
    return GapReport(verdict, vol, threshold, singular, cert_bound, cert_holds, report)
