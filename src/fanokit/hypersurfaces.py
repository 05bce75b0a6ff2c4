"""Height corrections and bounds for diagonal Fano hypersurfaces

    sum_{i=0}^{n+1} a_i x_i^d = 0   in P^{n+1},   1 <= d <= n+1.

The absolute canonical height of such a hypersurface is never claimed;
everything is expressed as a correction relative to the unit-coefficient
(Fermat) case or as a bound relative to the P^n height, which is all the
closed-form chain provides.  Each bound is one ``HeightReport``; the Fermat
cover bound is the P^n divisor family of ``toric_heights`` at volume
lambda * v_0.  The reduction delta 2 * correction, the chain through the
Fermat bound and the cover degree d^{n+1} are left to the caller.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arrangements import WeightVector
from .errors import InputError, OutOfRange
from .toric_heights import (Convention, HeightReport, _ulp_error, pn_family_height,
                            pn_height, pn_poly_volume)


@dataclass(frozen=True)
class DiagonalHypersurfaceSpec:
    """(n, d, a_0..a_{n+1}): a degree-d diagonal form in n+2 variables."""

    n: int
    d: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        # type(x) is int refuses booleans and integral floats
        if not all(type(x) is int for x in (self.n, self.d, *coeffs)):
            raise OutOfRange("n, d and the coefficients must be integers")
        if self.n < 1:
            raise OutOfRange("relative dimension must be positive")
        if not 1 <= self.d <= self.n + 1:
            raise OutOfRange("Fano requires 1 <= d <= n+1")
        if len(coeffs) != self.n + 2:
            raise InputError(f"need n+2 = {self.n + 2} coefficients")
        if any(a == 0 for a in coeffs):
            raise InputError("coefficients must be nonzero")


def diagonal_height_correction(spec: DiagonalHypersurfaceSpec) -> float:
    """(1-d) (n+2-d)^n sum_i log|a_i|; always <= 0, zero (+0.0) iff d = 1 or
    all |a_i| = 1.  Added to pn_height(n), this bounds the canonical height.
    Twice it is the exact change of canonical height when scaling the
    coefficients away from the Fermat case (doubling a float is exact):

        h_can(X_a) - h_can(X_1)
          = (n+1)(n+2-d)^n d ((n+2-d)/(n+1) - 1) d^{-1} sum log|a_i|^2
          = 2 (1-d) (n+2-d)^n sum log|a_i|."""
    n, d = spec.n, spec.d
    log_sum = sum(math.log(abs(a)) for a in spec.coefficients)
    return (1 - d) * (n + 2 - d) ** n * log_sum + 0.0   # -0.0 + 0.0 is +0.0


def general_linear_height_delta(n: int, d: int, det_t_modulus: float) -> float:
    """Height change for a hypersurface cut out by a GL(n+2) pullback of the
    Fermat form: (n+1)(n+2-d)^n d ((n+2-d)/(n+1) - 1) log|det T|^2;
    OutOfRange unless 0 < |det T| < inf."""
    # NaN fails the first test
    if not det_t_modulus > 0:
        raise OutOfRange("|det T| must be positive")
    if det_t_modulus == math.inf:
        raise OutOfRange("|det T| must be finite")
    # the factor is the integer d (1-d) (n+2-d)^n; + 0.0 as in diagonal_height_correction
    return 2 * d * (1 - d) * (n + 2 - d) ** n * math.log(det_t_modulus) + 0.0


def branch_arrangement(spec: DiagonalHypersurfaceSpec) -> WeightVector:
    """The hyperplane arrangement on P^n induced by the branch divisor of the
    degree-d cover of the degree-one model: n+2 hyperplanes, each with weight
    w = 1 - 1/d.  It is always K-semistable: the test w_i <= (1/(n+1)) sum_j w_j
    reads w <= (n+2) w / (n+1), which holds since w >= 0."""
    return WeightVector(spec.n, (1 - Fraction(1, spec.d),) * (spec.n + 2))


def lambda_ratio(n: int, d: int) -> Fraction:
    """Degree ratio V(X)/V(P^n) = d (n+2-d)^n / (n+1)^n, in (0, 1]."""
    if not 1 <= d <= n + 1:
        raise OutOfRange("Fano requires 1 <= d <= n+1")
    return Fraction(d * (n + 2 - d) ** n, (n + 1) ** n)


def fermat_height_bound(n: int, d: int, height: HeightReport | None = None) -> HeightReport:
    """Bound for the degree-d Fermat hypersurface, with lambda = lambda_ratio(n, d):

        h_can(X) <= lambda pn_height(n) - (1/2) (n+1)! v_X log(lambda),

    with v_X = d (n+2-d)^n / n! in polytope-volume units; this is exactly
    the P^n divisor family at volume lambda * v_0 and reduces to pn_height
    at d = 1.  Equality iff lambda = 1 (the conic n = 1, d = 2 has lambda = 1:
    it is the line re-embedded).  ``height`` is pn_height(n) when the caller
    holds it already."""
    return pn_family_height(n, lambda_ratio(n, d) * pn_poly_volume(n),
                            Convention.BOUND_ON_HEIGHT, "fermat_cover_bound", height)


@dataclass(frozen=True)
class DiagonalBound:
    """OutOfRange when a printed number is not a finite double, as in ``HeightReport``."""

    report: HeightReport
    correction: float
    strict: bool
    fermat: HeightReport

    def __post_init__(self):
        # fermat.value is finite, so this sum, the printed chain bound, is finite
        # iff correction, 2 * correction (the printed delta) and the chain all are
        if not math.isfinite(self.fermat.value + 2 * self.correction):
            raise OutOfRange("result exceeds the double-precision range")


def diagonal_theorem_bound(spec: DiagonalHypersurfaceSpec) -> DiagonalBound:
    """Canonical-height bound pn_height(n) + diagonal_height_correction, strict
    when d >= 2, beside the Fermat cover bound; the chain is fermat + 2 * correction."""
    base = pn_height(spec.n)
    corr = diagonal_height_correction(spec)
    value = base.value + corr
    err = base.abs_error + _ulp_error(abs(corr) + abs(value))
    report = HeightReport(value, Convention.BOUND_ON_HEIGHT,
                          "diagonal_hypersurface_bound", err)
    return DiagonalBound(report, corr, spec.d >= 2, fermat_height_bound(spec.n, spec.d, base))
