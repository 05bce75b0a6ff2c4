"""Height corrections and bounds for diagonal Fano hypersurfaces

    sum_{i=0}^{n+1} a_i x_i^d = 0   in P^{n+1},   1 <= d <= n+1.

The absolute canonical height of such a hypersurface is never claimed;
everything is expressed as a correction relative to the unit-coefficient
(Fermat) case or as a bound relative to the P^n height, which is all the
closed-form chain provides.  The Fermat cover bound is the P^n divisor family
of ``toric_heights`` at volume lambda * v_0, and the Fermat reduction delta is
twice the diagonal correction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arrangements import WeightVector, is_arrangement_semistable
from .errors import InputError, NumericalError, OutOfRange
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

    def log_coefficient_sum(self) -> float:
        return sum(math.log(abs(a)) for a in self.coefficients)


def diagonal_height_correction(spec: DiagonalHypersurfaceSpec) -> float:
    """(1-d) (n+2-d)^n sum_i log|a_i|; always <= 0, zero iff d = 1 or all
    |a_i| = 1.  Added to pn_height(n), this bounds the canonical height."""
    n, d = spec.n, spec.d
    return (1 - d) * (n + 2 - d) ** n * spec.log_coefficient_sum()


def fermat_reduction_delta(spec: DiagonalHypersurfaceSpec) -> float:
    """Exact change of canonical height when scaling coefficients away from
    the Fermat case:

        h_can(X_a) - h_can(X_1)
          = (n+1)(n+2-d)^n d ((n+2-d)/(n+1) - 1) d^{-1} sum log|a_i|^2,

    which simplifies to 2 (1-d) (n+2-d)^n sum log|a_i|, twice the
    diagonal_height_correction (doubling a float is exact)."""
    return 2 * diagonal_height_correction(spec)


def general_linear_height_delta(n: int, d: int, det_t_modulus: float) -> float:
    """Height change for a hypersurface cut out by a GL(n+2) pullback of the
    Fermat form: (n+1)(n+2-d)^n d ((n+2-d)/(n+1) - 1) log|det T|^2;
    OutOfRange unless 0 < |det T| < inf."""
    # NaN fails the first test
    if not det_t_modulus > 0:
        raise OutOfRange("|det T| must be positive")
    if det_t_modulus == math.inf:
        raise OutOfRange("|det T| must be finite")
    # the factor is the integer d (1-d) (n+2-d)^n
    return 2 * d * (1 - d) * (n + 2 - d) ** n * math.log(det_t_modulus)


def branch_arrangement(spec: DiagonalHypersurfaceSpec) -> WeightVector:
    """The hyperplane arrangement on P^n induced by the branch divisor of the
    degree-d cover of the degree-one model: n+2 hyperplanes, each with weight
    1 - 1/d; always K-semistable."""
    w = WeightVector(spec.n, (1 - Fraction(1, spec.d),) * (spec.n + 2))
    if not is_arrangement_semistable(w):
        raise NumericalError(f"branch arrangement {w.weights} is not semistable")
    return w


def lambda_ratio(n: int, d: int) -> Fraction:
    """Degree ratio V(X)/V(P^n) = d (n+2-d)^n / (n+1)^n, in (0, 1]."""
    if not 1 <= d <= n + 1:
        raise OutOfRange("Fano requires 1 <= d <= n+1")
    return Fraction(d * (n + 2 - d) ** n, (n + 1) ** n)


@dataclass(frozen=True)
class FermatHeightBound:
    report: HeightReport
    lam: Fraction
    strict: bool


def fermat_height_bound(n: int, d: int, height: HeightReport | None = None) -> FermatHeightBound:
    """Bound for the degree-d Fermat hypersurface:

        h_can(X) <= lambda pn_height(n) - (1/2) (n+1)! v_X log(lambda),

    with v_X = d (n+2-d)^n / n! in polytope-volume units; this is exactly
    the P^n divisor family at volume lambda * v_0 and reduces to pn_height
    at d = 1.  Strict iff lambda < 1 (the conic n = 1, d = 2 has lambda = 1:
    it is the line re-embedded).  ``height`` is pn_height(n) when the caller
    holds it already."""
    lam = lambda_ratio(n, d)
    report = pn_family_height(n, lam * pn_poly_volume(n), Convention.BOUND_ON_HEIGHT,
                              "fermat_cover_bound", height)
    return FermatHeightBound(report, lam, strict=lam < 1)


def cover_volume_ratio_check(n: int, d: int) -> tuple[Fraction, Fraction]:
    """Topological-degree bookkeeping for the degree-d cover of the
    degree-one model: returns (d^{n+1}, V(X)/V(Y, Delta)); the two must
    agree.  V(X) = d (n+2-d)^n and V(Y, Delta) = ((n+2-d)/d)^n."""
    vx = Fraction(d * (n + 2 - d) ** n)
    vy = Fraction(n + 2 - d, d) ** n
    return Fraction(d) ** (n + 1), vx / vy


@dataclass(frozen=True)
class DiagonalBound:
    """OutOfRange when a printed number is not a finite double, as in
    ``HeightReport``."""

    report: HeightReport
    correction: float
    strict: bool
    fermat_delta: float
    chain_value: float  # fermat.report.value + fermat_delta
    fermat: FermatHeightBound

    def __post_init__(self):
        if not all(map(math.isfinite, (self.correction, self.fermat_delta, self.chain_value))):
            raise OutOfRange("result exceeds the double-precision range")


def diagonal_theorem_bound(spec: DiagonalHypersurfaceSpec) -> DiagonalBound:
    """Canonical-height bound pn_height(n) + diagonal_height_correction,
    strict when d >= 2, with the Fermat cover bound and the sharper chain
    through it beside it."""
    base = pn_height(spec.n)
    corr = diagonal_height_correction(spec)
    delta = fermat_reduction_delta(spec)
    value = base.value + corr
    err = base.abs_error + _ulp_error(abs(corr) + abs(value))
    report = HeightReport(value, Convention.BOUND_ON_HEIGHT,
                          "diagonal_hypersurface_bound", err)
    fermat = fermat_height_bound(spec.n, spec.d, base)
    return DiagonalBound(report, corr, spec.d >= 2, delta, fermat.report.value + delta, fermat)
