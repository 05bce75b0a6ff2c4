"""Hurwitz zeta machinery and the closed-form canonical height of the
projective line with three weighted marked points.

``hurwitz_zeta`` is the one Euler-Maclaurin routine: a single pass gives
zeta(s, x), its s-derivative and an error bound on each, the certified
Bernoulli tail remainder plus an accumulated rounding estimate.  Its one
precision input is a target absolute error (default ``DEFAULT_TARGET``):
the number of Bernoulli corrections is fixed and the number of directly
summed terms grows until the tail bound meets the target.  The height
formula needs F(x) = zeta(-1, x) + zeta'(-1, x), evaluated once per distinct
argument of a height.  For weight sums above the Fano range the formula
continues real-analytically, which is realized here with a one-step complex
shift whose imaginary part cancels against the complex logarithm of the
(negative) degree.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arrangements import WeightVector, is_arrangement_semistable
from .errors import (
    DomainError,
    NonConvergence,
    OutOfRange,
    PoleAtOne,
    ZeroVolume,
)
from .toric_heights import Convention, HeightReport

_EPS = sys.float_info.epsilon


@lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2 convention)."""
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(m):
        acc += math.comb(m + 1, k) * bernoulli_number(k)
    return -acc / (m + 1)


DEFAULT_TARGET = 1e-12
# N directly summed terms (doubled until the tail meets the target), M Bernoulli terms
_SHIFT = 12
_BERNOULLI_TERMS = 8


def _rising_with_derivative(s: float, m: int) -> tuple[float, float]:
    """(P, dP/ds) for P = s (s+1) ... (s+m-1); safe at zeros of P."""
    p, dp = 1.0, 0.0
    for i in range(m):
        p, dp = p * (s + i), dp * (s + i) + p
    return p, dp


class ZetaValue(NamedTuple):
    """zeta(s, x), its s-derivative, and a certified bound on the error of each."""

    value: float
    derivative: float
    error: float
    derivative_error: float


def hurwitz_zeta(s: float, x: float, target: float = DEFAULT_TARGET) -> ZetaValue:
    """zeta(s, x) and d/ds zeta(s, x) for real s != 1 and x >= 0 (x = 0 via
    zeta(s, 1), the continuation value used throughout), from one
    Euler-Maclaurin pass differentiated term by term whose certified tail
    meets the target absolute error."""
    if not 0 < target < math.inf:
        raise OutOfRange("target must be positive and finite")
    if x < 0:
        raise DomainError("x must be nonnegative")
    if x == 0:
        x = 1.0
    s, x = float(s), float(x)
    if s == 1:
        raise PoleAtOne("zeta(s, x) has its pole at s = 1")
    m, n = _BERNOULLI_TERMS, _SHIFT
    tail_coeff = abs(float(bernoulli_number(2 * m + 2))) / math.factorial(2 * m + 2)
    p_tail, dp_tail = _rising_with_derivative(s, 2 * m + 1)
    while True:
        a = n + x
        la = math.log(a)
        pw_tail = a ** (-s - 2 * m - 1)
        err_z = tail_coeff * abs(p_tail) * pw_tail
        err_dz = 2 * tail_coeff * (abs(dp_tail) + abs(p_tail) * la) * pw_tail
        if max(err_z, err_dz) <= target or n >= 1 << 20:
            break
        n *= 2
    if max(err_z, err_dz) > target:
        raise NonConvergence("Euler-Maclaurin tail bound above target")

    z = dz = 0.0
    mag_z = mag_dz = 0.0

    def add(term_z: float, term_dz: float):
        nonlocal z, dz, mag_z, mag_dz
        z += term_z
        dz += term_dz
        mag_z += abs(term_z)
        mag_dz += abs(term_dz)

    for k in range(n):
        t = (k + x) ** (-s)
        lt = math.log(k + x)
        add(t, -lt * t)
    a = n + x
    la = math.log(a)
    t0 = a ** (1 - s) / (s - 1)
    add(t0, a ** (1 - s) * (-la / (s - 1) - 1 / (s - 1) ** 2))
    th = 0.5 * a ** (-s)
    add(th, -la * th)
    for j in range(1, m + 1):
        p, dp = _rising_with_derivative(s, 2 * j - 1)
        coeff = float(bernoulli_number(2 * j)) / math.factorial(2 * j)
        pw = a ** (-s - 2 * j + 1)
        add(coeff * p * pw, coeff * pw * (dp - p * la))
    return ZetaValue(z, dz, err_z + 8 * _EPS * mag_z, err_dz + 8 * _EPS * mag_dz)


def f_value(x: float, target: float = DEFAULT_TARGET) -> float:
    """F(x) = zeta(-1, x) + zeta'(-1, x) for x >= 0; F(0) = F(1)."""
    z = hurwitz_zeta(-1.0, x, target)
    return z.value + z.derivative


@dataclass(frozen=True)
class ZetaHeightInput:
    """Three marked-point weights on P^1; V = 2 - sum(w) is the degree of
    the log anticanonical bundle (negative on the continuation branch)."""

    w1: Fraction
    w2: Fraction
    w3: Fraction

    def __post_init__(self):
        for name in ("w1", "w2", "w3"):
            w = Fraction(getattr(self, name))
            if not 0 <= w <= 1:
                raise OutOfRange(f"weight {w} outside [0, 1]")
            object.__setattr__(self, name, w)

    @property
    def weights(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.w1, self.w2, self.w3)

    @property
    def v(self) -> Fraction:
        return 2 - (self.w1 + self.w2 + self.w3)


def p1_weights_semistable(inp: ZetaHeightInput) -> bool:
    """Advisory flag: the n = 1 arrangement semistability test on the
    weights.  A weight equal to 1 is not klt and never semistable."""
    if any(w >= 1 for w in inp.weights):
        return False
    return is_arrangement_semistable(WeightVector(1, inp.weights))


def p1_canonical_height(inp: ZetaHeightInput, target: float = DEFAULT_TARGET) -> HeightReport:
    """Canonical height of (P^1_Z, three marked points with weights w):

      h / 2V = (1/2)(1 + log pi - log(V/2))
               - ( gamma(0, V/2) + sum_i gamma(w_i, w_i + V/2) ) / V,

    gamma(a, b) = F(b) + F(1-b) - F(a) - F(1-a).

    For V < 0 the same expression is evaluated through its real-analytic
    continuation (the imaginary parts cancel exactly) and reported on the
    distinct continuation branch.
    """
    v = float(inp.v)
    if v == 0:
        raise ZeroVolume("V = 2 - sum(w) must be nonzero")
    h = v / 2

    # F on [0, inf), keyed on the argument hurwitz_zeta sees: one pass each
    memo: dict[float, float] = {}

    def f(x: float) -> tuple[complex, float]:
        # F continued to x > -1 (principal branch below 0), and its error bound
        if x <= -1:
            raise DomainError("continuation implemented for x > -1 only")
        y = (x if x >= 0 else x + 1.0) or 1.0    # F(0) = F(1)
        if y not in memo:
            memo[y] = f_value(y, target)
        # both summands honor the target; rounding contributes ~1e2 eps
        err = 2 * target + 256 * _EPS
        if x >= 0:
            return complex(memo[y]), err
        # zeta(s,x) = x^{-s} + zeta(s,x+1):   at s = -1,
        # zeta(-1,x) = x + zeta(-1,x+1),  zeta'(-1,x) = -x Log x + zeta'(-1,x+1)
        log_x = cmath.log(complex(x))
        return complex(memo[y]) + x - x * log_x, err + 8 * _EPS * abs(x) * (1 + abs(log_x))

    total = complex(0)
    err = 0.0
    for a, b in [(0.0, h)] + [(float(w), float(w) + h) for w in inp.weights]:
        (fb, e1), (f1b, e2), (fa, e3), (f1a, e4) = (f(x) for x in (b, 1 - b, a, 1 - a))
        # gamma(a, b), in paired differences so that gamma(a, a) cancels exactly
        total += (fb - fa) + (f1b - f1a)
        err += e1 + e2 + e3 + e4
    bracket = 0.5 * (1 + math.log(math.pi) - cmath.log(complex(h))) - total / v
    value_c = 2 * v * bracket
    abs_err = 2 * abs(v) * (err / abs(v) + 16 * _EPS * abs(bracket)) + 8 * _EPS * abs(value_c)
    if abs(value_c.imag) > max(1e-9, 100 * abs_err):
        raise DomainError(
            "height formula left its real-analytic domain "
            "(weights are far from K-semistable)"
        )
    branch = "fano" if v > 0 else "continuation"
    return HeightReport(
        value_c.real,
        Convention.RAW_HEIGHT,
        f"p1_three_points_zeta[{branch}]",
        abs_err,
    )


def mabuchi_p1_constant() -> float:
    """Minimum of the arithmetic Mabuchi functional on integral models of
    the projective line: -1 - log(pi) = -pn_height(1) / 2."""
    return -1.0 - math.log(math.pi)
