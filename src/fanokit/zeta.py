"""Hurwitz zeta machinery and the closed-form canonical height of the
projective line with three weighted marked points.

``hurwitz_zeta`` is the one Euler-Maclaurin routine: a single pass gives
zeta(s, x), its s-derivative and an error bound on each, the certified
Bernoulli tail remainder plus an accumulated rounding estimate.  Its one
precision input is a target absolute error (default ``DEFAULT_TARGET``):
the number of Bernoulli corrections is fixed, their coefficients B_2j/(2j)!
and the tail's are computed once at import and the rest that depends on s
alone once per s (``_pass_constants``), and the number of directly summed
terms grows until the tail bound meets the target.  The height formula needs
F(x) = zeta(-1, x) + zeta'(-1, x), evaluated once per distinct argument of a
height.  Its domain, 2 w_i <= sum(w) for every i, is decided in integers
before any F is evaluated, and on it the height is evaluated in real floats,
past degree zero too (``p1_canonical_height`` has the proof).
"""
from __future__ import annotations

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
# B_2j / (2j)! for j = 1..M, and |B_2M+2| / (2M+2)! of the certified tail
_EM_COEFFS = tuple(float(bernoulli_number(2 * j)) / math.factorial(2 * j)
                   for j in range(1, _BERNOULLI_TERMS + 1))
_TAIL_COEFF = (abs(float(bernoulli_number(2 * _BERNOULLI_TERMS + 2)))
               / math.factorial(2 * _BERNOULLI_TERMS + 2))


class ZetaValue(NamedTuple):
    """zeta(s, x), its s-derivative, and a certified bound on the error of each."""

    value: float
    derivative: float
    error: float
    derivative_error: float


@lru_cache(maxsize=16)
def _pass_constants(s: float) -> tuple:
    """What an Euler-Maclaurin pass reads that depends on s alone, from the
    (P, dP/ds) of P = s (s+1) ... (s+i-1), i = 1, 3, ..., 2M+1; safe at zeros of P."""
    m, rising = _BERNOULLI_TERMS, []
    p, dp = 1.0, 0.0
    for i in range(2 * m + 1):
        p, dp = p * (s + i), dp * (s + i) + p
        if i % 2 == 0:
            rising.append((p, dp))
    return (-s, 1 - s, -s - 2 * m - 1, s - 1, 1 / (s - 1) ** 2, abs(p), abs(dp),
            _TAIL_COEFF * abs(p), tuple((c * p, c, p, dp, -s - 2 * j + 1) for j, (c, (p, dp))
                                        in enumerate(zip(_EM_COEFFS, rising), 1)))


def hurwitz_zeta(s: float, x: float, target: float = DEFAULT_TARGET) -> ZetaValue:
    """zeta(s, x) and d/ds zeta(s, x) for finite s != 1 and finite x >= 0 (x = 0 via
    zeta(s, 1), the continuation value used throughout), from one
    Euler-Maclaurin pass differentiated term by term whose certified tail
    meets the target absolute error."""
    if not 0 < target < math.inf:
        raise OutOfRange("target must be positive and finite")
    if x < 0:
        raise DomainError("x must be nonnegative")
    try:
        s, x = float(s), float(x or 1.0)    # x = 0 is read as x = 1
    except OverflowError:
        raise DomainError("s and x must be finite") from None
    if not (math.isfinite(s) and math.isfinite(x)):
        raise DomainError("s and x must be finite")
    if s == 1:
        raise PoleAtOne("zeta(s, x) has its pole at s = 1")
    neg_s, one_s, tail_exp, s1, inv_s1_sq, abs_p, abs_dp, tail_p, terms = _pass_constants(s)
    log, n = math.log, _SHIFT
    while True:
        a = n + x
        la = log(a)
        pw_tail = a ** tail_exp
        err_z = tail_p * pw_tail
        err_dz = 2 * _TAIL_COEFF * (abs_dp + abs_p * la) * pw_tail
        if max(err_z, err_dz) <= target or n >= 1 << 14:
            break
        n *= 2
    if max(err_z, err_dz) > target:
        raise NonConvergence("Euler-Maclaurin tail bound above target")

    # the direct terms, then the integral, the half term and the Bernoulli terms
    z = dz = mag_z = mag_dz = 0.0
    for k in range(n):
        y = k + x
        t = y ** neg_s
        dt = -log(y) * t
        z += t
        dz += dt
        mag_z += abs(t)
        mag_dz += abs(dt)
    pa = a ** one_s
    th = 0.5 * a ** neg_s
    for t, dt in [(pa / s1, pa * (-la / s1 - inv_s1_sq)), (th, -la * th),
                  *((cp * (pw := a ** e), c * pw * (dp - p * la)) for cp, c, p, dp, e in terms)]:
        z += t
        dz += dt
        mag_z += abs(t)
        mag_dz += abs(dt)
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

    It is real exactly on the arrangement locus 2 w_i <= sum(w), decided in
    integers before any F is evaluated (DomainError off it).  With {i, j, k} =
    {1, 2, 3}, b = w_i + V/2 = 1 + (w_i - w_j - w_k)/2 is in [0, 1] iff
    2 w_i <= sum(w), as w_j + w_k - w_i <= 2; else F(1 - b) has the imaginary
    part pi (b - 1), which nothing cancels.  w_i, 1 - w_i, 1 - V/2 are >= 0.
    The one negative argument left, V/2 when V < 0, enters by the shift
    F(x) = F(x+1) + x - x Log x, whose imaginary part -pi V/2 cancels against
    -(1/2) Log(V/2): -pi/2 + pi (V/2)/V = 0.  So the height is the sum of the
    real parts (log|x| for Log x); for V < 0 on the continuation branch.
    """
    (n1, d1), (n2, d2), (n3, d3) = (w.as_integer_ratio() for w in inp.weights)
    parts = (n1 * d2 * d3, n2 * d1 * d3, n3 * d1 * d2)
    if 2 * max(parts) > sum(parts):
        i = parts.index(max(parts))
        raise DomainError(f"height formula left its real-analytic domain: 2*w{i + 1} = "
                          f"{2 * inp.weights[i]} > w1 + w2 + w3 = {sum(inp.weights)}")
    v = float(inp.v)
    if v == 0:
        raise ZeroVolume("V = 2 - sum(w) must be nonzero")
    h = v / 2

    # F on [0, inf), keyed on the argument hurwitz_zeta sees: one pass each
    memo: dict[float, float] = {}

    def f(x: float) -> tuple[float, float]:
        # F continued to x >= -1/2 (real part below 0), and its error bound
        y = (x if x >= 0 else x + 1.0) or 1.0    # F(0) = F(1)
        if y not in memo:
            memo[y] = f_value(y, target)
        # both summands honor the target; rounding contributes ~1e2 eps
        err = 2 * target + 256 * _EPS
        if x >= 0:
            return memo[y], err
        # the shift zeta(s,x) = x^{-s} + zeta(s,x+1) and its s-derivative at s = -1
        log_x = math.log(-x)
        return memo[y] + x - x * log_x, err + 8 * _EPS * abs(x) * (1 + math.hypot(log_x, math.pi))

    total = err = 0.0
    for a, b in [(0.0, h)] + [(float(w), float(w) + h) for w in inp.weights]:
        (fb, e1), (f1b, e2), (fa, e3), (f1a, e4) = (f(x) for x in (b, 1 - b, a, 1 - a))
        # gamma(a, b), in paired differences so that gamma(a, a) cancels exactly
        total += (fb - fa) + (f1b - f1a)
        err += e1 + e2 + e3 + e4
    bracket = 0.5 * (1 + math.log(math.pi) - math.log(abs(h))) - total / v
    value = 2 * v * bracket
    abs_err = 2 * abs(v) * (err / abs(v) + 16 * _EPS * abs(bracket)) + 8 * _EPS * abs(value)
    branch = "fano" if v > 0 else "continuation"
    return HeightReport(value, Convention.RAW_HEIGHT, f"p1_three_points_zeta[{branch}]", abs_err)


def mabuchi_p1_constant() -> float:
    """Minimum of the arithmetic Mabuchi functional on integral models of
    the projective line: -1 - log(pi) = -pn_height(1) / 2."""
    return -1.0 - math.log(math.pi)
