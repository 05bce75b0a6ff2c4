"""Hurwitz zeta machinery and the closed-form canonical height of the
projective line with three weighted marked points.

``hurwitz_zeta`` is the one Euler-Maclaurin routine, at the one s the
heights read, s = -1: a single pass gives zeta(-1, x), its s-derivative and
an error bound on each, the certified Bernoulli tail remainder plus an
accumulated rounding estimate.  At s = -1 the value's tail is zero, so its
bound is the rounding estimate alone.  Its one precision input is a target
absolute error (default ``DEFAULT_TARGET``): the number of Bernoulli
corrections is fixed, their coefficients and the tail's are computed once at
import, and the number of directly summed terms grows until the tail bound
meets the target.  The height formula needs F(x) = zeta(-1, x) +
zeta'(-1, x), evaluated once per distinct argument of a height, and bounds
each F by max(2t + 256 eps, pass bound) at target t; the pass bound,
error + derivative_error, is the larger only below t = 5.5e-13.  Its domain,
2 w_i <= sum(w) for every i, is decided in integers before any F is
evaluated, and on it the height is evaluated in real floats, past degree
zero too (``p1_canonical_height`` has the proof).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, NonConvergence, OutOfRange, ZeroVolume
from .toric_heights import Convention, HeightReport, pn_height

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


class ZetaValue(NamedTuple):
    """zeta(-1, x), its s-derivative, and a certified bound on the error of each."""

    value: float
    derivative: float
    error: float
    derivative_error: float


# At s = -1 the rising product P = s (s+1) ... (s+2j-2) of the j-th Bernoulli
# term c_j = B_2j/(2j)! is 0 for j >= 2, with dP/ds = -(2j-3)!: past j = 1 a term
# adds c_j a^(2-2j) dP/ds to the derivative alone, and the value's tail is zero.
# The derivative's tail, from P of 2M+1 factors, is 2 |B_2M+2|/(2M+2)! (2M-1)! a^-2M.
_C1 = float(bernoulli_number(2)) / math.factorial(2)
_EM_DERIVATIVE_TERMS = tuple((float(bernoulli_number(2 * j)) / math.factorial(2 * j),
                              -float(math.factorial(2 * j - 3)), 2.0 - 2 * j)
                             for j in range(2, _BERNOULLI_TERMS + 1))
_TAIL_DZ = (2 * (abs(float(bernoulli_number(2 * _BERNOULLI_TERMS + 2)))
                 / math.factorial(2 * _BERNOULLI_TERMS + 2))
            * float(math.factorial(2 * _BERNOULLI_TERMS - 1)))
_TAIL_EXP = -2.0 * _BERNOULLI_TERMS


def hurwitz_zeta(x: float, target: float = DEFAULT_TARGET) -> ZetaValue:
    """zeta(-1, x) and d/ds zeta(s, x) at s = -1 for finite x >= 0 (x = 0 via
    zeta(-1, 1), the continuation value used throughout), from one
    Euler-Maclaurin pass differentiated term by term whose certified tail
    meets the target absolute error."""
    if not 0 < target < math.inf:
        raise OutOfRange("target must be positive and finite")
    if x < 0:
        raise DomainError("x must be nonnegative")
    try:
        x = float(x or 1.0)    # x = 0 is read as x = 1
    except OverflowError:
        raise DomainError("x must be finite") from None
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    log, n = math.log, _SHIFT
    while True:
        a = n + x
        la = log(a)
        err_dz = _TAIL_DZ * a ** _TAIL_EXP
        if err_dz <= target or n >= 1 << 14:
            break
        n *= 2
    if err_dz > target:
        raise NonConvergence("Euler-Maclaurin tail bound above target")

    # the direct terms, then the integral, the half term and the Bernoulli terms
    z = dz = mag_dz = 0.0
    for k in range(n):
        y = k + x
        dt = -log(y) * y
        z += y
        dz += dt
        mag_dz += abs(dt)
    mag_z = z    # the direct terms y are positive
    pa = a ** 2.0
    th = 0.5 * a
    for t, dt in [(-pa / 2, pa * (la / 2 - 0.25)), (th, -la * th), (-_C1, _C1 * (1 + la))]:
        z += t
        dz += dt
        mag_z += abs(t)
        mag_dz += abs(dt)
    for c, dp, e in _EM_DERIVATIVE_TERMS:
        dt = c * a ** e * dp
        dz += dt
        mag_dz += abs(dt)
    return ZetaValue(z, dz, 8 * _EPS * mag_z, err_dz + 8 * _EPS * mag_dz)


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
    real parts (log|x| for Log x); for V < 0 on the continuation branch.  Each F
    is bounded by max(2t + 256 eps, error + derivative_error of its pass) at target t.
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

    # F on [0, inf) and its bound, keyed on the argument hurwitz_zeta sees: one pass each
    memo: dict[float, tuple[float, float]] = {}

    def f(x: float) -> tuple[float, float]:
        # F continued to x >= -1/2 (real part below 0), and its error bound
        y = (x if x >= 0 else x + 1.0) or 1.0    # F(0) = F(1)
        if y not in memo:
            z = hurwitz_zeta(y, target)
            # both summands honor the target and rounding is ~1e2 eps, unless the pass says more
            memo[y] = (z.value + z.derivative,
                       max(2 * target + 256 * _EPS, z.error + z.derivative_error))
        fy, err = memo[y]
        if x >= 0:
            return fy, err
        # the shift zeta(s,x) = x^{-s} + zeta(s,x+1) and its s-derivative at s = -1
        log_x = math.log(-x)
        return fy + x - x * log_x, err + 8 * _EPS * abs(x) * (1 + math.hypot(log_x, math.pi))

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
    the projective line: -pn_height(1) / 2 = -1 - log(pi)."""
    return -pn_height(1).value / 2
