"""Hurwitz zeta at s = -1 and the closed-form canonical height of the
projective line with three weighted marked points.

``hurwitz_zeta(x, target)`` gives zeta(-1, x) = -(x^2 - x + 1/6)/2 and, for
0 <= x <= 2, zeta'(-1, x) from one series.  Its x-derivative is log Gamma(x)
+ x - 1/2 - log(2 pi)/2; with log Gamma(3/2 + u) expanded (Abramowitz-Stegun
6.4) and integrated term by term, T_k = zeta(k, 3/2) = (2^k - 1) zeta(k) - 2^k:

  zeta'(-1, 3/2 + u) = zeta'(-1, 3/2) + (1 - 3/2 log 2) u
      + (3 - gamma - 2 log 2)/2 u^2 + sum_{k >= 2} (-1)^k T_k u^(k+1) / (k (k+1)),

summed at |u| <= 1/2, on [0, 1) after zeta'(-1, x) = zeta'(-1, x + 1) - x log x.
The coefficients, Euler's gamma and zeta'(-1, 3/2) come from one table of
zeta(k) in integers (P. Borwein, CMS Conf. Proc. 27, 2000), built on first
use.  Each error bound is the series' tail plus the rounding of a fixed
operation count, a few eps; the target is checked and moves no bit.

The height formula needs F(x) = zeta(-1, x) + zeta'(-1, x), evaluated once
per distinct argument of a height, and bounds each F by max(2t + 256 eps,
error + derivative_error) at target t, which is 2t + 256 eps at every t.  Its
domain, 2 w_i <= sum(w) for every i, is decided in integers before any F is
evaluated, and on it the height is evaluated in real floats, past degree
zero too (``p1_canonical_height`` has the proof).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import DomainError, OutOfRange, ZeroVolume
from .toric_heights import Convention, HeightReport, pn_height

_EPS = sys.float_info.epsilon

DEFAULT_TARGET = 1e-12


class ZetaValue(NamedTuple):
    """zeta(-1, x), its s-derivative, and a certified bound on the error of each."""

    value: float
    derivative: float
    error: float
    derivative_error: float


# the table's fixed-point scale and its last k
_BITS, _ZETA_KMAX = 128, 40


def _zeta_table() -> dict[int, int]:
    """zeta(k) 2^_BITS within 2^8, k = 2.._ZETA_KMAX, by Borwein's algorithm 2:
    (1 - 2^(1-k)) zeta(k) = sum_{j<n} (-1)^j (1 - d_j/d_n) / (j+1)^k, d_j = n
    sum_{i<=j} (n+i-1)! 4^i / ((n-i)! (2i)!); the n terms lose 2 units each, and
    n = 56 leaves Borwein's error 3 (3 + sqrt 8)^-n / (1 - 2^(1-k)) below 2^-138."""
    n, d = 56, [0]
    for i in range(n + 1):
        d.append(d[-1] + n * math.factorial(n + i - 1) * 4**i
                 // (math.factorial(n - i) * math.factorial(2 * i)))
    weights = [(-1) ** j * (((d[-1] - d[j + 1]) << _BITS) // d[-1]) for j in range(n)]
    return {k: (sum(c // (j + 1) ** k for j, c in enumerate(weights)) << (k - 1))
            // ((1 << (k - 1)) - 1) for k in range(2, _ZETA_KMAX + 1)}


@lru_cache(maxsize=None)
def _series() -> tuple[tuple[float, ...], float]:
    """The coefficients of zeta'(-1, 3/2 + u) in u, highest degree first, each
    the double nearest its fixed-point value, and a bound on the error of their
    Horner sum at |u| <= 1/2; built once, on first use."""
    one, z = 1 << _BITS, _zeta_table()
    log2 = sum((2 * one) // ((2 * j + 1) * 3 ** (2 * j + 1)) for j in range(60))  # 2 atanh(1/3)
    t = {k: ((1 << k) - 1) * zk - (one << k) for k, zk in z.items()}
    s = sum((zk - one - (one >> k)) // k for k, zk in z.items())
    a1 = one - 3 * log2 // 2
    a2 = (3 * one // 2 - log2 + s) // 2
    # at x = 1, zeta'(-1) = a0 + Q(-1/2) with Q the series less a0, and the
    # multiplication formula and the shift give a0 = -13/24 log 2 - zeta'(-1)/2
    q = a2 // 4 - a1 // 2 - sum(tk // (k * (k + 1) << (k + 1)) for k, tk in t.items())
    a0 = -13 * log2 // 36 - q // 3
    # past a last term K, T_k <= T_(K+1) (2/3)^(k-K-1), so the tail at |u| <= 1/2 is
    # at most 3/2 T_(K+1) 2^-(K+2) / ((K+1)(K+2)); K is the first that puts it below 2^-60
    k = 2
    while (tail := 3 * t[k + 1] / (2 * (k + 1) * (k + 2) << (k + 2 + _BITS))) > 2.0**-60:
        k += 1
    coeffs = tuple((-1) ** j * t[j] / (j * (j + 1) << _BITS) for j in range(k, 1, -1))
    coeffs += (a2 / one, a1 / one, a0 / one)
    # Horner's degree-i term carries at most (2i+1) u + u for its own rounding
    # (Higham 2002, eq. 5.3), u = eps/2; the rounding of u = x - 1/2 below
    # x = 1/4, within 2^-55, moves zeta'(-1, x + 1) by 0.6 of that at most
    rounding = 1.01 * _EPS * sum((i + 1) * abs(c) / 2**i for i, c in enumerate(coeffs[::-1]))
    return coeffs, tail + rounding + 2.0**-56


def hurwitz_zeta(x: float, target: float = DEFAULT_TARGET) -> ZetaValue:
    """zeta(-1, x) and d/ds zeta(s, x) at s = -1 for finite 0 <= x <= 2 (x = 0
    via zeta(-1, 1), the continuation value used throughout), each with a
    certified error bound, the same at every positive finite target.  An x
    above 2 is refused (OutOfRange)."""
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
    if x > 2:
        raise OutOfRange("x must be at most 2")
    coeffs, dz_err = _series()
    u = x - 1.5 if x >= 1 else x - 0.5
    dz = 0.0
    for c in coeffs:
        dz = dz * u + c
    if x < 1:
        t = x * math.log(x)
        dz -= t
        dz_err += _EPS * (2 * abs(t) + abs(dz))
    return ZetaValue((x - x * x - 1 / 6) / 2, dz, _EPS * (x * x + x + 1 / 6), dz_err)


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

    @cached_property
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
            # each summand errs by a few eps; the charge keeps the target's 2t + 256 eps
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
