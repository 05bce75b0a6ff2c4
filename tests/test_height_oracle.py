"""Every toric-family height against mpmath at 50 digits.

The scaled-divisor, universal, arrangement and Fermat heights are all
(n+1)!/2 * v * log(C / v) at a poly-volume v; the reference evaluates that
expression exactly from v and C, and the reported abs_error must cover the
distance on a seeded grid.
"""
import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from fanokit import arrangements as arr
from fanokit import hypersurfaces as hyp
from fanokit import toric_heights as th
from fanokit.arrangements import WeightVector

mpmath.mp.dps = 50


@pytest.fixture(autouse=True)
def _fifty_digits():
    # another module may set mp.dps when it is imported, after this one
    with mpmath.workdps(50):
        yield


def _mp(x: F):
    return mpmath.mpf(x.numerator) / x.denominator


def _family(n, v, log_c):
    return mpmath.factorial(n + 1) / 2 * _mp(v) * (log_c - mpmath.log(_mp(v)))


def _pn_family(n, v):
    """The P^n family, log C = 2 a_n + log v_0 with a_n from the closed form."""
    harmonic = mpmath.fsum(mpmath.mpf(1) / k for k in range(1, n + 1))
    two_a_n = ((n + 1) * harmonic - n + n * mpmath.log(mpmath.pi)
               - mpmath.log(mpmath.factorial(n)))
    return _family(n, v, two_a_n + mpmath.log(_mp(th.pn_poly_volume(n))))


def _assert_covered(rep, ref):
    assert abs(mpmath.mpf(rep.value) - ref) <= rep.abs_error, (rep, mpmath.nstr(ref, 20))


def _check_universal(n, v):
    rep = th.universal_height_bound(n, v)
    _assert_covered(rep, _family(n, v, n * mpmath.log(2 * mpmath.pi**2)))


def test_universal_bound_cancelling_logarithms():
    # log C - log v cancels at n = 1, v = 79/4: the error is far above one ulp
    _check_universal(1, F(79, 4))


def test_universal_bound():
    rng = random.Random(29)
    for _ in range(300):
        _check_universal(rng.randint(1, 6), F(rng.randint(1, 80), rng.randint(1, 8)))


def test_universal_bound_near_its_zero():
    # v close to C = (2 pi^2)^n, where the value is a small difference
    for n in range(1, 4):
        c = F.from_float((2 * math.pi**2) ** n)
        for v in (c, c - F(1, 3), c + F(1, 7), F(math.floor(c))):
            _check_universal(n, v)


def test_scaled_divisor_height():
    rng = random.Random(31)
    for _ in range(300):
        n, q = rng.randint(1, 12), rng.randint(1, 12)
        t = F(rng.randint(1, q), q)
        _assert_covered(th.scaled_divisor_height(n, t),
                        _pn_family(n, t**n * th.pn_poly_volume(n)))


def test_arrangement_bound():
    rng = random.Random(37)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 6)
        base = rng.randint(0, 11)
        w = WeightVector(n, tuple(F(min(11, max(0, base + rng.randint(-2, 2))), 12)
                                  for _ in range(rng.randint(n + 1, n + 4))))
        if not arr.is_arrangement_semistable(w) or w.total() >= n + 1:
            continue
        checked += 1
        v = arr.arrangement_degree(w) / math.factorial(n)
        _assert_covered(arr.arrangement_height_bound(w), _pn_family(n, v))


def test_fermat_bound():
    for n in range(1, 21):
        for d in range(1, n + 2):
            _assert_covered(hyp.fermat_height_bound(n, d),
                            _pn_family(n, hyp.lambda_ratio(n, d) * th.pn_poly_volume(n)))


def test_subnormal_leads():
    # a lead (n+1)!/2 * v below the normal range carries fewer than 53 bits,
    # and its relative bound underflows to 0
    for t in (F(1, 3 * 10**309), F(1, 3 * 10**312), F(1, 10**320)):
        _assert_covered(th.scaled_divisor_height(1, t), _pn_family(1, t * th.pn_poly_volume(1)))
    _assert_covered(th.scaled_divisor_height(2, F(1, 10**160)),
                    _pn_family(2, F(1, 10**320) * th.pn_poly_volume(2)))
    for v in (F(1, 10**400), F(1, 10**310), F(7, 10**320)):
        _check_universal(1, v)
    _check_universal(3, F(1, 10**315))


def test_a_n_constant_increments():
    # the proof in a_n_constant's docstring: f(n) = 2 a_n starts at 1 + log pi
    # and each step f(n+1) - f(n) = H_{n+1} + log pi - log(n+1) is positive
    log_pi = mpmath.log(mpmath.pi)

    def f(n):
        return (n + 1) * mpmath.harmonic(n) - n + n * log_pi - mpmath.loggamma(n + 1)

    tiny = mpmath.mpf(10) ** -40
    assert abs(f(1) - 1 - log_pi) < tiny
    here = f(1)
    for n in range(1, 2000):
        step = mpmath.harmonic(n + 1) + log_pi - mpmath.log(n + 1)
        after = f(n + 1)
        assert step > 0 and abs(after - here - step) < tiny, n
        if n <= 141:   # where pn_height is a finite double
            assert abs(2 * th.a_n_constant(n) - here) <= 1e-13 * here, n
        here = after
