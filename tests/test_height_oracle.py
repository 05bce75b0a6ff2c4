"""Every toric-family height against mpmath at 60 digits.

The universal bound is (n+1)!/2 * v * log(C / v) at a poly-volume v; the
scaled-divisor, arrangement and Fermat heights are the P^n divisor family
(1/2) (n+1)^{n+1} lambda (2 a_n - log lambda) at a volume ratio lambda.  The
references evaluate these expressions exactly from v, C and lambda, and the
reported abs_error must cover the distance on seeded grids at n = 1..142.
"""
import math
import random
import sys
from fractions import Fraction as F

import mpmath
import pytest

from fanokit import arrangements as arr
from fanokit import hypersurfaces as hyp
from fanokit import toric_heights as th
from fanokit.arrangements import WeightVector
from fanokit.errors import OutOfRange

mpmath.mp.dps = 60


@pytest.fixture(autouse=True)
def _sixty_digits():
    # another module may set mp.dps when it is imported, after this one
    with mpmath.workdps(60):
        yield


def _mp(x: F):
    return mpmath.mpf(x.numerator) / x.denominator


def _family(n, v, log_c):
    return mpmath.factorial(n + 1) / 2 * _mp(v) * (log_c - mpmath.log(_mp(v)))


def _pn_family(n, ratio):
    """The P^n family at volume ratio lambda, with 2 a_n from the closed form."""
    harmonic = mpmath.fsum(mpmath.mpf(1) / k for k in range(1, n + 1))
    two_a_n = ((n + 1) * harmonic - n + n * mpmath.log(mpmath.pi)
               - mpmath.log(mpmath.factorial(n)))
    lam = _mp(F(ratio))
    return mpmath.mpf(n + 1) ** (n + 1) / 2 * lam * (two_a_n - mpmath.log(lam))


def _assert_covered(rep, ref):
    assert abs(mpmath.mpf(rep.value) - ref) <= rep.abs_error, (rep, mpmath.nstr(ref, 20))


def _covered_unless_beyond_doubles(call, ref):
    """True when call() answers within its abs_error of ref; False when it
    refuses a value beyond the double range, which ref must confirm."""
    try:
        rep = call()
    except OutOfRange as exc:
        assert str(exc) == "result exceeds the double-precision range"
        assert abs(ref) > sys.float_info.max * (1 - 1e-12), mpmath.nstr(ref, 20)
        return False
    _assert_covered(rep, ref)
    return True


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
        _assert_covered(th.scaled_divisor_height(n, t), _pn_family(n, t**n))


def test_scaled_divisor_height_up_to_n_142():
    rng = random.Random(41)
    answered = 0
    for n in range(1, 143):
        for _ in range(4):
            q = rng.randint(1, 12)
            t = F(rng.randint(1, q), q)
            answered += _covered_unless_beyond_doubles(
                lambda: th.scaled_divisor_height(n, t), _pn_family(n, t**n))
    assert answered > 500


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
        ratio = arr.arrangement_degree(w) / (n + 1) ** n
        _assert_covered(arr.arrangement_height_bound(w), _pn_family(n, ratio))


def test_arrangement_bound_up_to_n_142():
    # m weights c and one weight c' <= c: semistable when m >= n+1, Fano when
    # m c + c' < n+1
    rng = random.Random(43)
    answered = 0
    for n in range(1, 143):
        for _ in range(2):
            m = rng.randint(n + 1, 2 * n + 2)
            q = rng.randint(2, 4 * m)
            c = F(rng.randint(1, q * (n + 1) // (m + 1)), q)
            w = WeightVector(n, (c,) * m + (c * F(rng.randint(0, 4), 4),))
            ratio = arr.arrangement_degree(w) / (n + 1) ** n
            answered += _covered_unless_beyond_doubles(
                lambda: arr.arrangement_height_bound(w), _pn_family(n, ratio))
    assert answered > 200


def test_fermat_bound():
    for n in range(1, 21):
        for d in range(1, n + 2):
            _assert_covered(hyp.fermat_height_bound(n, d),
                            _pn_family(n, hyp.lambda_ratio(n, d)))


def test_fermat_bound_up_to_n_142():
    rng = random.Random(47)
    answered = 0
    for n in range(21, 143):
        for d in {1, 2, n + 1, rng.randint(1, n + 1)}:
            answered += _covered_unless_beyond_doubles(
                lambda: hyp.fermat_height_bound(n, d), _pn_family(n, hyp.lambda_ratio(n, d)))
    assert answered > 300


def test_subnormal_leads():
    # a lead (n+1)!/2 * v below the normal range carries fewer than 53 bits,
    # and its relative bound underflows to 0
    for t in (F(1, 3 * 10**309), F(1, 3 * 10**312), F(1, 10**320)):
        _assert_covered(th.scaled_divisor_height(1, t), _pn_family(1, t))
    _assert_covered(th.scaled_divisor_height(2, F(1, 10**160)), _pn_family(2, F(1, 10**320)))
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
        if n <= 142:   # the range of the P^n family
            assert abs(2 * th.a_n_constant(n) - here) <= 1e-13 * here, n
        here = after
