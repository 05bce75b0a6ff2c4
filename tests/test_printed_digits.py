"""The printed-digit contract for the P^n height family: every 12-digit float
that ``pn-height``, ``scaled-height``, ``arrangement-bound`` and the Fermat
bound of ``diagonal`` print is mpmath's value at 60 digits, rounded to 12.

A reference that lies within ``abs_error`` of a 12-digit rounding boundary
cannot decide its last printed digit at double precision; such a case is
counted and reported as a warning, not checked and not passed silently.
"""
import math
import random
import warnings
from fractions import Fraction as F

import mpmath
import pytest

from fanokit import arrangements as arr
from fanokit import hypersurfaces as hyp
from fanokit import toric_heights as th
from fanokit.arrangements import WeightVector
from fanokit.jsonio import round_float

DIGITS = 60


@pytest.fixture(autouse=True)
def _sixty_digits():
    # bench/oracles.py sets mp.dps = 30 when it is imported, after this module
    with mpmath.workdps(DIGITS):
        yield


def two_a_n(n):
    harmonic = mpmath.fsum(mpmath.mpf(1) / k for k in range(1, n + 1))
    return ((n + 1) * harmonic - n + n * mpmath.log(mpmath.pi)
            - mpmath.log(mpmath.factorial(n)))


def pn_family(n, ratio):
    lam = mpmath.mpf(ratio.numerator) / ratio.denominator
    return mpmath.mpf(n + 1) ** (n + 1) / 2 * lam * (two_a_n(n) - mpmath.log(lam))


def near_boundary(ref, abs_error) -> bool:
    """Does ref lie within abs_error of a midpoint between two 12-digit decimals?"""
    if not ref:
        return False
    unit = mpmath.mpf(10) ** (int(mpmath.floor(mpmath.log10(abs(ref)))) - 11)
    frac = mpmath.frac(abs(ref) / unit)
    return abs(frac - mpmath.mpf(1) / 2) * unit <= abs_error


def sweep(cases):
    """cases: (label, printed value, abs_error, reference).  Returns the
    misprinted labels; warns once for the references at a boundary."""
    wrong, undecided = [], []
    for label, value, abs_error, ref in cases:
        if near_boundary(ref, abs_error):
            undecided.append((label, mpmath.nstr(ref, 20)))
        elif round_float(value) != float(mpmath.nstr(ref, 12)):
            wrong.append((label, round_float(value), mpmath.nstr(ref, 15)))
    if undecided:
        warnings.warn(f"{len(undecided)} references within abs_error of a 12-digit "
                      f"rounding boundary, not checked: {undecided}")
    return wrong


def test_pn_height_and_a_n():
    cases = []
    for n in range(1, 142):
        rep, ref = th.pn_height(n), two_a_n(n)
        cases.append((("value", n), rep.value, rep.abs_error,
                      mpmath.mpf(n + 1) ** (n + 1) / 2 * ref))
        # a_n carries no abs_error of its own: the height's, scaled by its lead
        scale = rep.abs_error / float(n + 1) ** (n + 1)
        cases.append((("a_n", n), th.a_n_constant(n), scale, ref / 2))
    assert len(cases) == 282
    assert sweep(cases) == []


def test_scaled_height_grid():
    # t = p/q in lowest terms, q <= 12: 46 values of t at each n
    ts = sorted({F(p, q) for q in range(1, 13) for p in range(1, q + 1)})
    cases = []
    for n in range(1, 21):
        for t in ts:
            rep = th.scaled_divisor_height(n, t)
            cases.append(((n, str(t)), rep.value, rep.abs_error, pn_family(n, t**n)))
    assert len(cases) == 920
    assert sweep(cases) == []


def test_fermat_bound_grid():
    cases = []
    for n in range(1, 21):
        for d in range(1, n + 2):
            rep = hyp.fermat_height_bound(n, d)
            cases.append(((n, d), rep.value, rep.abs_error,
                          pn_family(n, hyp.lambda_ratio(n, d))))
    assert len(cases) == 230
    assert sweep(cases) == []


def test_arrangement_bound_grid():
    rng = random.Random(2801)
    cases = []
    while len(cases) < 1000:
        n = rng.randint(1, 8)
        base = rng.randint(0, 11)
        w = WeightVector(n, tuple(F(min(11, max(0, base + rng.randint(-2, 2))), 12)
                                  for _ in range(rng.randint(n + 1, n + 4))))
        if not arr.is_arrangement_semistable(w) or w.total() >= n + 1:
            continue
        rep = arr.arrangement_height_bound(w)
        ratio = arr.arrangement_degree(w) / (n + 1) ** n
        cases.append(((n, tuple(map(str, w.weights))), rep.value, rep.abs_error,
                      pn_family(n, ratio)))
    assert sweep(cases) == []


def test_near_boundary():
    # halfway from 1 to the next 12-digit decimal is a boundary; 0.4 of the way is not
    unit = mpmath.mpf(10) ** -11
    assert near_boundary(1 + 5 * unit / 10, 1e-15)
    assert not near_boundary(1 + 4 * unit / 10, 1e-15)
    assert near_boundary(-(1 + 5 * unit / 10), 1e-15)
    assert not near_boundary(mpmath.mpf(0), math.inf)
