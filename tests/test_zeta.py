import dataclasses
import functools
import inspect
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from fanokit import jsonio
from fanokit import toric_heights as th
from fanokit import zeta
from fanokit.errors import DomainError, OutOfRange, ZeroVolume
from fanokit.zeta import ZetaHeightInput

from helpers import complex_p1_canonical_height, per_call_hurwitz_zeta

# zeta'(-1, 1) = 1/12 - log(A), Glaisher-Kinkelin constant A, computed
# independently to 30 digits
ZETA_PRIME_MINUS1_AT_1 = -0.165421143700450929213919660243
# F(1) = -log(A)
F_AT_1 = -0.248754477033784262547252993576
# spot values of zeta'(-1, x), 30-digit reference
ZETA_PRIME_REF = {
    0.5: 0.0538294393268944100479084917273,
    1.5: -0.292744150953078244660707569002,
    0.3: 0.0958158902501060483957161699412,
}

TIGHT = 1e-13


def bernoulli2(x: float) -> float:
    return x * x - x + 1 / 6


class TestHurwitzZeta:
    def test_bernoulli_closed_form_at_negative_one(self):
        for x in (0.25, 0.5, 1.0, 1.5):
            assert zeta.hurwitz_zeta(x).value == pytest.approx(
                -bernoulli2(x) / 2, abs=1e-12)

    def test_random_points_against_bernoulli_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            x = rng.uniform(1e-3, 2.0)
            assert zeta.hurwitz_zeta(x).value == pytest.approx(
                -bernoulli2(x) / 2, abs=1e-10)

    def test_riemann_values(self):
        assert zeta.hurwitz_zeta(1.0).value == pytest.approx(-1 / 12, abs=1e-13)

    def test_infinite_target_rejected(self):
        with pytest.raises(OutOfRange):
            zeta.hurwitz_zeta(0.5, math.inf)

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            zeta.hurwitz_zeta(-0.5)

    def test_recurrence(self):
        # zeta(-1, x) = x + zeta(-1, x + 1)
        for k in range(1, 11):
            x = k / 10
            lhs = zeta.hurwitz_zeta(x, TIGHT).value
            rhs = zeta.hurwitz_zeta(x + 1, TIGHT).value + x
            assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_reported_error_is_honest(self):
        for x in (0.25, 0.7, 1.3):
            z = zeta.hurwitz_zeta(x)
            assert abs(z.value - (-bernoulli2(x) / 2)) <= z.error


def bits(call):
    """The floats a call returns, bit for bit, or the class and message it raises."""
    try:
        result = call()
    except Exception as exc:
        return type(exc), str(exc)
    fields = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else result
    return tuple(v.hex() if isinstance(v, float) else v for v in fields)


class TestOneTablePerS:
    """The arguments the series refuses, and the ones it reads as another."""

    @pytest.mark.parametrize("x", [math.inf, math.nan, 10**400, F(10**400, 3)],
                             ids=["inf", "nan", "int-beyond-double", "fraction-beyond-double"])
    def test_non_finite_arguments_are_refused(self, x):
        with pytest.raises(DomainError, match="^x must be finite$"):
            zeta.hurwitz_zeta(x)

    def test_signed_zeros_are_read_as_one(self):
        # 0.0 == -0.0 and both are read as x = 1; the pass must not tell them apart
        one = bits(lambda: zeta.hurwitz_zeta(1.0))
        for x in (0.0, -0.0):
            for target in (1e-6, 1e-12):
                assert bits(lambda: zeta.hurwitz_zeta(x, target)) == \
                    bits(lambda: zeta.hurwitz_zeta(1.0, target)), (x, target)
        assert bits(lambda: zeta.hurwitz_zeta(-0.0)) == one

    @pytest.mark.parametrize("x", [2.0000000000000004, 3, F(5, 2), 1e300],
                             ids=["next-double", "int", "fraction", "1e300"])
    def test_x_above_two_is_refused(self, x):
        with pytest.raises(OutOfRange, match="^x must be at most 2$"):
            zeta.hurwitz_zeta(x)

    def test_signature_is_x_then_target(self):
        # the height and the bench tracer pass (x, target) positionally; s is no argument
        params = inspect.signature(zeta.hurwitz_zeta).parameters
        assert list(params) == ["x", "target"]
        assert params["target"].default == zeta.DEFAULT_TARGET
        with pytest.raises(TypeError):
            zeta.hurwitz_zeta(-1.0, 0.5, 1e-12)


TWELFTHS = list(itertools.product([F(k, 12) for k in range(13)], repeat=3))


def seeded_997ths():
    rng = random.Random(39)
    return [tuple(F(rng.randint(0, 997), 997) for _ in range(3)) for _ in range(10_000)]


def off_domain(w) -> bool:
    return 2 * max(w) > sum(w)


class TestExactDomain:
    """The height in real floats, refused exactly off 2 w_i <= sum(w), against
    the complex evaluation that decided its domain by a float tolerance."""

    TARGETS = (1e-6, 1e-12)
    # off the locus by 1/1000 and by 10^-10 of a unit: both were answered at
    # some target when the imaginary part decided
    NEAR_MISSES = [(F(1, 2), F(1, 4), F(249, 1000)),
                   (F(1, 2), F(1, 4), F(2499999999, 10**10))]

    @pytest.mark.parametrize("target", [1.0, 1e-3, 1e-6, 1e-8, 1e-12, 1e-30, 1e-100])
    @pytest.mark.parametrize("w", NEAR_MISSES, ids=["1/1000", "1e-10"])
    def test_near_misses_are_refused_at_every_target(self, w, target):
        with pytest.raises(DomainError, match="real-analytic domain"):
            zeta.p1_canonical_height(ZetaHeightInput(*w), target)

    @pytest.mark.parametrize("w", [(F(1, 2), F(1, 4), F(1, 4)), (F(5, 6), F(1, 2), F(1, 3)),
                                   (F(2, 3), F(1, 3), F(1, 3)), (F(1, 2), F(1, 2), F(0)),
                                   (F(1, 3), F(1, 3), F(2, 3))])
    def test_boundary_triples_are_answered(self, w):
        # w_i = w_j + w_k: F(1 - b) sits at 0, or a rounding below it
        rep = zeta.p1_canonical_height(ZetaHeightInput(*w))
        assert math.isfinite(rep.value) and rep.formula.endswith("[fano]")
        assert bits(lambda: rep) == bits(lambda: complex_p1_canonical_height(ZetaHeightInput(*w)))

    @staticmethod
    def answered(w, target):
        # refused iff off the locus, at any target; V = 0 has its own refusal
        if off_domain(w):
            with pytest.raises(DomainError, match="real-analytic domain"):
                zeta.p1_canonical_height(ZetaHeightInput(*w), target)
            return False
        return sum(w) != 2

    # the complex reference charges each F 2t + 256 eps, which the height's bound
    # takes at every target from 5.5e-13 up
    @pytest.mark.parametrize("target", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_twelfths_refused_off_the_locus_and_bit_identical_on_it(self, target):
        grid = [w for w in TWELFTHS if self.answered(w, target)]
        assert len(grid) == 1014
        for w in grid:
            inp = ZetaHeightInput(*w)
            assert bits(lambda: zeta.p1_canonical_height(inp, target)) == \
                bits(lambda: complex_p1_canonical_height(inp, target)), (w, target)

    @pytest.mark.parametrize("target", TARGETS)
    def test_seeded_997ths_refused_off_the_locus_and_close_on_it(self, target):
        # the complex logarithm takes log|x| through log1p near |x| = 1, so a
        # value may move by an ulp or two; the error bound may not move at all
        for w in seeded_997ths():
            if self.answered(w, target):
                inp = ZetaHeightInput(*w)
                got = zeta.p1_canonical_height(inp, target)
                ref = complex_p1_canonical_height(inp, target)
                assert got.abs_error == ref.abs_error, w
                assert abs(got.value - ref.value) <= 4 * math.ulp(ref.value), w


@functools.lru_cache(maxsize=None)
def mp_big_f(x: F):
    """F(x) in mpmath, continued below 0 by zeta(s, x) = x^-s + zeta(s, x + 1); F(0) = F(1)."""
    xm = mpmath.mpf(x.numerator) / x.denominator
    if x < 0:
        return mp_big_f(x + 1) + xm - xm * mpmath.log(mpmath.mpc(xm))
    xm = xm or mpmath.mpf(1)
    return mpmath.mpc(mpmath.zeta(-1, xm) + mpmath.zeta(-1, xm, 1))


def mp_p1_height(w):
    """The height formula in complex mpmath at 60 digits, every F from mpmath.zeta."""
    with mpmath.workdps(60):
        v = 2 - sum(w)
        h = v / 2
        total = sum((mp_big_f(b) - mp_big_f(a)) + (mp_big_f(1 - b) - mp_big_f(1 - a))
                    for a, b in [(F(0), h)] + [(wi, wi + h) for wi in w])
        vm = mpmath.mpf(v.numerator) / v.denominator
        bracket = (1 + mpmath.log(mpmath.pi) - mpmath.log(mpmath.mpc(vm / 2))) / 2 - total / vm
        return (2 * vm * bracket).real


def assert_bound_covers_mpmath(w, target):
    rep = zeta.p1_canonical_height(ZetaHeightInput(*w), target)
    ref = mp_p1_height(w)
    with mpmath.workdps(60):
        assert abs(mpmath.mpf(rep.value) - ref) <= rep.abs_error, \
            (w, target, rep, mpmath.nstr(ref, 20))


class TestBoundCoversTheValue:
    """The height's abs_error covers its value at every target, down to 1e-70."""

    TARGETS = (1e-13, 1e-14, 1e-20, 1e-30, 1e-50, 1e-70)

    @staticmethod
    def seeded_on_the_locus(count):
        rng = random.Random(44)
        triples = []
        while len(triples) < count:
            w = tuple(F(rng.randint(0, 997), 997) for _ in range(3))
            if not off_domain(w) and sum(w) != 2:
                triples.append(w)
        return triples

    @pytest.mark.parametrize("target", [1e-30, 1e-50, 1e-70])
    def test_one_third_one_quarter_one_fifth(self, target):
        # 1.6e-4 off at 1e-70 with the bound 2t + 256 eps per F, 1.8e-12 in all
        assert_bound_covers_mpmath((F(1, 3), F(1, 4), F(1, 5)), target)

    @pytest.mark.parametrize("k", range(len(TARGETS)), ids=[str(t) for t in TARGETS])
    def test_seeded_997ths(self, k):
        # ten triples per target, sixty in all
        for w in self.seeded_on_the_locus(10 * len(self.TARGETS))[k::len(self.TARGETS)]:
            assert_bound_covers_mpmath(w, self.TARGETS[k])

    def test_fixed_charge_is_the_larger_at_every_target(self):
        # the bound of one evaluation is the same at every target and below
        # 256 eps on all of [0, 2], so each F is charged 2t + 256 eps
        grid = [k / 4096 for k in range(2 * 4096 + 1)]
        assert max(z.error + z.derivative_error
                   for z in map(zeta.hurwitz_zeta, grid)) < 256 * 2.0**-52


def mp_at(x):
    """zeta(-1, x) and zeta'(-1, x) in mpmath at 60 digits; x = 0 is read as 1."""
    with mpmath.workdps(60):
        xm = mpmath.mpf(x) or mpmath.mpf(1)
        return mpmath.zeta(-1, xm), mpmath.zeta(-1, xm, 1)


class TestSeries:
    """zeta(-1, x) in closed form and zeta'(-1, x) from one power series on a
    zeta(k) table, against mpmath at 60 digits."""

    SPECIAL = [0.0, -0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0, 1.5, 2.0]

    def test_both_within_their_bounds(self):
        rng = random.Random(46)
        for x in [rng.uniform(0.0, 2.0) for _ in range(300)] + self.SPECIAL:
            z = zeta.hurwitz_zeta(x)
            value, derivative = mp_at(x)
            with mpmath.workdps(60):
                assert abs(mpmath.mpf(z.value) - value) <= z.error, (x, z)
                assert abs(mpmath.mpf(z.derivative) - derivative) <= z.derivative_error, (x, z)
            assert z.derivative_error < 2e-15, (x, z)

    def test_every_target_gets_the_same_bits(self):
        # the target is checked, and moves nothing: a tighter one is never worse
        for x in (0.0, 1e-6, 0.3, 1.0, 1.7, 2.0):
            assert len({bits(lambda: zeta.hurwitz_zeta(x, t))
                        for t in (1.0, 1e-6, 1e-12, 1e-14, 1e-70, 1e-300)}) == 1, x

    def test_table_against_mpmath(self):
        with mpmath.workdps(60):
            for k, zk in zeta._zeta_table().items():
                assert abs(zk - mpmath.zeta(k) * 2**zeta._BITS) <= 2**8, k

    def test_coefficients_are_the_nearest_doubles(self):
        coeffs, _ = zeta._series()
        with mpmath.workdps(60):
            log2 = mpmath.log(2)
            lead = [float(mpmath.zeta(-1, 1.5, 1)), float(1 - 3 * log2 / 2),
                    float((3 - mpmath.euler - 2 * log2) / 2)]
            rest = [float((-1)**k * mpmath.zeta(k, 1.5) / (k * (k + 1)))
                    for k in range(2, len(coeffs) - 1)]
        assert coeffs[::-1] == tuple(lead + rest)

    def test_table_is_built_once_on_first_use(self, monkeypatch):
        # importing builds nothing, so a process that answers no height pays nothing
        src = str(Path(zeta.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", "from fanokit import zeta; "
                              "print(zeta._series.cache_info().currsize)"],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out == "0\n"
        calls = []
        original = zeta._zeta_table

        def spy():
            calls.append(1)
            return original()

        monkeypatch.setattr(zeta, "_zeta_table", spy)
        zeta._series.cache_clear()
        for w in TWELFTHS[::7]:
            bits(lambda: zeta.p1_canonical_height(ZetaHeightInput(*w)))
        assert len(calls) == 1


def seeded_97ths(count):
    """count weight triples in 97ths on each branch, on the locus; every F argument
    is a multiple of 1/194, so the mpmath reference evaluates few distinct F."""
    rng = random.Random(46)
    fano, continuation = [], []
    while len(fano) < count or len(continuation) < count:
        w = tuple(F(rng.randint(0, 97), 97) for _ in range(3))
        branch = fano if sum(w) < 2 else continuation
        if not off_domain(w) and sum(w) != 2 and len(branch) < count:
            branch.append(w)
    return fano + continuation


class TestPrintedDigits:
    """Every 12-digit value p1-zeta-height prints is mpmath's correctly
    rounded one, and abs_error covers the value at every target."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [(w, mp_p1_height(w)) for w in seeded_97ths(300)]

    def test_default_target_prints_the_correctly_rounded_value(self, cases):
        wrong = []
        for w, ref in cases:
            printed = jsonio.round_float(zeta.p1_canonical_height(ZetaHeightInput(*w)).value)
            with mpmath.workdps(60):
                if printed != float(mpmath.nstr(ref, 12)):
                    wrong.append((w, printed, mpmath.nstr(ref, 15)))
        assert wrong == []

    def test_bound_covers_the_value_at_every_target(self, cases):
        for w, ref in cases:
            reps = [zeta.p1_canonical_height(ZetaHeightInput(*w), t)
                    for t in (1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 1e-14)]
            assert len({rep.value for rep in reps}) == 1, w
            with mpmath.workdps(60):
                for rep in reps:
                    assert abs(mpmath.mpf(rep.value) - ref) <= rep.abs_error, (w, rep)


class TestDerivative:
    def test_glaisher_value(self):
        got = zeta.hurwitz_zeta(1.0).derivative
        assert got == pytest.approx(ZETA_PRIME_MINUS1_AT_1, abs=1e-8)

    def test_spot_references(self):
        for x, ref in ZETA_PRIME_REF.items():
            assert zeta.hurwitz_zeta(x).derivative == pytest.approx(
                ref, abs=1e-10)

    def test_reported_error_is_honest(self):
        for x, ref in ZETA_PRIME_REF.items():
            z = zeta.hurwitz_zeta(x)
            assert abs(z.derivative - ref) <= z.derivative_error

    def test_central_finite_difference(self):
        # zeta(-1 +- h, x) off s = -1 from the per-call body, general in s
        h = 1e-5
        for x in (0.4, 1.0, 1.7):
            fd = (per_call_hurwitz_zeta(-1 + h, x, TIGHT).value
                  - per_call_hurwitz_zeta(-1 - h, x, TIGHT).value) / (2 * h)
            assert zeta.hurwitz_zeta(x).derivative == pytest.approx(
                fd, abs=1e-6)


def big_f(x: float, target: float = zeta.DEFAULT_TARGET) -> float:
    """F(x) = zeta(-1, x) + zeta'(-1, x), summed as the height sums it."""
    z = zeta.hurwitz_zeta(x, target)
    return z.value + z.derivative


class TestF:
    def test_f_at_one(self):
        assert big_f(1.0) == pytest.approx(F_AT_1, abs=1e-10)

    def test_f_zero_equals_f_one(self):
        assert big_f(0.0) == big_f(1.0)

    def test_stability_across_policies(self):
        for k in range(1, 10):
            x = k / 10
            assert big_f(x, 1e-10) == pytest.approx(big_f(x, 1e-13), abs=1e-9)

    def test_policy_convergence_monotone(self):
        # tightening the target by 10x moves outputs by less than the coarse error
        for exp in (8, 9, 10, 11):
            for x in (0.3, 0.9, 1.4):
                a = zeta.hurwitz_zeta(x, 10.0**-exp)
                b = zeta.hurwitz_zeta(x, 10.0**-(exp + 1))
                assert abs(a.value - b.value) <= a.error

    def test_policy_validation(self):
        # the target is the one precision input; every path refuses a bad one
        inp = ZetaHeightInput(F(1, 2), F(1, 3), F(1, 5))
        for target in (0.0, -1e-12, math.nan):
            with pytest.raises(OutOfRange):
                zeta.hurwitz_zeta(0.5, target)
            with pytest.raises(OutOfRange):
                zeta.p1_canonical_height(inp, target)


class TestP1CanonicalHeight:
    def test_unweighted_matches_pn_height(self):
        rep = zeta.p1_canonical_height(ZetaHeightInput(F(0), F(0), F(0)))
        assert rep.value == pytest.approx(th.pn_height(1).value, abs=1e-9)
        assert rep.value == pytest.approx(2 * (1 + math.log(math.pi)), abs=1e-9)

    def test_permutation_invariance(self):
        ws = (F(1, 2), F(1, 3), F(1, 5))
        vals = {
            zeta.p1_canonical_height(ZetaHeightInput(*perm)).value
            for perm in (
                (ws[0], ws[1], ws[2]),
                (ws[2], ws[0], ws[1]),
                (ws[1], ws[2], ws[0]),
            )
        }
        assert max(vals) - min(vals) <= 1e-11

    def test_continuity_through_zero_volume(self):
        # vary one weight across the V = 0 wall: the difference quotient must
        # converge to a single slope from both sides (observed ~ -6.426)
        base = (F(7, 10), F(7, 10))
        quotients = []
        for d in (F(1, 100), F(1, 1000), F(1, 10000)):
            lo = zeta.p1_canonical_height(ZetaHeightInput(*base, F(3, 5) - d))
            hi = zeta.p1_canonical_height(ZetaHeightInput(*base, F(3, 5) + d))
            assert lo.formula.endswith("[fano]")
            assert hi.formula.endswith("[continuation]")
            assert abs(hi.value - lo.value) <= 10 * float(d)
            quotients.append((hi.value - lo.value) / (2 * float(d)))
        assert abs(quotients[-1] - quotients[-2]) <= 1e-3

    def test_continuation_branch_is_real_and_labeled(self):
        rep = zeta.p1_canonical_height(
            ZetaHeightInput(F(9, 10), F(9, 10), F(9, 10)))
        assert rep.formula.endswith("[continuation]")
        assert math.isfinite(rep.value)

    @pytest.mark.parametrize("weights, distinct", [
        ((F(0), F(0), F(0)), 1),                  # F(1) only
        ((F(1, 2), F(1, 2), F(0)), 2),            # F(1/2), F(1)
        ((F(9, 10), F(9, 10), F(9, 10)), 7),      # continuation branch
        ((F(1, 2), F(1, 3), F(1, 5)), 14),
        # F(-1/4) is evaluated through F(3/4), also an argument of its own
        ((F(1, 2), F(1), F(1)), 5),
    ], ids=["unweighted", "half-half-zero", "continuation", "generic", "shift-repeats"])
    def test_one_pass_per_distinct_argument(self, weights, distinct, monkeypatch):
        # F(0) is folded onto F(1); each other F argument costs one pass
        original = zeta.hurwitz_zeta
        calls = []

        def spy(x, target=zeta.DEFAULT_TARGET):
            calls.append(x)
            return original(x, target)

        monkeypatch.setattr(zeta, "hurwitz_zeta", spy)
        zeta.p1_canonical_height(ZetaHeightInput(*weights))
        assert len(calls) == len(set(calls)) == distinct

    def test_zero_volume_rejected(self):
        with pytest.raises(ZeroVolume):
            zeta.p1_canonical_height(
                ZetaHeightInput(F(1), F(1, 2), F(1, 2)))

    def test_weight_validation(self):
        with pytest.raises(OutOfRange):
            ZetaHeightInput(F(3, 2), F(0), F(0))


class TestMabuchiConstant:
    def test_value(self):
        assert zeta.mabuchi_p1_constant() == pytest.approx(
            -1 - math.log(math.pi), abs=1e-15)

    def test_equals_minus_half_pn_height(self):
        assert zeta.mabuchi_p1_constant() == pytest.approx(
            -th.pn_height(1).value / 2, abs=1e-12)

    def test_idempotent(self):
        assert zeta.mabuchi_p1_constant() == zeta.mabuchi_p1_constant()

    def test_bits_of_the_closed_form(self):
        # read off pn_height(1), the constant keeps the bits of -1 - log(pi)
        got = zeta.mabuchi_p1_constant()
        assert got.hex() == "-0x1.128682473d0dep+1"
        assert got == -1 - math.log(math.pi)
