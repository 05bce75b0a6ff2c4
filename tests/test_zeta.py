import dataclasses
import functools
import inspect
import itertools
import math
import random
from fractions import Fraction as F

import pytest

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

    def test_deep_target_within_the_sum_ceiling(self):
        # 1e-70 is met below the 2^14 terms the direct sum may take; 1e-100 is
        # refused at once (tests/test_cli.py, TestFormerFailures)
        assert zeta.hurwitz_zeta(0.5, 1e-70).value == pytest.approx(1 / 24, abs=1e-15)

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


# the generic per-call pass at s = -1, called as zeta.hurwitz_zeta is
per_call_at_minus_one = functools.partial(per_call_hurwitz_zeta, -1.0)


class TestConstantsOnce:
    """The pass with its s = -1 Euler-Maclaurin constants built at import
    against the per-call body that rebuilt them for a general s: every
    output bit for bit."""

    TARGETS = (1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 1e-30, 1e-50)

    def test_pass_matches_the_per_call_body(self):
        for k, target in itertools.product(range(97), self.TARGETS):
            x = k / 24
            assert bits(lambda: zeta.hurwitz_zeta(x, target)) == \
                bits(lambda: per_call_at_minus_one(x, target)), (x, target)

    def test_guards_match_the_per_call_body(self):
        for args in [(0.5, 0.0), (0.5, math.inf), (0.5, -1.0), (-0.5,), (0.5, 1e-100),
                     # beyond the double range: float() overflows, refused as non-finite
                     (10**400,), (F(10**400, 3),)]:
            got = bits(lambda: zeta.hurwitz_zeta(*args))
            assert got == bits(lambda: per_call_at_minus_one(*args))
            assert isinstance(got[0], type), args

    def test_heights_on_the_twelfths_grid(self, monkeypatch):
        grid = list(itertools.product([F(k, 12) for k in range(13)], repeat=3))
        new = [bits(lambda: zeta.p1_canonical_height(ZetaHeightInput(*w))) for w in grid]
        monkeypatch.setattr(zeta, "hurwitz_zeta", per_call_at_minus_one)
        old = [bits(lambda: zeta.p1_canonical_height(ZetaHeightInput(*w))) for w in grid]
        assert new == old

    def test_no_bernoulli_number_after_import(self, monkeypatch):
        calls = []
        original = zeta.bernoulli_number

        def spy(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(zeta, "bernoulli_number", spy)
        zeta.p1_canonical_height(ZetaHeightInput(F(1, 2), F(1, 3), F(1, 5)))
        zeta.p1_canonical_height(ZetaHeightInput(F(9, 10), F(9, 10), F(9, 10)), 1e-8)
        assert calls == []

    def test_no_factorial_over_the_twelfths_grid(self, monkeypatch):
        # dP/ds = -(2j-3)! and the tail's 15! are read from import-time constants
        calls = []
        original = math.factorial

        def spy(k):
            calls.append(k)
            return original(k)

        monkeypatch.setattr(math, "factorial", spy)
        for w in itertools.product([F(k, 12) for k in range(13)], repeat=3):
            bits(lambda: zeta.p1_canonical_height(ZetaHeightInput(*w)))
        assert calls == []


class TestOneTablePerS:
    """The pass against the per-call body at s = -1: bit for bit where the
    heights call it, and on the arguments it refuses."""

    @pytest.mark.parametrize("x", [math.inf, math.nan, 10**400, F(10**400, 3)],
                             ids=["inf", "nan", "int-beyond-double", "fraction-beyond-double"])
    def test_non_finite_arguments_are_refused(self, x):
        with pytest.raises(DomainError, match="finite"):
            zeta.hurwitz_zeta(x)
        assert bits(lambda: zeta.hurwitz_zeta(x)) == bits(lambda: per_call_at_minus_one(x))

    def test_signed_zeros_are_read_as_one(self):
        # 0.0 == -0.0 and both are read as x = 1; the pass must not tell them apart
        one = bits(lambda: zeta.hurwitz_zeta(1.0))
        for x in (0.0, -0.0):
            for target in (1e-6, 1e-12):
                assert bits(lambda: zeta.hurwitz_zeta(x, target)) == \
                    bits(lambda: zeta.hurwitz_zeta(1.0, target)) == \
                    bits(lambda: per_call_at_minus_one(x, target)), (x, target)
        assert bits(lambda: zeta.hurwitz_zeta(-0.0)) == one

    def test_signature_is_x_then_target(self):
        # f_value and the bench tracer pass (x, target) positionally; s is no argument
        params = inspect.signature(zeta.hurwitz_zeta).parameters
        assert list(params) == ["x", "target"]
        assert params["target"].default == zeta.DEFAULT_TARGET
        with pytest.raises(TypeError):
            zeta.hurwitz_zeta(-1.0, 0.5, 1e-12)

    @pytest.mark.parametrize("target", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_seeded_arguments_at_the_workload_targets(self, target):
        rng = random.Random(38)
        for x in (rng.uniform(0.0, 3.0) for _ in range(2000)):
            assert bits(lambda: zeta.hurwitz_zeta(x, target)) == \
                bits(lambda: per_call_at_minus_one(x, target)), (x, target)


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

    @pytest.mark.parametrize("target", TARGETS)
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


class TestF:
    def test_f_at_one(self):
        assert zeta.f_value(1.0) == pytest.approx(F_AT_1, abs=1e-10)

    def test_f_zero_equals_f_one(self):
        assert zeta.f_value(0.0) == zeta.f_value(1.0)

    def test_stability_across_policies(self):
        for k in range(1, 10):
            x = k / 10
            assert zeta.f_value(x, 1e-10) == pytest.approx(
                zeta.f_value(x, 1e-13), abs=1e-9)

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
