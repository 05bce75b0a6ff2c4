import contextlib
import io
import json
import math
from fractions import Fraction as F

import pytest

from fanokit import arrangements as arr
from fanokit import cli
from fanokit import hypersurfaces as hyp
from fanokit import toric_heights as th
from fanokit.errors import InputError, OutOfRange
from fanokit.hypersurfaces import DiagonalHypersurfaceSpec


class TestSpecValidation:
    def test_degree_range(self):
        with pytest.raises(OutOfRange):
            DiagonalHypersurfaceSpec(2, 4, (1, 1, 1, 1))
        with pytest.raises(OutOfRange):
            DiagonalHypersurfaceSpec(2, 0, (1, 1, 1, 1))

    def test_coefficients(self):
        with pytest.raises(InputError):
            DiagonalHypersurfaceSpec(2, 2, (1, 1, 1))
        with pytest.raises(InputError):
            DiagonalHypersurfaceSpec(2, 2, (1, 0, 1, 1))


class TestCorrection:
    def test_unit_coefficients(self):
        spec = DiagonalHypersurfaceSpec(3, 2, (1, -1, 1, 1, -1))
        assert hyp.diagonal_height_correction(spec) == 0.0

    def test_degree_one(self):
        spec = DiagonalHypersurfaceSpec(2, 1, (3, 7, -2, 5))
        assert hyp.diagonal_height_correction(spec) == 0.0

    def test_cubic_surface_with_eight(self):
        spec = DiagonalHypersurfaceSpec(2, 3, (1, 1, 1, 8))
        assert hyp.diagonal_height_correction(spec) == pytest.approx(
            -2 * math.log(8), abs=1e-12)

    def test_nonpositive_and_equality_cases(self):
        for n in range(1, 5):
            for d in range(1, n + 2):
                for a in ((1,) * (n + 2), (2,) + (1,) * (n + 1), (-3, 2) + (1,) * n):
                    spec = DiagonalHypersurfaceSpec(n, d, a)
                    corr = hyp.diagonal_height_correction(spec)
                    assert corr <= 0.0
                    if d == 1 or all(abs(x) == 1 for x in a):
                        assert corr == 0.0
                    else:
                        assert corr < 0.0

    def test_multiplicativity_in_leading_coefficient(self):
        n, d = 2, 3
        one = (1,) * (n + 1)
        c6 = hyp.diagonal_height_correction(DiagonalHypersurfaceSpec(n, d, (6,) + one))
        c2 = hyp.diagonal_height_correction(DiagonalHypersurfaceSpec(n, d, (2,) + one))
        c3 = hyp.diagonal_height_correction(DiagonalHypersurfaceSpec(n, d, (3,) + one))
        assert c6 == pytest.approx(c2 + c3, abs=1e-12)


def _fermat_delta(n, d, a):
    """The reduction delta that ``diagonal`` prints, to 12 significant digits."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["diagonal", "--json", json.dumps({"n": n, "d": d, "a": list(a)})]) == 0
    return json.loads(out.getvalue())["fermat_delta"]


class TestFermatReduction:
    def test_unit_coefficients(self):
        assert _fermat_delta(2, 2, (1, 1, -1, 1)) == 0.0

    def test_top_degree_single_two(self):
        for n in (1, 2, 3):
            assert _fermat_delta(n, n + 1, (2,) + (1,) * (n + 1)) == pytest.approx(
                -2 * n * math.log(2), rel=1e-11)

    def test_twice_the_correction(self):
        # the closed form in diagonal_height_correction's docstring
        for n in (1, 2, 3):
            for d in range(1, n + 2):
                a = (5, -3) + (1,) * n
                closed = ((n + 1) * (n + 2 - d) ** n * d * ((n + 2 - d) / (n + 1) - 1) / d
                          * sum(math.log(x * x) for x in a))
                corr = hyp.diagonal_height_correction(DiagonalHypersurfaceSpec(n, d, a))
                assert _fermat_delta(n, d, a) == pytest.approx(closed, rel=1e-11, abs=1e-12)
                assert 2 * corr == pytest.approx(closed, rel=1e-12, abs=1e-12)


class TestGeneralLinearDelta:
    def test_unit_determinant(self):
        assert hyp.general_linear_height_delta(2, 3, 1.0) == 0.0

    def test_degree_one_vanishes(self):
        assert hyp.general_linear_height_delta(3, 1, 7.5) == 0.0

    def test_consistent_with_fermat_reduction(self):
        # the reduction delta is twice the correction
        for n, d, a in ((2, 3, (2, 3, 1, 1)), (3, 2, (4, 1, 1, 1, 5))):
            spec = DiagonalHypersurfaceSpec(n, d, a)
            det_mod = math.prod(abs(x) for x in a) ** (1 / d)
            assert hyp.general_linear_height_delta(n, d, det_mod) == pytest.approx(
                2 * hyp.diagonal_height_correction(spec), rel=1e-12)


class TestBranchArrangement:
    def test_quadric_surface(self):
        spec = DiagonalHypersurfaceSpec(2, 2, (1, 1, 1, 1))
        w = hyp.branch_arrangement(spec)
        assert w.weights == (F(1, 2),) * 4
        assert arr.is_arrangement_semistable(w)

    def test_degree_one_gives_zero_weights(self):
        spec = DiagonalHypersurfaceSpec(3, 1, (1, 1, 1, 1, 1))
        assert hyp.branch_arrangement(spec).weights == (F(0),) * 5

    def test_always_semistable(self):
        for n in range(1, 7):
            for d in range(1, n + 2):
                w = hyp.branch_arrangement(
                    DiagonalHypersurfaceSpec(n, d, (1,) * (n + 2)))
                assert arr.is_arrangement_semistable(w)
                assert w.weights == (1 - F(1, d),) * (n + 2)


class TestLambdaRatio:
    def test_values_and_equality_cases(self):
        for n in range(1, 7):
            for d in range(1, n + 2):
                lam = hyp.lambda_ratio(n, d)
                assert 0 < lam <= 1
                if d == 1 or (n, d) == (1, 2):
                    assert lam == 1
                else:
                    assert lam < 1

    def test_cubic_surface(self):
        assert hyp.lambda_ratio(2, 3) == F(1, 3)


class TestFermatBound:
    # the bound is strict iff lambda < 1
    def test_degree_one_equality(self):
        for n in (1, 2, 3):
            assert hyp.lambda_ratio(n, 1) == 1
            assert hyp.fermat_height_bound(n, 1).value == pytest.approx(
                th.pn_height(n).value, rel=1e-12)

    def test_conic_coincidence(self):
        assert hyp.lambda_ratio(1, 2) == 1
        assert hyp.fermat_height_bound(1, 2).value == pytest.approx(
            th.pn_height(1).value, rel=1e-12)

    def test_cubic_surface_strict(self):
        lam = hyp.lambda_ratio(2, 3)
        assert lam == F(1, 3)
        v_x = F(3, 2)  # d (n+2-d)^n / n!
        expect = (float(lam) * th.pn_height(2).value
                  - 0.5 * math.factorial(3) * float(v_x) * math.log(float(lam)))
        value = hyp.fermat_height_bound(2, 3).value
        assert value == pytest.approx(expect, rel=1e-12)
        assert value < th.pn_height(2).value

    def test_increasing_in_lambda(self):
        # lambda -> lambda h - (1/2)(n+1)! v0 lambda log(lambda) on (0, 1]
        for n in range(1, 7):
            v0 = F((n + 1) ** n, math.factorial(n))
            h = th.pn_height(n).value
            grid = [k / 100 for k in range(1, 101)]
            vals = [lam * h - 0.5 * math.factorial(n + 1) * float(v0) * lam * math.log(lam)
                    for lam in grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bound_below_pn_for_all_fano_degrees(self):
        for n in range(1, 7):
            for d in range(2, n + 2):
                if (n, d) == (1, 2):
                    continue
                assert hyp.fermat_height_bound(n, d).value < th.pn_height(n).value


class TestCoverBookkeeping:
    def test_topological_degree_matches_volume_ratio(self):
        # V(X) / V(Y, Delta) = d (n+2-d)^n / ((n+2-d)/d)^n = d^{n+1}, which
        # diagonal prints as both cover_degree_check fields
        for n in range(1, 6):
            for d in range(1, n + 2):
                assert F(d * (n + 2 - d) ** n) / F(n + 2 - d, d) ** n == F(d) ** (n + 1)


class TestTheoremBound:
    def test_degree_one_reduces_to_pn(self):
        spec = DiagonalHypersurfaceSpec(2, 1, (9, -4, 1, 1))
        bound = hyp.diagonal_theorem_bound(spec)
        assert bound.report.value == pytest.approx(th.pn_height(2).value, rel=1e-12)
        assert not bound.strict

    def test_fermat_cubic_strict(self):
        spec = DiagonalHypersurfaceSpec(2, 3, (1, 1, 1, 1))
        bound = hyp.diagonal_theorem_bound(spec)
        assert bound.report.value == pytest.approx(th.pn_height(2).value, rel=1e-12)
        assert bound.strict

    def test_composed_value(self):
        spec = DiagonalHypersurfaceSpec(2, 3, (1, 1, 1, 8))
        bound = hyp.diagonal_theorem_bound(spec)
        assert bound.report.value == pytest.approx(
            th.pn_height(2).value - 2 * math.log(8), rel=1e-12)

    def test_tighter_chain_is_tighter(self):
        for n, d, a in ((2, 3, (1, 1, 1, 8)), (3, 2, (2, 1, 1, 1, 1)),
                        (2, 2, (1, 1, 1, 1))):
            spec = DiagonalHypersurfaceSpec(n, d, a)
            bound = hyp.diagonal_theorem_bound(spec)
            assert bound.fermat.value + 2 * bound.correction <= bound.report.value + 1e-9

    def test_every_bound_below_pn(self):
        for n in (1, 2, 3):
            for d in range(1, n + 2):
                for a in ((1,) * (n + 2), (7,) + (1,) * (n + 1)):
                    spec = DiagonalHypersurfaceSpec(n, d, a)
                    assert (hyp.diagonal_theorem_bound(spec).report.value
                            <= th.pn_height(n).value + 1e-9)


class TestSpecTypes:
    @pytest.mark.parametrize("n, d, a", [
        (2, 3, (1.5, 1, 1, 8)),
        (2, 3, (1, 1, True, 8)),
        (True, 1, (1, 1, 1)),
        (2, 3.0, (1, 1, 1, 8)),
        ("2", 3, (1, 1, 1, 8)),
    ], ids=["a-float", "a-bool", "n-bool", "d-float", "n-string"])
    def test_non_integers_refused(self, n, d, a):
        with pytest.raises(OutOfRange, match="must be integers"):
            DiagonalHypersurfaceSpec(n, d, a)

    def test_coefficients_kept_as_given(self):
        assert DiagonalHypersurfaceSpec(2, 3, [1, -1, 1, 8]).coefficients == (1, -1, 1, 8)
