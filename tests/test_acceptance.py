"""Acceptance suite: one test per criterion, every tolerance pinned here.

Each test prints a PASS line on success (run with ``pytest -s`` to see them);
a failure raises before the line is printed.
"""
import math
import random
import time
from fractions import Fraction as F

from fanokit import arrangements as arr
from fanokit import geometry as geom
from fanokit import hypersurfaces as hyp
from fanokit import presets
from fanokit import sx_optimizer as sx
from fanokit import toric_heights as th
from fanokit import zeta
from fanokit.arrangements import WeightVector
from fanokit.hypersurfaces import DiagonalHypersurfaceSpec
from fanokit.zeta import ZetaHeightInput

from helpers import (
    apply,
    image,
    mc_volume_estimate,
    random_rational_polytope,
    random_unimodular,
    translate,
    vadd,
)
from test_arrangements import rational_degree

ZETA_PRIME_MINUS1_AT_1 = -0.165421143700450929213919660243  # 1/12 - log(A)


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_sx_benchmarks():
    t0 = time.perf_counter()
    r1 = sx.sx_invariant(*presets.SX_PRESETS["p3-blowup"]())
    t1 = time.perf_counter()
    r2 = sx.sx_invariant(*presets.SX_PRESETS["po-o2"]())
    t2 = time.perf_counter()
    assert abs(r1.s_value - 41.8) <= 0.05
    assert abs(r2.s_value - 30.3) <= 0.05
    assert r1.certified and r2.certified
    assert t1 - t0 < 1.0 and t2 - t1 < 1.0
    _report(1, f"n!S(X) = {r1.s_value:.3f} (41.8 +- 0.05) in {t1-t0:.2f}s, "
               f"{r2.s_value:.3f} (30.3 +- 0.05) in {t2-t1:.2f}s")


def test_criterion_2_closed_form_roots():
    c = (19 - 3 * math.sqrt(33)) ** (1 / 3)
    w1_radical = (2 / 3) * (5 - 4 / c - c)
    s = 2 - math.sqrt(2)
    w2_radical = 4 - (4 / s) ** (1 / 3) - (2 * s) ** (1 / 3)
    w1 = sx.sx_invariant(*presets.SX_PRESETS["p3-blowup"]()).cut_weight
    w2 = sx.sx_invariant(*presets.SX_PRESETS["po-o2"]()).cut_weight
    assert abs(w1 - w1_radical) <= 1e-10
    assert abs(w2 - w2_radical) <= 1e-10
    _report(2, f"cut weights {w1:.12f}, {w2:.12f} match radicals to 1e-10")


def test_criterion_3_degrees():
    d56 = th.log_fano_degree(th.ToricLogFano(presets.p3_blowup_polytope()))
    d62 = th.log_fano_degree(th.ToricLogFano(presets.po_o2_polytope()))
    d54 = th.log_fano_degree(th.ToricLogFano(presets.pn_times_p1_polytope(3)))
    assert (d56, d62, d54) == (F(56), F(62), F(54))
    _report(3, "degrees 56, 62, 54 reproduced exactly as rationals")


def test_criterion_4_stability_polytope():
    sp = arr.stability_polytope(1, 3, 1)
    assert len(sp.vertices) == 3
    expect = {(F(1, 2), F(1, 2), F(0)), (F(1, 2), F(0), F(1, 2)),
              (F(0), F(1, 2), F(1, 2))}
    assert {v.weights for v in sp.vertices} == expect
    for v in sp.vertices:
        assert arr.is_arrangement_semistable(v)
        assert arr.arrangement_degree(v) == 1
    assert not arr.stability_polytope(1, 1, 1).vertices
    assert not arr.stability_polytope(2, 2, 4).vertices
    _report(4, "(n,m,D)=(1,3,1): 3 semistable vertices of degree 1; "
               "m = n polytopes empty")


def test_criterion_5_cross_formula_anchor():
    p1 = zeta.p1_canonical_height(ZetaHeightInput(F(0), F(0), F(0))).value
    pn = th.pn_height(1).value
    closed = 2 * (1 + math.log(math.pi))
    assert abs(p1 - pn) <= 1e-9
    assert abs(pn - closed) <= 1e-9
    mab = zeta.mabuchi_p1_constant()
    assert abs(mab - (-1 - math.log(math.pi))) <= 1e-12
    _report(5, f"p1 zeta height {p1:.10f} = pn_height(1) to 1e-9; "
               f"Mabuchi constant {mab:.12f} to 1e-12")


def test_criterion_6_hurwitz_oracle():
    rng = random.Random(606)
    for _ in range(50):
        x = rng.uniform(1e-6, 2.0)
        bern = -(x * x - x + 1 / 6) / 2
        assert abs(zeta.hurwitz_zeta(-1, x).value - bern) <= 1e-10
    dz = zeta.hurwitz_zeta(-1, 1.0).derivative
    assert abs(dz - ZETA_PRIME_MINUS1_AT_1) <= 1e-8
    _report(6, "zeta(-1,x) matches -B2(x)/2 on 50 samples to 1e-10; "
               "zeta'(-1,1) matches the Glaisher value to 1e-8")


def test_criterion_7_monotonicity():
    for n in range(1, 11):
        assert 2 * th.a_n_constant(n) >= 1
    for n in range(1, 7):
        grid = [F(k, 100) for k in range(1, 101)]
        vals = [th.scaled_divisor_height(n, t).value for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        v0 = float(F((n + 1) ** n, math.factorial(n)))
        h = th.pn_height(n).value
        lam_grid = [k / 100 for k in range(1, 101)]
        lam_vals = [
            lam * h - 0.5 * math.factorial(n + 1) * v0 * lam * math.log(lam)
            for lam in lam_grid
        ]
        assert all(a < b for a, b in zip(lam_vals, lam_vals[1:]))
    _report(7, "t- and lambda-monotonicity hold on 100-point grids, n = 1..6; "
               "2 a_n >= 1 for n = 1..10")


def test_criterion_8_geometry_oracle():
    rng = random.Random(808)
    for trial in range(20):
        v = random_rational_polytope(rng, rng.randint(1, 4))
        exact = float(geom.volume(v))
        est, sigma = mc_volume_estimate(v, 1_000_000, seed=7000 + trial)
        assert abs(exact - est) <= 3 * sigma + 1e-12
    for trial in range(20):
        v = random_rational_polytope(rng, rng.randint(2, 4))
        u = random_unimodular(rng, v.dim)
        shift = tuple(F(rng.randint(-3, 3), 2) for _ in range(v.dim))
        moved = translate(image(v, u), shift)
        assert geom.volume(moved) == geom.volume(v)
        assert geom.barycenter(moved) == vadd(apply(u, geom.barycenter(v)), shift)
    _report(8, "exact volumes within 3 sigma of 1e6-sample Monte Carlo on 20 "
               "polytopes; equivariance and unimodular invariance exact on 20")


def test_criterion_9_diagonal_hypersurfaces():
    assert hyp.diagonal_height_correction(
        DiagonalHypersurfaceSpec(2, 3, (1, -1, 1, 1))) == 0.0
    assert hyp.diagonal_height_correction(
        DiagonalHypersurfaceSpec(3, 1, (5, 2, 1, 1, 7))) == 0.0
    got = hyp.diagonal_height_correction(DiagonalHypersurfaceSpec(2, 3, (1, 1, 1, 8)))
    assert abs(got - (-2 * math.log(8))) <= 1e-12
    for n in range(1, 7):
        for d in range(1, n + 2):
            spec = DiagonalHypersurfaceSpec(n, d, (1,) * (n + 2))
            assert hyp.diagonal_theorem_bound(spec).strict == (d >= 2)
            assert arr.is_arrangement_semistable(hyp.branch_arrangement(spec))
    _report(9, "corrections vanish iff trivial, -2 log 8 reproduced, "
               "strictness iff d >= 2, branch arrangements semistable "
               "for all d <= n+1 <= 7")


def test_criterion_10_convexity_suite():
    rng = random.Random(1010)
    for _ in range(100):
        n = rng.randint(1, 3)
        m = rng.randint(n + 1, 6)
        degree = rational_degree(rng, n)
        sp = arr.stability_polytope(n, m, degree)

        def sample():
            coeffs = [F(rng.randint(0, 6)) for _ in sp.vertices]
            if sum(coeffs) == 0:
                coeffs[0] = F(1)
            total = sum(coeffs)
            ws = [F(0)] * m
            for cf, v in zip(coeffs, sp.vertices):
                for i, x in enumerate(v.weights):
                    ws[i] += cf * x / total
            return WeightVector(n, tuple(ws))

        w1, w2 = sample(), sample()
        assert arr.arrangement_degree(w1) == arr.arrangement_degree(w2) == degree
        mid = WeightVector(
            n, tuple((a + b) / 2 for a, b in zip(w1.weights, w2.weights)))
        assert arr.is_arrangement_semistable(mid)
        assert arr.arrangement_degree(mid) == degree
        red = arr.reduce_to_toric(mid)
        rebuilt = [F(0)] * m
        level = mid.total() / (n + 1)
        for support, coef in red.decomposition:
            for i in support:
                rebuilt[i] += coef * level
        if mid.total() > 0:
            assert tuple(rebuilt) == mid.weights
    _report(10, "100 random equal-degree midpoints semistable with exact "
                "vertex decompositions")
