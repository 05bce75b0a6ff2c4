import json
import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import brentq

from fanokit import cli
from fanokit import geometry as geom
from fanokit import presets
from fanokit import sx_optimizer as sx
from fanokit.errors import EmptyBody, NoRootInRange, OutOfRange
from fanokit.sx_optimizer import SimplexDifference
from fanokit.toric_heights import ToricLogFano

from helpers import (
    FloatClipper,
    clip_volume_and_moment,
    fraction_bisection_cutoff,
    simplex_difference_barycenter,
)


def radical_w_blowup() -> float:
    c = (19 - 3 * math.sqrt(33)) ** (1 / 3)
    return (2 / 3) * (5 - 4 / c - c)


def radical_w_po_o2() -> float:
    s = 2 - math.sqrt(2)
    return 4 - (4 / s) ** (1 / 3) - (2 * s) ** (1 / 3)


class TestSimplexDifferenceBarycenter:
    def test_pn_case_is_zero(self):
        for n in (2, 3, 4):
            sd = SimplexDifference(a=F(n + 1), b=F(0), n=n)
            assert simplex_difference_barycenter(sd) == (F(0),) * n

    def test_benchmark_value(self):
        sd = SimplexDifference(a=F(4), b=F(2))
        assert simplex_difference_barycenter(sd) == (F(1, 14),) * 3

    def test_agrees_with_exact_geometry(self):
        rng = random.Random(13)
        for _ in range(10):
            b = F(rng.randint(0, 12), 4)
            a = b + F(rng.randint(1, 12), 4)
            sd = SimplexDifference(a=a, b=b)
            closed = simplex_difference_barycenter(sd)
            v = geom.enumerate_vertices(sd.to_hpolytope())
            assert geom.barycenter(v) == closed

    def test_empty_body(self):
        with pytest.raises(EmptyBody):
            SimplexDifference(a=F(2), b=F(2))


class TestSolveCutWeight:
    def test_blowup_matches_radical(self):
        sd = presets.p3_blowup_normal_form()
        assert abs(sx.solve_cut_weight(sd) - radical_w_blowup()) <= 1e-10

    def test_po_o2_matches_radical(self):
        sd = presets.po_o2_normal_form()
        assert abs(sx.solve_cut_weight(sd) - radical_w_po_o2()) <= 1e-10

    def test_no_cut_needed(self):
        assert sx.solve_cut_weight(SimplexDifference(a=F(4), b=F(0))) == 0.0

    def test_residual_below_target(self):
        sd = presets.p3_blowup_normal_form()
        w = sx.solve_cut_weight(sd)
        u = float(sd.a) - w
        residual = (u**3 * (u / 4 - 1) - float(sd.b) ** 3 * (float(sd.b) / 4 - 1)) / 6
        assert abs(residual) <= 1e-14

    def test_no_root_when_inner_simplex_dominates(self):
        with pytest.raises(NoRootInRange):
            sx.solve_cut_weight(SimplexDifference(a=F(4), b=F(7, 2)))

    def test_no_root_when_barycenter_already_negative(self):
        with pytest.raises(NoRootInRange):
            sx.solve_cut_weight(SimplexDifference(a=F(39, 10), b=F(0)))


class TestSxInvariant:
    def test_blowup_benchmark(self):
        t0 = time.perf_counter()
        r = sx.sx_invariant(presets.p3_blowup_normal_form())
        elapsed = time.perf_counter() - t0
        w = radical_w_blowup()
        assert abs(r.s_value - 41.8) <= 0.05
        assert abs(r.s_value - ((4 - w) ** 3 - 8)) <= 1e-9
        assert r.certified
        assert abs(r.cut_weight - w) <= 1e-10
        assert elapsed < 1.0

    def test_po_o2_benchmark(self):
        t0 = time.perf_counter()
        r = sx.sx_invariant(presets.po_o2_normal_form())
        elapsed = time.perf_counter() - t0
        w = radical_w_po_o2()
        assert abs(r.s_value - 30.3) <= 0.05
        assert abs(r.s_value - ((5 - w) ** 3 - 1) / 2) <= 1e-9
        assert r.certified
        assert elapsed < 1.0

    def test_semistable_input_returns_degree(self):
        r = sx.sx_invariant(geom.enumerate_vertices(presets.pn_polytope(3)))
        assert r.s_value == 64.0
        assert r.cut_weight == 0.0
        assert r.certified
        assert r.residual == 0.0

    def test_vertex_polytope_input(self):
        h = presets.po_o2_polytope()
        v = geom.enumerate_vertices(h)
        # the hull of the vertices is the same polytope value
        assert sx.sx_invariant(v) == sx.sx_invariant(geom.VPolytope.from_points(3, v.vertices))
        for other in (h, ToricLogFano(h)):
            with pytest.raises(TypeError):
                sx.sx_invariant(other)

    def test_s_value_bounded_by_degree(self):
        rng = random.Random(29)
        solved = 0
        for _ in range(100):
            # the origin is interior iff b - 3 < 0 < a - 3
            b = F(rng.randint(1, 11), 4)
            a = F(rng.randint(13, 28), 4)
            sd = SimplexDifference(a=a, b=b)
            if simplex_difference_barycenter(sd)[0] < 0:
                continue
            r = sx.sx_invariant(sd)
            degree = 6 * geom.volume(
                geom.enumerate_vertices(sd.to_hpolytope())) / sd.det_correction
            assert r.s_value <= float(degree) + 1e-9
            solved += 1
            if solved == 6:
                break
        assert solved == 6

    def test_cut_facet_offset_is_valid_log_coefficient(self):
        # the new facet parallel to the top facet must carry an offset in (0,1]
        for sd in (presets.p3_blowup_normal_form(), presets.po_o2_normal_form()):
            r = sx.sx_invariant(sd)
            assert r.direction == (1, 1, 1)
            assert 0 < r.cutoff <= 1
            # consistency: remaining width a - w stays above b
            assert float(sd.a) - r.cut_weight > float(sd.b)

    def test_objective_monotone_in_cutoff(self):
        sd = presets.p3_blowup_normal_form()
        v = geom.enumerate_vertices(sd.to_hpolytope())
        u = (1, 1, 1)
        values = []
        for c in [F(k, 8) for k in range(0, 9)]:
            _, mom = clip_volume_and_moment(v, u, c)
            values.append(geom.dot(u, mom))
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_uncertified_when_symmetry_absent(self):
        # the true P(O+O(2)) coordinates: the barycenter direction is not a
        # symmetry axis, so the half-space value is only an upper bound
        r = sx.sx_invariant(geom.enumerate_vertices(presets.po_o2_polytope()))
        assert not r.certified
        assert r.residual > 1e-3
        assert r.s_value >= 30.3


def _sx_clip_cases():
    # x -> (-x_3, x_1, x_2), a signed permutation
    image = geom.LinearMap(((0, 0, -1), (1, 0, 0), (0, 1, 0)))
    for name, preset in sorted(presets.SX_PRESETS.items()):
        yield f"preset-{name}", preset()
    for name in ("p3-blowup", "po-o2"):
        v = geom.enumerate_vertices(presets.POLYTOPE_PRESETS[name]())
        yield f"real-{name}", v
        yield f"image-{name}", geom.transform(v, image)


SX_CLIP_CASES = list(_sx_clip_cases())


class TestClipsPerSolve:
    """A solve stays in one slab of its clip family, which is fitted at
    n + 2 cut-offs from one clip: its vertices moved, not clipped again."""

    @pytest.mark.parametrize("body", [c[1] for c in SX_CLIP_CASES],
                             ids=[c[0] for c in SX_CLIP_CASES])
    def test_n_plus_2_clips(self, body, monkeypatch):
        clip, moments = geom.intersect_halfspace, geom._moments
        calls, row_sets = [], []
        monkeypatch.setattr(geom, "intersect_halfspace",
                            lambda *a: calls.append(a[2]) or clip(*a))
        monkeypatch.setattr(geom, "_moments",
                            lambda v, sets: moments(v, row_sets.extend(sets) or sets))
        sx.sx_invariant(body)
        assert len(calls) == 1
        # the body's own volume and moment, then n + 2 fit points, n = 3
        assert len(row_sets) == 1 + 5


class TestBisectionUnchanged:
    """The integer sign of each step keeps the bisection of a ``Fraction``
    clip per step: the same cut-off, as a ``Fraction``."""

    @pytest.mark.parametrize("body", [c[1] for c in SX_CLIP_CASES],
                             ids=[c[0] for c in SX_CLIP_CASES])
    def test_cutoff_equals_fraction_bisection(self, body):
        v = body if isinstance(body, geom.VPolytope) else geom.enumerate_vertices(
            body.to_hpolytope())
        assert sx.sx_invariant(body).cutoff == fraction_bisection_cutoff(v)


class TestSamplingLowerBound:
    def test_random_constrained_cuts_never_beat_optimum(self):
        sd = presets.p3_blowup_normal_form()
        r = sx.sx_invariant(sd)
        poly = geom.enumerate_vertices(sd.to_hpolytope())
        clipper = FloatClipper(poly)
        v_dir = np.ones(3) / math.sqrt(3)

        def constrained_cut_volume(u: np.ndarray):
            vals = clipper.pts @ u
            c_lo, c_hi = vals.min(), vals.max()

            def moment(c):
                _, mom = clipper.clip_vol_moment(u, c)
                return float(mom @ v_dir)

            # bracket the nontrivial root of the relaxed constraint
            grid = np.linspace(c_lo, c_hi, 17)[1:]
            prev = None
            for c in grid:
                val = moment(c)
                if prev is not None and prev < 0 <= val:
                    root = brentq(moment, prev_c, c, xtol=1e-13)
                    vol, _ = clipper.clip_vol_moment(u, root)
                    return vol
                prev, prev_c = val, c
            return None

        # sanity: the axis direction itself reproduces the optimum
        along_v = constrained_cut_volume(v_dir)
        assert along_v == pytest.approx(r.s_value / 6, rel=1e-6)

        rng = np.random.default_rng(424242)
        found = 0
        while found < 1000:
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            vol = constrained_cut_volume(u)
            if vol is None or vol == 0.0:
                continue
            found += 1
            assert 6 * vol <= r.s_value + 1e-9


class TestDelPezzoTable:
    def test_degrees(self, capsys):
        # the n = 2 classification rows of reproduce-paper, all within the gap bound 8 but P^2
        assert cli.run(["reproduce-paper"]) == 0
        rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
        expect = {"P2": 9, "Bl_1 P2": 8, "Bl_2 P2": 7, "Bl_3 P2": 6, "P1xP1": 8}
        for label, degree in expect.items():
            row = rows[f"degree, {label}"]
            assert row["computed"] == row["reference"] == degree and row["pass"]


class TestOriginMustBeInterior:
    @pytest.mark.parametrize("points", [
        [(1, 1), (1, 2), (2, 1), (2, 2)],
        [(0, 0), (1, 0), (0, 1)],
        [(-1, -1), (2, -1), (-1, 0), (2, 0)],
    ], ids=["square-off-origin", "origin-at-vertex", "origin-on-edge"])
    def test_refused_as_input(self, points):
        with pytest.raises(OutOfRange, match="origin must be interior"):
            sx.sx_invariant(geom.VPolytope.from_points(2, points))

    def test_refused_for_a_simplex_difference(self):
        # a = 3 = n puts the facet sum x <= a - n through the origin
        with pytest.raises(OutOfRange):
            sx.sx_invariant(SimplexDifference(a=F(3), b=F(1)))
