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
from fanokit.errors import OutOfRange

from helpers import (
    FloatClipper,
    clip_volume_and_moment,
    dot,
    fraction_bisection_cutoff,
    image,
    random_rational_polytope,
    simplex_difference,
    simplex_difference_barycenter,
    translate,
)


def radical_w_blowup() -> float:
    c = (19 - 3 * math.sqrt(33)) ** (1 / 3)
    return (2 / 3) * (5 - 4 / c - c)


def radical_w_po_o2() -> float:
    s = 2 - math.sqrt(2)
    return 4 - (4 / s) ** (1 / 3) - (2 * s) ** (1 / 3)


def _sd(a, b) -> geom.VPolytope:
    return geom.enumerate_vertices(simplex_difference(a, b))


class TestSimplexDifferenceBarycenter:
    def test_pn_case_is_zero(self):
        for n in (2, 3, 4):
            assert simplex_difference_barycenter(n + 1, 0, n) == (F(0),) * n

    def test_benchmark_value(self):
        assert simplex_difference_barycenter(4, 2) == (F(1, 14),) * 3

    def test_agrees_with_exact_geometry(self):
        rng = random.Random(13)
        for _ in range(10):
            b = F(rng.randint(0, 12), 4)
            a = b + F(rng.randint(1, 12), 4)
            assert geom.barycenter(_sd(a, b)) == simplex_difference_barycenter(a, b)


class TestSxPresets:
    """Each preset body is the real moment polytope, or for po-o2 its image
    ``presets.po_o2_normal_form`` under a determinant-2 map, and equals its
    simplex difference (a Delta_3 - 1) \\ (b Delta_3 - 1), facets included."""

    @pytest.mark.parametrize("name, a, b, det", [("p3-blowup", 4, 2, 1), ("po-o2", 5, 1, 2)])
    def test_body_is_its_simplex_difference(self, name, a, b, det):
        body, got = presets.SX_PRESETS[name]()
        sd = _sd(a, b)
        assert (body.vertices, body.facets, got) == (sd.vertices, sd.facets, det)


def _cut_quartic(u, n):
    # the moment of (u*Delta_n - 1) along (1, ..., 1), over the positive factor n/n!
    return u**n * (u / (n + 1) - 1)


def _outward_simplex_differences():
    # (a, b) of the presets' bodies, of the perturbed p3-blowup, and of seeded
    # bodies whose barycenter points outward, so that the cut is on the outer
    # simplex's side
    yield F(4), F(2)
    yield F(5), F(1)
    yield F(41, 10), F(2)
    rng = random.Random(31)
    found = 0
    while found < 10:
        b = F(rng.randint(1, 11), 4)
        a = F(rng.randint(13, 28), 4)
        if simplex_difference_barycenter(a, b)[0] > 0:
            found += 1
            yield a, b


class TestSolveCutWeight:
    """The cut weight w that ``sx_invariant`` solves for, against the
    presets' radicals and, exactly, against the quartic it is a root of."""

    def test_blowup_matches_radical(self):
        r = sx.sx_invariant(*presets.SX_PRESETS["p3-blowup"]())
        assert abs(r.cut_weight - presets.SX_CLOSED_FORM_W["p3-blowup"]) <= 1e-12

    def test_po_o2_matches_radical(self):
        r = sx.sx_invariant(*presets.SX_PRESETS["po-o2"]())
        assert abs(r.cut_weight - presets.SX_CLOSED_FORM_W["po-o2"]) <= 1e-12

    def test_no_cut_needed(self):
        assert sx.sx_invariant(_sd(4, 0)).cut_weight == 0.0

    def test_cutoff_brackets_the_root_exactly(self):
        # a - w = n + c solves F(a - w) = F(b) on the increasing branch; the
        # final cut-off is the midpoint of a bracket of half-width h
        n = 3
        for a, b in _outward_simplex_differences():
            r = sx.sx_invariant(_sd(a, b))
            cmax = a - n
            assert r.direction == (1,) * n
            steps = (math.ceil(cmax / sx._WIDTH) - 1).bit_length()
            h = cmax / 2 ** (steps + 1)
            target = _cut_quartic(b, n)
            assert _cut_quartic(n + r.cutoff - h, n) < target <= _cut_quartic(n + r.cutoff + h, n)
            assert r.cut_weight == float(cmax - r.cutoff)


class TestSxInvariant:
    def test_blowup_benchmark(self):
        t0 = time.perf_counter()
        r = sx.sx_invariant(*presets.SX_PRESETS["p3-blowup"]())
        elapsed = time.perf_counter() - t0
        w = radical_w_blowup()
        assert abs(r.s_value - 41.8) <= 0.05
        assert abs(r.s_value - ((4 - w) ** 3 - 8)) <= 1e-9
        assert r.certified
        assert abs(r.cut_weight - w) <= 1e-10
        assert elapsed < 1.0

    def test_po_o2_benchmark(self):
        t0 = time.perf_counter()
        r = sx.sx_invariant(*presets.SX_PRESETS["po-o2"]())
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
        v = geom.enumerate_vertices(presets.po_o2_polytope())
        # the hull of the vertices is the same polytope value
        assert sx.sx_invariant(v) == sx.sx_invariant(geom.VPolytope.from_points(3, v.vertices))

    def test_s_value_bounded_by_degree(self):
        rng = random.Random(29)
        solved = 0
        for _ in range(100):
            # the origin is interior iff b - 3 < 0 < a - 3
            b = F(rng.randint(1, 11), 4)
            a = F(rng.randint(13, 28), 4)
            if simplex_difference_barycenter(a, b)[0] < 0:
                continue
            v = _sd(a, b)
            r = sx.sx_invariant(v)
            degree = 6 * geom.volume(v)
            assert r.s_value <= float(degree) + 1e-9
            solved += 1
            if solved == 6:
                break
        assert solved == 6

    def test_cut_facet_offset_is_valid_log_coefficient(self):
        # the new facet parallel to the top facet must carry an offset in (0,1]
        for name, a, b in (("p3-blowup", 4, 2), ("po-o2", 5, 1)):
            r = sx.sx_invariant(*presets.SX_PRESETS[name]())
            assert r.direction == (1, 1, 1)
            assert 0 < r.cutoff <= 1
            # consistency: remaining width a - w stays above b
            assert a - r.cut_weight > b

    def test_objective_monotone_in_cutoff(self):
        v = presets.SX_PRESETS["p3-blowup"]()[0]
        u = (1, 1, 1)
        values = []
        for c in [F(k, 8) for k in range(0, 9)]:
            _, mom = clip_volume_and_moment(v, u, c)
            values.append(dot(u, mom))
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
    signed_permutation = ((0, 0, -1), (1, 0, 0), (0, 1, 0))
    for name, preset in sorted(presets.SX_PRESETS.items()):
        yield f"preset-{name}", preset()[0]
    for name in ("p3-blowup", "po-o2"):
        v = geom.enumerate_vertices(presets.POLYTOPE_PRESETS[name]())
        yield f"real-{name}", v
        yield f"image-{name}", image(v, signed_permutation)


SX_CLIP_CASES = list(_sx_clip_cases())


class TestClipsPerSolve:
    """A solve stays in one slab of its clip family, which is fitted from
    the base's masks, with no clip."""

    @pytest.mark.parametrize("body", [c[1] for c in SX_CLIP_CASES],
                             ids=[c[0] for c in SX_CLIP_CASES])
    def test_no_clip(self, body, monkeypatch):
        clip, integrate, fit = geom.intersect_halfspace, geom.volume_and_moment, geom.ClipFamily._fit
        calls, bodies, slabs = [], [], []
        monkeypatch.setattr(geom, "intersect_halfspace",
                            lambda *a: calls.append(a[2]) or clip(*a))
        monkeypatch.setattr(geom, "volume_and_moment", lambda v: bodies.append(v) or integrate(v))
        monkeypatch.setattr(geom.ClipFamily, "_fit", lambda f, i: slabs.append(i) or fit(f, i))
        sx.sx_invariant(body)
        assert len(calls) == 0
        # the body's own volume and moment, once, then one slab fitted
        assert bodies == [body]
        assert len(slabs) == 1


class TestBisectionUnchanged:
    """The integer sign of each step keeps the bisection of a ``Fraction``
    clip per step: the same cut-off, as a ``Fraction``."""

    @pytest.mark.parametrize("body", [c[1] for c in SX_CLIP_CASES],
                             ids=[c[0] for c in SX_CLIP_CASES])
    def test_cutoff_equals_fraction_bisection(self, body):
        assert sx.sx_invariant(body).cutoff == fraction_bisection_cutoff(body)


def _seeded_bodies(count):
    # random clouds moved off their barycenter by at most 9/40 per coordinate,
    # with the origin inside
    rng, bodies = random.Random(61), []
    while len(bodies) < count:
        v = random_rational_polytope(rng, rng.choice([2, 3]))
        vol, mom = geom.volume_and_moment(v)
        moved = translate(v, [F(rng.randint(-9, 9), 40) - m / vol for m in mom])
        if all(f.offset > 0 for f in moved.facets) and any(geom.volume_and_moment(moved)[1]):
            bodies.append(moved)
    return bodies


def _triangle(top):
    # x >= -1, y >= -1, x + y <= top: the cut-off is near 1, cmax = top
    facets = (((1, 0), 1), ((0, 1), 1), ((-1, -1), top))
    return geom.enumerate_vertices(geom.HPolytope(2, facets))


ROOT_CASES = [(f"seeded-{k}", v) for k, v in enumerate(_seeded_bodies(6))]
ROOT_CASES.append(("triangle-1e160", _triangle(10**160)))
# the segment [-a, 1] has its root at a, a grid point: the tie goes to the upper end
ROOT_CASES += [(f"segment-{a}", geom.VPolytope.from_points(1, [(-a,), (1,)]))
               for a in (F(1, 2), F(5, 8), F(13, 16))]


def _levels(body):
    """(cmax, every vertex level) along the solve's cut direction."""
    u = geom.primitive_int_vector(geom.volume_and_moment(body)[1])
    levels = [dot(u, p) for p in body.vertices]
    return max(levels), levels


class TestRootFinder:
    """``ClipFamily.root`` brackets the bisection's grid cell in far fewer
    integer evaluations, also where vertex levels split (0, cmax), so that
    its regula falsi compares values of two slabs, and where the root is a
    grid point."""

    def test_some_seeded_levels_split_the_bracket(self):
        split = [any(0 < t < cmax for t in levels)
                 for cmax, levels in map(_levels, (v for _, v in ROOT_CASES))]
        assert any(split) and not all(split)

    @pytest.mark.parametrize("body", [c[1] for c in ROOT_CASES], ids=[c[0] for c in ROOT_CASES])
    def test_cutoff_equals_fraction_bisection(self, body):
        assert sx.sx_invariant(body).cutoff == fraction_bisection_cutoff(body)

    @pytest.mark.parametrize(
        "name, body",
        SX_CLIP_CASES + ROOT_CASES + [("triangle-1e300", _triangle(10**300))],
        ids=[c[0] for c in SX_CLIP_CASES + ROOT_CASES] + ["triangle-1e300"])
    def test_evaluations_at_most_bisection_plus_one(self, name, body, monkeypatch):
        horner, points = geom.ClipFamily._horner, []
        # the cut-off's own volume and moment take every column; each grid point one
        monkeypatch.setattr(geom.ClipFamily, "_horner", lambda f, p, q, width: (
            width == 1 and points.append(p)) or horner(f, p, q, width))
        sx.sx_invariant(body)
        steps = (math.ceil(_levels(body)[0] / sx._WIDTH) - 1).bit_length()
        assert len(points) <= steps + 1
        if name in {c[0] for c in SX_CLIP_CASES}:
            assert len(points) <= 16


class TestSamplingLowerBound:
    def test_random_constrained_cuts_never_beat_optimum(self):
        poly = _sd(4, 2)
        r = sx.sx_invariant(poly)
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
            sx.sx_invariant(_sd(3, 1))
