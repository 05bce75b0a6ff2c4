import dataclasses
import functools
import gc
import itertools
import math
import operator
import random
import time
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Delaunay

from fanokit import geometry as geom
from fanokit.errors import (
    DegeneratePolytope,
    DimensionMismatch,
    EmptyIntersection,
    InputError,
    OutOfRange,
    UnboundedPolytope,
)
from fanokit import presets
from fanokit import sx_optimizer as sx
from fanokit.geometry import HPolytope, VPolytope

from helpers import (
    apply,
    brute_force_facets,
    brute_force_vertices,
    clip_volume_and_moment,
    dot,
    fraction_eliminate,
    fraction_incidence,
    image,
    integer_incidence,
    mc_volume_estimate,
    moment_sign,
    per_simplex_volume_and_moment,
    random_rational_polytope,
    random_unimodular,
    spy_eliminations,
    translate,
    two_pass_extreme_rays,
    vadd,
)


def unit_cube(n):
    facets = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        facets.append((e, 0))
        facets.append((tuple(-a for a in e), 1))
    return HPolytope(n, tuple(facets))


def centered_cube(n):
    facets = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        facets.append((e, 1))
        facets.append((tuple(-a for a in e), 1))
    return HPolytope(n, tuple(facets))


def scaled_simplex(n, a):
    """a * Delta_n: conv(0, a e_1, ..., a e_n)."""
    pts = [tuple(F(0) for _ in range(n))]
    for i in range(n):
        pts.append(tuple(F(a) if j == i else F(0) for j in range(n)))
    return VPolytope.from_points(n, pts)


P3_POLYTOPE = HPolytope(
    3, (((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((-1, -1, -1), 1))
)


class TestEnumerateVertices:
    def test_unit_square(self):
        v = geom.enumerate_vertices(unit_cube(2))
        assert set(v.vertices) == {
            (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))
        }

    def test_p3_simplex(self):
        # facet triples solved by hand: (-1,-1,-1) and permutations of (3,-1,-1)
        v = geom.enumerate_vertices(P3_POLYTOPE)
        expect = {
            (F(-1), F(-1), F(-1)),
            (F(3), F(-1), F(-1)),
            (F(-1), F(3), F(-1)),
            (F(-1), F(-1), F(3)),
        }
        assert set(v.vertices) == expect

    def test_empty_interior_raises(self):
        h = HPolytope(2, (((1, 0), 0), ((-1, 0), -1), ((0, 1), 1), ((0, -1), 1)))
        with pytest.raises(DegeneratePolytope):
            geom.enumerate_vertices(h)

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedPolytope):
            geom.enumerate_vertices(HPolytope(2, (((1, 0), 1), ((0, 1), 1))))
        # lineality direction
        with pytest.raises(UnboundedPolytope):
            geom.enumerate_vertices(HPolytope(2, (((1, 0), 1), ((-1, 0), 1))))

    def test_vertices_satisfy_all_inequalities(self):
        rng = random.Random(7)
        for _ in range(10):
            v = random_rational_polytope(rng, rng.randint(2, 4))
            h = HPolytope(v.dim, v.facets)
            for p in geom.enumerate_vertices(h).vertices:
                assert all(dot(f.normal, p) >= -f.offset for f in h.facets)

    def test_from_points_drops_non_extreme(self):
        square_plus_center = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (2, 1)]
        v = VPolytope.from_points(2, square_plus_center)
        assert set(v.vertices) == {
            (F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(2), F(2))
        }

    def test_hrep_vrep_roundtrip_idempotent(self):
        rng = random.Random(11)
        for _ in range(10):
            v = random_rational_polytope(rng, rng.randint(2, 4))
            again = geom.enumerate_vertices(HPolytope(v.dim, v.facets))
            assert again.vertices == v.vertices
            third = geom.enumerate_vertices(HPolytope(again.dim, again.facets))
            assert third.vertices == v.vertices


class TestVolume:
    def test_unit_cube(self):
        assert geom.volume(geom.enumerate_vertices(unit_cube(3))) == 1

    @pytest.mark.parametrize("n,a", [(1, 3), (2, F(5, 2)), (3, 4), (4, 2)])
    def test_scaled_simplex(self, n, a):
        v = scaled_simplex(n, a)
        assert geom.volume(v) == F(a) ** n / math.factorial(n)

    def test_p3_polytope(self):
        assert geom.volume(geom.enumerate_vertices(P3_POLYTOPE)) == F(32, 3)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePolytope):
            VPolytope.from_points(2, ((F(0), F(0)), (F(1), F(0)), (F(2), F(0))))

    def test_additivity_under_hyperplane_split(self):
        rng = random.Random(23)
        for _ in range(8):
            v = random_rational_polytope(rng, rng.randint(2, 3))
            total = geom.volume(v)
            normal = tuple(F(rng.randint(-2, 2)) for _ in range(v.dim))
            if all(x == 0 for x in normal):
                normal = tuple([F(1)] + [F(0)] * (v.dim - 1))
            cut = F(rng.randint(-1, 1), 2)
            vals = [dot(normal, p) for p in v.vertices]
            if not (min(vals) < cut < max(vals)):
                continue
            lo = geom.intersect_halfspace(v, normal, cut)
            hi = geom.intersect_halfspace(v, tuple(-x for x in normal), -cut)
            assert geom.volume(lo) + geom.volume(hi) == total


class TestBarycenter:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_centered_cube(self, n):
        v = geom.enumerate_vertices(centered_cube(n))
        assert geom.barycenter(v) == tuple(F(0) for _ in range(n))

    @pytest.mark.parametrize("a", [F(4), F(5), F(7, 2)])
    def test_shifted_simplex(self, a):
        # a*Delta_3 - 1 has barycenter (a/4 - 1) * (1,1,1)
        v = translate(scaled_simplex(3, a), (-1, -1, -1))
        assert geom.barycenter(v) == tuple(F(a, 4) - 1 for _ in range(3))

    def test_simplex_difference(self):
        # (4 Delta_3 - 1) \ (2 Delta_3 - 1): barycenter formula gives 1/14
        h = HPolytope(
            3,
            (((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
             ((-1, -1, -1), 1), ((1, 1, 1), 1)),
        )
        v = geom.enumerate_vertices(h)
        assert geom.barycenter(v) == (F(1, 14),) * 3

    def test_equivariance(self):
        rng = random.Random(31)
        for _ in range(6):
            v = random_rational_polytope(rng, rng.randint(2, 3))
            t = random_unimodular(rng, v.dim)
            shift = tuple(F(rng.randint(-4, 4), 3) for _ in range(v.dim))
            moved = translate(image(v, t), shift)
            expected = vadd(apply(t, geom.barycenter(v)), shift)
            assert geom.barycenter(moved) == expected


class TestTransform:
    def test_doubling_volume(self):
        v = geom.enumerate_vertices(unit_cube(2))
        t = ((2, 0), (0, 2))
        assert geom.integer_det(list(t)) == 4
        assert geom.volume(image(v, t)) == 4 * geom.volume(v)

    def test_po_o2_normal_form_is_its_det2_image(self):
        # P(O+O(2)) under x -> (x_1, x_2, 2 x_3 - x_1 - x_2) is (5D-1)\(D-1), the
        # po-o2 preset body that test_sx_optimizer compares with it
        t = ((1, 0, 0), (0, 1, 0), (-1, -1, 2))
        po = geom.enumerate_vertices(presets.po_o2_polytope())
        normal_form = geom.enumerate_vertices(presets.po_o2_normal_form())
        hull = image(po, t)
        assert (normal_form.vertices, normal_form.facets, normal_form.rows, normal_form.masks) == (
            hull.vertices, hull.facets, hull.rows, hull.masks)
        assert geom.volume(normal_form) == 2 * geom.volume(po)

    def test_volume_invariance_unimodular_and_translation(self):
        rng = random.Random(43)
        for _ in range(8):
            v = random_rational_polytope(rng, rng.randint(2, 4))
            t = random_unimodular(rng, v.dim)
            shift = tuple(F(rng.randint(-3, 3)) for _ in range(v.dim))
            assert abs(geom.integer_det(list(t))) == 1
            moved = translate(image(v, t), shift)
            assert geom.volume(moved) == geom.volume(v)

    def test_volume_scales_by_det(self):
        rng = random.Random(47)
        for _ in range(5):
            v = random_rational_polytope(rng, 3)
            t = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            if (det := geom.integer_det(list(t))) == 0:
                continue
            assert geom.volume(image(v, t)) == abs(det) * geom.volume(v)


class TestIntersectHalfspace:
    def test_cube_cut(self):
        v = geom.enumerate_vertices(centered_cube(2))
        cut = geom.intersect_halfspace(v, (1, 0), 0)
        assert set(cut.vertices) == {
            (F(-1), F(-1)), (F(-1), F(1)), (F(0), F(-1)), (F(0), F(1))
        }

    def test_inactive_cut(self):
        v = geom.enumerate_vertices(centered_cube(2))
        assert geom.intersect_halfspace(v, (1, 0), 5).vertices == v.vertices

    def test_simplex_cut_is_smaller_simplex(self):
        # cutting 4*Delta_3 - 1 parallel to its top facet yields (4-w)*Delta_3 - 1
        v = geom.enumerate_vertices(P3_POLYTOPE)
        w = F(1, 2)
        cut = geom.intersect_halfspace(v, (1, 1, 1), (4 - w) - 3)
        expect = translate(scaled_simplex(3, 4 - w), (-1, -1, -1))
        assert cut.vertices == expect.vertices

    def test_cut_to_nothing(self):
        v = geom.enumerate_vertices(centered_cube(2))
        with pytest.raises(EmptyIntersection):
            geom.intersect_halfspace(v, (1, 0), -2)


class TestMonteCarloOracle:
    # light regression; the full 20-polytope / 1e6-sample run lives in
    # test_acceptance.py
    def test_exact_volume_within_three_sigma(self):
        rng = random.Random(2024)
        for trial in range(6):
            v = random_rational_polytope(rng, rng.randint(1, 4))
            exact = float(geom.volume(v))
            est, sigma = mc_volume_estimate(v, 200_000, seed=9000 + trial)
            assert abs(exact - est) <= 3 * sigma + 1e-12


def assert_facets_invariant(v):
    assert v.facets == brute_force_facets(v.dim, v.vertices)


def assert_incidence(v, points, inequalities):
    """v is the Fraction rule's reading of points and inequalities: the same
    vertices, facets and vertex masks, with its facets a fresh hull of its
    vertices and its rows the vertices over their least common denominator."""
    assert (v.vertices, v.facets, v.masks) == fraction_incidence(points, inequalities)
    assert v.facets == VPolytope.from_points(v.dim, v.vertices).facets
    assert [tuple(F(x, r[-1]) for x in r[:-1]) for r in v.rows] == list(v.vertices)
    assert math.gcd(*(x for r in v.rows for x in r)) == 1


@st.composite
def point_clouds(draw):
    dim = draw(st.integers(2, 3))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=dim + 4))
    return dim, pts


class TestFacetsCarried:
    """Every constructor keeps v.facets equal to a fresh hull of v.vertices."""

    @settings(max_examples=40, deadline=None)
    @given(point_clouds(), st.data())
    def test_invariant_through_every_constructor(self, cloud, data):
        dim, pts = cloud
        try:
            v = VPolytope.from_points(dim, pts)
        except DegeneratePolytope:
            return
        assert_facets_invariant(v)
        assert_incidence(v, pts, brute_force_facets(dim, pts))
        # a redundant inequality and a repeated one must not become facets
        loose = geom.Facet(v.facets[0].normal, v.facets[0].offset + 1)
        h = HPolytope(dim, v.facets + (loose, v.facets[-1]))
        again = geom.enumerate_vertices(h)
        assert again == v
        assert_incidence(again, brute_force_vertices(h)[0], h.facets)
        # the double description's incidence, whatever its first basis, is the cloud's
        shuffled = HPolytope(dim, tuple(data.draw(st.permutations(h.facets))))
        assert_incidence(geom.enumerate_vertices(shuffled), v.vertices, h.facets)
        assert geom.enumerate_vertices(shuffled).masks == again.masks == v.masks
        rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                                  min_size=dim, max_size=dim))
        if geom.integer_det(list(rows)) != 0:
            hull = image(v, rows)
            assert_facets_invariant(hull)
            moved = [apply(rows, p) for p in v.vertices]
            assert_incidence(hull, moved, brute_force_facets(dim, moved))
        shift = data.draw(st.lists(st.fractions(-2, 2, max_denominator=4),
                                   min_size=dim, max_size=dim))
        shifted = translate(v, shift)
        assert_facets_invariant(shifted)
        moved = [vadd(p, shift) for p in v.vertices]
        assert_incidence(shifted, moved, brute_force_facets(dim, moved))
        normal = data.draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
                           .filter(any))
        vals = sorted(dot(normal, p) for p in v.vertices)
        if vals[0] < vals[-1]:
            share = data.draw(st.fractions(0, 1, max_denominator=4).filter(bool))
            cut = vals[0] + share * (vals[-1] - vals[0])
            clipped = geom.intersect_halfspace(v, normal, cut)
            assert_facets_invariant(clipped)
            ineqs = v.facets + (geom.make_facet([-x for x in normal], cut),)
            assert_incidence(clipped, brute_force_vertices(HPolytope(dim, ineqs))[0], ineqs)

    def test_cache_hit_carries_the_incidence(self):
        h = repeated_and_redundant()
        geom._vertices_of.cache_clear()
        first = geom.enumerate_vertices(h)
        hit = geom.enumerate_vertices(HPolytope(h.dim, h.facets))
        assert hit is first and geom._vertices_of.cache_info().hits == 1
        assert_incidence(hit, brute_force_vertices(h)[0], h.facets)

    def test_equality_hash_and_repr_ignore_the_incidence(self):
        v = geom.enumerate_vertices(unit_cube(3))
        w = VPolytope.from_points(3, v.vertices)
        # equality and hash read dim, facets and the integer rows, not the vertices
        assert w is not v and w == v and hash(w) == hash(v) and "vertices" not in vars(w)
        assert repr(w) == repr(v)
        unmasked = dataclasses.replace(w, masks=())
        assert unmasked == v and hash(unmasked) == hash(v)
        # equal iff vertices and facets are, over hulls of the same and of moved vertices
        third, half = (F(1, 3), 0, F(-2)), (F(1, 2), F(1, 2), 0)
        moved = translate(v, third)
        values = [v, w, unmasked, moved, translate(moved, [-x for x in third]),
                  translate(v, half), translate(translate(v, half), third),
                  translate(moved, half), dataclasses.replace(v, facets=v.facets[1:]),
                  dataclasses.replace(v, rows=moved.rows)]
        for a, b in itertools.product(values, repeat=2):
            same = (a.dim, a.vertices, a.facets) == (b.dim, b.vertices, b.facets)
            assert (a == b) == same
            if same:
                assert hash(a) == hash(b)
        assert sum(a == v for a in values) == 4
        # the repr is the seed's: dim, vertices and facets, neither rows nor masks
        assert repr(v) == f"VPolytope(dim=3, vertices={v.vertices!r}, facets={v.facets!r})"
        assert "masks" not in repr(v) and "rows" not in repr(v)


def centroid(points):
    return tuple(sum(c, F(0)) / len(points) for c in zip(*points))


@st.composite
def rich_clouds(draw):
    """A cloud in dimension 1 to 4 with rational points inside its hull (the
    centroids of some of its points, and of all), some of them repeated."""
    dim = draw(st.integers(1, 4))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=dim + 3))
    subsets = draw(st.lists(st.lists(st.sampled_from(pts), min_size=2, max_size=dim + 1),
                            max_size=3))
    inner = [centroid(s) for s in subsets] + [centroid(pts)]
    repeats = draw(st.lists(st.sampled_from(pts + inner), max_size=2))
    return dim, draw(st.permutations(pts + inner + repeats))


class TestOneBuilder:
    """Every ``VPolytope`` comes from ``_polytope``.  ``from_points`` reads
    the incidence off the cloud's double description, and it is exactly what
    integer rows, a tight test per inequality and one rank give."""

    @settings(max_examples=60, deadline=None)
    @given(rich_clouds())
    def test_from_points_matches_the_constructor_rule(self, cloud):
        dim, pts = cloud
        try:
            expect = integer_incidence(dim, pts, brute_force_facets(dim, pts))
        except DegeneratePolytope:
            with pytest.raises(DegeneratePolytope):
                VPolytope.from_points(dim, pts)
            return
        v = VPolytope.from_points(dim, pts)
        assert (v.vertices, v.facets, v.rows, v.masks) == expect
        # a point inside each facet, the centroid of its vertices, is no vertex
        faces = [centroid([p for i, p in enumerate(v.vertices) if m >> i & 1]) for m in v.masks]
        w = VPolytope.from_points(dim, faces + pts)
        assert (w.vertices, w.facets, w.rows, w.masks) == expect
        assert integer_incidence(dim, faces + pts, v.facets) == expect

    def test_every_value_comes_from_the_builder(self, monkeypatch):
        built, original = [], geom._polytope
        monkeypatch.setattr(geom, "_polytope", lambda *args: built.append(original(*args))
                            or built[-1])
        geom._vertices_of.cache_clear()
        v = geom.enumerate_vertices(unit_cube(3))
        cloud = VPolytope.from_points(3, CUBE_3 + [(HALF,) * 3])
        cut = geom.intersect_halfspace(v, (1, 1, 1), F(3, 2))
        assert len(built) == 3 and all(a is b for a, b in zip(built, (v, cloud, cut)))
        assert cloud == v != cut


class TestFiveDimensional:
    """The pulling triangulation at dimension 5, through unimodular images."""

    def test_centered_five_cube(self):
        v = geom.enumerate_vertices(centered_cube(5))
        assert geom.volume_and_moment(v) == (32, (0,) * 5)

    @pytest.mark.parametrize("h,vol", [(unit_cube(5), F(1)),
                                       (presets.pn_polytope(5), F(6**5, 120))])
    def test_unimodular_images(self, h, vol):
        rng = random.Random(59)
        v = geom.enumerate_vertices(h)
        bary = geom.barycenter(v)
        for _ in range(2):
            t = random_unimodular(rng, 5)
            shift = tuple(F(rng.randint(-3, 3), 2) for _ in range(5))
            moved = translate(image(v, t), shift)
            assert geom.volume(moved) == vol
            assert geom.barycenter(moved) == vadd(apply(t, bary), shift)


def cross_polytope(n):
    """|x_1| + ... + |x_n| <= 1: every vertex lies on 2^(n-1) facets."""
    signs = itertools.product((1, -1), repeat=n)
    return HPolytope(n, tuple((s, 1) for s in signs))


SQUARE_PYRAMID = HPolytope(3, (((0, 0, 1), 0), ((1, 0, -1), 1), ((-1, 0, -1), 1),
                               ((0, 1, -1), 1), ((0, -1, -1), 1)))


def four_cube_images():
    rng = random.Random(61)
    cube = geom.enumerate_vertices(unit_cube(4))
    images = [image(cube, random_unimodular(rng, 4)) for _ in range(3)]
    return [HPolytope(v.dim, v.facets) for v in images]


def repeated_and_redundant():
    cube = unit_cube(3).facets
    # a repeat of z >= 0, a loose copy of x <= 1, x + y + z >= 0 tight at the
    # origin only, and x + y <= 3/2: the two copies of z >= 0 are tight on the
    # diagonal (0, 0, 0), (1, 1, 0), which the cut separates but which are no edge
    return HPolytope(3, cube + (cube[4], (cube[1].normal, cube[1].offset + 1),
                                ((1, 1, 1), 0), ((-1, -1, 0), F(3, 2))))


HALF = F(1, 2)
CUBE_3 = list(itertools.product((0, 1), repeat=3))


def first_basis_det(h):
    """Determinant of the rows the double description of h starts from."""
    n = h.dim
    rows = [geom.primitive_int_vector((*l, a)) for l, a in h.facets] + [(0,) * n + (1,)]
    return geom.integer_det([rows[b] for b in geom._bareiss(list(zip(*rows)))[0]])


def incidence_cases():
    """H-inputs: the presets and two unimodular images of each, the non-simple
    bodies, and a triangle whose first basis has a negative determinant."""
    rng = random.Random(26)
    for name, build in sorted(presets.POLYTOPE_PRESETS.items()):
        h = build()
        yield name, h
        for k in range(2):
            moved = image(geom.enumerate_vertices(h), random_unimodular(rng, h.dim))
            yield f"{name}-image-{k}", HPolytope(h.dim, moved.facets)
    yield "cross-3", cross_polytope(3)
    yield "cross-4", cross_polytope(4)
    yield "square-pyramid", SQUARE_PYRAMID
    yield "repeated-redundant", repeated_and_redundant()
    for k, h in enumerate(four_cube_images()):
        yield f"cube-4-{k}", h
    yield "negative-basis", HPolytope(2, presets.pn_polytope(2).facets[::-1])


INCIDENCE_CASES = dict(incidence_cases())


class TestIncidenceFromDoubleDescription:
    """``enumerate_vertices`` reads the incidence off its double description's
    tight rows, with no inequality evaluated at a vertex: it equals the
    ``Fraction`` rule's on the brute-force vertices."""

    @pytest.mark.parametrize("name", sorted(INCIDENCE_CASES))
    def test_matches_fraction_incidence(self, name):
        h = INCIDENCE_CASES[name]
        geom._vertices_of.cache_clear()
        assert_incidence(geom.enumerate_vertices(h), brute_force_vertices(h)[0], h.facets)

    def test_negative_first_basis_is_covered(self):
        assert first_basis_det(INCIDENCE_CASES["negative-basis"]) < 0

    def test_no_inequality_evaluated(self, monkeypatch):
        # one double description and no other elimination: no rank, no tight test
        h = INCIDENCE_CASES["p3-blowup-image-0"]
        geom._vertices_of.cache_clear()
        calls = spy_eliminations(monkeypatch)
        v = geom.enumerate_vertices(h)
        monkeypatch.undo()
        assert calls == ["rays"]
        assert_incidence(v, brute_force_vertices(h)[0], h.facets)

    @pytest.mark.parametrize("h, error, message", [
        (HPolytope(2, (((1, 0), 1), ((-1, 0), 1))), UnboundedPolytope,
         "facet normals do not span the space"),
        (HPolytope(2, (((1, 0), 0), ((0, 1), 0), ((1, -1), 1))), UnboundedPolytope,
         "recession direction exists"),
        (HPolytope(2, (((1, 0), -1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1))),
         DegeneratePolytope, "empty feasible set"),
        (HPolytope(2, (((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1))),
         DegeneratePolytope, "polytope is not full-dimensional"),
    ], ids=["non-spanning", "unbounded", "empty", "lower-dimensional"])
    def test_refusals_keep_class_and_message(self, h, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            geom.enumerate_vertices(h)

    def test_oversized_cloud_refused_fast(self):
        # the cyclic 6-polytope on 40 moment-curve points has 8,400 facets
        cloud = [tuple(t ** k for k in range(1, 7)) for t in range(1, 41)]
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match=f"past its budget of {geom.MAX_RAYS} rays or "
                                             f"{geom.MAX_RAY_TESTS} tests$"):
            VPolytope.from_points(6, cloud)
        assert time.perf_counter() - start < 1.0

    def test_ray_test_budget_is_per_row(self, monkeypatch):
        h, budget = cross_polytope(3), 0
        while True:   # raise the budget to each refused row's count until one passes
            monkeypatch.setattr(geom, "MAX_RAY_TESTS", budget)
            geom._vertices_of.cache_clear()
            try:
                v = geom.enumerate_vertices(h)
                break
            except OutOfRange as refused:
                count = int(str(refused).split(" would make ")[1].split()[0])
                assert count > budget
                budget = count
        assert budget > 0 and v.vertices == brute_force_vertices(h)[0]
        monkeypatch.setattr(geom, "MAX_RAY_TESTS", budget - 1)
        geom._vertices_of.cache_clear()
        with pytest.raises(OutOfRange, match=f"would make {budget} ray tests"):
            geom.enumerate_vertices(h)

    def test_ray_budget(self, monkeypatch):
        monkeypatch.setattr(geom, "MAX_RAYS", 3)
        geom._vertices_of.cache_clear()
        with pytest.raises(OutOfRange, match="holds 4 rays"):
            geom.enumerate_vertices(unit_cube(3))


class TestDoubleDescription:
    """The double-description conversions against brute-force oracles, on
    non-simple and degenerate inputs."""

    @pytest.mark.parametrize("h", [cross_polytope(3), SQUARE_PYRAMID, *four_cube_images(),
                                   repeated_and_redundant()],
                             ids=["cross-3", "square-pyramid", "cube-4-a", "cube-4-b",
                                  "cube-4-c", "repeated-redundant"])
    def test_h_to_v_matches_oracle(self, h):
        vertices, facets = brute_force_vertices(h)
        v = geom.enumerate_vertices(h)
        assert (v.vertices, v.facets) == (vertices, facets)
        assert_incidence(v, vertices, h.facets)
        assert VPolytope.from_points(h.dim, vertices) == v

    @pytest.mark.parametrize("pts", [
        # the apex, twice, is tight on two opposite side faces that share no edge
        [(0, 0, 1), (0, 0, 1), (1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (2, 0, 0)],
        [tuple(HALF if j != i else s for j in range(3)) for i in range(3) for s in (0, 1)]
        + [(HALF,) * 3] + CUBE_3 + CUBE_3[:3],
    ], ids=["repeated-apex", "cube-with-centers"])
    def test_v_to_h_matches_oracle(self, pts):
        facets = brute_force_facets(3, pts)
        v = VPolytope.from_points(3, pts)
        assert v.facets == facets
        assert (v.vertices, v.facets) == brute_force_vertices(HPolytope(3, facets))
        assert_incidence(v, pts, facets)

    def test_empty_with_recession_direction_is_unbounded(self):
        # x >= 1 and x <= 0 is empty; y >= 0 leaves the recession direction (0, 1)
        h = HPolytope(2, (((1, 0), -1), ((-1, 0), 0), ((0, 1), 0)))
        with pytest.raises(UnboundedPolytope):
            brute_force_vertices(h)
        with pytest.raises(UnboundedPolytope):
            geom.enumerate_vertices(h)

    def test_from_points_does_not_enumerate_vertices(self, monkeypatch):
        def spy(h):
            raise AssertionError("from_points called enumerate_vertices")

        monkeypatch.setattr(geom, "enumerate_vertices", spy)
        monkeypatch.setattr(geom, "_vertices_of", spy)
        v = VPolytope.from_points(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])
        assert len(v.vertices) == 4 and len(v.facets) == 4

    def test_ten_points_in_r5(self):
        rng = random.Random(5)
        pts = [tuple(F(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(5))
               for _ in range(10)]
        v = VPolytope.from_points(5, pts)
        assert v.facets == brute_force_facets(5, pts)
        hull = ConvexHull(np.array([[float(x) for x in p] for p in pts]))
        assert set(v.vertices) == {geom.vec(pts[i]) for i in hull.vertices}


def delaunay_volume_and_moment(v):
    """Float oracle: summed volumes and volume-weighted centroids of the
    Delaunay simplices of the vertices."""
    pts = np.array([[float(x) for x in p] for p in v.vertices])
    simplices = pts[Delaunay(pts).simplices]
    vols = np.abs(np.linalg.det(simplices[:, 1:] - simplices[:, :1])) / math.factorial(v.dim)
    return vols.sum(), (vols[:, None] * simplices.mean(axis=1)).sum(axis=0)


def seeded_cloud(n):
    rng = random.Random(70 + n)
    return VPolytope.from_points(n, [tuple(F(rng.randint(-12, 12), rng.randint(1, 5))
                                           for _ in range(n)) for _ in range(n + 6)])


def mixed_denominator_image(n):
    """A unimodular image of a seeded cloud, translated by a shift whose
    coordinates have coprime denominators, so that the vertices carry
    different denominators and their common denominator is large."""
    v = image(seeded_cloud(n), random_unimodular(random.Random(80 + n), n))
    return translate(v, [F(k + 1, p) for k, p in zip(range(n), (3, 7, 11, 13, 17))])


class TestPullingTriangulation:
    """Exact volume and moment against a float oracle, on faces that are not
    simplices and in dimensions 6 and 7."""

    @pytest.mark.parametrize("v", [*(seeded_cloud(n) for n in (2, 3, 4, 5)),
                                   *(geom.enumerate_vertices(cross_polytope(n)) for n in (4, 5)),
                                   geom.enumerate_vertices(SQUARE_PYRAMID),
                                   *(mixed_denominator_image(n) for n in (3, 4))],
                             ids=["cloud-2", "cloud-3", "cloud-4", "cloud-5",
                                  "cross-4", "cross-5", "square-pyramid",
                                  "mixed-denominators-3", "mixed-denominators-4"])
    def test_matches_delaunay(self, v):
        vol, mom = geom.volume_and_moment(v)
        ref_vol, ref_mom = delaunay_volume_and_moment(v)
        assert float(vol) == pytest.approx(ref_vol, rel=1e-9)
        assert [float(m) for m in mom] == pytest.approx(ref_mom, rel=1e-9, abs=1e-9 * ref_vol)

    def test_seven_simplex(self):
        v = geom.enumerate_vertices(presets.pn_polytope(7))
        assert geom.volume_and_moment(v) == (F(8**7, math.factorial(7)), (0,) * 7)

    def test_centered_six_cube(self):
        v = geom.enumerate_vertices(centered_cube(6))
        assert geom.volume_and_moment(v) == (64, (0,) * 6)

    @pytest.mark.parametrize("h", [centered_cube(5), cross_polytope(4), SQUARE_PYRAMID,
                                   presets.pn_polytope(4)],
                             ids=["cube-5", "cross-4", "square-pyramid", "p4"])
    def test_count_is_the_simplices_summed(self, h, monkeypatch):
        # one determinant, the last pivot of a leaf of the walk, per simplex
        geom._vertices_of.cache_clear()   # a value not yet integrated
        v = geom.enumerate_vertices(h)
        dets, pivot, bareiss = [], geom._pivot, geom._bareiss

        def spy(state, row):
            out = pivot(state, row)
            dets.append(len(out[0]) == v.dim + 1)   # a leaf: n + 1 pivots
            return out

        monkeypatch.setattr(geom, "_pivot", spy)
        monkeypatch.setattr(geom, "_bareiss", lambda *a, **k: dets.append(None) or bareiss(*a, **k))
        geom.volume_and_moment(v)
        assert None not in dets   # no simplex eliminated from scratch
        assert sum(dets) == geom._pulling((1 << len(v.vertices)) - 1, v.masks, {})

    def test_simplex_budget(self, monkeypatch):
        geom._vertices_of.cache_clear()   # a value not yet integrated
        v = geom.enumerate_vertices(centered_cube(4))   # 4! simplices
        monkeypatch.setattr(geom, "MAX_SIMPLICES", 23)
        with pytest.raises(OutOfRange, match="has 24 simplices, more than the 23 "):
            geom.volume_and_moment(v)
        monkeypatch.setattr(geom, "MAX_SIMPLICES", 24)
        assert geom.volume_and_moment(v) == (16, (0,) * 4)

    def test_no_reference_cycles_left(self):
        # a recursion that closes over itself would leave a cycle per call
        v = geom.enumerate_vertices(presets.po_o2_polytope())
        gc.collect()
        gc.disable()
        try:
            geom.volume_and_moment(v)
            assert gc.collect() == 0
            sx.sx_invariant(v)
            assert gc.collect() == 0
        finally:
            gc.enable()


# every preset body, built afresh on each call
PRESET_BODIES = {
    **{name: functools.partial(lambda f: geom.enumerate_vertices(f()), f)
       for name, f in presets.POLYTOPE_PRESETS.items()},
    **{f"sx-{name}": functools.partial(lambda f: f()[0], f)
       for name, f in presets.SX_PRESETS.items()},
    **{name: functools.partial(lambda f: geom.enumerate_vertices(f()), f)
       for name, f in (("p112", presets.weighted_p112_polytope),
                       ("p112-centered", presets.weighted_p112_centered),
                       ("p113", presets.weighted_p113_polytope))},
}
MEMOS = {"_integral", "cones"}


def walk_bodies():
    """Every preset body, the 2- to 6-cubes, the 3- to 5-cross-polytopes and
    the square pyramid, each built afresh on each call."""
    yield from PRESET_BODIES.items()
    for name, build, dims in (("cube", centered_cube, range(2, 7)),
                              ("cross", cross_polytope, range(3, 6))):
        for n in dims:
            yield f"{name}-{n}", functools.partial(geom.enumerate_vertices, build(n))
    yield "square-pyramid", lambda: geom.enumerate_vertices(SQUARE_PYRAMID)


WALK_BODIES = dict(walk_bodies())


def pulling_tree_nodes(masks):
    """Nodes of the pulling tree: a face and, along each of its facets that
    miss its apex, the nodes below; a vertex is a leaf."""
    top, dag = functools.reduce(operator.or_, masks), {}
    geom._pulling(top, masks, dag)

    def below(face):
        return 1 + sum(below(g) for g in dag[face][1]) if face in dag else 1

    return below(top)


class TestPullingTreeWalk:
    """``_integral`` walks the pulling tree once, reducing each face's apex
    row against its ancestors' pivots by ``_pivot``, and sums exactly what
    eliminating every simplex from scratch by ``_bareiss`` sums."""

    @pytest.mark.parametrize("name", sorted(WALK_BODIES))
    def test_equals_per_simplex_elimination(self, name):
        geom._vertices_of.cache_clear()
        v = WALK_BODIES[name]()
        assert geom.volume_and_moment(v) == per_simplex_volume_and_moment(v)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_equals_per_simplex_elimination_on_clouds(self, dim, seed):
        v = random_rational_polytope(random.Random(seed), dim)
        assert geom.volume_and_moment(v) == per_simplex_volume_and_moment(v)

    def test_one_reduction_per_node(self, monkeypatch):
        geom._vertices_of.cache_clear()
        v = geom.enumerate_vertices(centered_cube(5))
        calls, pivot = [], geom._pivot
        monkeypatch.setattr(geom, "_pivot", lambda state, row: calls.append(1) or pivot(state, row))
        assert geom.volume_and_moment(v) == (32, (0,) * 5)
        # 5!/(5 - k)! faces of dimension 5 - k: 326 nodes, against 6 rows for each of 120 simplices
        assert len(calls) == pulling_tree_nodes(v.masks) == sum(
            math.perm(5, k) for k in range(6)) == 326 < 6 * math.factorial(5)

    def test_refused_before_any_step(self, monkeypatch):
        geom._vertices_of.cache_clear()
        v = geom.enumerate_vertices(centered_cube(4))   # 4! simplices
        monkeypatch.setattr(geom, "MAX_SIMPLICES", 23)
        monkeypatch.setattr(geom, "_pivot", None)   # a step would fail
        with pytest.raises(OutOfRange, match="has 24 simplices, more than the 23 "):
            geom.volume_and_moment(v)


class TestOneIntegrationPerValue:
    """A ``VPolytope`` integrates, and takes its vertex cones, once; what it
    keeps equals a fresh computation, and a value made from it keeps nothing
    of its base's."""

    @pytest.mark.parametrize("name", sorted(PRESET_BODIES))
    def test_memo_equals_a_fresh_computation(self, name):
        geom._vertices_of.cache_clear()
        v = PRESET_BODIES[name]()
        assert not MEMOS & set(vars(v))
        vol, mom = integral = geom.volume_and_moment(v)
        assert geom.volume_and_moment(v) is integral and v.cones is v.cones
        assert geom.volume(v) == vol and geom.barycenter(v) == tuple(m / vol for m in mom)
        fresh = VPolytope.from_points(v.dim, v.vertices)   # equal, but not yet integrated
        assert not MEMOS & set(vars(fresh))
        assert geom.volume_and_moment(fresh) == integral and fresh.cones == v.cones
        if v.dim == 1:   # an interval [a, b]
            (a,), (b,) = v.vertices
            assert integral == (b - a, ((b * b - a * a) / 2,))
        else:
            ref_vol, ref_mom = delaunay_volume_and_moment(v)
            assert float(vol) == pytest.approx(ref_vol, rel=1e-9)
            assert [float(m) for m in mom] == pytest.approx(ref_mom, rel=1e-9,
                                                            abs=1e-9 * ref_vol)
        for p, (tight, det) in zip(v.vertices, v.cones):
            assert tight == tuple(k for k, (l, a) in enumerate(v.facets) if dot(l, p) == -a)
            normals = [v.facets[k].normal for k in tight]
            assert det == (abs(fraction_eliminate(normals)[2]) if len(tight) == v.dim else None)

    def test_clip_carries_no_memo(self):
        geom._vertices_of.cache_clear()
        v = geom.enumerate_vertices(presets.p3_blowup_polytope())
        vol, _ = geom.volume_and_moment(v)
        assert v.cones
        clipped = geom.intersect_halfspace(v, (1, 0, 0), F(1, 2))
        assert clipped != v and not MEMOS & set(vars(clipped))
        assert clipped.cones == VPolytope.from_points(3, clipped.vertices).cones
        ref_vol, ref_mom = delaunay_volume_and_moment(clipped)
        clip_vol, clip_mom = geom.volume_and_moment(clipped)
        assert float(clip_vol) == pytest.approx(ref_vol, rel=1e-9) and clip_vol < vol
        assert [float(m) for m in clip_mom] == pytest.approx(ref_mom, rel=1e-9, abs=1e-9)


def clip_family_cases():
    for n, seed in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        rng = random.Random(100 * n + seed)
        yield f"cloud-{n}-{seed}", random_rational_polytope(rng, n), rng
    for name, preset in sorted(presets.SX_PRESETS.items()):
        rng = random.Random(name)
        yield name, preset()[0], rng


CLIP_FAMILY_CASES = list(clip_family_cases())


class TestClipFamily:
    """The slab polynomials give exactly the clip's volume and moment, at
    vertex levels, inside slabs and outside the polytope, in any order, with
    no clip: every slab's cut body is read off the base's masks."""

    @pytest.mark.parametrize("v, rng", [c[1:] for c in CLIP_FAMILY_CASES],
                             ids=[c[0] for c in CLIP_FAMILY_CASES])
    def test_equals_clip(self, v, rng, monkeypatch):
        n = v.dim
        while True:
            u = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(u):
                break
        levels = sorted({dot(u, p) for p in v.vertices})
        bounds = [levels[0] - 3, *levels, levels[-1] + 3]
        # n + 4 points strictly inside each slab, and every level twice
        cs = [lo + (hi - lo) * F(rng.randint(1, 999), 1000)
              for lo, hi in zip(bounds, bounds[1:]) for _ in range(n + 4)]
        # the bisection's cut-offs: dyadic, with denominators 2^40 .. 2^55
        cs += [lo + (hi - lo) * F(rng.randrange(1, 2**k), 2**k)
               for lo, hi in zip(bounds, bounds[1:]) for k in (40, 47, 55)]
        cs += levels * 2
        rng.shuffle(cs)
        clip = geom.intersect_halfspace
        clips = []
        monkeypatch.setattr(geom, "intersect_halfspace",
                            lambda *a: clips.append(a[2]) or clip(*a))
        family = geom.clip_family(v, u)
        got = [family(c) for c in cs]
        monkeypatch.undo()
        assert got == [clip_volume_and_moment(v, u, c) for c in cs]
        assert clips == []


NON_SIMPLE_BODIES = {
    "cross-polytope": VPolytope.from_points(
        3, [tuple(s * (j == i) for j in range(3)) for i in range(3) for s in (1, -1)]),
    "square-pyramid": VPolytope.from_points(
        3, [(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)]),
    "4-cube-image": image(geom.enumerate_vertices(unit_cube(4)),
                          random_unimodular(random.Random(4), 4)),
    # under u = (1, 1, 1, 1): 8 vertices, but 12 edges cross the slab (-1, 1)
    "4-cross-polytope": VPolytope.from_points(
        4, [tuple(s * (j == i) for j in range(4)) for i in range(4) for s in (1, -1)]),
    # its one edge lies on no common facet
    "segment": VPolytope.from_points(1, [(F(-1, 2),), (F(7, 3),)]),
}


@st.composite
def _clip_bodies(draw):
    """A body with non-simple vertices, or a random cloud in dimension 2-4."""
    if draw(st.booleans()):
        return NON_SIMPLE_BODIES[draw(st.sampled_from(sorted(NON_SIMPLE_BODIES)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_rational_polytope(rng, draw(st.integers(2, 4)))


class TestClipFamilyEdgeRule:
    """Every vertex of a slab's cut body moves along a base edge or stays at
    a base vertex, also where several edges or facets meet: the family and
    its moment sign equal a clip of their own at every cut-off."""

    @settings(max_examples=20, deadline=None)
    @given(v=_clip_bodies(), data=st.data())
    def test_matches_a_clip_per_cutoff(self, v, data):
        u = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=v.dim, max_size=v.dim)
                            .filter(any), label="normal"))
        levels = sorted({dot(u, p) for p in v.vertices})
        bounds = [levels[0] - 1, *levels, levels[-1] + 1]
        cs = list(levels)
        for lo, hi in zip(bounds, bounds[1:]):
            cs.append(lo + (hi - lo) * F(data.draw(st.integers(1, 999)), 1000))
            # a dyadic cut-off of the bisection, denominator 2^40 .. 2^55
            k, x = data.draw(st.integers(40, 55)), data.draw(st.integers(1, 3))
            cs.append(F(math.floor((lo + (hi - lo) * F(x, 4)) * 2**k), 2**k))
        family = geom.clip_family(v, u)
        for c in data.draw(st.permutations(cs), label="order"):
            vol, mom = clip_volume_and_moment(v, u, c)
            assert family(c) == (vol, mom)
            s = dot(u, mom)
            # the cut-off as an integer pair, not necessarily reduced
            k = data.draw(st.integers(1, 3), label="scale")
            assert moment_sign(family, k * c.numerator, k * c.denominator) == (s > 0) - (s < 0)

    @pytest.mark.parametrize("name", sorted(NON_SIMPLE_BODIES))
    def test_every_slab_along_the_ones_vector(self, name, monkeypatch):
        v = NON_SIMPLE_BODIES[name]
        u = (1,) * v.dim
        levels = sorted({dot(u, p) for p in v.vertices})
        family = geom.clip_family(v, u)
        # the type read off the base has the clip's facets and vertices, and no more
        inner = [(lo + hi) / 2 for lo, hi in zip(levels, levels[1:])]
        # every vertex of the type is on a facet, so the masks' union counts them
        simplices, types = geom._pulling_simplices, []
        monkeypatch.setattr(geom, "_pulling_simplices", lambda masks: types.append(
            (len(masks), functools.reduce(operator.or_, masks).bit_length())) or simplices(masks))
        for c in inner:
            family(c)
        monkeypatch.undo()
        clips = [geom.intersect_halfspace(v, u, c) for c in inner]
        assert types == [(len(w.facets), len(w.vertices)) for w in clips]
        for lo, hi in zip([levels[0] - 1, *levels], [*levels, levels[-1] + 1]):
            for c in (lo, lo + (hi - lo) / 3, hi - (hi - lo) / 7):
                assert family(c) == clip_volume_and_moment(v, u, c)

    def test_four_cross_polytope_inside_its_one_slab(self):
        # 4 kept vertices and 12 crossings, against 8 base vertices
        v, u = NON_SIMPLE_BODIES["4-cross-polytope"], (1, 1, 1, 1)
        family = geom.clip_family(v, u)
        assert family(0) == clip_volume_and_moment(v, u, 0) == (F(1, 3), (F(-7, 192),) * 4)
        for c in (F(-1, 2), F(1, 3), F(9, 10)):
            assert family(c) == clip_volume_and_moment(v, u, c)


def assert_family_is_clip(v, u):
    """The family and its moment sign equal a clip at every level and at
    three points inside every slab, the two outer ones included."""
    levels = sorted({dot(u, p) for p in v.vertices})
    family = geom.clip_family(v, u)
    for lo, hi in zip([levels[0] - 1, *levels], [*levels, levels[-1] + 1]):
        for c in (lo, lo + (hi - lo) / 3, hi - (hi - lo) / 7):
            vol, mom = clip_volume_and_moment(v, u, c)
            assert family(c) == (vol, mom)
            s = dot(u, mom)
            assert moment_sign(family, c.numerator, c.denominator) == (s > 0) - (s < 0)


class TestClipFamilyIntegerFit:
    """Each slab is fitted in integers at the nodes C = 0..n, C the cut-off
    in the units of the base's rows, and each simplex is oriented at the
    slab's midpoint: the nodes may lie far outside the slab, at other
    signs, or where the slab's simplices collapse."""

    @pytest.mark.parametrize("shift", [10**6, -10**6, F(-7, 3)])
    @pytest.mark.parametrize("name", ["p3-blowup", "po-o2"])
    def test_moved_along_u(self, name, shift):
        v = geom.enumerate_vertices(presets.POLYTOPE_PRESETS[name]())
        u = geom.primitive_int_vector(geom.volume_and_moment(v)[1])
        moved = translate(v, [shift * x for x in u])
        levels = [dot(u, p) for p in moved.vertices]
        assert max(levels) < 0 if shift < 0 else min(levels) > 10**6
        assert_family_is_clip(moved, u)

    @pytest.mark.parametrize("name", ["cross-polytope", "4-cross-polytope"])
    def test_simplices_collapse_at_a_node(self, name, monkeypatch):
        v = NON_SIMPLE_BODIES[name]
        u = (1,) * v.dim
        # the one open slab is (-1, 1): the crossings on the edges into a top
        # vertex meet there at the node C = 1
        cs = [F(-1), F(-2, 3), F(0), F(1, 5), F(6, 7), F(1)]
        bareiss, ranks = geom._bareiss, []

        def spy(m, **k):
            out = bareiss(m, **k)
            ranks.append((len(m), len(out[0])))
            return out

        monkeypatch.setattr(geom, "_bareiss", spy)
        family = geom.clip_family(v, u)
        got = [(family(c), moment_sign(family, c.numerator, c.denominator)) for c in cs]
        monkeypatch.undo()
        assert any(rank < size for size, rank in ranks)
        for c, (values, sign) in zip(cs, got):
            vol, mom = clip_volume_and_moment(v, u, c)
            s = dot(u, mom)
            assert (values, sign) == ((vol, mom), (s > 0) - (s < 0))

    def test_fraction_normal(self):
        v = geom.enumerate_vertices(presets.POLYTOPE_PRESETS["p3-blowup"]())
        normal, k = (F(1, 2), F(-2, 3), F(3, 4)), 12
        family, scaled = geom.clip_family(v, normal), geom.clip_family(v, [k * x for x in normal])
        levels = sorted({dot(normal, p) for p in v.vertices})
        for lo, hi in zip([levels[0] - 1, *levels], [*levels, levels[-1] + 1]):
            for c in (lo, (lo + hi) / 2, hi - (hi - lo) / 5):
                assert family(c) == scaled(k * c) == clip_volume_and_moment(v, normal, c)
                p, q = c.numerator, c.denominator
                assert moment_sign(family, p, q) == moment_sign(scaled, k * p, q)

    def test_oversized_slab_type(self, monkeypatch):
        v, u = NON_SIMPLE_BODIES["4-cross-polytope"], (1, 1, 1, 1)
        monkeypatch.setattr(geom, "MAX_SIMPLICES", 1)
        with pytest.raises(OutOfRange, match="more than the 1 ") as refused:
            geom.clip_family(v, u)(0)
        count = int(refused.value.args[0].split(" has ")[1].split()[0])
        monkeypatch.setattr(geom, "MAX_SIMPLICES", count - 1)
        with pytest.raises(OutOfRange, match=f"has {count} simplices"):
            moment_sign(geom.clip_family(v, u), 0, 1)
        monkeypatch.setattr(geom, "MAX_SIMPLICES", count)
        assert geom.clip_family(v, u)(0) == clip_volume_and_moment(v, u, 0)

    def test_fit_and_sign_build_no_fraction(self, monkeypatch):
        v = geom.enumerate_vertices(presets.po_o2_polytope())
        u = geom.primitive_int_vector(geom.volume_and_moment(v)[1])
        levels = sorted({dot(u, p) for p in v.vertices})
        cs = [levels[1] + (levels[2] - levels[1]) * F(j, 8) for j in range(1, 8)]
        pairs = [c.as_integer_ratio() for c in cs]
        family = geom.clip_family(v, u)
        geom._inverse_vandermonde.cache_clear()
        new, built = F.__new__, []
        monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
        F(1, 2)   # the spy sees a Fraction built
        assert len(built) == 1
        signs = [moment_sign(family, p, q) for p, q in pairs]
        assert len(built) == 1
        monkeypatch.undo()
        for c, sign in zip(cs, signs):
            s = dot(u, clip_volume_and_moment(v, u, c)[1])
            assert sign == (s > 0) - (s < 0)


_RATIONALS = st.one_of(st.just(F(0)), st.integers(-9, 9).map(F),
                       st.builds(F, st.integers(-2**60, 2**60), st.integers(1, 2**60)))


@st.composite
def _rational_matrix(draw, rows, cols, kind):
    row = st.lists(_RATIONALS, min_size=cols, max_size=cols)
    if kind == "rank-deficient":
        # every row a small integer combination of rows - 1 base rows
        base = draw(st.lists(row, min_size=rows - 1, max_size=rows - 1))
        coeffs = st.lists(st.integers(-3, 3), min_size=rows - 1, max_size=rows - 1)
        return [[sum((c * b[j] for c, b in zip(cs, base)), F(0)) for j in range(cols)]
                for cs in draw(st.lists(coeffs, min_size=rows, max_size=rows))]
    m = draw(st.lists(row, min_size=rows, max_size=rows))
    if kind == "zero-row":
        m[draw(st.integers(0, rows - 1))] = [F(0)] * cols
    return m


class TestEliminate:
    """``_bareiss``, the one elimination routine, does what Gauss-Jordan over
    Fractions does: on the rows scaled to integers it finds the same pivots,
    its rows divided by d are the same reduced rows, and sign * d over the
    row scales is the determinant, as it is over one common scale.  Forward
    elimination, the default, finds the same pivots, sign and d, and
    ``integer_det`` reads the determinant off it."""

    @pytest.mark.parametrize("rows, cols", [(4, 4), (3, 6), (6, 3), (1, 5)],
                             ids=["square", "wide", "tall", "one-row"])
    @pytest.mark.parametrize("kind", ["full", "rank-deficient", "zero-row"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_gauss_jordan(self, rows, cols, kind, data):
        m = data.draw(_rational_matrix(rows, cols, kind))
        reduced, pivots, det = fraction_eliminate(m)
        scales = [math.lcm(*(x.denominator for x in r)) for r in m]
        ints = [[x.numerator * (s // x.denominator) for x in r] for r, s in zip(m, scales)]
        forward, fresh = geom._bareiss([list(r) for r in ints]), [list(r) for r in ints]
        got, sign, d = geom._bareiss(ints, jordan=True)
        assert got == pivots
        assert [[F(a, d) for a in r] for r in ints] == reduced
        full = F(sign * d, math.prod(scales)) if len(pivots) == rows else 0
        assert full == det
        assert forward == (got, sign, d)
        if rows == cols:
            s = math.lcm(*scales)
            common = [[x.numerator * (s // x.denominator) for x in r] for r in m]
            assert F(geom.integer_det(common), s ** rows) == det
            assert F(geom.integer_det(fresh), math.prod(scales)) == det

    def test_empty_input(self):
        assert geom._bareiss([]) == ([], 1, 1)
        assert fraction_eliminate([]) == ([], [], 1)


class TestConstructorsCheckTheirInput:
    @pytest.mark.parametrize("build, error", [
        (lambda: VPolytope.from_points(2, [(0, 0), (1, 0), (0, 1, 1)]), DimensionMismatch),
        (lambda: VPolytope.from_points(True, [(0,), (1,)]), DimensionMismatch),
        (lambda: VPolytope.from_points(2, [(0, 0), (1, 1), (2, 2)]), DegeneratePolytope),
        (lambda: VPolytope.from_points(2, [(0, 0, 0), (1, 0, 0), (0, 1, 0)]), DimensionMismatch),
        (lambda: HPolytope(2, (((1, 0, 0), 1), ((-1, 0), 1))), DimensionMismatch),
        (lambda: HPolytope(0, ()), DimensionMismatch),
        (lambda: HPolytope("2", (((1, 0), 1),)), DimensionMismatch),
        (lambda: HPolytope(2, (((0, 0), 1),)), OutOfRange),
        (lambda: geom.make_facet((), 1), OutOfRange),
    ], ids=["cloud-mixed-lengths", "cloud-dim-bool", "cloud-flat", "vertex-wrong-length",
            "normal-wrong-length", "dim-zero", "dim-string", "normal-zero", "normal-empty"])
    def test_typed_error(self, build, error):
        with pytest.raises(error):
            build()
        assert issubclass(error, InputError)

    def test_integer_readers_take_every_rational_type(self):
        # ints, Fractions, and what Fraction itself reads: strings, floats, Decimals
        mixed = (F(-1, 2), "3/4", 0.25, Decimal("-1.5"), 2, True)
        assert geom.primitive_int_vector(mixed) == (-2, 3, 1, -6, 8, 4)
        assert geom.make_facet(mixed, "-3/8") == geom.make_facet((-2, 3, 1, -6, 8, 4), F(-3, 2))
        v = VPolytope.from_points(1, ((F(1, 2),), ("3/4",), (Decimal("0.5"),), (F(5, 8),)))
        assert (v.vertices, v.rows) == (((F(1, 2),), (F(3, 4),)), ((2, 4), (3, 4)))

    def test_rows_take_the_denominator_of_the_kept_points(self):
        # the dropped point (1/7, 1/7) leaves no factor 7 in the rows
        v = VPolytope.from_points(2, [(0, 0), (1, 0), (0, 1), (F(1, 7), F(1, 7))])
        assert v.rows == ((0, 0, 1), (0, 1, 1), (1, 0, 1))

    def test_cloud_lengths_checked_before_double_description(self, monkeypatch):
        monkeypatch.setattr(geom, "_extreme_rays", None)   # a call would fail
        with pytest.raises(DimensionMismatch):
            VPolytope.from_points(2, [(0, 0), (1, 0), (0, 1, 1)])

    def test_wrong_length_cut_is_not_an_empty_intersection(self):
        v = geom.enumerate_vertices(presets.pn_polytope(3))
        with pytest.raises(DimensionMismatch):
            geom.intersect_halfspace(v, (1, 1), 0)

    def test_full_dimensionality_checked_once_per_value(self, monkeypatch):
        # every value reads it off its one double description: no rank besides
        geom._vertices_of.cache_clear()
        calls = spy_eliminations(monkeypatch)
        v = geom.enumerate_vertices(unit_cube(3))
        geom.volume_and_moment(v)
        clip_volume_and_moment(v, (1, 1, 1), F(17, 11))   # not a cached clip
        assert calls == ["rays"] * 2
        image(v, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
        assert calls == ["rays"] * 3
        VPolytope.from_points(3, CUBE_3)
        assert calls == ["rays"] * 4

    @pytest.mark.parametrize("facets", [
        (((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)),
        (((1, 0), 0), ((0, 1), 0), ((-1, -1), 0)),
        tuple(f for f in unit_cube(3).facets if f.normal[2] == 0)
        + (((0, 0, 1), 0), ((0, 0, -1), 0)) * 2,
    ], ids=["slab", "point", "squashed-cube"])
    def test_flat_h_input(self, facets):
        # some inequality is tight at every vertex: an implicit equality
        geom._vertices_of.cache_clear()
        with pytest.raises(DegeneratePolytope, match="^polytope is not full-dimensional$"):
            geom.enumerate_vertices(HPolytope(len(facets[0][0]), facets))


class TestIntegerMakeFacet:
    """An all-``int`` normal is divided by its gcd directly, and keeps an
    ``int`` or ``Fraction`` offset as given when the gcd is 1; every other
    normal, ``bool`` entries included, takes the general path.  Both give the
    same facet."""

    OFFSETS = (7, "-5/12", F(3, -8), 0.375, Decimal("-2.25"))

    @staticmethod
    def normals():
        rng = random.Random(2028)
        for _ in range(80):
            g = rng.choice((1, 2, 12, rng.getrandbits(100) | 1))
            normal = [g * rng.choice((rng.randint(-9, 9), rng.randint(-2**100, 2**100)))
                      for _ in range(rng.randint(1, 5))]
            if any(normal):
                yield tuple(normal)

    def test_equals_the_general_path(self, monkeypatch):
        general = []
        prim = geom.primitive_int_vector
        monkeypatch.setattr(geom, "primitive_int_vector", lambda v: general.append(1) or prim(v))
        normals = list(self.normals())
        assert any(x < 0 for n in normals for x in n)
        assert any(math.gcd(*n) > 1 for n in normals)
        assert any(abs(x).bit_length() >= 100 for n in normals for x in n)
        assert any(math.gcd(*n) == 1 for n in normals)
        for normal in normals:
            g = math.gcd(*normal)
            for offset in self.OFFSETS:
                fast = geom.make_facet(normal, offset)
                assert general == []
                assert fast == geom.make_facet(tuple(F(x) for x in normal), offset)
                assert general == [1]
                general.clear()
                assert fast.normal == tuple(x // g for x in normal) and math.gcd(*fast.normal) == 1
                assert fast.offset == F(offset) / g
                # an int or Fraction offset of a primitive normal is kept as given
                if g == 1 and type(offset) in (int, F):
                    assert fast.offset is offset
                else:
                    assert type(fast.offset) is F

    @pytest.mark.parametrize("offset", [7, -3, F(-5, 12), "-5/12", 0.375, True, Decimal("2.5")],
                             ids=["int", "negative-int", "fraction", "string", "float", "bool",
                                  "decimal"])
    def test_primitive_normal_fast_path_equals_the_general_path(self, offset):
        for normal in [(2, -3, 5), (1,), (0, -1), (10**30 + 1, 10**30)]:
            fast = geom.make_facet(normal, offset)
            assert fast == geom.make_facet(tuple(F(x) for x in normal), offset)
            assert fast.normal == normal and fast.offset == F(offset)
            assert (fast.offset is offset) == (type(offset) in (int, F))

    @pytest.mark.parametrize("normal", [(0,), (0, 0, 0), (), (F(0), 0), (False, False)],
                             ids=["int", "ints", "empty", "fraction", "bool"])
    def test_zero_normal(self, normal):
        with pytest.raises(OutOfRange, match="^normal vector must be nonzero$"):
            geom.make_facet(normal, 1)

    def test_bool_takes_the_general_path(self, monkeypatch):
        general = []
        prim = geom.primitive_int_vector
        monkeypatch.setattr(geom, "primitive_int_vector", lambda v: general.append(v) or prim(v))
        assert geom.make_facet((True, 2), "1/2") == geom.make_facet((F(1), F(2)), "1/2")
        assert general == [(True, 2), (F(1), F(2))]
        assert geom.make_facet((True, -2), 3) == ((1, -2), 3)


@st.composite
def ray_row_sets(draw):
    """Integer rows for ``_extreme_rays``, with repeated and zero rows, and
    sets that miss a direction (a column of zeros) or lie on a line."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=8))
    if rows and draw(st.booleans()):
        rows = draw(st.permutations(rows + draw(st.lists(st.sampled_from(rows), min_size=1,
                                                         max_size=3))))
    kind = draw(st.sampled_from(("any", "flat", "line")))
    if kind == "flat":
        k = draw(st.integers(0, d - 1))
        rows = [r[:k] + (0,) + r[k + 1:] for r in rows]
    elif kind == "line" and rows:
        rows = [tuple(c * x for x in rows[0])
                for c in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=5))]
    return list(rows), d


def ray_outcome(extreme_rays, rows, d):
    try:
        return extreme_rays(rows, d)
    except (DegeneratePolytope, OutOfRange) as exc:
        return type(exc), str(exc)


class TestOnePassStartCone:
    """``_extreme_rays`` reads its basis and start rays off one Jordan
    elimination of [R^T | I]; the two-pass reference reads them off the
    transpose and then [B | I].  Both give the same rays, masks and errors."""

    @settings(max_examples=300, deadline=None)
    @given(ray_row_sets())
    def test_matches_the_two_pass_start(self, case):
        rows, d = case
        assert ray_outcome(geom._extreme_rays, rows, d) == ray_outcome(two_pass_extreme_rays,
                                                                       rows, d)

    @pytest.mark.parametrize("name", sorted(INCIDENCE_CASES))
    @pytest.mark.parametrize("budget", [None, 3])
    def test_h_rows_match_within_and_past_the_budget(self, name, budget, monkeypatch):
        h = INCIDENCE_CASES[name]
        rows = [(*(x * a.denominator for x in l), a.numerator) for l, a in h.facets]
        rows.append((0,) * h.dim + (1,))
        if budget:
            monkeypatch.setattr(geom, "MAX_RAYS", budget)
        expected = ray_outcome(two_pass_extreme_rays, rows, h.dim + 1)
        calls = []
        bareiss = geom._bareiss
        monkeypatch.setattr(geom, "_bareiss", lambda *a, **k: calls.append(k) or bareiss(*a, **k))
        assert ray_outcome(geom._extreme_rays, rows, h.dim + 1) == expected
        assert calls == [{"jordan": True}]
        if budget and h.dim >= 3:   # at least 4 start rays
            assert expected[0] is OutOfRange

    def test_empty_and_non_spanning_rows_are_degenerate(self):
        for rows, d in [([], 2), ([(1, 0), (2, 0), (-1, 0)], 2), ([(0, 0, 0)], 3)]:
            with pytest.raises(DegeneratePolytope, match="do not span the space$"):
                geom._extreme_rays(rows, d)


class TestVerticesOnFirstRead:
    """A ``VPolytope`` is its integer rows: ``vertices`` is made from them on
    first read, each row over q = rows[0][-1], the least common denominator."""

    @staticmethod
    def values():
        geom._vertices_of.cache_clear()
        for n in range(2, 6):
            yield seeded_cloud(n)
        for n in (3, 4):
            yield mixed_denominator_image(n)
        for h in INCIDENCE_CASES.values():
            yield geom.enumerate_vertices(h)

    def test_vertices_are_the_rows_over_their_common_denominator(self):
        seen = []
        for v in self.values():
            # the vertex cache hands an image of p1 back as p1 itself
            assert "vertices" not in vars(v) or any(v is u for u in seen)
            seen.append(v)
            q = v.rows[0][-1]
            assert v.vertices == tuple(tuple(F(x, q) for x in r[:-1]) for r in v.rows)
            assert "vertices" in vars(v) and v.vertices is v.vertices
            assert all(r[-1] == q for r in v.rows) and v.vertices == tuple(sorted(v.vertices))
            assert q == math.lcm(*(x.denominator for p in v.vertices for x in p))
