import functools
import gc
import itertools
import math
import operator
import random
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
    SingularMap,
    UnboundedPolytope,
)
from fanokit import presets
from fanokit import sx_optimizer as sx
from fanokit.geometry import HPolytope, LinearMap, VPolytope

from helpers import (
    brute_force_facets,
    brute_force_vertices,
    clip_volume_and_moment,
    fraction_eliminate,
    fraction_incidence,
    mc_volume_estimate,
    random_rational_polytope,
    random_unimodular,
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
                assert h.contains(p)

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
            VPolytope(2, ((F(0), F(0)), (F(1), F(0)), (F(2), F(0))), ())

    def test_additivity_under_hyperplane_split(self):
        rng = random.Random(23)
        for _ in range(8):
            v = random_rational_polytope(rng, rng.randint(2, 3))
            total = geom.volume(v)
            normal = tuple(F(rng.randint(-2, 2)) for _ in range(v.dim))
            if all(x == 0 for x in normal):
                normal = tuple([F(1)] + [F(0)] * (v.dim - 1))
            cut = F(rng.randint(-1, 1), 2)
            vals = [geom.dot(normal, p) for p in v.vertices]
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
        v = geom.translate(scaled_simplex(3, a), (-1, -1, -1))
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
            moved = geom.translate(geom.transform(v, t), shift)
            expected = geom.vadd(t.apply(geom.barycenter(v)), shift)
            assert geom.barycenter(moved) == expected


class TestTransform:
    def test_identity(self):
        v = geom.enumerate_vertices(unit_cube(2))
        ident = LinearMap(((1, 0), (0, 1)))
        assert geom.transform(v, ident).vertices == v.vertices

    def test_doubling_volume(self):
        v = geom.enumerate_vertices(unit_cube(2))
        t = LinearMap(((2, 0), (0, 2)))
        assert t.determinant == 4
        assert geom.volume(geom.transform(v, t)) == 4 * geom.volume(v)

    def test_determinant_is_computed_not_given(self):
        with pytest.raises(TypeError):
            LinearMap(((1,),), determinant=5)

    def test_det2_map_onto_simplex_difference_normal_form(self):
        # P(O+O(2)) moment polytope maps with determinant 2 onto (5D-1)\(D-1),
        # the po-o2 preset body that test_sx_optimizer compares with it
        t = presets.PO_O2_NORMAL_FORM
        assert t.determinant == 2
        po = geom.enumerate_vertices(presets.po_o2_polytope())
        assert geom.volume(geom.transform(po, t)) == 2 * geom.volume(po)

    def test_singular_map_rejected(self):
        v = geom.enumerate_vertices(unit_cube(2))
        with pytest.raises(SingularMap):
            geom.transform(v, LinearMap(((1, 1), (2, 2))))

    def test_volume_invariance_unimodular_and_translation(self):
        rng = random.Random(43)
        for _ in range(8):
            v = random_rational_polytope(rng, rng.randint(2, 4))
            t = random_unimodular(rng, v.dim)
            shift = tuple(F(rng.randint(-3, 3)) for _ in range(v.dim))
            assert abs(t.determinant) == 1
            moved = geom.translate(geom.transform(v, t), shift)
            assert geom.volume(moved) == geom.volume(v)

    def test_volume_scales_by_det(self):
        rng = random.Random(47)
        for _ in range(5):
            v = random_rational_polytope(rng, 3)
            rows = [[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            t = LinearMap(tuple(tuple(r) for r in rows))
            if t.determinant == 0:
                continue
            assert geom.volume(geom.transform(v, t)) == abs(t.determinant) * geom.volume(v)


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
        expect = geom.translate(scaled_simplex(3, 4 - w), (-1, -1, -1))
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
    vertices and its rows the vertices over one denominator."""
    assert (v.vertices, v.facets, v.masks) == fraction_incidence(points, inequalities)
    assert v.facets == geom.facets_from_points(v.dim, v.vertices)
    assert [tuple(F(x, r[-1]) for x in r[:-1]) for r in v.rows] == list(v.vertices)


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
        assert_incidence(v, pts, geom.facets_from_points(dim, pts))
        # a redundant inequality and a repeated one must not become facets
        loose = geom.Facet(v.facets[0].normal, v.facets[0].offset + 1)
        h = HPolytope(dim, v.facets + (loose, v.facets[-1]))
        again = geom.enumerate_vertices(h)
        assert again == v
        assert_incidence(again, brute_force_vertices(h)[0], h.facets)
        rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                                  min_size=dim, max_size=dim))
        t = LinearMap(tuple(tuple(r) for r in rows))
        if t.determinant != 0:
            image = geom.transform(v, t)
            assert_facets_invariant(image)
            moved = [t.apply(p) for p in v.vertices]
            assert_incidence(image, moved, brute_force_facets(dim, moved))
        shift = data.draw(st.lists(st.fractions(-2, 2, max_denominator=4),
                                   min_size=dim, max_size=dim))
        shifted = geom.translate(v, shift)
        assert_facets_invariant(shifted)
        moved = [geom.vadd(p, shift) for p in v.vertices]
        assert_incidence(shifted, moved, brute_force_facets(dim, moved))
        normal = data.draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
                           .filter(any))
        vals = sorted(geom.dot(normal, p) for p in v.vertices)
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
        w = VPolytope(3, v.vertices, v.facets)
        object.__setattr__(w, "rows", ())
        object.__setattr__(w, "masks", ())
        assert w == v and hash(w) == hash(v) and repr(w) == repr(v)
        assert "masks" not in repr(v) and "rows" not in repr(v)


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
            moved = geom.translate(geom.transform(v, t), shift)
            assert geom.volume(moved) == vol
            assert geom.barycenter(moved) == geom.vadd(t.apply(bary), shift)


def cross_polytope(n):
    """|x_1| + ... + |x_n| <= 1: every vertex lies on 2^(n-1) facets."""
    signs = itertools.product((1, -1), repeat=n)
    return HPolytope(n, tuple((s, 1) for s in signs))


SQUARE_PYRAMID = HPolytope(3, (((0, 0, 1), 0), ((1, 0, -1), 1), ((-1, 0, -1), 1),
                               ((0, 1, -1), 1), ((0, -1, -1), 1)))


def four_cube_images():
    rng = random.Random(61)
    cube = geom.enumerate_vertices(unit_cube(4))
    images = [geom.transform(cube, random_unimodular(rng, 4)) for _ in range(3)]
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
        assert geom.facets_from_points(3, pts) == facets
        v = VPolytope.from_points(3, pts)
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
    v = geom.transform(seeded_cloud(n), random_unimodular(random.Random(80 + n), n))
    return geom.translate(v, [F(k + 1, p) for k, p in zip(range(n), (3, 7, 11, 13, 17))])


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
        v = geom.enumerate_vertices(h)
        dets = []
        bareiss = geom._bareiss
        monkeypatch.setattr(geom, "_bareiss", lambda m: dets.append(1) or bareiss(m))
        geom.volume_and_moment(v)
        assert len(dets) == geom._pulling((1 << len(v.vertices)) - 1, v.masks, {})

    def test_simplex_budget(self, monkeypatch):
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
        levels = sorted({geom.dot(u, p) for p in v.vertices})
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
    "4-cube-image": geom.transform(geom.enumerate_vertices(unit_cube(4)),
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
        levels = sorted({geom.dot(u, p) for p in v.vertices})
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
            s = geom.dot(u, mom)
            # the cut-off as an integer pair, not necessarily reduced
            k = data.draw(st.integers(1, 3), label="scale")
            assert family.moment_sign(k * c.numerator, k * c.denominator) == (s > 0) - (s < 0)

    @pytest.mark.parametrize("name", sorted(NON_SIMPLE_BODIES))
    def test_every_slab_along_the_ones_vector(self, name, monkeypatch):
        v = NON_SIMPLE_BODIES[name]
        u = (1,) * v.dim
        levels = sorted({geom.dot(u, p) for p in v.vertices})
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
    levels = sorted({geom.dot(u, p) for p in v.vertices})
    family = geom.clip_family(v, u)
    for lo, hi in zip([levels[0] - 1, *levels], [*levels, levels[-1] + 1]):
        for c in (lo, lo + (hi - lo) / 3, hi - (hi - lo) / 7):
            vol, mom = clip_volume_and_moment(v, u, c)
            assert family(c) == (vol, mom)
            s = geom.dot(u, mom)
            assert family.moment_sign(c.numerator, c.denominator) == (s > 0) - (s < 0)


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
        moved = geom.translate(v, [shift * x for x in u])
        levels = [geom.dot(u, p) for p in moved.vertices]
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

        def spy(m):
            out = bareiss(m)
            ranks.append((len(m), len(out[0])))
            return out

        monkeypatch.setattr(geom, "_bareiss", spy)
        family = geom.clip_family(v, u)
        got = [(family(c), family.moment_sign(c.numerator, c.denominator)) for c in cs]
        monkeypatch.undo()
        assert any(rank < size for size, rank in ranks)
        for c, (values, sign) in zip(cs, got):
            vol, mom = clip_volume_and_moment(v, u, c)
            s = geom.dot(u, mom)
            assert (values, sign) == ((vol, mom), (s > 0) - (s < 0))

    def test_fraction_normal(self):
        v = geom.enumerate_vertices(presets.POLYTOPE_PRESETS["p3-blowup"]())
        normal, k = (F(1, 2), F(-2, 3), F(3, 4)), 12
        family, scaled = geom.clip_family(v, normal), geom.clip_family(v, [k * x for x in normal])
        levels = sorted({geom.dot(normal, p) for p in v.vertices})
        for lo, hi in zip([levels[0] - 1, *levels], [*levels, levels[-1] + 1]):
            for c in (lo, (lo + hi) / 2, hi - (hi - lo) / 5):
                assert family(c) == scaled(k * c) == clip_volume_and_moment(v, normal, c)
                p, q = c.numerator, c.denominator
                assert family.moment_sign(p, q) == scaled.moment_sign(k * p, q)

    def test_oversized_slab_type(self, monkeypatch):
        v, u = NON_SIMPLE_BODIES["4-cross-polytope"], (1, 1, 1, 1)
        monkeypatch.setattr(geom, "MAX_SIMPLICES", 1)
        with pytest.raises(OutOfRange, match="more than the 1 ") as refused:
            geom.clip_family(v, u)(0)
        count = int(refused.value.args[0].split(" has ")[1].split()[0])
        monkeypatch.setattr(geom, "MAX_SIMPLICES", count - 1)
        with pytest.raises(OutOfRange, match=f"has {count} simplices"):
            geom.clip_family(v, u).moment_sign(0, 1)
        monkeypatch.setattr(geom, "MAX_SIMPLICES", count)
        assert geom.clip_family(v, u)(0) == clip_volume_and_moment(v, u, 0)

    def test_fit_and_sign_build_no_fraction(self, monkeypatch):
        v = geom.enumerate_vertices(presets.po_o2_polytope())
        u = geom.primitive_int_vector(geom.volume_and_moment(v)[1])
        levels = sorted({geom.dot(u, p) for p in v.vertices})
        cs = [levels[1] + (levels[2] - levels[1]) * F(j, 8) for j in range(1, 8)]
        pairs = [c.as_integer_ratio() for c in cs]
        family = geom.clip_family(v, u)
        geom._inverse_vandermonde.cache_clear()
        new, built = F.__new__, []
        monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
        F(1, 2)   # the spy sees a Fraction built
        assert len(built) == 1
        signs = [family.moment_sign(p, q) for p, q in pairs]
        assert len(built) == 1
        monkeypatch.undo()
        for c, sign in zip(cs, signs):
            s = geom.dot(u, clip_volume_and_moment(v, u, c)[1])
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
    """The fraction-free elimination returns exactly what Gauss-Jordan over
    Fractions returns: the same reduced rows, pivots and determinant."""

    @pytest.mark.parametrize("rows, cols", [(4, 4), (3, 6), (6, 3), (1, 5)],
                             ids=["square", "wide", "tall", "one-row"])
    @pytest.mark.parametrize("kind", ["full", "rank-deficient", "zero-row"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_gauss_jordan(self, rows, cols, kind, data):
        m = data.draw(_rational_matrix(rows, cols, kind))
        got = geom._eliminate(m)
        assert got == fraction_eliminate(m)
        assert all(type(x) is F for r in got[0] for x in r) and type(got[2]) is F

    def test_empty_input(self):
        assert geom._eliminate([]) == fraction_eliminate([]) == ([], [], 1)


class TestConstructorsCheckTheirInput:
    @pytest.mark.parametrize("build, error", [
        (lambda: VPolytope.from_points(2, [(0, 0), (1, 0), (0, 1, 1)]), DimensionMismatch),
        (lambda: VPolytope.from_points(True, [(0,), (1,)]), DimensionMismatch),
        (lambda: VPolytope.from_points(2, [(0, 0), (1, 1), (2, 2)]), DegeneratePolytope),
        (lambda: VPolytope(2, ((0, 0), (1, 0), (0, 1, 0)), ()), DimensionMismatch),
        (lambda: HPolytope(2, (((1, 0, 0), 1), ((-1, 0), 1))), DimensionMismatch),
        (lambda: HPolytope(0, ()), DimensionMismatch),
        (lambda: HPolytope("2", (((1, 0), 1),)), DimensionMismatch),
        (lambda: HPolytope(2, (((0, 0), 1),)), OutOfRange),
        (lambda: geom.make_facet((), 1), OutOfRange),
        (lambda: LinearMap(((1, 0), (0, 1, 0))), DimensionMismatch),
        (lambda: LinearMap(()), DimensionMismatch),
    ], ids=["cloud-mixed-lengths", "cloud-dim-bool", "cloud-flat", "vertex-wrong-length",
            "normal-wrong-length", "dim-zero", "dim-string", "normal-zero", "normal-empty",
            "map-not-square", "map-empty"])
    def test_typed_error(self, build, error):
        with pytest.raises(error):
            build()
        assert issubclass(error, InputError)

    def test_cloud_lengths_checked_before_double_description(self, monkeypatch):
        monkeypatch.setattr(geom, "facets_from_points", None)   # a call would fail
        with pytest.raises(DimensionMismatch):
            VPolytope.from_points(2, [(0, 0), (1, 0), (0, 1, 1)])

    def test_wrong_length_cut_is_not_an_empty_intersection(self):
        v = geom.enumerate_vertices(presets.pn_polytope(3))
        with pytest.raises(DimensionMismatch):
            geom.intersect_halfspace(v, (1, 1), 0)

    def test_full_dimensionality_checked_once_per_value(self, monkeypatch):
        v = geom.enumerate_vertices(unit_cube(3))
        calls = []
        original = geom._affine_rank
        monkeypatch.setattr(geom, "_affine_rank", lambda pts: calls.append(1) or original(pts))
        geom.volume_and_moment(v)
        assert calls == []
        clip_volume_and_moment(v, (1, 1, 1), F(17, 11))   # not a cached clip
        assert len(calls) == 1
