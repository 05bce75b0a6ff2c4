import math
import random
import time
from fractions import Fraction as F

import pytest

from fanokit import geometry as geom
from fanokit import presets
from fanokit import toric_heights as th
from fanokit.errors import (
    NonpositiveVolume,
    NotAnticanonical,
    NotSemistable,
    OutOfRange,
)
from fanokit.geometry import HPolytope
from fanokit.toric_heights import GapVerdict, ToricLogFano

from helpers import (
    boundary_points,
    fraction_eliminate,
    fraction_sum_pn_height,
    gl2z_normal_form,
    image,
    lattice_subpolygons,
    random_unimodular,
    simplex_difference,
)


class TestSemistability:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pn_is_semistable(self, n):
        assert th.is_k_semistable(ToricLogFano(presets.pn_polytope(n)))

    def test_shifted_simplex(self):
        # a*Delta_3 - 1 has barycenter (a/4 - 1) 1: zero only at a = 4
        assert th.is_k_semistable(ToricLogFano(simplex_difference(4, 0)))
        shrunk = HPolytope(3, (((1, 0, 0), F(9, 10)), ((0, 1, 0), F(9, 10)),
                               ((0, 0, 1), F(9, 10)), ((-1, -1, -1), F(3, 5))))
        assert not th.is_k_semistable(ToricLogFano(shrunk))

    def test_blowup_polytope_not_semistable(self):
        assert not th.is_k_semistable(ToricLogFano(presets.p3_blowup_polytope()))

    def test_invariance_under_unimodular_change(self):
        rng = random.Random(5)
        t = ToricLogFano(presets.p3_blowup_polytope())
        degree = th.log_fano_degree(t)
        for _ in range(5):
            u = random_unimodular(rng, 3)
            moved = ToricLogFano(image(t.polytope, u))
            assert th.is_k_semistable(moved) == th.is_k_semistable(t)
            assert th.log_fano_degree(moved) == degree
            dets = sorted(d for _, d in moved.polytope.cones)
            assert dets == sorted(d for _, d in t.polytope.cones)


class TestVolumes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pn_degree(self, n):
        t = ToricLogFano(presets.pn_polytope(n))
        assert th.log_fano_degree(t) == (n + 1) ** n
        assert geom.volume(t.polytope) * math.factorial(n) == th.log_fano_degree(t)

    @pytest.mark.parametrize("n,expect", [(2, 8), (3, 54), (4, 512)])
    def test_product_degree(self, n, expect):
        degree = th.log_fano_degree(ToricLogFano(presets.pn_times_p1_polytope(n)))
        assert degree == 2 * n**n == expect

    def test_benchmark_degrees(self):
        assert th.log_fano_degree(ToricLogFano(presets.p3_blowup_polytope())) == 56
        assert th.log_fano_degree(ToricLogFano(presets.po_o2_polytope())) == 62


class TestSingularities:
    def test_pn_smooth(self):
        cones = ToricLogFano(presets.pn_polytope(3)).polytope.cones
        assert all(len(tight) == 3 and d == 1 for tight, d in cones)

    def test_weighted_p112(self):
        cones = ToricLogFano(presets.weighted_p112_polytope()).polytope.cones
        assert sorted(d for _, d in cones) == [1, 1, 2]

    def test_p1xp1_smooth(self):
        cones = ToricLogFano(presets.p1xp1_polytope()).polytope.cones
        assert all(d == 1 for _, d in cones)

    def test_is_smooth_predicate(self):
        assert th.is_smooth(ToricLogFano(presets.pn_polytope(2)))
        assert not th.is_smooth(ToricLogFano(presets.weighted_p112_polytope()))

    @pytest.mark.parametrize("name", [*sorted(presets.POLYTOPE_PRESETS), "weighted-p112",
                                      "cross-3", "p2-mod-mu3"])
    def test_determinants_equal_linear_map(self, name):
        """The integer determinants of the vertex cones and of the P^n test are
        those of Gauss-Jordan over ``Fraction`` on the same normals, on each
        body and two unimodular images of it.  P^2/mu_3 has normals summing
        to zero but every vertex cone of |det| 3, so it is not P^2."""
        h = {"weighted-p112": presets.weighted_p112_polytope,
             "cross-3": lambda: HPolytope(3, tuple(((a, b, c), 1) for a in (1, -1)
                                                   for b in (1, -1) for c in (1, -1))),
             "p2-mod-mu3": lambda: HPolytope(2, (((1, 1), 1), ((1, -2), 1), ((-2, 1), 1))),
             **presets.POLYTOPE_PRESETS}[name]()
        v, rng = geom.enumerate_vertices(h), random.Random(26)
        for body in [v, *(image(v, random_unimodular(rng, v.dim)) for _ in range(2))]:
            for tight, d in ToricLogFano(body).polytope.cones:
                normals = [body.facets[k].normal for k in tight]
                simple = len(tight) == body.dim
                assert d == (abs(fraction_eliminate(normals)[2]) if simple else None)
            normals, n = [f.normal for f in body.facets], body.dim
            assert th.is_pn_polytope(body) == (
                len(normals) == n + 1 and not any(map(sum, zip(*normals)))
                and abs(fraction_eliminate(normals[:n])[2]) == 1)


class TestGorenstein:
    def test_pn(self):
        assert th.is_gorenstein(ToricLogFano(presets.pn_polytope(4)))

    def test_weighted_p112_is_reflexive(self):
        # vertices (-1,-1), (-1,1), (3,-1): all integral
        assert th.is_gorenstein(ToricLogFano(presets.weighted_p112_polytope()))

    def test_weighted_p113_is_not(self):
        # vertex (-1, 2/3) is non-integral
        t = ToricLogFano(presets.weighted_p113_polytope())
        assert (F(-1), F(2, 3)) in t.polytope.vertices
        assert not th.is_gorenstein(t)

    def test_requires_anticanonical(self):
        with pytest.raises(NotAnticanonical):
            th.is_gorenstein(ToricLogFano(presets.weighted_p112_centered()))

    def test_matches_the_all_integral_rule_on_seeded_polars(self):
        # the polar {<p, x> >= -1 : p a vertex of Q} of a lattice polytope Q around
        # the origin with primitive vertices: anticanonical, and integral iff reflexive
        rng, answers = random.Random(4242), []
        for n in (2, 3) * 100:
            units = [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
            cloud = units + [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)]
            q = geom.VPolytope.from_points(n, cloud)
            if any(math.gcd(*map(int, p)) != 1 for p in q.vertices):
                continue
            t = ToricLogFano(HPolytope(n, tuple((tuple(map(int, p)), 1) for p in q.vertices)))
            answers.append(th.is_gorenstein(t))
            assert answers[-1] == all(x.denominator == 1 for p in t.polytope.vertices for x in p)
        assert len(answers) >= 40 and 0 < sum(answers) < len(answers)


class TestReflexivePolygons:
    """The 16 reflexive polygons, each up to GL(2, Z) a lattice subpolygon of
    the P^2, P^1 x P^1 or P(1,1,2) polygon, against the known classification:
    the boundary points of P and of its polar make 12 (Poonen and
    Rodriguez-Villegas, Amer. Math. Monthly 107, 2000), and with one interior
    lattice point Pick's theorem gives 2 vol = the boundary count."""

    @pytest.fixture(scope="class")
    def classes(self):
        out = {}
        for h in (presets.pn_polytope(2), presets.p1xp1_polytope(),
                  presets.weighted_p112_polytope()):
            for p in lattice_subpolygons(geom.enumerate_vertices(h)):
                out.setdefault(gl2z_normal_form(p), p)
        return out

    def test_sixteen_classes_and_their_degrees(self, classes):
        assert len(classes) == 16
        assert all(f.offset == 1 for p in classes.values() for f in p.facets)
        assert sorted(2 * geom.volume(p) for p in classes.values()) == [
            3, 4, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 8, 8, 8, 9]

    def test_polar_and_the_twelve_identity(self, classes):
        def polar(p):
            return geom.VPolytope.from_points(2, [f.normal for f in p.facets])

        for form, p in classes.items():
            assert gl2z_normal_form(polar(p)) in classes
            assert gl2z_normal_form(polar(polar(p))) == form
            assert boundary_points(p) + boundary_points(polar(p)) == 12
            assert 2 * geom.volume(p) == boundary_points(p)

    def test_toric_predicates(self, classes):
        pairs = [ToricLogFano(p) for p in classes.values()]
        assert sorted(2 * geom.volume(t.polytope) for t in pairs if th.is_smooth(t)) == [
            6, 7, 8, 8, 9]
        assert all(th.is_gorenstein(t) for t in pairs)
        assert all(x.denominator == 1 for t in pairs for p in t.polytope.vertices for x in p)
        # five are centred: P^2, and four that meet the volume gap
        centred = sorted((2 * geom.volume(t.polytope), th.gap_check(t).verdict)
                         for t in pairs if th.is_k_semistable(t))
        assert centred == [(3, GapVerdict.SATISFIES_GAP), (4, GapVerdict.SATISFIES_GAP),
                           (6, GapVerdict.SATISFIES_GAP), (8, GapVerdict.SATISFIES_GAP),
                           (9, GapVerdict.IS_PN)]

    def test_unimodular_images_keep_the_class(self, classes):
        rng = random.Random(13)
        for form, p in classes.items():
            moved = image(p, random_unimodular(rng, 2))
            assert gl2z_normal_form(moved) == form
            assert geom.volume(moved) == geom.volume(p)
            assert th.is_smooth(ToricLogFano(moved)) == th.is_smooth(ToricLogFano(p))


class TestPnHeight:
    def test_n1_closed_form(self):
        rep = th.pn_height(1)
        assert rep.value == pytest.approx(2 * (1 + math.log(math.pi)), abs=1e-12)
        assert rep.abs_error < 1e-12

    def test_n2_closed_form(self):
        expect = 13.5 * (2.5 + math.log(math.pi**2 / 2))
        assert th.pn_height(2).value == pytest.approx(expect, abs=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(OutOfRange):
            th.pn_height(0)

    def test_integer_harmonic_sum_matches_the_fraction_sum(self):
        for n in range(1, 142):
            got, ref = th.pn_height(n), fraction_sum_pn_height(n)
            assert (got.value.hex(), got.abs_error.hex()) == \
                (ref.value.hex(), ref.abs_error.hex()), n
            assert got == ref

    @pytest.mark.parametrize("n", [0, 142, 143])
    def test_refusals_match_the_fraction_sum(self, n):
        with pytest.raises(OutOfRange) as got:
            th.pn_height(n)
        with pytest.raises(OutOfRange) as ref:
            fraction_sum_pn_height(n)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("value, error", [(math.inf, 1.0), (1.0, math.inf),
                                              (math.nan, 1.0), (1.0, math.nan)])
    def test_report_refuses_a_non_finite_height(self, value, error):
        with pytest.raises(OutOfRange, match="double-precision range"):
            th.HeightReport(value, th.Convention.RAW_HEIGHT, "pn_fubini_study", error)


class TestAnConstant:
    def test_values(self):
        assert th.a_n_constant(1) == pytest.approx((1 + math.log(math.pi)) / 2, abs=1e-12)
        assert th.a_n_constant(2) == pytest.approx(th.pn_height(2).value / 27, abs=1e-12)

    def test_two_a_n_at_least_one(self):
        for n in range(1, 11):
            assert 2 * th.a_n_constant(n) >= 1


class TestUniversalBound:
    def test_p1_value(self):
        rep = th.universal_height_bound(1, F(2))
        assert rep.value == pytest.approx(2 * math.log(math.pi**2), abs=1e-10)
        assert th.pn_height(1).value <= rep.value

    def test_zero_at_saturating_volume(self):
        # v = (2 pi^2)^n makes the logarithm vanish; approximate v rationally
        n = 2
        v = F.from_float((2 * math.pi**2) ** n)
        rep = th.universal_height_bound(n, v)
        assert abs(rep.value) < 1e-8

    def test_monotone_below_threshold(self):
        n = 2
        cap = (2 * math.pi**2) ** n / math.e
        vols = [F(k, 7) for k in range(1, int(7 * cap))][::9]
        vals = [th.universal_height_bound(n, v).value for v in vols]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_sandwich_over_pn(self):
        for n in range(1, 7):
            v = F((n + 1) ** n, math.factorial(n))
            bound = th.universal_height_bound(n, v)
            assert th.pn_height(n).value <= bound.value

    def test_rejects_nonpositive_volume(self):
        with pytest.raises(NonpositiveVolume):
            th.universal_height_bound(2, F(0))

    def test_refuses_a_lead_beyond_doubles_before_the_factorial(self):
        # n! alone takes seconds at n = 10^6
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="double-precision range"):
            th.universal_height_bound(10**6, F(1))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("v", [F(0), F(-3, 2)])
    def test_refuses_a_nonpositive_volume_before_the_factorial(self, v):
        start = time.perf_counter()
        with pytest.raises(NonpositiveVolume, match="anticanonical volume must be positive"):
            th.universal_height_bound(10**6, v)
        assert time.perf_counter() - start < 1

    def test_bound_refuses_a_lead_beyond_doubles_before_the_factorial(self):
        # also before n * log(2 pi^2), a float product that overflows at n = 10^400
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="double-precision range"):
            th.universal_height_bound(10**400, F(1))
        assert time.perf_counter() - start < 1


class TestScaledDivisorHeight:
    def test_t_one_equals_pn(self):
        for n in (1, 2, 3):
            assert th.scaled_divisor_height(n, 1).value == pytest.approx(
                th.pn_height(n).value, rel=1e-14)

    def test_small_t_limit(self):
        assert abs(th.scaled_divisor_height(2, F(1, 10**4)).value) < 1e-4

    def test_n1_half(self):
        a1 = th.a_n_constant(1)
        expect = 2 * (a1 + 0.5 * math.log(2))
        assert th.scaled_divisor_height(1, F(1, 2)).value == pytest.approx(
            expect, abs=1e-12)

    def test_strictly_increasing(self):
        for n in range(1, 7):
            grid = [F(k, 100) for k in range(1, 101)]
            vals = [th.scaled_divisor_height(n, t).value for t in grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_below_universal_bound_at_same_volume(self):
        for n in range(1, 7):
            for t in (F(1, 10), F(1, 2), F(9, 10), F(1)):
                v = t**n * F((n + 1) ** n, math.factorial(n))
                bound = th.universal_height_bound(n, v)
                assert th.scaled_divisor_height(n, t).value <= bound.value + 1e-9

    def test_range_check(self):
        with pytest.raises(OutOfRange):
            th.scaled_divisor_height(2, F(0))
        with pytest.raises(OutOfRange):
            th.scaled_divisor_height(2, F(3, 2))


class TestToricFamilyHeight:
    """The P^n divisor family, (n+1)!/2 v log(v_0 e^{2 a_n} / v)."""

    RAW = th.Convention.RAW_HEIGHT

    def test_v_equals_b(self):
        # at v = v_0 the logarithm is 2 a_n alone
        for n in range(1, 5):
            v0 = th.pn_poly_volume(n)
            rep = th.pn_family_height(n, v0, self.RAW, "family")
            assert rep.value == pytest.approx(
                math.factorial(n + 1) * float(v0) * th.a_n_constant(n), rel=1e-13)
            assert rep.formula == "family" and rep.convention is self.RAW

    def test_matches_scaled_divisor(self):
        rng = random.Random(3)
        for n in (1, 2, 3):
            v0 = th.pn_poly_volume(n)
            for _ in range(5):
                t = F(rng.randint(1, 99), 100)
                fam = th.pn_family_height(n, t**n * v0, self.RAW, "scaled_divisor_family")
                assert fam == th.scaled_divisor_height(n, t)

    def test_n1_example(self):
        a1 = th.a_n_constant(1)
        rep = th.pn_family_height(1, F(1), self.RAW, "family")
        assert rep.value == pytest.approx(math.log(2 * math.exp(2 * a1)), abs=1e-12)
        assert rep.value == pytest.approx(
            th.scaled_divisor_height(1, F(1, 2)).value, rel=1e-12)

    def test_anchor_identity(self):
        for n in range(1, 7):
            fam = th.pn_family_height(n, th.pn_poly_volume(n), self.RAW, "family")
            assert fam.value == pytest.approx(th.pn_height(n).value, rel=1e-13)

    def test_answers_at_every_n_pn_height_answers(self):
        # no range check before the lead: it is at most (n+1)^{n+1}/2 < DBL_MAX
        for n in range(1, 142):
            fam = th.pn_family_height(n, th.pn_poly_volume(n), self.RAW, "family")
            assert fam.value == pytest.approx(th.pn_height(n).value, rel=1e-13), n
        with pytest.raises(OutOfRange, match="double-precision range"):
            th.pn_family_height(142, th.pn_poly_volume(142), self.RAW, "family")

    def test_range(self):
        for n in (1, 2, 5):
            v0 = th.pn_poly_volume(n)
            for v in (v0 + F(1, 10**6), 2 * v0, F(0), -v0):
                with pytest.raises(OutOfRange):
                    th.pn_family_height(n, v, self.RAW, "family")
        with pytest.raises(OutOfRange):
            th.pn_family_height(0, F(1, 2), self.RAW, "family")


class TestGapCheck:
    def test_pn_detected(self):
        rep = th.gap_check(ToricLogFano(presets.pn_polytope(3)))
        assert rep.verdict is GapVerdict.IS_PN

    def test_pn_detected_after_unimodular_change(self):
        rng = random.Random(17)
        u = random_unimodular(rng, 3)
        moved = image(geom.enumerate_vertices(presets.pn_polytope(3)), u)
        assert th.gap_check(ToricLogFano(moved)).verdict is GapVerdict.IS_PN

    def test_products_satisfy_gap(self):
        for h in (presets.p1xp1_polytope(), presets.pn_times_p1_polytope(3)):
            rep = th.gap_check(ToricLogFano(h))
            assert rep.verdict is GapVerdict.SATISFIES_GAP
            assert rep.poly_volume <= rep.gap_threshold
            assert not rep.singular

    def test_hexagonal_del_pezzo(self):
        rep = th.gap_check(ToricLogFano(presets.p2_blowup_polytope(3)))
        assert rep.verdict is GapVerdict.SATISFIES_GAP
        assert rep.poly_volume == 3

    def test_singular_certificate(self):
        # centered log structure on P(1,1,2): offsets (1, 1/2, 1), area 9/4,
        # exactly the singular certificate bound (1/2) 3^2 / 2!
        t = ToricLogFano(presets.weighted_p112_centered())
        rep = th.gap_check(t)
        assert rep.verdict is GapVerdict.SATISFIES_GAP
        assert rep.singular
        assert rep.poly_volume == F(9, 4)
        assert rep.certificate_bound == F(9, 4)
        assert rep.certificate_holds

    def test_certificate_below_gap_bound(self):
        # (1/2)(n+1)^n/n! <= 2 n^n/n! for all n >= 1
        for n in range(1, 11):
            assert F((n + 1) ** n, 2) <= 2 * F(n**n)

    def test_requires_semistable(self):
        with pytest.raises(NotSemistable):
            th.gap_check(ToricLogFano(presets.p3_blowup_polytope()))

    def test_repeated_facet_is_one_facet(self):
        # x_1 >= -1 listed twice is still P^3: four facets, four smooth vertices
        h = presets.pn_polytope(3)
        t = ToricLogFano(HPolytope(3, h.facets + h.facets[:1]))
        rep = th.gap_check(t)
        assert rep.verdict is GapVerdict.IS_PN
        assert not rep.singular
        assert [d for _, d in t.polytope.cones] == [1, 1, 1, 1]


class TestToricLogFanoValidation:
    def test_offsets_must_lie_in_unit_interval(self):
        with pytest.raises(OutOfRange):
            ToricLogFano(HPolytope(2, (((1, 0), 2), ((0, 1), 1), ((-1, -1), 1))))
        with pytest.raises(OutOfRange):
            ToricLogFano(HPolytope(2, (((1, 0), 0), ((0, 1), 1), ((-1, -1), 1))))

    def test_redundant_inequality_offset_is_checked(self):
        # x + y >= -5 is no facet of the triangle, but it is still checked
        with pytest.raises(OutOfRange):
            ToricLogFano(HPolytope(2, (((1, 0), 1), ((0, 1), 1), ((-1, -1), 1),
                                       ((1, 1), 5))))

    def test_offsets_of_a_vertex_polytope_are_checked(self):
        cloud = geom.VPolytope.from_points(2, [(-1, -1), (3, -1), (-1, 3)])
        with pytest.raises(OutOfRange):
            ToricLogFano(cloud)

    def test_polytope_is_enumerated_once(self, monkeypatch):
        original = geom.enumerate_vertices
        calls = []

        def spy(h):
            calls.append(h)
            return original(h)

        monkeypatch.setattr(geom, "enumerate_vertices", spy)
        t = ToricLogFano(presets.pn_polytope(3))
        assert isinstance(t.polytope, geom.VPolytope)
        th.is_k_semistable(t)
        th.log_fano_degree(t)
        th.is_smooth(t)
        th.is_gorenstein(t)
        th.gap_check(t)
        assert len(calls) == 1

    def test_vertex_polytope_is_kept(self):
        v = geom.enumerate_vertices(presets.pn_polytope(2))
        assert ToricLogFano(v).polytope is v
