import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanokit import arrangements as arr
from fanokit import toric_heights as th
from fanokit.arrangements import WeightVector
from fanokit.errors import InvalidDegree, InvalidWeight, NotFano, NotSemistable, OutOfRange

from helpers import brute_force_full_weight_condition, fraction_peel


def rational_degree(rng: random.Random, n: int) -> F:
    """A degree whose n-th root is rational, so stability polytopes stay exact."""
    root = F(rng.randint(1, 4 * (n + 1)), 4)
    return root**n


def random_semistable(rng: random.Random, n: int, m: int) -> WeightVector:
    """Random rational point of a stability polytope (mix of its vertices)."""
    degree = rational_degree(rng, n)
    sp = arr.stability_polytope(n, m, degree)
    coeffs = [F(rng.randint(0, 8)) for _ in sp.vertices]
    total = sum(coeffs)
    if total == 0:
        coeffs[0] = F(1)
        total = F(1)
    weights = [F(0)] * m
    for c, v in zip(coeffs, sp.vertices):
        for i, w in enumerate(v.weights):
            weights[i] += c * w / total
    return WeightVector(n, tuple(weights))


class TestSemistabilityTest:
    def test_zero_weights(self):
        for m in (1, 3, 5):
            assert arr.is_arrangement_semistable(WeightVector(2, (F(0),) * m))

    def test_three_halves_on_p1(self):
        assert arr.is_arrangement_semistable(WeightVector(1, (F(1, 2),) * 3))

    def test_unbalanced_rejected(self):
        assert not arr.is_arrangement_semistable(
            WeightVector(1, (F(2, 3), F(1, 4), F(0))))

    def test_weight_validation(self):
        with pytest.raises(InvalidWeight):
            WeightVector(1, (F(1), F(1, 2)))
        with pytest.raises(InvalidWeight):
            WeightVector(1, (F(-1, 2),))

    def test_matches_full_criterion(self):
        rng = random.Random(101)
        for _ in range(50):
            n = rng.randint(1, 3)
            m = rng.randint(1, 6)
            w = WeightVector(
                n, tuple(F(rng.randint(0, 9), 10) for _ in range(m)))
            assert arr.is_arrangement_semistable(w) == brute_force_full_weight_condition(w)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5),
           st.lists(st.fractions(min_value=0, max_value=F(11, 12), max_denominator=12),
                    min_size=1, max_size=8))
    def test_prefix_sums_agree_with_every_subset(self, n, ws):
        # the single-weight test bounds every top-k sum by k sum_j w_j / (n+1)
        w = WeightVector(n, tuple(ws))
        assert arr.is_arrangement_semistable(w) == brute_force_full_weight_condition(w)

    def test_permutation_invariance(self):
        rng = random.Random(59)
        for _ in range(20):
            n = rng.randint(1, 3)
            ws = tuple(F(rng.randint(0, 9), 12) for _ in range(4))
            w = WeightVector(n, ws)
            for perm in itertools.permutations(ws):
                assert arr.is_arrangement_semistable(
                    WeightVector(n, perm)) == arr.is_arrangement_semistable(w)
                if sum(ws) < n + 1:
                    assert arr.arrangement_degree(
                        WeightVector(n, perm)) == arr.arrangement_degree(w)


class TestDegree:
    def test_zero_weights(self):
        for n in (1, 2, 3):
            assert arr.arrangement_degree(
                WeightVector(n, (F(0),) * 3)) == (n + 1) ** n

    def test_four_halves_on_p2(self):
        assert arr.arrangement_degree(WeightVector(2, (F(1, 2),) * 4)) == 1

    def test_not_fano(self):
        with pytest.raises(NotFano):
            arr.arrangement_degree(WeightVector(1, (F(2, 3),) * 3))


class TestStabilityPolytope:
    def test_p1_three_lines_degree_one(self):
        sp = arr.stability_polytope(1, 3, 1)
        assert sp.c_value == 1 and sp.c_exact
        assert len(sp.vertices) == 3
        expect = {
            (F(1, 2), F(1, 2), F(0)),
            (F(1, 2), F(0), F(1, 2)),
            (F(0), F(1, 2), F(1, 2)),
        }
        assert {v.weights for v in sp.vertices} == expect
        for v in sp.vertices:
            assert arr.is_arrangement_semistable(v)
            assert arr.arrangement_degree(v) == 1

    def test_empty_when_too_few_hyperplanes(self):
        assert not arr.stability_polytope(2, 2, 4).vertices
        assert not arr.stability_polytope(3, 3, 10).vertices

    def test_single_vertex_when_m_equals_n_plus_one(self):
        sp = arr.stability_polytope(2, 3, 1)
        assert len(sp.vertices) == 1
        (v,) = sp.vertices
        assert len(set(v.weights)) == 1

    def test_vertex_count_is_m_choose_n_plus_one(self):
        for n, m in ((1, 4), (2, 5), (3, 6)):
            sp = arr.stability_polytope(n, m, 1)
            assert len(sp.vertices) == math.comb(m, n + 1)

    def test_lexicographic_subset_order(self):
        sp = arr.stability_polytope(1, 4, 1)
        supports = [tuple(i for i, w in enumerate(v.weights) if w > 0)
                    for v in sp.vertices]
        assert supports == sorted(supports)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_first_vertex_is_semistable_of_the_degree(self, n):
        # every rational root k/4 in (0, n+1]: the vertex the exact branch
        # no longer checks has weight sum C < n+1, is semistable and has degree d
        for k in range(1, 4 * (n + 1) + 1):
            d = F(k, 4) ** n
            sp = arr.stability_polytope(n, n + 2, d)
            assert sp.c_exact and 0 <= sp.c_value < n + 1, (n, d)
            first = sp.vertices[0]
            assert first.weights[:n + 1] == (sp.c_value / (n + 1),) * (n + 1)
            assert first.total() == sp.c_value
            assert arr.is_arrangement_semistable(first), (n, d)
            assert arr.arrangement_degree(first) == d, (n, d)

    def test_irrational_root_branch(self):
        sp = arr.stability_polytope(2, 4, 2)
        assert not sp.c_exact
        assert sp.c_value == pytest.approx(3 - math.sqrt(2), abs=1e-12)
        assert len(sp.vertices) == 4

    def test_degree_beyond_double_range(self):
        # 151^150 - 1 is no perfect 150th power and overflows float()
        sp = arr.stability_polytope(150, 2, 151**150 - 1)
        assert not sp.c_exact
        assert abs(sp.c_value) <= 1e-12

    def test_oversized_vertex_count_refused(self):
        # C(40, 11) ~ 2.3e9 vertices; refused before any is built
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="C\\(40, 11\\)"):
            arr.stability_polytope(10, 40, 1)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n, m", [(0, 3), (-1, 3), (1, -1)],
                             ids=["n-0", "n-negative", "m-negative"])
    def test_invalid_dimension_or_count(self, n, m):
        # refused before the n-th root or the degree range is computed
        with pytest.raises(OutOfRange, match="n must be a positive|m must be a nonnegative"):
            arr.stability_polytope(n, m, 1)

    def test_invalid_degree(self):
        with pytest.raises(InvalidDegree):
            arr.stability_polytope(2, 4, 0)
        with pytest.raises(InvalidDegree):
            arr.stability_polytope(2, 4, 10)

    def test_degree_range_edge(self):
        # the logarithms of d and (n+1)^n agree here, so the exact power decides
        assert arr.stability_polytope(2, 4, 9).c_value == 0
        with pytest.raises(InvalidDegree, match=r"degree must lie in \(0, \(n\+1\)\^n\]"):
            arr.stability_polytope(2, 4, 9 + F(1, 10**30))


class TestHeightBound:
    def test_equality_at_zero_weights(self):
        for n in (1, 2, 3):
            got = arr.arrangement_height_bound(WeightVector(n, (F(0),) * (n + 2)))
            assert got.value == pytest.approx(th.pn_height(n).value, rel=1e-13)

    def test_matches_scaled_divisor_on_toric_weights(self):
        rng = random.Random(71)
        for n in (1, 2, 3):
            for _ in range(5):
                t = F(rng.randint(1, 99), 100)
                w = WeightVector(n, ((1 - t),) * (n + 1))
                got = arr.arrangement_height_bound(w)
                expect = th.scaled_divisor_height(n, t)
                assert got.value == pytest.approx(expect.value, rel=1e-12)

    def test_below_pn_for_smaller_volume(self):
        rng = random.Random(83)
        count = 0
        while count < 30:
            n = rng.randint(1, 3)
            w = random_semistable(rng, n, rng.randint(n + 1, 6))
            if arr.arrangement_degree(w) == (n + 1) ** n:
                continue
            count += 1
            assert arr.arrangement_height_bound(w).value < th.pn_height(n).value

    def test_requires_semistable(self):
        with pytest.raises(NotSemistable):
            arr.arrangement_height_bound(WeightVector(1, (F(2, 3), F(1, 4), F(0))))

    def test_answers_at_n_142_below_the_double_range(self):
        # degree (1/2)^142: a small bound, though pn_height(142) leaves the double range
        w = WeightVector(142, (F(285, 4000),) * 2000)
        assert arr.arrangement_height_bound(w).value == pytest.approx(1.346983745e-38, rel=1e-9)

    @pytest.mark.parametrize("n", [200000, 10**6])
    def test_refuses_a_large_n_before_the_degree(self, n):
        # the degree (n+1)^n alone takes about 0.6 s at n = 200000, 10 s at 10^6
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="double-precision range"):
            arr.arrangement_height_bound(WeightVector(n, (F(0),)))
        assert time.perf_counter() - start < 1

    def test_refusal_order_semistable_fano_range(self):
        # n = 143 is past the family's range; the other two refusals come first
        with pytest.raises(NotSemistable):
            arr.arrangement_height_bound(WeightVector(143, (F(1, 2),)))
        with pytest.raises(NotFano):
            arr.arrangement_height_bound(WeightVector(143, (F(24, 25),) * 150))
        with pytest.raises(OutOfRange, match="double-precision range"):
            arr.arrangement_height_bound(WeightVector(143, (F(24, 25),) * 149))


class TestReduceToToric:
    def test_zero_weights(self):
        red = arr.reduce_to_toric(WeightVector(2, (F(0),) * 4))
        assert red.t == 1

    def test_p1_half_weights(self):
        red = arr.reduce_to_toric(WeightVector(1, (F(1, 2),) * 3))
        assert red.degree == F(1, 2)
        assert red.t == F(1, 4)

    def test_vertex_weights_reduce_consistently(self):
        sp = arr.stability_polytope(2, 5, F(9, 4))
        for v in sp.vertices:
            red = arr.reduce_to_toric(v)
            assert red.t == 1 - sp.c_value / 3

    def test_decomposition_reconstructs_exactly(self):
        rng = random.Random(97)
        for _ in range(30):
            n = rng.randint(1, 3)
            m = rng.randint(n + 1, 6)
            w = random_semistable(rng, n, m)
            red = arr.reduce_to_toric(w)
            c = w.total()
            coeff_sum = sum(coef for _, coef in red.decomposition)
            if c == 0:
                assert red.t == 1
                continue
            assert coeff_sum == 1
            rebuilt = [F(0)] * m
            level = c / (n + 1)
            for support, coef in red.decomposition:
                assert len(support) == n + 1
                for i in support:
                    rebuilt[i] += coef * level
            assert tuple(rebuilt) == w.weights


    def test_decomposition_outside_the_hypersimplex(self):
        with pytest.raises(OutOfRange):
            arr.hypersimplex_decomposition([F(1, 2), F(1, 2)], 2)
        with pytest.raises(OutOfRange):
            arr.hypersimplex_decomposition([F(3, 2), F(1, 2), F(0)], 2)


class TestConvexity:
    def test_midpoints_and_rational_mixtures(self):
        rng = random.Random(131)
        for _ in range(40):
            n = rng.randint(1, 3)
            m = rng.randint(n + 1, 6)
            degree = rational_degree(rng, n)
            sp = arr.stability_polytope(n, m, degree)

            def sample():
                coeffs = [F(rng.randint(0, 5)) for _ in sp.vertices]
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
            lam = F(rng.randint(0, 8), 8)
            mix = WeightVector(
                n,
                tuple(lam * a + (1 - lam) * b
                      for a, b in zip(w1.weights, w2.weights)),
            )
            assert arr.is_arrangement_semistable(mix)
            assert arr.arrangement_degree(mix) == degree


class TestExactRoot:
    @pytest.mark.parametrize("x,n,root", [
        ((3**40 + 1) ** 3, 3, 3**40 + 1),     # a float cube root misses it
        (10**400, 2, 10**200),                # beyond the double range
        (F(8, 27), 3, F(2, 3)),
        (0, 4, 0),
        (2, 2, None),
        ((3**40 + 1) ** 3 + 1, 3, None),
    ])
    def test_nth_root_exact(self, x, n, root):
        assert arr._nth_root_exact(F(x), n) == root

    def test_huge_exact_cube_degree_is_exact(self):
        # the degree lies in (0, 4^3]; its cube root is rational, with a
        # numerator and denominator beyond double precision
        sp = arr.stability_polytope(3, 4, F((3**40 + 1) ** 3, 3**120))
        assert sp.c_exact


class TestWeightVectorValidation:
    @pytest.mark.parametrize("n", [F(3, 2), 1.5, True, "1", 0])
    def test_n_must_be_a_positive_int(self, n):
        with pytest.raises(OutOfRange, match="n must be a positive integer"):
            WeightVector(n, (F(1, 2),) * 3)

    def test_needs_a_hyperplane(self):
        with pytest.raises(InvalidWeight):
            WeightVector(1, ())


class TestIrrationalLevelCheck:
    # degrees with no exact n-th root: the float level is checked against the
    # rounding bound derived in stability_polytope; a fixed 1e-12 refused 77
    # of these pairs
    @pytest.mark.parametrize("degree", [F(2), F(3), F(7, 3), F(10, 9), F(5)],
                             ids=["2", "3", "7/3", "10/9", "5"])
    def test_valid_input_passes_up_to_n_60(self, degree):
        for n in range(1, 61):
            if degree <= (n + 1) ** n:
                sp = arr.stability_polytope(n, n + 1, degree)
                assert len(sp.vertices) == 1


def outcome(call):
    """What a call returns, or the class and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def hypersimplex_point(rng: random.Random, m: int, k: int) -> list[F]:
    """A random rational point of the hypersimplex {0 <= mu_i <= 1, sum = k}
    in R^m: a mixture of 0/1 vectors with k ones, sometimes nudged off it."""
    coeffs = [F(rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
    mu = [F(0)] * m
    for c in coeffs:
        for i in rng.sample(range(m), k):
            mu[i] += c / sum(coeffs)
    if rng.random() < 0.2:
        mu[rng.randrange(m)] += F(rng.choice([-1, 1]), rng.randint(1, 30))
    return mu


class TestIntegerPeel:
    """The peeling in integers against the same peeling in Fractions."""

    @staticmethod
    def check(mu, k):
        got = outcome(lambda: arr.hypersimplex_decomposition(mu, k))
        assert got == outcome(lambda: fraction_peel(mu, k)), (mu, k)
        if isinstance(got[0], type):
            return
        rebuilt = [F(0)] * len(mu)
        for support, c in got:
            assert len(support) == k and c > 0
            for i in support:
                rebuilt[i] += c
        assert rebuilt == [F(x) for x in mu]
        assert sum(c for _, c in got) == 1
        assert len(got) <= max(len(mu), 1)

    def test_seeded_points(self):
        rng = random.Random(34)
        for _ in range(2000):
            m = rng.randint(1, 7)
            self.check(hypersimplex_point(rng, m, rng.randint(0, m)), rng.randint(0, m))

    def test_seeded_points_of_the_right_sum(self):
        rng = random.Random(35)
        for _ in range(1000):
            m = rng.randint(1, 7)
            k = rng.randint(0, m)
            self.check(hypersimplex_point(rng, m, k), k)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(0, m), st.integers(0, 2**32))))
    def test_hypothesis_points(self, mk):
        m, k, seed = mk
        self.check(hypersimplex_point(random.Random(seed), m, k), k)

    def test_reduce_to_toric_on_random_weight_vectors(self, monkeypatch):
        rng = random.Random(36)
        vectors = []
        for _ in range(1000):
            n = rng.randint(1, 3)
            q = rng.choice([2, 3, 4, 6, 12, 35])
            vectors.append(WeightVector(n, tuple(F(rng.randrange(q), q)
                                                 for _ in range(rng.randint(1, 6)))))
        got = [outcome(lambda: arr.reduce_to_toric(w)) for w in vectors]
        monkeypatch.setattr(arr, "hypersimplex_decomposition", fraction_peel)
        assert got == [outcome(lambda: arr.reduce_to_toric(w)) for w in vectors]
        kinds = {type(r) if isinstance(r, arr.ToricReduction) else r[0] for r in got}
        assert kinds == {arr.ToricReduction, NotSemistable, NotFano}


class TestPeelAtScale:
    """The heap-kept peel against the sorting peel of the Fraction oracle on
    larger points with many ties, and on many weights within a second."""

    @staticmethod
    def tied_point(rng: random.Random, m: int, k: int) -> list[F]:
        # entries in steps of 1/den, most from three shared levels, pushed to sum k
        den = rng.choice([3, 5, 12, 60])
        levels = [F(rng.randint(0, den), den) for _ in range(3)]
        mu = [rng.choice(levels) if rng.random() < 0.6 else F(rng.randint(0, den), den)
              for _ in range(m)]
        while sum(mu) != k:
            i = rng.randrange(m)
            mu[i] = min(F(1), max(F(0), mu[i] + k - sum(mu)))
        return mu

    def test_seeded_tied_points(self):
        rng = random.Random(46)
        for _ in range(150):
            m = rng.randint(8, 40)
            k = rng.randint(1, m)
            TestIntegerPeel.check(self.tied_point(rng, m, k), k)

    def test_equal_weights(self):
        for m, k in [(200, 2), (301, 3), (150, 143)]:
            TestIntegerPeel.check([F(k, m)] * m, k)

    @pytest.mark.parametrize("n, m", [(1, 8000), (141, 8000)])
    def test_many_equal_weights_within_a_second(self, n, m):
        # a sort of all m entries per peel took 10.7 s for 8,000 weights at n = 1
        w = WeightVector(n, (F(n + F(1, 2), m),) * m)
        start = time.perf_counter()
        red = arr.reduce_to_toric(w)
        assert time.perf_counter() - start < 1.0
        assert sum(c for _, c in red.decomposition) == 1
        assert all(len(support) == n + 1 for support, _ in red.decomposition)


class TestUncheckedVertices:
    """stability_polytope checks its first vertex and builds the others,
    its permutations, without WeightVector's checks."""

    CASES = [(1, 3, 1), (2, 5, 4), (2, 4, 2), (3, 6, 10), (2, 2, 4), (3, 3, F(7, 3)),
             (1, 6, F(1, 9)), (3, 5, 64), (2, 6, F(81, 16))]

    @staticmethod
    def seeded_cases():
        rng = random.Random(37)
        cases = list(TestUncheckedVertices.CASES)
        for _ in range(40):
            n = rng.randint(1, 3)
            m = rng.randint(0, 7)
            d = rational_degree(rng, n) if rng.random() < 0.5 else \
                F(rng.randint(1, 9 * (n + 1) ** n), 9)
            cases.append((n, m, d))
        return cases

    def test_vertices_equal_checked_weight_vectors(self):
        branches = set()
        for n, m, d in self.seeded_cases():
            sp = arr.stability_polytope(n, m, d)
            branches.add((sp.c_exact, m < n + 1))
            supports = [tuple(i for i, w in enumerate(v.weights) if w) for v in sp.vertices]
            if sp.c_value:
                assert supports == list(itertools.combinations(range(m), n + 1))
            for v in sp.vertices:
                checked = WeightVector(n, v.weights)
                assert v == checked and hash(v) == hash(checked)
                assert all(type(w) is F for w in v.weights)
        assert branches == {(True, True), (True, False), (False, True), (False, False)}

    def test_at_most_two_checks_per_call(self, monkeypatch):
        calls = []
        original = WeightVector.__post_init__

        def spy(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(WeightVector, "__post_init__", spy)
        for n, m, d in self.seeded_cases():
            calls.clear()
            arr.stability_polytope(n, m, d)
            assert len(calls) <= 2, (n, m, d)
