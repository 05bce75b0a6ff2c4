"""K-semistability of hyperplane arrangements on P^n.

Hyperplanes are abstract indices; every criterion here depends only on the
weight vector.  The semistability test, degrees and the stability polytope
are exact rational; the height bound is the only floating-point output.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    InvalidDegree,
    InvalidWeight,
    NotFano,
    NotSemistable,
    NumericalError,
    OutOfRange,
)
from .toric_heights import Convention, HeightReport, _log_fraction, _to_float, pn_family_height


@dataclass(frozen=True)
class WeightVector:
    """Weights w_1..w_m of m distinct hyperplanes on P^n, each in [0, 1)."""

    n: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if type(self.n) is not int or self.n < 1:
            raise OutOfRange("n must be a positive integer")
        if not ws:
            raise InvalidWeight("need at least one hyperplane")
        for w in ws:
            if not 0 <= w < 1:
                raise InvalidWeight(f"weight {w} outside [0, 1)")

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))


def is_arrangement_semistable(w: WeightVector) -> bool:
    """w_i <= (1/(n+1)) sum_j w_j for every i (exact rational test)."""
    bound = Fraction(w.total(), w.n + 1)
    return all(wi <= bound for wi in w.weights)


def arrangement_degree(w: WeightVector) -> Fraction:
    """(-(K + Delta))^n = (n+1 - sum w_i)^n, degree convention."""
    s = w.total()
    if s >= w.n + 1:
        raise NotFano("weight sum >= n+1: the pair is not log Fano")
    return (Fraction(w.n + 1) - s) ** w.n


@dataclass(frozen=True)
class StabilityPolytope:
    """Semistable weight vectors of fixed degree D on m hyperplanes.

    Empty iff m < n+1; otherwise the vertices put C/(n+1) on each of an
    (n+1)-subset of indices (C = n+1 - D^{1/n}) and 0 elsewhere, listed in
    lexicographic subset order.
    """

    n: int
    m: int
    target_degree: Fraction
    c_value: Fraction | float
    c_exact: bool
    vertices: tuple[WeightVector, ...]


def _nth_root_exact(x: Fraction, n: int) -> Fraction | None:
    def iroot(v: int) -> int | None:
        # integer Newton iteration from above: floor(v^(1/n)), no floats
        if v.bit_length() <= n:   # v < 2^n, so only 0 and 1 are nth powers
            return v if v < 2 else None
        r = 1 << -(-v.bit_length() // n)
        while r > 1:
            s = ((n - 1) * r + v // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
        return r if r**n == v else None

    p, q = iroot(x.numerator), iroot(x.denominator)
    if p is None or q is None:
        return None
    return Fraction(p, q)


# most vertices stability_polytope lists; all C(m, n+1) of them are held at once
MAX_STABILITY_VERTICES = 10**5


def stability_polytope(n: int, m: int, degree) -> StabilityPolytope:
    """The stability polytope of degree D on m hyperplanes of P^n; raises
    OutOfRange when n < 1, m < 0 or it has more than MAX_STABILITY_VERTICES
    vertices.

    The exact branch needs no check of its first vertex.  root = d^(1/n)
    lies in (0, n+1], as 0 < d <= (n+1)^n, so the level C/(n+1) lies in
    [0, 1).  The n+1 equal weights sum to C < n+1, none exceeds the mean
    C/(n+1), and the degree is (n+1 - C)^n = root^n = d."""
    if n < 1:
        raise OutOfRange("n must be a positive integer")
    if m < 0:
        raise OutOfRange("m must be a nonnegative integer")
    d = Fraction(degree)
    # d <= (n+1)^n in logarithms, n capped as in universal_height_bound; the power is
    # formed only when the two logarithms lie within 1 of each other
    gap = min(n, 2**53) * math.log(n + 1) - _log_fraction(d) if d > 0 else -math.inf
    if not (gap > 1 or (gap >= -1 and d <= (n + 1) ** n)):
        raise InvalidDegree("degree must lie in (0, (n+1)^n]")
    root = _nth_root_exact(d, n)
    if root is not None:
        c: Fraction | float = Fraction(n + 1) - root
        exact = True
    else:
        # through logarithms, since float(d) overflows past the double range;
        # C > 0 exactly, so a rounding below zero is clamped; an n past it is refused
        log_d = _log_fraction(d)
        root = math.exp(log_d / _to_float(n))
        c = max(0.0, (n + 1) - root)
        exact = False
    if m < n + 1:
        return StabilityPolytope(n, m, d, c, exact, ())
    count = math.comb(m, n + 1)
    if count > MAX_STABILITY_VERTICES:
        raise OutOfRange(f"the stability polytope has C({m}, {n + 1}) = {count} vertices, "
                         f"more than the {MAX_STABILITY_VERTICES} this enumeration lists")
    level = c / (n + 1)
    weight, zero = Fraction(level), Fraction(0)
    if not exact:
        # Irrational C: carried in floats, degree checked in logarithms.  To
        # first order in u = 2^-53, with k = n + 1, L = log_d and R = exp(L/n): L/n
        # and exp give root a relative error of (2 + |L|/n)u; k - root, / k
        # and the recursive sum of k copies of the level ((k - 1)u, Higham
        # 2002, Sec. 4.2) move k * level by (k + 1)uC more; the subtraction
        # from k adds u.  So rest = R(1 + eta) with |eta| <= e = (3 + |L|/n)u
        # + (k + 1)uC/R, n log(rest) - L = n log(1 + eta) lies within n e, and
        # the log and the product by n add 3u|L|.  The bound is doubled for
        # second-order terms.  rest <= 0: the float level cannot carry d.
        rest = (n + 1) - sum((level,) * (n + 1))
        tol = 2.0**-52 * (3 * n + 4 * abs(log_d) + n * (n + 2) * c / root)
        if not rest > 0 or abs(n * math.log(rest) - log_d) > tol:
            raise NumericalError(f"vertex {tuple(range(n + 1))} misses degree {d}")
    first = WeightVector(n, (weight,) * (n + 1) + (zero,) * (m - n - 1))
    # every other vertex permutes the weights of the first one, so only it is checked
    verts = [first]
    for subset in itertools.islice(itertools.combinations(range(m), n + 1), 1, None):
        v = object.__new__(WeightVector)   # __post_init__ skipped
        object.__setattr__(v, "n", n)
        object.__setattr__(v, "weights", tuple(weight if i in subset else zero for i in range(m)))
        verts.append(v)
    return StabilityPolytope(n, m, d, c, exact, tuple(verts))


def arrangement_height_bound(w: WeightVector) -> HeightReport:
    """Explicit height bound for a K-semistable arrangement:

        h / (n+1)! <= (1/2) v log( (n+1)^n e^{2 a_n} / (n! v) ),

    with v the polytope-volume convention arrangement_degree(w)/n!: the P^n
    divisor family at equal degree, so equal to pn_height at w = 0.
    """
    if not is_arrangement_semistable(w):
        raise NotSemistable("weights fail the semistability inequality")
    return pn_family_height(w.n, arrangement_degree(w) / math.factorial(w.n),
                            Convention.BOUND_ON_HEIGHT, "arrangement_bound")


@dataclass(frozen=True)
class ToricReduction:
    """The toric comparison point for a semistable arrangement.

    t satisfies (-(K + (1-t) D_0))^n = arrangement_degree(w); the
    certificate expresses w as an exact convex combination of stability
    polytope vertices (support subset, coefficient)."""

    t: Fraction
    degree: Fraction
    decomposition: tuple[tuple[tuple[int, ...], Fraction], ...]


def hypersimplex_decomposition(
    mu: Sequence[Fraction], k: int
) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Write mu in the hypersimplex {0 <= mu_i <= 1, sum = k} as an exact
    convex combination of 0/1 vectors with k ones (greedy peeling).

    The peeling runs in integers: mu = u/p over one common denominator p,
    and peeling theta = t/p off a support S leaves (u - t 1_S)/(p - t).  So
    with p0 the first p, that part's coefficient is t/p0, and the last
    part's is p/p0.

    No failure path is needed.  A peel keeps 0 <= u_i <= p and sum(u) = k p,
    so while one is pending some u_i in S (the k largest) is below p, none in
    S is 0 and none off S is p: m > k and 0 < t < p.  Each peel pins the entry
    t is read from at 0 (off S) or p (in S) for good, and while one is pending
    two entries are unpinned (p divides sum(u)): at most m - 1 peels."""
    mu = [Fraction(x) for x in mu]
    m = len(mu)
    if sum(mu) != k or not all(0 <= x <= 1 for x in mu):
        raise OutOfRange(f"{[str(x) for x in mu]} is not in the hypersimplex of sum {k}")
    p0 = p = math.lcm(*(x.denominator for x in mu))
    u = [x.numerator * (p // x.denominator) for x in mu]
    parts: list[tuple[tuple[int, ...], Fraction]] = []
    while True:
        order = sorted(range(m), key=lambda i: (-u[i], i))
        support = tuple(sorted(order[:k]))
        if all(u[i] == p for i in support) and all(u[i] == 0 for i in order[k:]):
            parts.append((support, Fraction(p, p0)))
            return tuple(parts)
        t = min(u[order[k - 1]], p - u[order[k]])    # min over S, p - max off S
        parts.append((support, Fraction(t, p0)))
        u = [ui - t if i in support else ui for i, ui in enumerate(u)]
        p -= t


def reduce_to_toric(w: WeightVector) -> ToricReduction:
    """t with matching degree, plus the convex-combination certificate."""
    if not is_arrangement_semistable(w):
        raise NotSemistable("weights fail the semistability inequality")
    degree = arrangement_degree(w)
    c = w.total()
    t = 1 - Fraction(c, w.n + 1)
    if c == 0:
        return ToricReduction(t, degree, ())
    mu = [wi * (w.n + 1) / c for wi in w.weights]
    decomposition = hypersimplex_decomposition(mu, w.n + 1)
    return ToricReduction(t, degree, decomposition)
