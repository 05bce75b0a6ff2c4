"""Shared test oracles: ``Fraction`` vector arithmetic, linear maps on
points and the hull of a polytope's image under one, translation, the
sign of a clip family's moment at one cut-off, a record of the kernel's
eliminations, the double description with its start cone found in two
eliminations, Gauss-Jordan elimination
over ``Fraction``, volume and moment with every
pulling simplex eliminated from scratch, brute-force exact H->V and
V->H conversion, the vertex-facet incidence by ``Fraction`` dots and by
integer rows with one rank, an
exact clip per cut-off and the ``Fraction`` bisection of S(X) over it,
Monte Carlo volume estimation, random polytope and unimodular-matrix
generation, the simplex difference (a Delta_n - 1) \\
(b Delta_n - 1) and its closed-form barycenter, lattice subpolygons and a
GL(2, Z) normal form, a floating-point half-space clipper used to
sample candidate cuts independently of the exact kernel, the Hurwitz zeta
by an Euler-Maclaurin pass general in s, with its own Bernoulli numbers, the
three-point P^1 height in complex floats, the P^n
height with H_n summed term by term in ``Fraction``, and the
hypersimplex peeling in ``Fraction`` arithmetic."""
from __future__ import annotations

import cmath
import itertools
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from fanokit import geometry as geom
from fanokit import zeta
from fanokit.errors import (
    DegeneratePolytope,
    DomainError,
    EmptyIntersection,
    NumericalError,
    OutOfRange,
    UnboundedPolytope,
    ZeroVolume,
)
from fanokit.toric_heights import Convention, HeightReport, _check_pn_n, _ulp_error
from fanokit.zeta import ZetaValue


def dot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def vadd(u, v) -> tuple[Fraction, ...]:
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(u, v))


def apply(m, p) -> tuple[Fraction, ...]:
    """The image of the point p under the square matrix m, given by its rows."""
    return tuple(dot(row, p) for row in m)


def image(v: geom.VPolytope, m) -> geom.VPolytope:
    """The image of v under an invertible square matrix m: the hull of its
    mapped vertices."""
    return geom.VPolytope.from_points(v.dim, [apply(m, p) for p in v.vertices])


def translate(v: geom.VPolytope, shift) -> geom.VPolytope:
    """v moved by shift: the hull of its moved vertices."""
    return geom.VPolytope.from_points(v.dim, [vadd(p, shift) for p in v.vertices])


def spy_eliminations(monkeypatch) -> list[str]:
    """The eliminations of ``geometry`` from now on, in order: "rays" for each
    double description (``_extreme_rays``) and "bareiss" for each
    ``_bareiss`` run outside one."""
    calls, depth = [], [0]
    rays, bareiss = geom._extreme_rays, geom._bareiss

    def spy_rays(*args):
        calls.append("rays")
        depth[0] += 1
        try:
            return rays(*args)
        finally:
            depth[0] -= 1

    def spy_bareiss(*args, **kwargs):
        if not depth[0]:
            calls.append("bareiss")
        return bareiss(*args, **kwargs)

    monkeypatch.setattr(geom, "_extreme_rays", spy_rays)
    monkeypatch.setattr(geom, "_bareiss", spy_bareiss)
    return calls


def two_pass_extreme_rays(rows, d):
    """Reference for ``geometry._extreme_rays``: the basis is the pivot columns
    of a forward pass over the transpose, and the start rays the columns of
    det B^-1, from a second, Jordan pass over [B | I]; the rows are then
    added one at a time as there."""
    basis = geom._bareiss(list(zip(*rows)))[0]
    if len(basis) < d:
        raise DegeneratePolytope("inequalities or points do not span the space")
    aug = [list(rows[b]) + [int(i == j) for j in range(d)] for i, b in enumerate(basis)]
    o = 1 if geom._bareiss(aug, jordan=True)[2] > 0 else -1
    start = sum(1 << b for b in basis)
    rays = [(tuple(x // (o * math.gcd(*c)) for x in c), start & ~(1 << b))
            for c, b in zip(zip(*(r[d:] for r in aug)), basis)]
    for k, row in enumerate(rows):
        if start >> k & 1:
            continue
        s = [sum(map(operator.mul, row, y)) for y, _ in rays]
        plus, minus = [i for i, x in enumerate(s) if x > 0], [j for j, x in enumerate(s) if x < 0]
        tests = len(plus) * len(minus) * len(rays)
        if len(rays) > geom.MAX_RAYS or tests > geom.MAX_RAY_TESTS:
            raise OutOfRange(f"the double description holds {len(rays)} rays and would make "
                             f"{tests} ray tests, past its budget of {geom.MAX_RAYS} rays or "
                             f"{geom.MAX_RAY_TESTS} tests")
        new = [(y, t | 1 << k if x == 0 else t) for (y, t), x in zip(rays, s) if x >= 0]
        for i in plus:
            (yp, tp), sp = rays[i], s[i]
            for j in minus:
                common = tp & rays[j][1]
                if (common.bit_count() < d - 2
                        or any(t & common == common for c, (_, t) in enumerate(rays)
                               if c != i and c != j)):
                    continue
                y = [sp * b - s[j] * a for a, b in zip(yp, rays[j][0])]
                g = math.gcd(*y)
                new.append((tuple(a // g for a in y), common | 1 << k))
        rays = new
    return rays


def moment_sign(family: geom.ClipFamily, p: int, q: int) -> int:
    """Sign of the moment along the normal of ``family`` at the cut-off p/q,
    read off the integer column that ``ClipFamily.root`` reads."""
    y = family._horner(p, q, 1)[1][0]
    return (y > 0) - (y < 0)


def fraction_eliminate(rows):
    """Reference for ``geometry._bareiss``: Gauss-Jordan over Q with a
    ``Fraction`` division at every step.  Returns (reduced rows with unit
    pivots and zero rows last, pivot columns, determinant of a square input,
    0 when singular)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    det = Fraction(1)
    for col in range(len(m[0]) if m else 0):
        row = len(pivots)
        if row == len(m):
            break
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            det = -det
        inv = m[row][col]
        det *= inv
        # entries left of col are zero in the pivot row: update from col on
        pr = m[row][col:] = [a / inv for a in m[row][col:]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r][col:] = [a - f * b for a, b in zip(m[r][col:], pr)]
        pivots.append(col)
    return m, pivots, det if len(pivots) == len(m) else Fraction(0)


def per_simplex_volume_and_moment(v: geom.VPolytope):
    """Reference for ``VPolytope._integral``: over the simplices of the
    pulling triangulation, each eliminated from scratch by ``geometry._bareiss``,
    the sum of |det| of its rows (q p, q) and of that times its row sums."""
    n, rows, vol, mom = v.dim, v.rows, 0, [0] * v.dim
    for s in geom._pulling_simplices(v.masks):
        w = abs(geom._bareiss([rows[i] for i in s])[2])   # a simplex has full rank
        vol, mom = vol + w, [m + w * sum(c) for m, c in zip(mom, zip(*(rows[i] for i in s)))]
    f = math.factorial(n) * rows[0][n] ** (n + 1)
    return Fraction(vol, f), tuple(Fraction(m, (n + 1) * f * rows[0][n]) for m in mom)


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _kernel_vector(rows, ncols):
    """A spanning vector of the kernel when the nullity is exactly 1."""
    m, pivots, _ = fraction_eliminate(rows)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    x = [Fraction(0)] * ncols
    x[free[0]] = Fraction(1)
    for r, pc in enumerate(pivots):
        x[pc] = -m[r][free[0]]
    return tuple(x)


def brute_force_facets(dim, points):
    """Reference V->H: every dim-subset of points spanning a hyperplane with
    all points weakly on one side gives a facet; canonical and sorted."""
    pts = [geom.vec(p) for p in points]
    if dim == 1:
        xs = [p[0] for p in pts]
        return tuple(sorted((geom.make_facet((1,), -min(xs)), geom.make_facet((-1,), max(xs)))))
    seen = set()
    for comb in itertools.combinations(pts, dim):
        normal = _kernel_vector([_sub(p, comb[0]) for p in comb[1:]], dim)
        if normal is None:
            continue
        prim = geom.primitive_int_vector(normal)
        b = dot(prim, comb[0])
        sides = {(dot(prim, p) > b) - (dot(prim, p) < b) for p in pts}
        if sides >= {1, -1}:
            continue
        # orient inward: <l, p> >= -offset at every point
        seen.add(geom.Facet(prim, -b) if 1 in sides else geom.Facet(tuple(-a for a in prim), b))
    return tuple(sorted(seen))


def brute_force_vertices(h):
    """Reference H->V: recession search over (n-1)-subsets of normals, then
    every nonsingular n-subset of inequalities solved and kept when
    feasible.  Returns (sorted vertices, sorted facets of h)."""
    n = h.dim
    normals = [f.normal for f in h.facets]
    if len(fraction_eliminate(normals)[1]) < n:
        raise UnboundedPolytope("facet normals do not span the space")
    for comb in itertools.combinations(normals, n - 1):
        d = _kernel_vector(comb, n)
        if d is None:
            continue
        for cand in (d, tuple(-x for x in d)):
            if all(dot(f.normal, cand) >= 0 for f in h.facets):
                raise UnboundedPolytope("recession direction exists")
    verts = set()
    for comb in itertools.combinations(h.facets, n):
        m, pivots, _ = fraction_eliminate([f.normal + (-f.offset,) for f in comb])
        if pivots == list(range(n)):
            p = tuple(row[n] for row in m)
            if all(dot(f.normal, p) >= -f.offset for f in h.facets):
                verts.add(p)
    if not verts:
        raise DegeneratePolytope("empty feasible set")
    out = tuple(sorted(verts))
    if len(fraction_eliminate([_sub(p, out[0]) for p in out])[1]) < n:
        raise DegeneratePolytope("feasible set has empty interior")
    return out, brute_force_facets(n, out)


def fraction_incidence(points, inequalities):
    """Reference for the incidence a ``VPolytope`` decides, by ``Fraction``
    dots: <l, p> >= -a is tight on p iff dot(l, p) == -a, a point is a vertex
    iff no other point is tight on every inequality tight on it, and an
    inequality is a facet iff its vertex set is nonempty and in no other.
    Returns (sorted vertices, sorted facets, one vertex bit mask per facet)."""
    pts = sorted({geom.vec(p) for p in points})
    ineqs = sorted(set(inequalities))
    tight = [{f for f in ineqs if dot(f.normal, p) == -f.offset} for p in pts]
    verts = [p for i, p in enumerate(pts)
             if not any(j != i and tight[i] <= u for j, u in enumerate(tight))]
    on = [frozenset(i for i, p in enumerate(verts) if dot(f.normal, p) == -f.offset)
          for f in ineqs]
    facets = [k for k, t in enumerate(on) if t and not any(t < u for u in on)]
    return (tuple(verts), tuple(ineqs[k] for k in facets),
            tuple(sum(1 << i for i in on[k]) for k in facets))


def integer_incidence(dim, points, inequalities):
    """Reference for the ``VPolytope`` that ``from_points`` builds from a
    double description: each point p read as the integer row (q p, q), q > 0
    the common denominator of the cloud, so that <l, p> >= -a is tight on p
    iff <l, q p> den(a) == -num(a) q, tested per inequality; one rank of the
    rows, DegeneratePolytope when it is below dim + 1.  A point is kept iff
    no other point is tight on every inequality tight on it, an inequality
    iff its set of kept points is nonempty and maximal.  Returns (sorted
    vertices, sorted facets, the vertex rows over their least common
    denominator, one vertex bit mask per facet)."""
    pts = sorted({geom.vec(p) for p in points})
    q = math.lcm(*(x.denominator for p in pts for x in p))
    rows = [tuple(x.numerator * (q // x.denominator) for x in p) + (q,) for p in pts]
    if len(geom._bareiss([list(r) for r in rows])[0]) < dim + 1:
        raise DegeneratePolytope("polytope is not full-dimensional")
    ineqs = sorted(set(inequalities))
    on = [{i for i, r in enumerate(rows)
           if sum(map(operator.mul, f.normal, r)) * f.offset.denominator == -f.offset.numerator * q}
          for f in ineqs]
    tight = [{k for k, t in enumerate(on) if i in t} for i in range(len(rows))]
    keep = [i for i in range(len(rows))
            if not any(j != i and tight[i] <= u for j, u in enumerate(tight))]
    on = [frozenset(j for j, i in enumerate(keep) if i in t) for t in on]
    facets = [k for k, t in enumerate(on) if t and not any(t < u for u in on)]
    kept = [rows[i] for i in keep]
    g = math.gcd(*(x for r in kept for x in r))
    return (tuple(pts[i] for i in keep), tuple(ineqs[k] for k in facets),
            tuple(tuple(x // g for x in r) for r in kept),
            tuple(sum(1 << j for j in on[k]) for k in facets))


def clip_volume_and_moment(base, normal, cutoff):
    """Reference for ``geometry.clip_family``: (volume, moment) of base cut
    by <normal, x> <= cutoff from a clip of its own, zero when the cut
    leaves no interior."""
    try:
        return geom.volume_and_moment(geom.intersect_halfspace(base, normal, cutoff))
    except EmptyIntersection:
        return Fraction(0), (Fraction(0),) * base.dim


def fraction_bisection_cutoff(v):
    """Reference for the cut-off of ``sx_optimizer.sx_invariant`` on a
    VPolytope whose barycenter is not the origin: bisect [0, cmax] along
    u = the primitive barycenter direction while the bracket is wider than
    2^-50, reading the sign of <u, moment> off a ``Fraction`` clip at every
    step, and return the bracket's midpoint."""
    u = geom.primitive_int_vector(geom.volume_and_moment(v)[1])
    lo, hi = Fraction(0), max(dot(u, p) for p in v.vertices)
    while hi - lo > Fraction(1, 2**50):
        mid = (lo + hi) / 2
        if dot(u, clip_volume_and_moment(v, u, mid)[1]) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def brute_force_full_weight_condition(w):
    """Reference k-subset criterion: k sum_j w_j >= (n+1) sum_{j in S} w_j
    for every subset S of k <= n weights."""
    total = w.total()
    return all(k * total >= (w.n + 1) * sum(subset)
               for k in range(1, w.n + 1)
               for subset in itertools.combinations(w.weights, k))


def simplex_difference(a, b, n=3) -> geom.HPolytope:
    """The truncated simplex (a Delta_n - 1) \\ (b Delta_n - 1), 0 <= b < a:

        {x_i >= -1,  b - n <= sum x_i <= a - n},

    with no facet sum x_i >= -n at b = 0."""
    facets = [(tuple(int(i == j) for j in range(n)), 1) for i in range(n)]
    facets.append(((-1,) * n, Fraction(a) - n))
    if b > 0:
        facets.append(((1,) * n, n - Fraction(b)))
    return geom.HPolytope(n, tuple(facets))


def simplex_difference_barycenter(a, b, n=3):
    """Closed-form barycenter of ``simplex_difference(a, b, n)``, proportional
    to the all-ones vector:

        ( a^n/n! (a/(n+1) - 1) - b^n/n! (b/(n+1) - 1) ) / (a^n/n! - b^n/n!).
    """
    a, b = Fraction(a), Fraction(b)
    num = a**n * (a / (n + 1) - 1) - b**n * (b / (n + 1) - 1)
    return (num / (a**n - b**n),) * n


def _lattice_points(v: geom.VPolytope) -> list[tuple[int, int]]:
    (x0, y0), (x1, y1) = ([math.floor(min(c)) for c in zip(*v.vertices)],
                          [math.ceil(max(c)) for c in zip(*v.vertices)])
    return [(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)
            if all(dot(f.normal, (x, y)) >= -f.offset for f in v.facets)]


def lattice_subpolygons(v: geom.VPolytope) -> list[geom.VPolytope]:
    """Every lattice polygon inside the lattice polygon v with the origin in
    its interior, v included.  A proper lattice subpolygon of P misses some
    vertex p of P, so it lies in the hull of the lattice points of P but p:
    these hulls, taken again on each polygon found, reach them all."""
    found, todo = {v.vertices: v}, [v]
    while todo:
        p = todo.pop()
        points = _lattice_points(p)
        for corner in p.vertices:
            try:
                sub = geom.VPolytope.from_points(2, [q for q in points if q != corner])
            except DegeneratePolytope:
                continue
            if sub.vertices not in found and all(f.offset > 0 for f in sub.facets):
                found[sub.vertices] = sub
                todo.append(sub)
    return list(found.values())


def _hermite(cols: list[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of the rank-2 integer matrix with these
    columns: the one U M, U in GL(2, Z), in echelon form with positive
    pivots and the entry above the second pivot reduced modulo it."""
    r0, r1 = [c[0] for c in cols], [c[1] for c in cols]
    j = next(j for j, c in enumerate(cols) if any(c))
    a, b = r0[j], r1[j]
    g, s, t = _xgcd(a, b)
    # U = [[s, t], [-b/g, a/g]] has determinant 1 and sends column j to (g, 0)
    r0, r1 = [s * x + t * y for x, y in zip(r0, r1)], [(a * y - b * x) // g for x, y in zip(r0, r1)]
    k = next(k for k in range(j + 1, len(cols)) if r1[k])
    if r1[k] < 0:
        r1 = [-y for y in r1]
    q = r0[k] // r1[k]
    return tuple(x - q * y for x, y in zip(r0, r1)), tuple(r1)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b) > 0, for (a, b) != (0, 0)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s0, s1, t0, t1 = b, a - q * b, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def cyclic_vertices(v: geom.VPolytope) -> list[tuple[int, int]]:
    """The vertices of a lattice polygon with the origin inside, by angle."""
    return sorted(((int(x), int(y)) for x, y in v.vertices),
                  key=lambda p: math.atan2(p[1], p[0]))


def gl2z_normal_form(v: geom.VPolytope) -> tuple:
    """Equal for two lattice polygons with the origin inside iff a map in
    GL(2, Z) takes one onto the other: such a map takes the cyclic vertex
    sequence from some vertex, in some orientation, to the other's, and the
    least Hermite normal form over all of these is the class's."""
    cyc = cyclic_vertices(v)
    return min(_hermite(order[i:] + order[:i]) for order in (cyc, cyc[::-1])
               for i in range(len(cyc)))


def boundary_points(v: geom.VPolytope) -> int:
    """Lattice points on the boundary of a lattice polygon with the origin inside."""
    cyc = cyclic_vertices(v)
    return sum(math.gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(cyc, cyc[1:] + cyc[:1]))


def random_rational_polytope(rng: random.Random, dim: int,
                             lo: int = -12, hi: int = 12, den: int = 4):
    """Full-dimensional VPolytope with vertex coordinates in [lo/den, hi/den]."""
    while True:
        k = rng.randint(dim + 2, dim + 6)
        pts = [
            tuple(Fraction(rng.randint(lo, hi), den) for _ in range(dim))
            for _ in range(k)
        ]
        try:
            v = geom.VPolytope.from_points(dim, pts)
        except Exception:
            continue
        return v


def random_unimodular(rng: random.Random, dim: int,
                      steps: int = 10) -> tuple[tuple[int, ...], ...]:
    """An integer matrix of determinant +-1, as rows: the identity under
    ``steps`` random row additions, swaps and negations."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return tuple(tuple(r) for r in m)


def mc_volume_estimate(v: geom.VPolytope, n_samples: int,
                       seed: int) -> tuple[float, float]:
    """Rejection-sampling volume estimate and its standard error."""
    pts = np.array([[float(x) for x in p] for p in v.vertices])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    box = float(np.prod(hi - lo))
    a = np.array([[float(c) for c in f.normal] for f in v.facets])
    b = np.array([float(f.offset) for f in v.facets])
    rng = np.random.default_rng(seed)
    samples = rng.uniform(lo, hi, size=(n_samples, v.dim))
    inside = np.all(samples @ a.T >= -b - 1e-12, axis=1)
    p_hat = inside.mean()
    est = box * p_hat
    sigma = box * float(np.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n_samples))
    return est, sigma


def polytope_edges(v: geom.VPolytope) -> list[tuple[int, int]]:
    """Vertex adjacency: an edge when the shared tight facets have rank n-1."""
    tight = [{k for k, m in enumerate(v.masks) if m >> i & 1} for i in range(len(v.vertices))]
    edges = []
    for i, j in itertools.combinations(range(len(v.vertices)), 2):
        common = tight[i] & tight[j]
        if len(common) < v.dim - 1:
            continue
        rows = [v.facets[k].normal for k in common]
        if np.linalg.matrix_rank(np.array(rows, dtype=float)) == v.dim - 1:
            edges.append((i, j))
    return edges


class FloatClipper:
    """Clip a fixed convex polytope by moving half-spaces, in floats."""

    def __init__(self, v: geom.VPolytope):
        self.dim = v.dim
        self.pts = np.array([[float(x) for x in p] for p in v.vertices])
        self.edges = polytope_edges(v)

    def clip_vol_moment(self, u: np.ndarray, c: float) -> tuple[float, np.ndarray]:
        vals = self.pts @ u
        keep = vals <= c + 1e-14
        pieces = [self.pts[keep]]
        for i, j in self.edges:
            vi, vj = vals[i], vals[j]
            if (vi - c) * (vj - c) < 0:
                t = (c - vi) / (vj - vi)
                pieces.append((self.pts[i] + t * (self.pts[j] - self.pts[i]))[None, :])
        cloud = np.concatenate(pieces, axis=0)
        if len(cloud) <= self.dim:
            return 0.0, np.zeros(self.dim)
        try:
            hull = ConvexHull(cloud)
        except QhullError:
            return 0.0, np.zeros(self.dim)
        center = cloud[hull.vertices].mean(axis=0)
        # one cone from the center over each boundary simplex, all in one det call
        corners = cloud[hull.simplices]
        tetra = np.abs(np.linalg.det(corners - center)) / math.factorial(self.dim)
        moment = tetra @ (corners.sum(axis=1) + center) / (self.dim + 1)
        return float(tetra.sum()), moment


@lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2 convention)."""
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(m):
        acc += math.comb(m + 1, k) * bernoulli_number(k)
    return -acc / (m + 1)


class NonConvergence(NumericalError):
    """The Euler-Maclaurin tail bound stays above the target within 2^14 direct terms."""


def _rising_with_derivative(s: float, m: int) -> tuple[float, float]:
    """(P, dP/ds) for P = s (s+1) ... (s+m-1); safe at zeros of P."""
    p, dp = 1.0, 0.0
    for i in range(m):
        p, dp = p * (s + i), dp * (s + i) + p
    return p, dp


def per_call_hurwitz_zeta(s: float, x: float, target: float = 1e-12) -> ZetaValue:
    """Reference for ``zeta.hurwitz_zeta``, general in s: one Euler-Maclaurin
    pass with 8 Bernoulli corrections whose certified tail meets the target,
    which converts the Bernoulli numbers, forms the factorials and reruns
    each rising product on every call, and adds through a closure."""
    if not 0 < target < math.inf:
        raise OutOfRange("target must be positive and finite")
    if x < 0:
        raise DomainError("x must be nonnegative")
    if x == 0:
        x = 1.0
    s = float(s)    # finite and != 1
    try:
        x = float(x)
    except OverflowError:
        raise DomainError("x must be finite") from None
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    m, n = 8, 12
    tail_coeff = abs(float(bernoulli_number(2 * m + 2))) / math.factorial(2 * m + 2)
    p_tail, dp_tail = _rising_with_derivative(s, 2 * m + 1)
    while True:
        a = n + x
        la = math.log(a)
        pw_tail = a ** (-s - 2 * m - 1)
        err_z = tail_coeff * abs(p_tail) * pw_tail
        err_dz = 2 * tail_coeff * (abs(dp_tail) + abs(p_tail) * la) * pw_tail
        if max(err_z, err_dz) <= target or n >= 1 << 14:
            break
        n *= 2
    if max(err_z, err_dz) > target:
        raise NonConvergence("Euler-Maclaurin tail bound above target")

    z = dz = 0.0
    mag_z = mag_dz = 0.0

    def add(term_z: float, term_dz: float):
        nonlocal z, dz, mag_z, mag_dz
        z += term_z
        dz += term_dz
        mag_z += abs(term_z)
        mag_dz += abs(term_dz)

    for k in range(n):
        t = (k + x) ** (-s)
        lt = math.log(k + x)
        add(t, -lt * t)
    a = n + x
    la = math.log(a)
    t0 = a ** (1 - s) / (s - 1)
    add(t0, a ** (1 - s) * (-la / (s - 1) - 1 / (s - 1) ** 2))
    th = 0.5 * a ** (-s)
    add(th, -la * th)
    for j in range(1, m + 1):
        p, dp = _rising_with_derivative(s, 2 * j - 1)
        coeff = float(bernoulli_number(2 * j)) / math.factorial(2 * j)
        pw = a ** (-s - 2 * j + 1)
        add(coeff * p * pw, coeff * pw * (dp - p * la))
    eps = 2.0**-52
    return ZetaValue(z, dz, err_z + 8 * eps * mag_z, err_dz + 8 * eps * mag_dz)


def complex_p1_canonical_height(inp, target: float = 1e-12) -> HeightReport:
    """Reference for ``zeta.p1_canonical_height``: the same formula in complex
    floats, F continued below 0 through cmath's principal logarithm, with the
    domain decided by the size of the imaginary part that is left.  It charges
    each F 2t + 256 eps, the bound the height takes from a target of 5.5e-13 up."""
    v = float(inp.v)
    if v == 0:
        raise ZeroVolume("V = 2 - sum(w) must be nonzero")
    h = v / 2
    eps = 2.0**-52
    memo: dict[float, float] = {}

    def f(x: float) -> tuple[complex, float]:
        if x <= -1:
            raise DomainError("continuation implemented for x > -1 only")
        y = (x if x >= 0 else x + 1.0) or 1.0
        if y not in memo:
            z = zeta.hurwitz_zeta(y, target)
            memo[y] = z.value + z.derivative
        err = 2 * target + 256 * eps
        if x >= 0:
            return complex(memo[y]), err
        log_x = cmath.log(complex(x))
        return complex(memo[y]) + x - x * log_x, err + 8 * eps * abs(x) * (1 + abs(log_x))

    total = complex(0)
    err = 0.0
    for a, b in [(0.0, h)] + [(float(w), float(w) + h) for w in inp.weights]:
        (fb, e1), (f1b, e2), (fa, e3), (f1a, e4) = (f(x) for x in (b, 1 - b, a, 1 - a))
        total += (fb - fa) + (f1b - f1a)
        err += e1 + e2 + e3 + e4
    bracket = 0.5 * (1 + math.log(math.pi) - cmath.log(complex(h))) - total / v
    value_c = 2 * v * bracket
    abs_err = 2 * abs(v) * (err / abs(v) + 16 * eps * abs(bracket)) + 8 * eps * abs(value_c)
    if abs(value_c.imag) > max(1e-9, 100 * abs_err):
        raise DomainError(
            "height formula left its real-analytic domain "
            "(weights are far from K-semistable)"
        )
    branch = "fano" if v > 0 else "continuation"
    return HeightReport(value_c.real, Convention.RAW_HEIGHT,
                        f"p1_three_points_zeta[{branch}]", abs_err)


def fraction_sum_pn_height(n: int) -> HeightReport:
    """Reference for ``toric_heights.pn_height``: the same formula with H_n
    added as n ``Fraction`` terms, one reduction per term."""
    _check_pn_n(n)
    harmonic = sum(Fraction(1, k) for k in range(1, n + 1))
    lead = Fraction((n + 1) ** (n + 1), 2)
    rational_part = (n + 1) * harmonic - n
    log_part = n * math.log(math.pi) - math.log(math.factorial(n))
    lead_f = float(lead)
    value = lead_f * (float(rational_part) + log_part)
    err = _ulp_error(lead_f) * (abs(float(rational_part)) + abs(log_part))
    return HeightReport(value, Convention.RAW_HEIGHT, "pn_fubini_study", err)


def fraction_peel(mu, k):
    """Reference for ``arrangements.hypersimplex_decomposition``: the same
    greedy peeling with every coordinate and coefficient a ``Fraction``."""
    mu = [Fraction(x) for x in mu]
    m = len(mu)
    if sum(mu) != k or not all(0 <= x <= 1 for x in mu):
        raise OutOfRange(f"{[str(x) for x in mu]} is not in the hypersimplex of sum {k}")
    parts = []
    remaining = Fraction(1)
    for _ in range(m + 1):
        order = sorted(range(m), key=lambda i: (-mu[i], i))
        support = tuple(sorted(order[:k]))
        if all(mu[i] == 1 for i in support) and all(mu[i] == 0 for i in order[k:]):
            parts.append((support, remaining))
            return tuple(parts)
        theta = min(mu[i] for i in support)
        if m > k:
            theta = min(theta, 1 - max(mu[i] for i in order[k:]))
        if not 0 < theta < 1:
            raise NumericalError(f"peeling weight {theta} outside (0, 1)")
        parts.append((support, theta * remaining))
        mu = [(mu[i] - theta) / (1 - theta) if i in support else mu[i] / (1 - theta)
              for i in range(m)]
        remaining *= 1 - theta
    raise NumericalError("hypersimplex peeling failed to terminate")
