"""Shared test oracles: Gauss-Jordan elimination over ``Fraction``,
brute-force exact H->V and V->H conversion, the vertex-facet incidence by
``Fraction`` dots, an exact clip per cut-off and the ``Fraction`` bisection
of S(X) over it, Monte Carlo volume estimation, random polytope and
unimodular-matrix generation, the closed-form barycenter of a simplex
difference, and a floating-point half-space clipper used to sample candidate
cuts independently of the exact kernel."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from fanokit import geometry as geom
from fanokit.errors import DegeneratePolytope, EmptyIntersection, UnboundedPolytope


def fraction_eliminate(rows):
    """Reference for ``geometry._eliminate``: Gauss-Jordan over Q with a
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


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _kernel_vector(rows, ncols):
    """A spanning vector of the kernel when the nullity is exactly 1."""
    m, pivots, _ = geom._eliminate(rows)
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
        b = geom.dot(prim, comb[0])
        sides = {(geom.dot(prim, p) > b) - (geom.dot(prim, p) < b) for p in pts}
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
    if len(geom._eliminate(normals)[1]) < n:
        raise UnboundedPolytope("facet normals do not span the space")
    for comb in itertools.combinations(normals, n - 1):
        d = _kernel_vector(comb, n)
        if d is None:
            continue
        for cand in (d, tuple(-x for x in d)):
            if all(geom.dot(f.normal, cand) >= 0 for f in h.facets):
                raise UnboundedPolytope("recession direction exists")
    verts = set()
    for comb in itertools.combinations(h.facets, n):
        m, pivots, _ = geom._eliminate([f.normal + (-f.offset,) for f in comb])
        if pivots == list(range(n)):
            p = tuple(row[n] for row in m)
            if h.contains(p):
                verts.add(p)
    if not verts:
        raise DegeneratePolytope("empty feasible set")
    out = tuple(sorted(verts))
    if len(geom._eliminate([_sub(p, out[0]) for p in out])[1]) < n:
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
    tight = [{f for f in ineqs if geom.dot(f.normal, p) == -f.offset} for p in pts]
    verts = [p for i, p in enumerate(pts)
             if not any(j != i and tight[i] <= u for j, u in enumerate(tight))]
    on = [frozenset(i for i, p in enumerate(verts) if geom.dot(f.normal, p) == -f.offset)
          for f in ineqs]
    facets = [k for k, t in enumerate(on) if t and not any(t < u for u in on)]
    return (tuple(verts), tuple(ineqs[k] for k in facets),
            tuple(sum(1 << i for i in on[k]) for k in facets))


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
    lo, hi = Fraction(0), max(geom.dot(u, p) for p in v.vertices)
    while hi - lo > Fraction(1, 2**50):
        mid = (lo + hi) / 2
        if geom.dot(u, clip_volume_and_moment(v, u, mid)[1]) < 0:
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


def simplex_difference_barycenter(sd):
    """Closed-form barycenter of a ``SimplexDifference``, proportional to
    the all-ones vector:

        ( a^n/n! (a/(n+1) - 1) - b^n/n! (b/(n+1) - 1) ) / (a^n/n! - b^n/n!).
    """
    a, b, n = sd.a, sd.b, sd.n
    num = a**n * (a / (n + 1) - 1) - b**n * (b / (n + 1) - 1)
    return (num / (a**n - b**n),) * n


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


def random_unimodular(rng: random.Random, dim: int, steps: int = 10) -> geom.LinearMap:
    m = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
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
    return geom.LinearMap(tuple(tuple(r) for r in m))


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
        vol = 0.0
        moment = np.zeros(self.dim)
        for simplex in hull.simplices:
            corners = cloud[simplex]
            mat = corners - center
            tetra = abs(np.linalg.det(mat)) / math.factorial(self.dim)
            vol += tetra
            moment += tetra * (corners.sum(axis=0) + center) / (self.dim + 1)
        return vol, moment
