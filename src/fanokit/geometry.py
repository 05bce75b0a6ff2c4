"""Exact rational convex-polytope kernel.

Polytopes are full-dimensional and bounded, in small dimension.  All
coordinates are ``fractions.Fraction``; facet normals are primitive
integer vectors.  A half-space representation stores inequalities

    <normal, p> >= -offset

so that for a moment polytope of a toric log Fano pair the offset is the
log discrepancy coefficient of the corresponding facet divisor.

A ``VPolytope`` carries its vertices and its facets together.  Facets are
found once, by ``facets_from_points`` for a point cloud or by
``enumerate_vertices`` for an H-polytope, and every later operation
(transforms, translations, half-space cuts) carries them along instead of
hulling the vertices again.  Both conversions are one integer
double-description routine, ``_extreme_rays``, run on the homogenized
inequalities or points.  Volume and moment come from one pulling
triangulation, in every dimension, read off the vertex-facet incidence of
the vertices scaled to integers.  All Gaussian elimination goes through one
fraction-free routine, ``_eliminate``, which works over the integers and
divides once at the end; the slab polynomials of ``clip_family`` are
integers over one denominator as well.

Every operation is a pure function on immutable values; nothing here
touches floating point.  Each value checks its own input when it is built
and raises an ``errors.InputError`` subclass.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    DegeneratePolytope,
    DimensionMismatch,
    EmptyIntersection,
    OutOfRange,
    SingularMap,
    UnboundedPolytope,
)

Vec = tuple[Fraction, ...]
_ZERO, _ONE = Fraction(0), Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs: Iterable) -> Vec:
    return tuple(_frac(x) for x in xs)


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((_frac(a) * _frac(b) for a, b in zip(u, v)), Fraction(0))


def vadd(u: Sequence, v: Sequence) -> Vec:
    return tuple(_frac(a) + _frac(b) for a, b in zip(u, v))


def primitive_int_vector(v: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    Preserves direction (no sign normalization).
    """
    fracs = [_frac(x) for x in v]
    if all(x == 0 for x in fracs):
        raise OutOfRange("normal vector must be nonzero")
    den = lcm(*(x.denominator for x in fracs))
    ints = [x.numerator * (den // x.denominator) for x in fracs]
    g = gcd(*ints)
    return tuple(a // g for a in ints)


# -- exact elimination ------------------------------------------------------------

def _eliminate(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Gauss-Jordan reduction over Q: (reduced rows, pivot columns, determinant).

    The entries are ints or Fractions.  Fraction-free (Bareiss 1968): each
    row is scaled to integers by the lcm of its denominators, and each step
    divides exactly by the previous pivot, every entry being a minor of the
    scaled matrix.  Every pivot then equals the last one, d, so the rows are
    divided once, by d, at the end.  The rows come back in reduced row
    echelon form with unit pivots, zero rows last.  The determinant is that
    of a square input, 0 when singular: sign * d / (product of the row
    scales).
    """
    m, scale = [], 1
    for r in rows:
        s = lcm(*(x.denominator for x in r))
        scale *= s
        m.append([x.numerator * (s // x.denominator) for x in r])
    pivots: list[int] = []
    sign = d = 1
    for col in range(len(m[0]) if m else 0):
        row = len(pivots)
        if row == len(m):
            break
        piv = next((r for r in range(row, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            sign = -sign
        pr, p = m[row], m[row][col]
        for r in range(len(m)):
            if r != row:
                f = m[r][col]
                m[r] = [(p * a - f * b) // d for a, b in zip(m[r], pr)]
        d = p
        pivots.append(col)
    det = Fraction(sign * d, scale) if len(pivots) == len(m) else Fraction(0)
    # entries in pivot columns are 0 or d: only the others need a gcd
    reduced = [[_ZERO if not a else _ONE if a == d else Fraction(a, d) for a in r] for r in m]
    return reduced, pivots, det


def _extreme_rays(rows: Sequence[Sequence[int]], d: int) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the pointed cone {y in R^d : <r, y> >= 0 for every row r}.

    Integer double description (Motzkin-Raiffa-Thompson-Thrall 1953;
    Fukuda-Prodon 1996): start from the simplicial cone of the first d
    independent rows, then add the other rows one at a time, keeping the
    rays on the feasible side and joining each adjacent pair on opposite
    sides.  Two rays are adjacent iff no third ray is tight on every row
    both are tight on.  Each ray comes back as a primitive integer vector
    with the bit mask of the rows tight on it.
    """
    basis = _eliminate(list(zip(*rows)))[1]   # pivot columns of the transpose
    if len(basis) < d:
        raise DegeneratePolytope("inequalities or points do not span the space")
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    inv = [r[d:] for r in _eliminate([tuple(rows[b]) + e for b, e in zip(basis, unit)])[0]]
    # column j of the inverse is tight on every basis row but the j-th
    start = sum(1 << b for b in basis)
    rays = [(primitive_int_vector(col), start & ~(1 << b)) for col, b in zip(zip(*inv), basis)]
    for k, row in enumerate(rows):
        if start >> k & 1:
            continue
        s = [sum(a * b for a, b in zip(row, y)) for y, _ in rays]
        new = [(y, t | 1 << k if x == 0 else t) for (y, t), x in zip(rays, s) if x >= 0]
        for i, (yp, tp) in enumerate(rays):
            if s[i] <= 0:
                continue
            for j, (ym, tm) in enumerate(rays):
                common = tp & tm
                if (s[j] >= 0 or common.bit_count() < d - 2
                        or any(t & common == common for c, (_, t) in enumerate(rays)
                               if c != i and c != j)):
                    continue
                y = [s[i] * b - s[j] * a for a, b in zip(yp, ym)]
                g = gcd(*y)
                new.append((tuple(a // g for a in y), common | 1 << k))
        rays = new
    return rays


# -- representations ----------------------------------------------------------

class Facet(NamedTuple):
    normal: tuple[int, ...]
    offset: Fraction


def make_facet(normal: Sequence, offset) -> Facet:
    """Canonicalize: primitive integer normal, offset rescaled to match."""
    fracs = [_frac(x) for x in normal]
    prim = primitive_int_vector(fracs)
    # the input normal is k * prim with k > 0: primitive_int_vector keeps the sign
    k = next(x / a for x, a in zip(fracs, prim) if a)
    return Facet(prim, _frac(offset) / k)


def _check_shape(dim, vectors: Iterable[Sequence], what: str) -> None:
    """DimensionMismatch unless dim is a positive int and every vector has length dim."""
    # type(dim) is int refuses booleans
    if type(dim) is not int or dim < 1:
        raise DimensionMismatch(f"dimension must be a positive integer, got {dim!r}")
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatch(f"{what} has length {len(v)}, not the dimension {dim}")


@dataclass(frozen=True)
class HPolytope:
    """Half-space representation {p : <normal_F, p> >= -offset_F for all F}."""

    dim: int
    facets: tuple[Facet, ...]

    def __post_init__(self):
        canon = tuple(make_facet(n, o) for n, o in self.facets)
        _check_shape(self.dim, (f.normal for f in canon), "facet normal")
        object.__setattr__(self, "facets", canon)

    def contains(self, p: Sequence) -> bool:
        return all(dot(f.normal, p) >= -f.offset for f in self.facets)


@dataclass(frozen=True)
class VPolytope:
    """Both representations of one full-dimensional polytope, checked at
    construction: its extreme points and its facets, each sorted and free of
    repeats.

    Every constructor below keeps ``facets == facets_from_points(dim,
    vertices)``, so no operation has to hull the vertices again.
    """

    dim: int
    vertices: tuple[Vec, ...]
    facets: tuple[Facet, ...]

    def __post_init__(self):
        vs = tuple(sorted({vec(v) for v in self.vertices}))
        _check_shape(self.dim, vs, "vertex")
        if _affine_rank(vs) < self.dim:
            raise DegeneratePolytope("polytope is not full-dimensional")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "facets", tuple(sorted(set(self.facets))))

    def tight_indices(self, p: Sequence) -> tuple[int, ...]:
        """Indices of the facets through the point p."""
        return tuple(i for i, f in enumerate(self.facets) if dot(f.normal, p) == -f.offset)

    @classmethod
    def from_points(cls, dim: int, points: Iterable[Sequence]) -> "VPolytope":
        """Reduce an arbitrary point cloud to its extreme points."""
        pts = sorted({vec(p) for p in points})
        # before double description, which refuses a cloud that spans less
        _check_shape(dim, pts, "point")
        facets = facets_from_points(dim, pts)
        tight = [{f for f in facets if dot(f.normal, p) == -f.offset} for p in pts]
        # a point is a vertex iff no other point is tight on all of its facets
        return cls(dim, tuple(p for i, p in enumerate(pts)
                              if not any(j != i and tight[i] <= u for j, u in enumerate(tight))),
                   facets)


def _affine_rank(points: Sequence[Vec]) -> int:
    # the affine rank of the points is the rank of the rows (p, 1), less one
    return len(_eliminate([p + (1,) for p in points])[1]) - 1


# -- H <-> V conversion --------------------------------------------------------

def facets_from_points(dim: int, points: Sequence[Sequence]) -> tuple[Facet, ...]:
    """Supporting half-spaces of conv(points), irredundant, canonical, sorted.

    The facets are the extreme rays (l, a) of the cone of inequalities
    <l, p> + a >= 0 that hold at every point.
    """
    rows = [primitive_int_vector(vec(p) + (Fraction(1),)) for p in points]
    return tuple(sorted(make_facet(y[:dim], y[dim]) for y, _ in _extreme_rays(rows, dim + 1)))


@lru_cache(maxsize=512)
def _vertices_of(h: HPolytope) -> VPolytope:
    n = h.dim
    if len(_eliminate([f.normal for f in h.facets])[1]) < n:
        raise UnboundedPolytope("facet normals do not span the space")
    # a vertex p is the ray (p, 1) of the cone {(y, t) : <l, y> + a t >= 0, t >= 0};
    # a ray with t = 0 is a recession direction
    rows = [primitive_int_vector(f.normal + (f.offset,)) for f in h.facets]
    incidence: dict[Vec, int] = {}   # vertex -> mask of inequalities tight on it
    for y, tight in _extreme_rays(rows + [(0,) * n + (1,)], n + 1):
        if y[n] == 0:
            raise UnboundedPolytope("recession direction exists")
        incidence[tuple(Fraction(x, y[n]) for x in y[:n])] = tight
    if not incidence:
        raise DegeneratePolytope("empty feasible set")
    out = tuple(sorted(incidence))
    # an inequality is a facet iff no other one is tight on more vertices
    # containing all of its own: a lower face lies in some facet
    tight_at = [incidence[p] for p in out]
    on = [frozenset(k for k, t in enumerate(tight_at) if t >> i & 1) for i in range(len(h.facets))]
    facets = [f for f, t in zip(h.facets, on) if t and not any(t < u for u in on)]
    return VPolytope(n, out, tuple(facets))


def enumerate_vertices(h: HPolytope) -> VPolytope:
    """Exact extreme points of a bounded full-dimensional H-polytope, with
    the inequalities of h that are facets."""
    return _vertices_of(h)


# -- volume and first moment ---------------------------------------------------

def volume_and_moment(v: VPolytope) -> tuple[Fraction, Vec]:
    """Exact (volume, integral of x dlambda) of a polytope.

    Pulling triangulation (Bueler-Enge-Fukuda 2000): a face, held as a bit
    mask of ``v.vertices``, is the union of the cones from its lowest-index
    vertex over those of its own facets that miss that vertex.  The facets
    of a face are its largest proper intersections with the facet masks.
    Each vertex p is read once as the integer row (q p, q), q the common
    denominator of all vertices, so incidence is an integer test and a
    simplex with vertices p_0..p_n adds |det[(q p_i, q)]| / (q^(n+1) n!)
    to the volume and that times its vertex mean to the moment.
    """
    pts, n = v.vertices, v.dim
    q = lcm(*(x.denominator for p in pts for x in p))
    rows = [tuple(x.numerator * (q // x.denominator) for x in p) + (q,) for p in pts]
    # <l, p> == -a  <=>  <l, q p> den(a) == -num(a) q
    masks = {sum(1 << i for i, r in enumerate(rows)
                 if sum(c * x for c, x in zip(l, r)) * a.denominator == -a.numerator * q)
             for l, a in v.facets}
    memo: dict[int, list[tuple[int, ...]]] = {}

    def simplices(face: int) -> list[tuple[int, ...]]:
        apex = (face & -face).bit_length() - 1
        if face == 1 << apex:
            return [(apex,)]
        if face not in memo:
            subs = {face & m for m in masks} - {face}
            memo[face] = [(apex,) + s for g in subs
                          if not g >> apex & 1 and not any(g & h == g != h for h in subs)
                          for s in simplices(g)]
        return memo[face]

    vol, mom = 0, [0] * n
    for s in simplices((1 << len(pts)) - 1):
        w = abs(int(_eliminate([rows[i] for i in s])[2]))
        vol += w
        for j in range(n):
            mom[j] += w * sum(rows[i][j] for i in s)
    f = factorial(n) * q ** (n + 1)
    return Fraction(vol, f), tuple(Fraction(m, (n + 1) * f * q) for m in mom)


def volume(v: VPolytope) -> Fraction:
    """Exact Euclidean volume of a V-polytope."""
    return volume_and_moment(v)[0]


def barycenter(v: VPolytope) -> Vec:
    """Exact centroid; independent of any triangulation choice."""
    vol, mom = volume_and_moment(v)
    return tuple(m / vol for m in mom)


# -- transforms -----------------------------------------------------------------

@dataclass(frozen=True)
class LinearMap:
    """Square rational matrix with its determinant cached at construction."""

    matrix: tuple[tuple[Fraction, ...], ...]
    determinant: Fraction = field(init=False)

    def __post_init__(self):
        rows = tuple(vec(r) for r in self.matrix)
        _check_shape(len(rows), rows, "matrix row")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "determinant", _eliminate(rows)[2])

    def apply(self, p: Sequence) -> Vec:
        return tuple(dot(row, p) for row in self.matrix)


def transform(v: VPolytope, t: LinearMap) -> VPolytope:
    """Image polytope under an invertible linear map.

    Normals move by the inverse transpose; offsets stay.  Volumes scale by
    |det t|; the caller reads the factor off the map.
    """
    if t.determinant == 0:
        raise SingularMap("linear map is not invertible")
    n = v.dim
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    inv = [row[n:] for row in _eliminate([r + e for r, e in zip(t.matrix, unit)])[0]]
    # the image normal is t^{-T} l: entry i is <l, column i of t^{-1}>
    facets = tuple(make_facet([dot(l, col) for col in zip(*inv)], a) for l, a in v.facets)
    return VPolytope(n, tuple(t.apply(p) for p in v.vertices), facets)


def translate(v: VPolytope, shift: Sequence) -> VPolytope:
    s = vec(shift)
    facets = tuple(Facet(l, a - dot(l, s)) for l, a in v.facets)
    return VPolytope(v.dim, tuple(vadd(p, s) for p in v.vertices), facets)


# -- clipping -------------------------------------------------------------------

def intersect_halfspace(v: VPolytope, normal: Sequence, cutoff) -> VPolytope:
    """Exact vertices and facets of v cut by {x : <normal, x> <= cutoff}."""
    cut = make_facet(tuple(-_frac(x) for x in normal), _frac(cutoff))
    try:
        return enumerate_vertices(HPolytope(v.dim, v.facets + (cut,)))
    except (DegeneratePolytope, UnboundedPolytope):
        raise EmptyIntersection("cut removed the polytope interior")


def clip_volume_and_moment(base: VPolytope, normal: Sequence,
                           cutoff) -> tuple[Fraction, Vec]:
    """(volume, moment) of base cut by <normal, x> <= cutoff; zero when the
    cut leaves no interior."""
    try:
        return volume_and_moment(intersect_halfspace(base, normal, cutoff))
    except EmptyIntersection:
        return Fraction(0), tuple([Fraction(0)] * base.dim)


def clip_family(base: VPolytope, normal: Sequence) -> Callable[[Fraction], tuple[Fraction, Vec]]:
    """c -> ``clip_volume_and_moment(base, normal, c)``, exactly, from at
    most n + 2 clips per slab between consecutive vertex levels <normal, p>.

    On a slab the cut keeps one combinatorial type, so the volume is a
    polynomial in c of degree n and the moment one of degree n + 1, constant
    outside the levels (Lawrence 1991).  A sample at a level counts for both
    slabs that meet there.  At n + 2 samples a slab solves its Vandermonde
    system once, through ``_eliminate``, and keeps the monomial coefficients
    as integers a_k over one denominator D; at c = p/q it then answers by
    integer Horner, sum_k a_k p^k q^(n+1-k) / (D q^(n+1)).
    """
    levels = sorted({dot(normal, p) for p in base.vertices})
    # slab i lies between levels[i - 1] and levels[i]
    samples: list[dict[Fraction, tuple[Fraction, Vec]]] = [{} for _ in range(len(levels) + 1)]
    fits: dict[int, tuple[int, list[list[int]]]] = {}   # D, rows a_k from k = n + 1 down

    def at(c) -> tuple[Fraction, Vec]:
        c = _frac(c)
        i = bisect_right(levels, c)
        slabs = (i - 1, i) if i and levels[i - 1] == c else (i,)
        for s in slabs:
            if s in fits:
                den, coef = fits[s]
                y, qk = coef[0], 1
                for a in coef[1:]:
                    qk *= c.denominator
                    y = [t * c.numerator + b * qk for t, b in zip(y, a)]
                return Fraction(y[0], den * qk), tuple(Fraction(t, den * qk) for t in y[1:])
            if c in samples[s]:
                return samples[s][c]
        sample = clip_volume_and_moment(base, normal, c)
        for s in slabs:
            samples[s][c] = sample
            if len(samples[s]) == base.dim + 2:
                coef = [r[base.dim + 2:] for r in _eliminate(
                    [[x ** k for k in range(base.dim + 1, -1, -1)] + [v, *m]
                     for x, (v, m) in samples[s].items()])[0]]
                den = lcm(*(a.denominator for r in coef for a in r))
                fits[s] = den, [[a.numerator * (den // a.denominator) for a in r] for r in coef]
        return sample

    return at
