"""Exact rational convex-polytope kernel.

Polytopes are full-dimensional and bounded, in small dimension.  All
coordinates are ``fractions.Fraction``; facet normals are primitive
integer vectors.  A half-space representation stores inequalities

    <normal, p> >= -offset

so that for a moment polytope of a toric log Fano pair the offset is the
log discrepancy coefficient of the corresponding facet divisor.

A ``VPolytope`` carries its vertices, its facets and their incidence
together.  Facets are found once, by ``facets_from_points`` for a point
cloud or by ``enumerate_vertices`` for an H-polytope, both one integer
double-description routine, ``_extreme_rays``.  Transforms and translations
carry them along; a half-space cut enumerates the vertices afresh.  The
constructor decides the vertex-facet incidence once, on the vertices scaled
to integers, and every reader uses its bit masks: volume and moment come
from one pulling triangulation over them.  ``clip_family`` reads the cut on
each slab off the base's masks, with no clip.  All Gaussian elimination goes
through one fraction-free routine, ``_bareiss``; ``_eliminate`` is its
rational form, which divides once at the end.

Every operation is a pure function on immutable values; nothing here
touches floating point.  Each value checks its own input when it is built
and raises an ``errors.InputError`` subclass.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import factorial, gcd, lcm
from operator import and_, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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

def _bareiss(m: list) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan (Bareiss 1968) of an integer matrix m, in
    place: (pivot columns, sign of the row swaps, d).  Each step divides
    exactly by the previous pivot, every entry being a minor of m, so every
    pivot ends equal to the last one, d: sign * d is the determinant of a
    square m of full rank."""
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
    return pivots, sign, d


def _eliminate(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Gauss-Jordan reduction over Q: (reduced rows, pivot columns, determinant).

    The entries are ints or Fractions.  Each row is scaled to integers by
    the lcm of its denominators, ``_bareiss`` reduces them, and the rows are
    divided once, by d: reduced row echelon form with unit pivots, zero rows
    last.  The determinant is that of a square input, 0 when singular:
    sign * d / (product of the row scales).
    """
    m, scale = [], 1
    for r in rows:
        s = lcm(*(x.denominator for x in r))
        scale *= s
        m.append([x.numerator * (s // x.denominator) for x in r])
    pivots, sign, d = _bareiss(m)
    det = Fraction(sign * d, scale) if len(pivots) == len(m) else Fraction(0)
    # entries in pivot columns are 0 or d: only the others need a gcd
    reduced = [[_ZERO if not a else _ONE if a == d else Fraction(a, d) for a in r] for r in m]
    return reduced, pivots, det


def _extreme_rays(rows: Sequence[Sequence[int]], d: int) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {y in R^d : <r, y> >= 0 for every row r}.

    Integer double description (Motzkin-Raiffa-Thompson-Thrall 1953;
    Fukuda-Prodon 1996): start from the simplicial cone of the first d
    independent rows, then add the other rows one at a time, keeping the
    rays on the feasible side and joining each adjacent pair on opposite
    sides.  Two rays are adjacent iff no third ray is tight on every row
    both are tight on.  Each ray comes back as a primitive integer vector.
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
    return [y for y, _ in rays]


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
    """Both representations of one full-dimensional polytope and their
    incidence, decided here once.

    The input is points whose hull it is and valid inequalities that include
    every facet.  Each point p is read as the integer row (q p, q), q the
    common denominator, so <l, p> >= -a is tight on p iff <l, q p> den(a) ==
    -num(a) q.  A point is kept iff no other point is tight on every
    inequality tight on it, an inequality iff its set of kept points is
    nonempty and maximal.  ``vertices`` and ``facets`` come out sorted, with
    ``rows`` by vertex and in ``masks`` one vertex bit mask per facet.
    """

    dim: int
    vertices: tuple[Vec, ...]
    facets: tuple[Facet, ...]
    rows: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = sorted({vec(v) for v in self.vertices})
        _check_shape(self.dim, pts, "vertex")
        if _affine_rank(pts) < self.dim:
            raise DegeneratePolytope("polytope is not full-dimensional")
        q = lcm(*(x.denominator for p in pts for x in p))
        rows = [tuple(x.numerator * (q // x.denominator) for x in p) + (q,) for p in pts]
        ineqs = sorted(set(self.facets))
        masks = [sum(1 << i for i, r in enumerate(rows)
                     if sum(c * x for c, x in zip(l, r)) * a.denominator == -a.numerator * r[-1])
                 for l, a in ineqs]
        keep = [i for i in range(len(pts))
                if reduce(and_, (m for m in masks if m >> i & 1), (1 << len(pts)) - 1) == 1 << i]
        masks = [sum(1 << j for j, i in enumerate(keep) if m >> i & 1) for m in masks]
        facets = [k for k, m in enumerate(masks) if m and not any(m & u == m != u for u in masks)]
        object.__setattr__(self, "vertices", tuple(pts[i] for i in keep))
        object.__setattr__(self, "facets", tuple(ineqs[k] for k in facets))
        object.__setattr__(self, "rows", tuple(rows[i] for i in keep))
        object.__setattr__(self, "masks", tuple(masks[k] for k in facets))

    @classmethod
    def from_points(cls, dim: int, points: Iterable[Sequence]) -> "VPolytope":
        """The hull of an arbitrary point cloud."""
        pts = sorted({vec(p) for p in points})
        # before double description, which refuses a cloud that spans less
        _check_shape(dim, pts, "point")
        return cls(dim, tuple(pts), facets_from_points(dim, pts))


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
    return tuple(sorted(make_facet(y[:dim], y[dim]) for y in _extreme_rays(rows, dim + 1)))


@lru_cache(maxsize=512)
def _vertices_of(h: HPolytope) -> VPolytope:
    n = h.dim
    if len(_eliminate([f.normal for f in h.facets])[1]) < n:
        raise UnboundedPolytope("facet normals do not span the space")
    # a vertex p is the ray (p, 1) of the cone {(y, t) : <l, y> + a t >= 0, t >= 0};
    # a ray with t = 0 is a recession direction
    rows = [primitive_int_vector(f.normal + (f.offset,)) for f in h.facets]
    vertices = []
    for y in _extreme_rays(rows + [(0,) * n + (1,)], n + 1):
        if y[n] == 0:
            raise UnboundedPolytope("recession direction exists")
        vertices.append(tuple(Fraction(x, y[n]) for x in y[:n]))
    if not vertices:
        raise DegeneratePolytope("empty feasible set")
    return VPolytope(n, tuple(vertices), h.facets)


def enumerate_vertices(h: HPolytope) -> VPolytope:
    """Exact extreme points of a bounded full-dimensional H-polytope, with
    the inequalities of h that are facets."""
    return _vertices_of(h)


# -- volume and first moment ---------------------------------------------------

# most simplices the pulling triangulation of volume_and_moment sums
MAX_SIMPLICES = 10**5


def _pulling(face: int, masks: Sequence[int], dag: dict[int, tuple[int, list[int]]]) -> int:
    """Simplices of the pulling triangulation in a face, a bit mask of
    vertices.  ``dag`` maps each face of two or more vertices met to that
    count and to its facets, its largest proper intersections with the
    masks, that miss its apex."""
    if face & (face - 1) == 0:
        return 1
    if face not in dag:
        apex = (face & -face).bit_length() - 1
        subs = {face & m for m in masks} - {face}
        kids = [g for g in subs if not g >> apex & 1 and not any(g & h == g != h for h in subs)]
        dag[face] = sum(_pulling(g, masks, dag) for g in kids), kids
    return dag[face][0]


def _simplices(face: int, dag: dict[int, tuple[int, list[int]]]) -> Iterator[tuple[int, ...]]:
    """The simplices ``_pulling`` counted in face, as vertex index tuples."""
    apex = (face & -face).bit_length() - 1
    if face == 1 << apex:
        yield (apex,)
        return
    for g in dag[face][1]:
        for s in _simplices(g, dag):
            yield (apex,) + s


def _moments(n: int, masks: Sequence[int],
             row_sets: Iterable[Sequence]) -> Iterator[tuple[Fraction, Vec]]:
    """``volume_and_moment`` of the n-polytope with facet vertex masks
    ``masks`` over each set of integer rows (q p, q) for its vertices."""
    top, dag = reduce(or_, masks), {}
    count = _pulling(top, masks, dag)
    if count > MAX_SIMPLICES:
        raise OutOfRange(f"the volume triangulation has {count} simplices, "
                         f"more than the {MAX_SIMPLICES} this computation sums")
    for rows in row_sets:
        vol, mom = 0, [0] * n
        for s in _simplices(top, dag):
            w = abs(_bareiss([rows[i] for i in s])[2])   # a simplex has full rank
            vol, mom = vol + w, [m + w * sum(c) for m, c in zip(mom, zip(*(rows[i] for i in s)))]
        f = factorial(n) * rows[0][n] ** (n + 1)
        yield Fraction(vol, f), tuple(Fraction(m, (n + 1) * f * rows[0][n]) for m in mom)


def volume_and_moment(v: VPolytope) -> tuple[Fraction, Vec]:
    """Exact (volume, integral of x dlambda) of a polytope; OutOfRange when
    its triangulation has more than MAX_SIMPLICES simplices.

    Pulling triangulation (Bueler-Enge-Fukuda 2000): a face is the union of
    the cones from its lowest-index vertex over those of its own facets that
    miss that vertex.  A simplex with vertices p_0..p_n adds
    |det[(q p_i, q)]| / (q^(n+1) n!), over the rows ``v.rows``, to the
    volume and that times its vertex mean to the moment.
    """
    return next(_moments(v.dim, v.masks, [v.rows]))


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


def clip_family(base: VPolytope, normal: Sequence) -> Callable[[Fraction], tuple[Fraction, Vec]]:
    """c -> (volume, moment) of base cut by <normal, x> <= c, exactly, with
    no clip: the cut on each slab between consecutive vertex levels
    <normal, p> is read off the base's masks (Lawrence 1991).  The base
    vertices below the slab stay, one vertex runs along each base edge that
    crosses it, each base facet keeps its own of these and the cut facet the
    crossings.  The slab's first cut-off sums that type's pulling simplices
    over integer rows at n + 2 points and fits integers a_k over one
    denominator D.  Any c = p/q, a level included (it goes to the slab above,
    exact by continuity in c), is then integer Horner: sum_k a_k p^k
    q^(n+1-k) / (D q^(n+1)), and so is the sign of <normal, moment> that the
    result's ``moment_sign(p, q)`` gives for integers p and q > 0.
    """
    level = [dot(normal, p) for p in base.vertices]
    n, levels, every = base.dim, sorted(set(level)), (1 << len(level)) - 1
    # slab i lies between bounds[i] and bounds[i + 1]; the outer two are closed one unit out
    bounds = [levels[0] - 1, *levels, levels[-1] + 1]

    @cache
    def fit(i: int) -> tuple[int, list[list[int]]]:
        """D and the rows [<normal, moment part of a_k>, a_k] from k = n + 1 down."""
        lo, hi = bounds[i], bounds[i + 1]
        xs = [lo + (hi - lo) * k / (n + 3) for k in range(1, n + 3)]
        if not 0 < i < len(levels):   # empty below the lowest level, the base above the highest
            values = [volume_and_moment(base) if i else (_ZERO, (_ZERO,) * n)] * len(xs)
        else:
            kept = [j for j, t in enumerate(level) if t <= lo]
            # a kept vertex stays; an edge a b, the facets on both meeting in {a, b}, carries one
            ends = [(j, j) for j in kept] + [
                (a, b) for a in kept for b, t in enumerate(level) if t >= hi and reduce(
                    and_, (m for m in base.masks if m >> a & m >> b & 1), every) == 1 << a | 1 << b]
            moves = []   # vertex k is p_k + c d_k, d_k = (b - a)/<normal, b - a> or 0
            for a, b in ends:
                p, t = base.vertices[a], level[a]
                d = [(y - x) / (level[b] - t or 1) for x, y in zip(p, base.vertices[b])]
                moves.append([x - t * e for x, e in zip(p, d)] + d)
            den = lcm(*(x.denominator for r in moves for x in r))
            moves = [[x.numerator * (den // x.denominator) for x in r] for r in moves]
            masks = [sum(1 << k for k, (a, b) in enumerate(ends) if m >> a & m >> b & 1)
                     for m in base.masks]
            # a base facet with no kept vertex is gone; the cut facet holds every crossing
            masks = [m for m in masks if m] + [(1 << len(ends)) - (1 << len(kept))]
            # at c = s/t vertex k is the integer row (t den p_k + s den d_k, den t)
            values = _moments(n, masks, [
                [tuple(x.denominator * a + x.numerator * e for a, e in zip(r, r[n:]))
                 + (den * x.denominator,) for r in moves] for x in xs])
        solved = _eliminate([[x ** k for k in range(n + 1, -1, -1)] + [dot(normal, m), v, *m]
                             for x, (v, m) in zip(xs, values)])[0]
        den = lcm(*(a.denominator for r in solved for a in r[n + 2:]))
        return den, [[a.numerator * (den // a.denominator) for a in r[n + 2:]] for r in solved]

    def horner(p: int, q: int, width: int) -> tuple[int, list[int]]:
        # the slab above every level <= p/q, by cross-multiplication (q > 0)
        den, rows = fit(sum(t.numerator * q <= p * t.denominator for t in levels))
        y, qk = rows[0][:width], 1
        for a in rows[1:]:
            qk *= q
            y = [t * p + b * qk for t, b in zip(y, a)]
        return den * qk, y   # D q^(n+1), sum_k a_k p^k q^(n+1-k) in the first width columns

    def at(c) -> tuple[Fraction, Vec]:
        dq, y = horner(*_frac(c).as_integer_ratio(), n + 2)
        return Fraction(y[1], dq), tuple(Fraction(t, dq) for t in y[2:])

    def moment_sign(p: int, q: int) -> int:
        y = horner(p, q, 1)[1][0]
        return (y > 0) - (y < 0)

    at.moment_sign = moment_sign
    return at
