"""Exact rational convex-polytope kernel.

Polytopes are full-dimensional and bounded, in small dimension.  All
coordinates are exact, ``fractions.Fraction`` or ``int``; facet normals are
primitive integer vectors.  A half-space representation stores inequalities

    <normal, p> >= -offset

so that for a moment polytope of a toric log Fano pair the offset is the
log discrepancy coefficient of the corresponding facet divisor.

A ``VPolytope`` carries its vertices, as integer rows, its facets and their
incidence together.  Facets are found once, by ``VPolytope.from_points`` for a
point cloud or by ``enumerate_vertices`` for an H-polytope, both one integer
double-description routine, ``_extreme_rays``; a half-space cut enumerates
afresh.  The incidence has one source, the double description's tight rows,
as bit masks, and one builder, ``_polytope``, makes every value from them.
Volume and moment come from one pulling triangulation over the masks, and
``clip_family`` reads each slab's cut off them and fits it in integers, with
no clip.  All Gaussian elimination, every determinant included, is one
fraction-free routine, ``_bareiss``, forward unless its rows are read; the
volume runs its recurrence a row at a time.

Every operation is a pure function on immutable values (a ``VPolytope``
keeps its vertex coordinates, volume, moment and vertex cones once computed,
a clip family its slabs) and touches no floating point.  ``HPolytope``,
``from_points`` and ``enumerate_vertices`` check their input and raise an
``errors.InputError`` subclass; ``VPolytope`` only stores what ``_polytope`` built.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache, reduce
from math import factorial, gcd, lcm
from operator import add, and_, mul, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DegeneratePolytope,
    DimensionMismatch,
    EmptyIntersection,
    OutOfRange,
    UnboundedPolytope,
)

Vec = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs: Iterable) -> Vec:
    return tuple(_frac(x) for x in xs)


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator > 0) of any exact rational ``Fraction`` takes."""
    return x.as_integer_ratio() if type(x) in (int, Fraction) else Fraction(x).as_integer_ratio()


def primitive_int_vector(v: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector of the same direction."""
    pairs = [_ratio(x) for x in v]
    den = lcm(*(b for _, b in pairs))
    ints = [a * (den // b) for a, b in pairs]
    if not (g := gcd(*ints)):
        raise OutOfRange("normal vector must be nonzero")
    return tuple(a // g for a in ints)


# -- exact elimination ------------------------------------------------------------

def _bareiss(m: list, jordan: bool = False) -> tuple[list[int], int, int]:
    """Fraction-free elimination (Bareiss 1968) of an integer matrix m, in
    place: (pivot columns, sign of the row swaps, d).  Each step divides
    exactly by the previous pivot, every entry being a minor of m; d is the
    last pivot, sign * d the determinant of a square m of full rank.  A step
    updates the rows below its pivot, all the pivot search reads, and with
    ``jordan`` those above too, so that every pivot ends equal to d."""
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
        for r in range(0 if jordan else row + 1, len(m)):
            if r != row:
                f = m[r][col]
                m[r] = [(p * a - f * b) // d for a, b in zip(m[r], pr)]
        d = p
        pivots.append(col)
    return pivots, sign, d


def integer_det(m: list) -> int:
    """Determinant of a square integer matrix, by ``_bareiss`` in place."""
    pivots, sign, d = _bareiss(m)
    return sign * d if len(pivots) == len(m) else 0


# most rays kept, and most ray tests for one row: each (+, -) pair scans every ray
MAX_RAYS, MAX_RAY_TESTS = 5000, 10**7


def _extreme_rays(rows: Sequence[Sequence[int]], d: int) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the pointed cone {y in R^d : <r, y> >= 0 for every row r},
    each a primitive integer vector with the bit mask of the rows tight on it.

    Integer double description (Motzkin-Raiffa-Thompson-Thrall 1953;
    Fukuda-Prodon 1996): start from the simplicial cone of the first d
    independent rows, then add the other rows one at a time, keeping the
    rays on the feasible side and joining each adjacent pair on opposite
    sides.  Two rays are adjacent iff no third ray is tight on every row
    both are tight on.  DegeneratePolytope when the rows do not span;
    OutOfRange past MAX_RAYS rays or MAX_RAY_TESTS tests for one row.
    """
    # [R^T | I] goes to [L R^T | L]: its pivots in R^T are the first basis B of the rows, and
    # L B^T = det I, so row j of L, signed as det, is positive on basis row j only
    aug = [[r[i] for r in rows] + [int(i == j) for j in range(d)] for i in range(d)]
    basis, _, det = _bareiss(aug, jordan=True)
    if basis[-1] >= len(rows):   # a pivot in I
        raise DegeneratePolytope("inequalities or points do not span the space")
    o, start = (1 if det > 0 else -1), sum(1 << b for b in basis)
    rays = [(tuple(x // g for x in r[-d:]), start & ~(1 << b))
            for r, b in zip(aug, basis) for g in (o * gcd(*r[-d:]),)]
    for k, row in enumerate(rows):
        if start >> k & 1:
            continue
        s = [sum(map(mul, row, y)) for y, _ in rays]
        plus, minus = [i for i, x in enumerate(s) if x > 0], [j for j, x in enumerate(s) if x < 0]
        tests = len(plus) * len(minus) * len(rays)
        if len(rays) > MAX_RAYS or tests > MAX_RAY_TESTS:
            raise OutOfRange(f"the double description holds {len(rays)} rays and would make "
                             f"{tests} ray tests, past its budget of {MAX_RAYS} rays or "
                             f"{MAX_RAY_TESTS} tests")
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
                g = gcd(*y)
                new.append((tuple(a // g for a in y), common | 1 << k))
        rays = new
    return rays


# -- representations ----------------------------------------------------------

class Facet(NamedTuple):
    normal: tuple[int, ...]
    offset: Fraction | int


def make_facet(normal: Sequence, offset) -> Facet:
    """Canonicalize: primitive integer normal, offset rescaled to match."""
    if all(type(x) is int for x in normal):   # normal = g prim
        if not (g := gcd(*normal)):
            raise OutOfRange("normal vector must be nonzero")
        if g == 1 and type(offset) in (int, Fraction):   # kept as given
            return Facet(tuple(normal), offset)
        c, e = _ratio(offset)
        return Facet(tuple(x // g for x in normal), Fraction(c, e * g))
    prim = primitive_int_vector(normal)
    # normal = k prim, k = a / (b p) > 0 at any p = prim_j != 0 and a / b = normal_j
    (a, b), p = next((_ratio(x), y) for x, y in zip(normal, prim) if y)
    c, e = _ratio(offset)
    return Facet(prim, Fraction(c * b * p, e * a))


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


@dataclass(frozen=True, repr=False)
class VPolytope:
    """Both representations of one full-dimensional polytope and their
    incidence, as ``_polytope`` builds them: ``facets`` and ``rows``, the integer
    rows (q p, q) of the vertices p over their least common denominator q,
    sorted, which decide equality, and ``masks`` the vertex bit mask of each
    facet.  ``vertices``, volume, moment and ``cones`` are computed on first
    read and kept with the value; a cut is a new value and computes its own.
    """

    dim: int
    facets: tuple[Facet, ...]
    rows: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = field(compare=False)

    def __repr__(self) -> str:
        return f"VPolytope(dim={self.dim!r}, vertices={self.vertices!r}, facets={self.facets!r})"

    @cached_property
    def vertices(self) -> tuple[Vec, ...]:
        return tuple(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in self.rows)

    @cached_property
    def _integral(self) -> tuple[Fraction, Vec]:
        # volume_and_moment, integrated once per value
        n, rows, vol, mom = self.dim, self.rows, 0, [0] * self.dim
        for pivots, total in _pulling_simplices(self.masks, ((), [0] * n),
                                                lambda s, i: _pivot(s, rows[i])):
            w = abs(pivots[-1][1])
            vol, mom = vol + w, [m + w * t for m, t in zip(mom, total)]
        f = factorial(n) * rows[0][n] ** (n + 1)
        return Fraction(vol, f), tuple(Fraction(m, (n + 1) * f * rows[0][n]) for m in mom)

    @cached_property
    def cones(self) -> tuple[tuple[tuple[int, ...], int | None], ...]:
        """Per vertex, the indices of the facets tight there and the |det| of
        their normals when exactly ``dim`` are (None otherwise)."""
        tight = [tuple(k for k, m in enumerate(self.masks) if m >> i & 1)
                 for i in range(len(self.rows))]
        return tuple((t, abs(integer_det([self.facets[k].normal for k in t]))
                      if len(t) == self.dim else None) for t in tight)

    @classmethod
    def from_points(cls, dim: int, points: Iterable[Sequence]) -> "VPolytope":
        """The hull of an arbitrary point cloud: its facets are the extreme
        rays (l, a) of the cone of inequalities <l, p> + a >= 0 that hold at
        every point, and a point is tight on the rays whose masks hold it."""
        pts = sorted({vec(p) for p in points})
        # before double description, which refuses a cloud that spans less
        _check_shape(dim, pts, "point")
        q = lcm(*(x.denominator for p in pts for x in p))
        rows = [tuple(x.numerator * (q // x.denominator) for x in p) + (q,) for p in pts]
        rays = _extreme_rays(rows, dim + 1)
        return _polytope(dim, [(r, sum(1 << k for k, (_, t) in enumerate(rays) if t >> i & 1))
                               for i, r in enumerate(rows)],
                         [make_facet(y[:dim], y[dim]) for y, _ in rays])


def _polytope(dim: int, points: list, ineqs: Sequence[Facet]) -> VPolytope:
    """The one builder of a ``VPolytope``, from the points whose hull it is,
    each a pair (integer row (q p, q), bit mask of the ineqs tight on p), and
    valid inequalities that include every facet.  A point is kept iff no
    other point is tight on every inequality tight on it, an inequality iff
    its set of kept points is nonempty and maximal."""
    points = sorted(points)
    rows = [r for r, _ in points]
    # (inequality, its bit), sorted, with either bit of a repeated one
    order = sorted(range(len(ineqs)), key=ineqs.__getitem__)
    ineqs = [(ineqs[k], k) for i, k in enumerate(order) if not i or ineqs[k] != ineqs[order[i - 1]]]
    masks = [sum(1 << i for i, (_, t) in enumerate(points) if t >> k & 1) for _, k in ineqs]
    keep = [i for i in range(len(rows))
            if reduce(and_, (m for m in masks if m >> i & 1), (1 << len(rows)) - 1) == 1 << i]
    masks = [sum(1 << j for j, i in enumerate(keep) if m >> i & 1) for m in masks]
    facets = [k for k, m in enumerate(masks) if m and not any(m & u == m != u for u in masks)]
    rows = [rows[i] for i in keep]
    if (g := gcd(*(x for r in rows for x in r))) > 1:   # q took in dropped points too
        rows = [tuple(x // g for x in r) for r in rows]
    return VPolytope(dim, tuple(ineqs[k][0] for k in facets), tuple(rows),
                     tuple(masks[k] for k in facets))


# -- H -> V conversion ---------------------------------------------------------

@lru_cache(maxsize=512)
def _vertices_of(h: HPolytope) -> VPolytope:
    n = h.dim
    # a vertex p is the ray (p, 1) of the cone {(y, t) : <l, y> + a t >= 0, t >= 0}, tight on
    # the rows of the inequalities tight at p; the rows span iff the normals do
    try:
        # (l den(a), num(a)) is primitive, as l is
        rays = _extreme_rays([(*(x * a.denominator for x in l), a.numerator) for l, a in h.facets]
                             + [(0,) * n + (1,)], n + 1)
    except DegeneratePolytope:
        raise UnboundedPolytope("facet normals do not span the space")
    if any(y[n] == 0 for y, _ in rays):
        raise UnboundedPolytope("recession direction exists")
    if not rays:
        raise DegeneratePolytope("empty feasible set")
    # flat iff some inequality is an implicit equality, tight at every vertex
    if reduce(and_, (t for _, t in rays)):
        raise DegeneratePolytope("polytope is not full-dimensional")
    q = lcm(*(y[n] for y, _ in rays))
    return _polytope(n, [(tuple(x * (q // y[n]) for x in y), t) for y, t in rays], h.facets)


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


def _walk(face: int, dag: dict[int, tuple[int, list[int]]], state, step) -> Iterator:
    """The states of the simplices ``_pulling`` counted in face, from step."""
    apex = (face & -face).bit_length() - 1
    state = step(state, apex)
    if face == 1 << apex:
        yield state
        return
    for g in dag[face][1]:
        yield from _walk(g, dag, state, step)


def _pulling_simplices(masks: Sequence[int], state=(), step=lambda s, i: (*s, i)) -> Iterator:
    """The pulling triangulation of facet vertex masks, walked as a tree from
    the top face: each face takes its parent's state to step(state, apex), and
    each simplex yields its last one, by default its vertex index tuple.
    OutOfRange past MAX_SIMPLICES, before any step."""
    top, dag = reduce(or_, masks), {}
    if (count := _pulling(top, masks, dag)) > MAX_SIMPLICES:
        raise OutOfRange(f"the volume triangulation has {count} simplices, "
                         f"more than the {MAX_SIMPLICES} this computation sums")
    return _walk(top, dag, state, step)


def _pivot(state: tuple[tuple, list[int]], row: Sequence[int]) -> tuple[tuple, list[int]]:
    """``_bareiss``'s forward step for one more row.  state holds the sum of the rows as
    given and the pivots, each (k, p, its row without entry k), k among the columns left;
    the row goes to (p a - f b) // d, d the pivot before p, against each in turn, and its
    first nonzero entry left is its pivot, for n + 1 rows their determinant up to sign."""
    pivots, total = state
    reduced, d = row, 1
    for k, p, rest in pivots:
        f = reduced[k]
        reduced = [(p * a - f * b) // d for a, b in zip(reduced[:k] + reduced[k + 1:], rest)]
        d = p
    k = next(k for k, a in enumerate(reduced) if a)
    return (*pivots, (k, reduced[k], reduced[:k] + reduced[k + 1:])), list(map(add, total, row))


def volume_and_moment(v: VPolytope) -> tuple[Fraction, Vec]:
    """Exact (volume, integral of x dlambda) of a polytope; OutOfRange when
    its triangulation has more than MAX_SIMPLICES simplices.

    Pulling triangulation (Bueler-Enge-Fukuda 2000): a face is the union of
    the cones from its lowest-index vertex over those of its own facets that
    miss that vertex.  A simplex with vertices p_0..p_n adds
    |det[(q p_i, q)]| / (q^(n+1) n!), over the rows ``v.rows``, to the
    volume and that times its vertex mean to the moment; the det is the last
    pivot on its path down the faces, each of which reduces its apex row once
    (``_pivot``).  The value keeps the result: each ``VPolytope`` is integrated once.
    """
    return v._integral


def volume(v: VPolytope) -> Fraction:
    """Exact Euclidean volume of a V-polytope."""
    return volume_and_moment(v)[0]


def barycenter(v: VPolytope) -> Vec:
    """Exact centroid; independent of any triangulation choice."""
    vol, mom = volume_and_moment(v)
    a, b = vol.as_integer_ratio()
    return tuple(Fraction(m.numerator * b, m.denominator * a) for m in mom)


# -- clipping -------------------------------------------------------------------

def intersect_halfspace(v: VPolytope, normal: Sequence, cutoff) -> VPolytope:
    """Exact vertices and facets of v cut by {x : <normal, x> <= cutoff}."""
    cut = make_facet(tuple(-_frac(x) for x in normal), _frac(cutoff))
    try:
        return enumerate_vertices(HPolytope(v.dim, v.facets + (cut,)))
    except (DegeneratePolytope, UnboundedPolytope):
        raise EmptyIntersection("cut removed the polytope interior")


@cache
def _inverse_vandermonde(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d V^-1), V = [j^k] for j, k = 0..n: ``_bareiss`` takes [V | I] to [d I | d V^-1]
    with no row swap, each leading minor being a Vandermonde det > 0."""
    m = [[j ** k for k in range(n + 1)] + [int(i == j) for i in range(n + 1)] for j in range(n + 1)]
    return _bareiss(m, jordan=True)[2], tuple(tuple(r[n + 1:]) for r in m)


def clip_family(base: VPolytope, normal: Sequence) -> ClipFamily:
    """c -> (volume, moment) of base cut by <normal, x> <= c, exactly, with
    no clip: on a slab between vertex levels the base vertices below stay,
    one vertex runs along each base edge across it, each base facet keeps
    its own and the cut facet the crossings (Lawrence 1991).  A vertex is an
    integer row U + C W in the level C.  Each pulling simplex adds det to the
    volume and det * sum(U + C W) to the moment, its det taken at C = 0..n
    (0 where it collapses), fitted by one integer inverse Vandermonde and
    signed at the slab's midpoint.  A cut-off p/q, a level included (it goes
    to the slab above), is integer Horner over one D, as is root."""
    # a rational normal is scaled to integers once: <normal, x> <= c iff <s normal, x> <= s c
    s = lcm(*(_frac(x).denominator for x in normal))
    return ClipFamily(base, [(_frac(x) * s).numerator for x in normal], s)


class ClipFamily:
    """``clip_family``'s value: D and the integer rows of each slab it fitted."""

    def __init__(self, base: VPolytope, u: list[int], scale: int):
        # the level of a row (q x, q) is C = <u, q x>, the cut-off c = C / (q scale)
        self.base, self.u, self.unit, self.slabs = base, u, base.rows[0][-1] * scale, {}
        self.level = [sum(map(mul, u, r)) for r in base.rows]
        self.levels = sorted(set(self.level))

    def _fit(self, i: int) -> tuple[int, list[list[int]]]:
        """D and the rows [<u, moment part of a_k>, a_k] of slab i, from k = n + 1 down."""
        base, level, levels, n = self.base, self.level, self.levels, self.base.dim
        if not i:   # empty below the lowest level; above the highest every vertex stays
            return 1, [[0] * (n + 2)] * (n + 2)
        lo, hi, every = levels[i - 1], (levels + [levels[-1] + 1])[i], (1 << len(level)) - 1
        kept = [j for j, t in enumerate(level) if t <= lo]
        # a kept vertex stays; an edge a b, the facets on both meeting in {a, b}, carries one
        ends = [(j, j) for j in kept] + [
            (a, b) for a in kept for b, t in enumerate(level) if t >= hi and reduce(
                and_, (m for m in base.masks if m >> a & m >> b & 1), every) == 1 << a | 1 << b]
        gap = lcm(*(level[b] - level[a] for a, b in ends if a != b))
        rows = []   # vertex k is (U_k + C W_k) / (gap q), as pairs (U, W); W = 0 if it stays
        for a, b in ends:
            g, t = gap // (level[b] - level[a] or gap), level[a]
            rows.append([(gap * x - t * g * (y - x), g * (y - x))
                         for x, y in zip(base.rows[a][:n], base.rows[b])])
        # a base facet with no kept vertex is gone; the cut facet holds every crossing
        masks = [sum(1 << k for k, (a, b) in enumerate(ends) if m >> a & m >> b & 1)
                 for m in base.masks] + [(1 << len(ends)) - (1 << len(kept))]
        d, inv = _inverse_vandermonde(n)
        # 2^n d det((lo + hi) / 2) = sum_j mid_j det(j)
        mid = [sum(r[j] * (lo + hi) ** k << n - k for k, r in enumerate(inv)) for j in range(n + 1)]
        nodes = [[0] * (2 * n + 1) for _ in inv]   # det(j) (1, sum U_1, sum W_1, ...), signed
        for s in _pulling_simplices([m for m in masks if m]):
            r0, dets = rows[s[0]], []   # det[(x_k, 1)] = (-1)^n det[x_k - x_0]
            edges = [[(x - a, e - b) for (x, e), (a, b) in zip(rows[k], r0)] for k in s[1:]]
            for c in range(n + 1):
                dets.append(integer_det([[x + c * e for x, e in r] for r in edges]))
            o = 1 if sum(map(mul, mid, dets)) > 0 else -1
            sums = [o, *(o * sum(h) for c in zip(*(rows[k] for k in s)) for h in zip(*c))]
            nodes = [[t + y * x for t, x in zip(a, sums)] for y, a in zip(dets, nodes)]
        # coefficients in C, k upward, and a zero row for k = n + 1 and k = -1
        poly = [[sum(map(mul, r, t)) for t in zip(*nodes)] for r in inv] + [[0] * (2 * n + 1)]
        # volume = det / (n! (gap q)^n), moment = det sum / ((n + 1)! (gap q)^(n + 1)), C = unit c
        gq, out = gap * base.rows[0][n], []
        for k in range(n + 1, -1, -1):
            m = [self.unit ** k * (a + b) for a, b in zip(poly[k][1::2], poly[k - 1][2::2])]
            out.append([sum(map(mul, self.u, m)), (n + 1) * gq * self.unit ** k * poly[k][0], *m])
        den = d * factorial(n + 1) * gq ** (n + 1)
        g = gcd(den, *(x for r in out for x in r))
        return den // g, [[x // g for x in r] for r in out]

    def _horner(self, p: int, q: int, width: int) -> tuple[int, list[int]]:
        # the slab above every level <= p/q, by cross-multiplication (q > 0)
        i = sum(t * q <= p * self.unit for t in self.levels)
        den, rows = self.slabs[i] if i in self.slabs else self.slabs.setdefault(i, self._fit(i))
        y, qk = rows[0][:width], 1
        for a in rows[1:]:
            qk *= q
            y = [t * p + b * qk for t, b in zip(y, a)]
        return den * qk, y   # D q^(n+1), sum_k a_k p^k q^(n+1-k) in the first width columns

    def __call__(self, c) -> tuple[Fraction, Vec]:
        dq, y = self._horner(*_frac(c).as_integer_ratio(), self.base.dim + 2)
        return Fraction(y[1], dq), tuple(Fraction(t, dq) for t in y[2:])

    def root(self, p: int, q: int, steps: int) -> int:
        """The j with M(x_j) < 0 <= M(x_(j+1)) on x_j = p j / (q 2^steps), M(c) the moment
        along the normal cut at c, increasing from M(0) < 0 to M(p/q) >= 0.  It is ITP
        (Oliveira-Takahashi 2020; kappa_1 = 0.2 / 2^steps, kappa_2 = 2, n_0 = 1) on at most
        steps + 1 integer values: the midpoint until both ends have one, then regula falsi."""
        big_q, a, b, fa, fb, k = q << steps, 0, 1 << steps, None, None, 0
        while b - a > 1:
            if fa is None or fb is None:
                m = (a + b) // 2
            else:   # 2 (x_f - x_half), x_f moved kappa_1 w^2 toward x_half, kept within r of it
                (ya, da), (yb, db), w, h2 = fa, fb, b - a, a + b
                e = 2 * (a * yb * da - b * ya * db) // (yb * da - ya * db) - h2
                t = min(max(abs(e) - 2 * w * w // (5 << steps), 0), (2 << steps - k) - w)
                m = min(max((h2 + t) // 2 if e > 0 else -((t - h2) // 2), a + 1), b - 1)
            k, z = k + 1, min((m & -m).bit_length() - 1, steps)   # read at m / 2^z reduced
            dq, (y,) = self._horner(p * m >> z, big_q >> z, 1)
            a, b, fa, fb = (m, b, (y, dq), fb) if y < 0 else (a, m, fa, (y, dq))
        return a
