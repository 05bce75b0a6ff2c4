"""Seeded request streams for the four benchmark workloads.

A workload is an endless sequence of rounds, and a run sends whole rounds.
Every round has the same request kinds in the same order; the seed only
picks the parameters (unimodular maps, point clouds, weights, cuts).  Runs
with different seeds therefore send the same mix, so their medians compare.

Each request carries the argv the CLI sees and an ``expect`` dict that only
the oracle reads.  Nothing here imports fanokit: inputs are built from the
bench's own descriptions of the polytopes and formulas.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("exact-geometry", "sx-cut", "heights", "geometry-batch")
QUESTIONS = ("volume", "barycenter", "semistable", "gap-check")


@dataclass(frozen=True)
class Request:
    kind: str                    # label for failure counts, e.g. "volume:p5"
    argv: tuple[str, ...]
    expect: dict = field(compare=False)
    items: int = 1               # batch items served (the throughput unit)


def frac_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- toric bases --------------------------------------------------------------

@dataclass(frozen=True)
class Base:
    """A smooth reflexive toric polytope {<l, x> >= -1} with known data."""

    name: str
    normals: tuple[tuple[int, ...], ...]
    poly_volume: Fraction
    vertex_count: int
    semistable: bool
    preset: str | None = None    # CLI --preset name, when there is one
    is_pn: bool = False

    @property
    def dim(self) -> int:
        return len(self.normals[0])

    @property
    def gap_verdict(self) -> str | None:
        if not self.semistable:
            return None
        if self.is_pn:
            return "IsPn"
        n = self.dim
        ok = self.poly_volume <= Fraction(2 * n**n, math.factorial(n))
        return "SatisfiesGap" if ok else "ViolatesGap"


def _unit(n: int, i: int, s: int = 1) -> tuple[int, ...]:
    return tuple(s if j == i else 0 for j in range(n))


def pn_base(n: int) -> Base:
    normals = tuple(_unit(n, i) for i in range(n)) + ((-1,) * n,)
    return Base(f"p{n}", normals, Fraction((n + 1) ** n, math.factorial(n)),
                n + 1, True, f"p{n}", is_pn=True)


def cube_base(n: int) -> Base:
    normals = tuple(_unit(n, i, s) for i in range(n) for s in (1, -1))
    return Base(f"cube{n}", normals, Fraction(2**n), 2**n, True,
                "p1xp1" if n == 2 else None)


def p2xp1_base() -> Base:
    normals = ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1))
    return Base("p2xp1", normals, Fraction(9), 6, True, "p2xp1")


def del_pezzo_base(m: int) -> Base:
    """P^2 blown up in m torus-fixed points: degree 9 - m."""
    normals = ((1, 0), (0, 1), (-1, -1)) + ((-1, 0), (0, -1), (1, 1))[:m]
    return Base(f"bl{m}p2", normals, Fraction(9 - m, 2), 3 + m, m in (0, 3))


# -- exact unimodular images --------------------------------------------------

def _inverse(m: list[list[int]]) -> list[list[int]]:
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = [row[n:] for row in a]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("map is not unimodular")
    return [[int(x) for x in row] for row in out]


def unimodular_map(rng: random.Random, n: int, shears: int = 2) -> list[list[int]]:
    """A signed permutation followed by elementary shears row_i += s row_j."""
    perm = rng.sample(range(n), n)
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = rng.choice((1, -1))
    for _ in range(shears if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    return m


def image_normals(normals, m) -> tuple[tuple[int, ...], ...]:
    """Facet normals of {M x : <l, x> >= -1}: the rows of l M^{-1}."""
    inv = _inverse(m)
    n = len(m)
    return tuple(tuple(sum(l[i] * inv[i][j] for i in range(n)) for j in range(n))
                 for l in normals)


def facets_json(normals, offsets=None) -> dict:
    offsets = offsets or [1] * len(normals)
    return {"dim": len(normals[0]),
            "facets": [{"normal": list(l), "offset": o if isinstance(o, int) else frac_str(o)}
                       for l, o in zip(normals, offsets)]}


def _key(normals) -> tuple:
    return tuple(sorted(normals))


class _Distinct:
    """Draws unimodular images until one has not been sent before."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set = set()

    def claim(self, normals) -> bool:
        key = _key(normals)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def image(self, base: Base) -> tuple[tuple[int, ...], ...]:
        for attempt in itertools.count():
            m = unimodular_map(self.rng, base.dim, 2 + attempt // 20)
            normals = image_normals(base.normals, m)
            if self.claim(normals):
                return normals


def toric_expect(question: str, base: Base, normals) -> dict:
    return {"check": "toric", "question": question, "base": base.name,
            "normals": normals, "poly_volume": frac_str(base.poly_volume),
            "vertex_count": base.vertex_count, "semistable": base.semistable,
            "gap_verdict": base.gap_verdict}


def toric_request(question: str, base: Base, normals) -> Request:
    expect = toric_expect(question, base, normals)
    if normals is base.normals and base.preset:
        argv = (question, "--preset", base.preset)
    else:
        argv = (question, "--json", json.dumps(facets_json(normals)))
    return Request(f"{question}:{base.name}", argv, expect)


# -- exact-geometry -----------------------------------------------------------

# Every round asks the same questions of the same bases; the seed picks only
# the unimodular images and the point clouds, so the latency distribution has
# the same shape in every run and its median and tail fall on the same kinds.
# The surfaces get two questions each: they answer in under 10 ms, and with
# all four the median would sit on the gap between them and the 3-folds.  The
# two bases whose brute-force enumeration takes about a second get one each,
# the questions of the ROADMAP baseline rows, so a round stays near five
# seconds on a 2-vCPU Xeon.
GEOMETRY_QUESTIONS = (
    (pn_base(2), ("volume", "gap-check")),
    (cube_base(2), ("barycenter", "semistable")),
    (del_pezzo_base(1), ("volume", "semistable")),
    (del_pezzo_base(2), ("barycenter", "semistable")),
    (del_pezzo_base(3), ("barycenter", "gap-check")),
    (pn_base(3), QUESTIONS),
    (p2xp1_base(), QUESTIONS),
    (cube_base(3), QUESTIONS),
    (pn_base(4), QUESTIONS),
    (pn_base(5), QUESTIONS),
    (pn_base(6), ("barycenter",)),
    (cube_base(4), ("volume",)),
)
# (dimension, points on the moment curve, extra interior points)
GEOMETRY_CLOUDS = ((3, 8, 1), (3, 10, 2), (4, 6, 2), (4, 7, 1))


def cloud_points(rng: random.Random, dim: int, k: int,
                 interior: int) -> list[tuple[Fraction, ...]]:
    """k points on the moment curve (a cyclic polytope: every point is a
    vertex, and the facet count is fixed by k) plus strictly interior points."""
    shift = [rng.randint(-3, 3) for _ in range(dim)]
    ts = rng.sample(range(-6, 7) if dim == 3 else range(-5, 6), k)
    hull = [tuple(Fraction(t**e + s) for e, s in zip(range(1, dim + 1), shift)) for t in ts]
    pts = list(hull)
    for _ in range(interior):
        w = [rng.randint(1, 4) for _ in hull]
        tot = sum(w)
        pts.append(tuple(sum(wi * p[i] for wi, p in zip(w, hull)) / tot for i in range(dim)))
    rng.shuffle(pts)
    return pts


def cloud_request(question: str, dim: int, k: int, pts) -> Request:
    data = {"dim": dim, "vertices": [[frac_str(x) for x in p] for p in pts]}
    expect = {"check": "cloud", "question": question, "dim": dim,
              "points": [[float(x) for x in p] for p in pts], "hull_points": k}
    return Request(f"{question}:cloud{dim}d-{k}", (question, "--json", json.dumps(data)), expect)


def _fixed_order(n: int) -> list[int]:
    # the same interleaving for every seed and every round
    order = list(range(n))
    random.Random(0x5EED).shuffle(order)
    return order


def exact_geometry_rounds(seed: int):
    rng = random.Random(seed)
    distinct = _Distinct(rng)
    for base, _ in GEOMETRY_QUESTIONS:
        distinct.claim(base.normals)
    seen_clouds: set = set()
    for r in itertools.count():
        reqs = []
        for base, questions in GEOMETRY_QUESTIONS:
            # the first question of round 0 goes to the preset itself
            reqs += [toric_request(q, base, base.normals if r == 0 and i == 0
                                   else distinct.image(base))
                     for i, q in enumerate(questions)]
        for dim, k, interior in GEOMETRY_CLOUDS:
            for q in ("volume", "barycenter"):
                while True:
                    pts = cloud_points(rng, dim, k, interior)
                    key = tuple(sorted(pts))
                    if key not in seen_clouds:
                        seen_clouds.add(key)
                        break
                reqs.append(cloud_request(q, dim, k, pts))
        yield [reqs[i] for i in _fixed_order(len(reqs))]


# -- sx-cut -------------------------------------------------------------------

# The two real moment polytopes behind the paper's S(X) benchmarks, with
# their vertices (for choosing clip levels strictly inside the polytope).
SX_REAL = {
    "p3-blowup": (((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)),
                  ((-1, -1, 3), (-1, 3, -1), (3, -1, -1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1))),
    "po-o2": (((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (-1, -1, 2)),
              ((-1, -1, 1), (4, -1, 1), (-1, 4, 1), (-1, -1, -1), (0, -1, -1), (-1, 0, -1))),
}
# CLI `sx --preset` solves these normal forms (a, b, |det| of the map).
SX_NORMAL_FORMS = {"p3-blowup": (Fraction(4), Fraction(2), 1),
                   "po-o2": (Fraction(5), Fraction(1), 2)}
SX_REFERENCE = {"p3-blowup": 41.8, "po-o2": 30.3}


def simplex_difference(a: Fraction, b: Fraction):
    """Facets of {x_i >= -1, b - n <= sum x_i <= a - n} in dimension n = 3."""
    n = 3
    normals = [_unit(n, i) for i in range(n)] + [(-1,) * n]
    offsets = [1] * n + [a - n]
    if b > 0:
        normals.append((1,) * n)
        offsets.append(n - b)
    return normals, offsets


def _sx_request(kind: str, argv, **expect) -> Request:
    expect["check"] = kind.split(":")[0]
    return Request(kind, tuple(argv), expect)


def sx_preset_request(name: str) -> Request:
    a, b, det = SX_NORMAL_FORMS[name]
    normals, offsets = simplex_difference(a, b)
    return _sx_request(f"sx-preset:{name}", ("sx", "--preset", name), name=name,
                       normals=normals, offsets=[frac_str(o) for o in offsets],
                       det=det, a=frac_str(a), b=frac_str(b))


def sx_real_request(name: str) -> Request:
    normals = SX_REAL[name][0]
    return _sx_request(f"sx-real:{name}", ("sx", "--json", json.dumps(facets_json(normals))),
                       name=name, normals=normals, offsets=[1] * len(normals), det=1)


def sx_image_request(rng: random.Random, name: str) -> Request:
    """The real polytope under a signed permutation other than the identity."""
    while True:
        perm = rng.sample(range(3), 3)
        signs = [rng.choice((1, -1)) for _ in range(3)]
        if perm != [0, 1, 2] or signs != [1, 1, 1]:
            break
    normals = []
    for l in SX_REAL[name][0]:
        img = [0, 0, 0]
        for i in range(3):
            img[perm[i]] = signs[i] * l[i]
        normals.append(tuple(img))
    return _sx_request(f"sx-image:{name}", ("sx", "--json", json.dumps(facets_json(normals))),
                       name=name, normals=normals, offsets=[1] * len(normals), det=1)


def sx_simplex_difference_request(rng: random.Random) -> Request:
    while True:
        den = rng.choice((1, 2, 3, 4))
        a = Fraction(rng.randint(3 * den + 1, 7 * den), den)
        # b > 0 keeps the inner facet: with b = 0 the body is a simplex and
        # solves in half the time, which would split the latency distribution
        b = Fraction(rng.randint(1, 3 * den - 1), den)
        # barycenter coordinate numerator; zero would need no cut at all
        if a**3 * (a / 4 - 1) - b**3 * (b / 4 - 1) != 0:
            break
    normals, offsets = simplex_difference(a, b)
    return _sx_request("sx-sd:simplex-difference",
                       ("sx", "--json", json.dumps(facets_json(normals, offsets))),
                       a=frac_str(a), b=frac_str(b), normals=normals,
                       offsets=[frac_str(o) for o in offsets], det=1)


def clip_request(rng: random.Random, name: str) -> Request:
    normals, verts = SX_REAL[name]
    while True:
        cut = tuple(rng.randint(-2, 2) for _ in range(3))
        levels = [sum(c * v for c, v in zip(cut, p)) for p in verts]
        if min(levels) < max(levels):
            break
    lo, hi = min(levels), max(levels)
    c = lo + (hi - lo) * Fraction(rng.randint(1, 7), 8)
    argv = ("volume", "--preset", name, "--cut-normal=" + ",".join(map(str, cut)),
            "--cut-offset=" + frac_str(c))
    return _sx_request(f"clip:{name}", argv, name=name, normals=normals,
                       offsets=[1] * len(normals), cut=cut, cutoff=frac_str(c))


def sx_cut_rounds(seed: int):
    rng = random.Random(seed)

    def sd():
        return sx_simplex_difference_request(rng)

    def clip(name):
        return clip_request(rng, name)

    for _ in itertools.count():
        # Clips are 4 of the 18 requests and nine solves take about 0.29 s
        # at reference speed, so the median falls among those nine.
        # reproduce-paper and the four non-preset po-o2 solves (0.36-0.61 s)
        # are the dearest five, fifteen in a run of three rounds, so the
        # sample with ten beyond it falls among them and not on the upper
        # edge of the 0.29 s cluster.
        yield [
            sx_preset_request("p3-blowup"), sd(), clip("p3-blowup"),
            sx_real_request("p3-blowup"), sx_real_request("po-o2"),
            sx_image_request(rng, "p3-blowup"), sd(),
            sx_preset_request("po-o2"), clip("po-o2"), sx_image_request(rng, "po-o2"),
            sx_real_request("po-o2"), sd(), sx_image_request(rng, "po-o2"), clip("p3-blowup"),
            _sx_request("reproduce:paper", ("reproduce-paper",)), sd(), sd(), clip("po-o2"),
        ]


# -- heights ------------------------------------------------------------------

def _twelfths(rng: random.Random, count: int, lo: int = 0) -> list[Fraction]:
    return [Fraction(rng.randint(lo, 11), 12) for _ in range(count)]


def zeta_weights(rng: random.Random, fano: bool) -> list[Fraction]:
    """Semistable weights (w_i <= sum/2) on the requested side of V = 0.

    Off the semistable locus the height formula leaves its real domain and
    the CLI refuses the input with exit code 1."""
    while True:
        ws = _twelfths(rng, 3)
        s = sum(ws)
        if s != 2 and (s < 2) == fano and all(w <= s / 2 for w in ws):
            return ws


def zeta_request(rng: random.Random, fano: bool, precision: float | None = None,
                 flag: bool = False) -> Request:
    ws = zeta_weights(rng, fano)
    data = {"weights": [frac_str(w) for w in ws]}
    argv = ["p1-zeta-height"]
    if precision is not None and flag:
        argv += ["--precision", repr(precision)]
    elif precision is not None:
        data["precision"] = precision
    argv += ["--json", json.dumps(data)]
    branch = "fano" if fano else "continuation"
    return Request(f"p1-zeta:{branch}", tuple(argv),
                   {"check": "zeta", "weights": [frac_str(w) for w in ws]})


def pn_height_request(rng: random.Random) -> Request:
    n = rng.randint(1, 60)
    return Request("pn-height", ("pn-height", "--n", str(n)), {"check": "pn-height", "n": n})


def scaled_height_request(rng: random.Random) -> Request:
    n = rng.randint(1, 8)
    q = rng.randint(1, 12)
    t = Fraction(rng.randint(1, q), q)
    return Request("scaled-height", ("scaled-height", "--n", str(n), "--t", frac_str(t)),
                   {"check": "scaled-height", "n": n, "t": frac_str(t)})


def universal_bound_request(rng: random.Random) -> Request:
    n = rng.randint(1, 6)
    v = Fraction(rng.randint(1, 80), rng.randint(1, 8))
    return Request("universal-bound", ("universal-bound", "--n", str(n), "--volume", frac_str(v)),
                   {"check": "universal-bound", "n": n, "volume": frac_str(v)})


def arrangement_request(rng: random.Random) -> Request:
    n = rng.randint(1, 3)
    while True:
        ws = _twelfths(rng, rng.randint(n + 2, n + 4), lo=1)
        s = sum(ws)
        if s < n + 1 and all(w <= s / (n + 1) for w in ws):
            break
    data = {"n": n, "weights": [frac_str(w) for w in ws]}
    return Request("arrangement-bound", ("arrangement-bound", "--json", json.dumps(data)),
                   {"check": "arrangement-bound", "n": n, "weights": data["weights"]})


def stability_request(rng: random.Random) -> Request:
    n = rng.randint(1, 3)
    m = rng.randint(n + 1, 6)
    if rng.random() < 0.5:      # a perfect n-th power: C is rational
        root = Fraction(rng.randint(1, 4 * (n + 1)), 4)
        d = root**n
    else:
        d = Fraction(rng.randint(1, 9 * (n + 1) ** n), 9)
    argv = ("stability-polytope", "--n", str(n), "--m", str(m), "--degree", frac_str(d))
    return Request("stability-polytope", argv,
                   {"check": "stability-polytope", "n": n, "m": m, "degree": frac_str(d)})


def diagonal_request(rng: random.Random) -> Request:
    n = rng.randint(1, 4)
    d = rng.randint(1, n + 1)
    a = [rng.choice([x for x in range(-9, 10) if x]) for _ in range(n + 2)]
    data = {"n": n, "d": d, "a": a}
    return Request("diagonal", ("diagonal", "--json", json.dumps(data)),
                   {"check": "diagonal", "n": n, "d": d, "a": a})


# Inputs the CLI must refuse with exit code 1 and a diagnostic.
def _malformed(rng: random.Random, r: int) -> Request:
    n = rng.randint(1, 3)
    cases = [
        ("missing-arg", ("pn-height",)),
        ("bad-json", ("p1-zeta-height", "--json", '{"weights": [')),
        ("weight-out-of-range", ("p1-zeta-height", "--json",
                                 json.dumps({"weights": ["3/2", "1/3", "1/4"]}))),
        ("zero-volume", ("p1-zeta-height", "--json",
                         json.dumps({"weights": ["2/3", "2/3", "2/3"]}))),
        ("not-semistable", ("arrangement-bound", "--json",
                            json.dumps({"n": n, "weights": ["9/10"] + ["1/12"] * (n + 1)}))),
        ("degree-out-of-range", ("stability-polytope", "--n", str(n), "--m", "5",
                                 "--degree", str((n + 1) ** n + rng.randint(1, 9)))),
        ("diagonal-missing-key", ("diagonal", "--json", json.dumps({"n": n, "d": 2}))),
        ("unknown-option", ("universal-bound", "--n", str(n), "--bogus", "1")),
    ]
    label, argv = cases[r % len(cases)]
    return Request(f"malformed:{label}", argv, {"check": "malformed"})


# Inputs that still raise out of cli.run at the time this benchmark was
# written, where exit code 1 with a diagnostic is the correct outcome.  They
# are probed once per heights run and reported by kind, outside the timed
# stream, so that the timed stream is one on which no request fails.
KNOWN_DEFECTS = tuple(Request(kind, argv, {"check": "malformed"}) for kind, argv in (
    ("facets-not-a-list", ("volume", "--json", '{"dim": 2, "facets": 5}')),
    ("rational-not-parsed", ("scaled-height", "--n", "2", "--t", "abc")),
    ("precision-not-a-number", ("p1-zeta-height", "--json",
                                '{"weights": ["1/3", "1/4", "1/5"], "precision": "x"}')),
    ("pn-height-overflow", ("pn-height", "--n", "400")),
))


def heights_rounds(seed: int):
    rng = random.Random(seed)
    for r in itertools.count():
        yield [
            zeta_request(rng, True),
            pn_height_request(rng),
            zeta_request(rng, False, 1e-8),
            scaled_height_request(rng),
            zeta_request(rng, True, 1e-6, flag=True),
            universal_bound_request(rng),
            arrangement_request(rng),
            zeta_request(rng, False),
            stability_request(rng),
            diagonal_request(rng),
            zeta_request(rng, True, 1e-10),
            _malformed(rng, r),
            pn_height_request(rng),
            scaled_height_request(rng),
        ]


# -- geometry-batch -----------------------------------------------------------

BATCH_BASES = (del_pezzo_base(3), p2xp1_base(), pn_base(4), pn_base(5))
BATCH_IMAGES_PER_BASE = 2      # pool size: 8 polytopes
BATCH_REPEATS = 3              # each chosen polytope appears 3 times in a batch
# semistable and gap-check batches cost about twice a volume or barycenter
# batch; a second volume and barycenter batch put the median in the middle of
# the cheap batches, away from the gap between the two, and the tail in the
# middle of the dear ones.
BATCH_QUESTIONS = QUESTIONS + ("volume", "barycenter")


def geometry_batch_rounds(seed: int):
    """Each round sends one batch per entry of BATCH_QUESTIONS.  A batch holds
    one pooled image of every base, each repeated BATCH_REPEATS times,
    shuffled: two thirds of the items repeat a polytope already in the same
    CLI call."""
    rng = random.Random(seed)
    distinct = _Distinct(rng)
    pool = {b.name: [distinct.image(b) for _ in range(BATCH_IMAGES_PER_BASE)]
            for b in BATCH_BASES}
    for _ in itertools.count():
        reqs = []
        for q in BATCH_QUESTIONS:
            chosen = [(b, rng.choice(pool[b.name])) for b in BATCH_BASES]
            items = [c for c in chosen for _ in range(BATCH_REPEATS)]
            rng.shuffle(items)
            expects = [toric_expect(q, b, normals) for b, normals in items]
            data = {"batch": [facets_json(normals) for _, normals in items]}
            argv = (q, "--jobs", str(nproc()), "--json", json.dumps(data))
            reqs.append(Request(f"batch:{q}", argv, {"check": "batch", "items": expects},
                                items=len(items)))
        yield reqs


ROUNDS = {
    "exact-geometry": exact_geometry_rounds,
    "sx-cut": sx_cut_rounds,
    "heights": heights_rounds,
    "geometry-batch": geometry_batch_rounds,
}


def requests(workload: str, seed: int, rounds: int):
    """The requests of a workload's first `rounds` rounds, in order, made
    one round at a time."""
    return itertools.chain.from_iterable(itertools.islice(ROUNDS[workload](seed), rounds))


def repeat_share(requests) -> float:
    """Share of requests whose argv was already sent earlier in the run."""
    seen: set = set()
    repeats = 0
    for req in requests:
        repeats += req.argv in seen
        seen.add(req.argv)
    return repeats / len(requests) if requests else 0.0
