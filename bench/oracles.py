"""Independent checks of every CLI output.

The checks reach each answer by another method than fanokit: scipy's
floating-point hulls for volumes, vertex counts and centroids, mpmath for
the height formulas, exact rational bisection for the closed-form cut
weights, and known exact values (degrees, vertex counts, verdicts) for the
presets and their unimodular images.  ``Oracle.check`` returns None when an
output is accepted and a short reason when it is rejected.
"""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, Delaunay, HalfspaceIntersection, QhullError

from workloads import SX_NORMAL_FORMS, SX_REFERENCE, frac_str

mpmath.mp.dps = 30
REL = 1e-11          # the CLI prints floats to 12 significant digits
GEOM_TOL = 1e-9      # scipy hull arithmetic against exact rationals


def _close(got: float, ref, err: float = 0.0, scale: float = 1.0, rel: float = REL) -> bool:
    ref = float(ref)
    return abs(float(got) - ref) <= err + rel * max(1.0, abs(ref), scale)


# -- floating-point polytopes -------------------------------------------------

def _body(points: np.ndarray) -> tuple[float, np.ndarray, int, np.ndarray]:
    """(volume, centroid, vertex count, vertices) of conv(points)."""
    n = points.shape[1]
    hull = ConvexHull(points)
    simplices = points[Delaunay(points).simplices]
    vols = np.abs(np.linalg.det(simplices[:, 1:, :] - simplices[:, :1, :])) / math.factorial(n)
    centroid = (vols[:, None] * simplices.mean(axis=1)).sum(axis=0) / vols.sum()
    return hull.volume, centroid, len(hull.vertices), points[hull.vertices]


@lru_cache(maxsize=4096)
def hpolytope(normals: tuple, offsets: tuple) -> tuple[float, np.ndarray, int, np.ndarray]:
    """The bounded full-dimensional body {x : <l, x> >= -a}."""
    hs = np.array([[-float(c) for c in l] + [-float(a)] for l, a in zip(normals, offsets)])
    # Chebyshev centre: the centre of the largest inscribed ball is interior
    norms = np.linalg.norm(hs[:, :-1], axis=1)
    n = hs.shape[1] - 1
    lp = linprog(np.r_[np.zeros(n), -1.0], A_ub=np.c_[hs[:, :-1], norms], b_ub=-hs[:, -1],
                 bounds=[(None, None)] * n + [(0, None)])
    pts = HalfspaceIntersection(hs, lp.x[:n]).intersections
    # a vertex where more than dim facets meet comes out several times
    pts = np.unique(np.round(pts, 9), axis=0)
    return _body(pts)


@lru_cache(maxsize=4096)
def cloud(points: tuple) -> tuple[float, np.ndarray, int, np.ndarray]:
    return _body(np.array(points, dtype=float))


def _vec_close(got, ref: np.ndarray, scale: float) -> bool:
    return len(got) == len(ref) and all(
        abs(float(g) - r) <= GEOM_TOL * max(1.0, scale) for g, r in zip(got, ref))


def _primitive(direction: np.ndarray) -> tuple[int, ...]:
    """Small primitive integer vector along a float direction."""
    big = max(abs(x) for x in direction)
    fr = [Fraction(float(x / big)).limit_denominator(1000) for x in direction]
    den = math.lcm(*(f.denominator for f in fr))
    ints = [int(f * den) for f in fr]
    g = math.gcd(*ints)
    return tuple(i // g for i in ints)


# -- closed forms -------------------------------------------------------------

def _bisect(f, lo: Fraction, hi: Fraction) -> Fraction:
    """Root of f on [lo, hi] where f changes sign, to 2^-64 of the width."""
    flo = f(lo) < 0
    for _ in range(64):
        mid = (lo + hi) / 2
        if (f(mid) < 0) == flo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def sd_cut(a: Fraction, b: Fraction) -> tuple[float, float]:
    """(n!S, w) for the simplex difference (a Delta - 1) \\ (b Delta - 1), n = 3.

    The optimal cut is a hyperplane sum x = const, so the cut body is again a
    simplex difference, whose barycenter vanishes when
    g(a') = g(b') with g(r) = r^n (r/(n+1) - 1).  When the barycenter points
    along +(1,...,1) the outer level a' moves in; otherwise the inner level
    b' moves out."""
    n = 3

    def g(r):
        return r**n * (r / (n + 1) - 1)

    if g(a) > g(b):            # barycenter along +(1,...,1)
        r = _bisect(lambda x: g(x) - g(b), Fraction(max(b, n)), a)
        return float(r**n - b**n), float(a - r)
    r = _bisect(lambda x: g(x) - g(a), b, Fraction(min(a, n)))
    return float(a**n - r**n), float(r - b)


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def pn_height(n: int):
    h = mpmath.fsum(mpmath.mpf(1) / k for k in range(1, n + 1))
    return mpmath.mpf(n + 1) ** (n + 1) / 2 * (
        (n + 1) * h - n + n * mpmath.log(mpmath.pi) - mpmath.log(mpmath.factorial(n)))


def a_n(n: int):
    return pn_height(n) / mpmath.mpf(n + 1) ** (n + 1)


@lru_cache(maxsize=None)
def big_f(x: Fraction):
    """F(x) = zeta(-1, x) + zeta'(-1, x), continued to -1 < x < 0 through
    zeta(s, x) = x^-s + zeta(s, x + 1); F(0) = F(1)."""
    if x < 0:
        xm = _mp(x)
        return big_f(x + 1) + xm - xm * mpmath.log(mpmath.mpc(xm))
    xm = _mp(x) if x > 0 else mpmath.mpf(1)
    return mpmath.mpc(mpmath.zeta(-1, xm) + mpmath.zeta(-1, xm, 1))


def p1_height(ws: list[Fraction]):
    v = 2 - sum(ws)
    h = v / 2

    def gamma(a, b):
        return (big_f(b) - big_f(a)) + (big_f(1 - b) - big_f(1 - a))

    total = gamma(Fraction(0), h) + sum(gamma(w, w + h) for w in ws)
    vm = _mp(v)
    bracket = (1 + mpmath.log(mpmath.pi) - mpmath.log(mpmath.mpc(vm / 2))) / 2 - total / vm
    return (2 * vm * bracket).real


def _iroot(v: int, n: int) -> int | None:
    lo, hi = 0, 1
    while hi**n < v:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < v:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == v else None


def _report_ok(rep: dict, ref, convention: str, formula: str, scale: float = 1.0) -> bool:
    return (rep["convention"] == convention and rep["formula"] == formula
            and rep["abs_error"] >= 0 and _close(rep["value"], ref, rep["abs_error"], scale))


# -- the oracle ---------------------------------------------------------------

class Oracle:
    def __init__(self):
        self.sx_real: dict[str, dict] = {}   # base output that images must repeat

    def check(self, req, outcome) -> str | None:
        exp = req.expect
        if outcome.exc is not None:
            return f"raised {outcome.exc}"
        if exp["check"] == "malformed":
            if outcome.rc != 1:
                return f"exit code {outcome.rc}, expected 1"
            if outcome.out or not outcome.err.strip():
                return "expected a diagnostic on stderr only"
            return None
        if outcome.rc != 0:
            return f"exit code {outcome.rc}: {outcome.err.strip()[:160]}"
        try:
            payload = json.loads(outcome.out)
            return getattr(self, "_" + exp["check"].replace("-", "_"))(exp, payload)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError,
                QhullError) as exc:
            return f"unreadable output: {exc!r}"

    # geometry ----------------------------------------------------------------

    def _toric(self, exp: dict, p: dict) -> str | None:
        q, normals = exp["question"], tuple(exp["normals"])
        n = len(normals[0])
        vol, centroid, nverts, verts = hpolytope(normals, (1,) * len(normals))
        known_volume = Fraction(exp["poly_volume"])
        if nverts != exp["vertex_count"] or not _close(vol, known_volume, rel=GEOM_TOL):
            return "benchmark data disagrees with scipy"
        if q == "volume":
            want = {"vertex_count": exp["vertex_count"], "poly_volume": exp["poly_volume"],
                    "degree": frac_str(math.factorial(n) * Fraction(exp["poly_volume"]))}
            return None if p == want else f"volume {p} != {want}"
        if q == "gap-check":
            want = {"verdict": exp["gap_verdict"], "poly_volume": exp["poly_volume"],
                    "gap_threshold": frac_str(Fraction(2 * n**n, math.factorial(n))),
                    "singular": False, "certificate_bound": None, "certificate_holds": None,
                    "vertex_dets": [1] * exp["vertex_count"], "all_vertices_simple": True,
                    "gorenstein": True}
            return None if p == want else f"gap-check {p} != {want}"
        bary = [Fraction(x) for x in p["barycenter"]]
        if not _vec_close(bary, centroid, np.abs(verts).max()):
            return f"barycenter {p['barycenter']} far from {centroid.tolist()}"
        if exp["semistable"] != all(x == 0 for x in bary):
            return "barycenter vanishing disagrees with the known verdict"
        if q == "barycenter":
            ok = set(p) == {"barycenter", "is_origin"} and p["is_origin"] == exp["semistable"]
        else:
            ok = (set(p) == {"kind", "semistable", "barycenter"} and p["kind"] == "toric"
                  and p["semistable"] == exp["semistable"])
        return None if ok else f"{q} flags wrong: {p}"

    def _cloud(self, exp: dict, p: dict) -> str | None:
        pts = tuple(map(tuple, exp["points"]))
        vol, centroid, nverts, verts = cloud(pts)
        if exp["question"] == "volume":
            pv = Fraction(p["poly_volume"])
            ok = (set(p) == {"vertex_count", "poly_volume", "degree"}
                  and p["vertex_count"] == nverts == exp["hull_points"]
                  and _close(pv, vol, rel=GEOM_TOL)
                  and Fraction(p["degree"]) == math.factorial(exp["dim"]) * pv)
            return None if ok else f"cloud volume {p} vs scipy {vol} / {nverts} vertices"
        bary = [Fraction(x) for x in p["barycenter"]]
        ok = (_vec_close(bary, centroid, np.abs(verts).max())
              and p["is_origin"] == all(x == 0 for x in bary))
        return None if ok else f"cloud barycenter {p['barycenter']} vs scipy {centroid.tolist()}"

    def _batch(self, exp: dict, p: dict) -> str | None:
        results = p["results"]
        if set(p) != {"results"} or len(results) != len(exp["items"]):
            return "batch result count differs from the batch"
        for i, (item, out) in enumerate(zip(exp["items"], results)):
            why = self._toric(item, out)
            if why:
                return f"item {i}: {why}"
        return None

    # S(X) --------------------------------------------------------------------

    def _sx_float(self, exp: dict, p: dict) -> str | None:
        """Re-cut the polytope with scipy at the reported weight: the cut body
        must have the reported volume and zero moment along the cut direction."""
        normals = tuple(map(tuple, exp["normals"]))
        offsets = tuple(Fraction(o) for o in exp["offsets"])
        vol, centroid, _, verts = hpolytope(normals, offsets)
        nf = math.factorial(len(normals[0]))
        s, w, det = p["n_factorial_S"], p["w"], exp["det"]
        scale = float(np.abs(verts).max())
        if np.abs(centroid).max() < GEOM_TOL * scale:
            ok = w == 0 and p["certified"] and _close(s, nf * vol / det, rel=1e-7)
            return None if ok else "semistable input must need no cut"
        u = _primitive(centroid)
        c = max(float(np.dot(u, v)) for v in verts) - w
        cvol, ccen, _, _ = hpolytope(normals + (tuple(-x for x in u),), offsets + (Fraction(c),))
        residual = float(np.abs(ccen).max())
        if not _close(s, nf * cvol / det, rel=1e-7):
            return f"n!S {s} but the cut body has n!vol {nf * cvol / det}"
        if abs(float(np.dot(u, ccen))) > 1e-7 * scale:
            return "cut body has nonzero moment along the cut direction"
        if p["certified"] != (residual < 1e-7):
            return f"certified={p['certified']} but the cut barycenter is {ccen.tolist()}"
        if not p["certified"] and abs(p["residual"] - residual) > 1e-6:
            return f"residual {p['residual']} != {residual}"
        return None

    def _sx_preset(self, exp: dict, p: dict) -> str | None:
        a, b, _ = SX_NORMAL_FORMS[exp["name"]]
        _, w = sd_cut(a, b)
        ok = (set(p) == {"certified", "closed_form_w", "n_factorial_S", "preset", "residual", "w"}
              and p["preset"] == exp["name"] and p["certified"]
              and abs(p["n_factorial_S"] - SX_REFERENCE[exp["name"]]) <= 0.05
              and abs(p["closed_form_w"] - w) <= 1e-10)
        return self._sx_float(exp, p) if ok else f"sx preset {p} (closed-form w {w})"

    def _sx_sd(self, exp: dict, p: dict) -> str | None:
        s, w = sd_cut(Fraction(exp["a"]), Fraction(exp["b"]))
        ok = (set(p) == {"certified", "n_factorial_S", "residual", "w"} and p["certified"]
              and p["residual"] <= 1e-9 and _close(p["n_factorial_S"], s, rel=1e-9)
              and _close(p["w"], w, rel=1e-9))
        why = f"simplex difference {exp['a']}, {exp['b']}: {p}; closed form {s}, {w}"
        return None if ok else why

    def _sx_real(self, exp: dict, p: dict) -> str | None:
        first = self.sx_real.setdefault(exp["name"], p)
        if first != p:
            return "same input gave a different answer"
        return self._sx_float(exp, p)

    def _sx_image(self, exp: dict, p: dict) -> str | None:
        base = self.sx_real.get(exp["name"])
        if base is not None and base != p:
            return f"signed-permutation image changed the answer: {p} vs {base}"
        return self._sx_float(exp, p)

    def _clip(self, exp: dict, p: dict) -> str | None:
        normals = tuple(map(tuple, exp["normals"])) + (tuple(-x for x in exp["cut"]),)
        offsets = tuple(exp["offsets"]) + (Fraction(exp["cutoff"]),)
        vol, _, nverts, _ = hpolytope(normals, offsets)
        pv = Fraction(p["poly_volume"])
        ok = (set(p) == {"vertex_count", "poly_volume", "degree"} and p["vertex_count"] == nverts
              and _close(pv, vol, rel=GEOM_TOL) and Fraction(p["degree"]) == 6 * pv)
        return None if ok else f"clip {p} vs scipy volume {vol}, {nverts} vertices"

    def _reproduce(self, exp: dict, p: dict) -> str | None:
        want = {
            "n!S(X), P3 blown up in one point": (41.8, 0.05),
            "n!S(X), P(O+O(2))": (30.3, 0.05),
            "cut weight w, P3 blown up in one point": (sd_cut(Fraction(4), Fraction(2))[1], 1e-10),
            "cut weight w, P(O+O(2))": (sd_cut(Fraction(5), Fraction(1))[1], 1e-10),
            "degree, P3 blown up in one point": (56, 0),
            "degree, P(O+O(2))": (62, 0),
            "degree, P2xP1": (54, 0),
            "barycenter coordinate, P3 blowup polytope": (1 / 14, 0),
            "Mabuchi constant of P^1_Z": (-1 - math.log(math.pi), 1e-12),
            "stability polytope vertex count, (n,m,D)=(1,3,1)": (3, 0),
            "stability polytope vertex count, (n,m,D)=(2,5,4)": (10, 0),
            "diagonal correction, (n,d,a)=(2,3,(1,1,1,8))": (-2 * math.log(8), 1e-9),
            "degree, P2": (9, 0), "degree, Bl_1 P2": (8, 0), "degree, Bl_2 P2": (7, 0),
            "degree, Bl_3 P2": (6, 0), "degree, P1xP1": (8, 0),
            "volume ratio under the determinant-2 normal-form map": (2, 0),
        }
        want.update({f"degree, P^{n}": ((n + 1) ** n, 0) for n in range(1, 5)})
        rows = {r["name"]: r for r in p["rows"]}
        if not p["all_pass"] or set(rows) != set(want) or len(rows) != len(p["rows"]):
            return "reproduce-paper rows differ from the paper's list"
        for name, (ref, tol) in want.items():
            if abs(rows[name]["computed"] - ref) > tol + REL * max(1.0, abs(ref)):
                return f"row {name!r}: {rows[name]['computed']} vs {ref}"
        return None

    # heights -----------------------------------------------------------------

    def _zeta(self, exp: dict, p: dict) -> str | None:
        ws = [Fraction(w) for w in exp["weights"]]
        v = 2 - sum(ws)
        branch = "fano" if v > 0 else "continuation"
        semistable = all(w < 1 for w in ws) and all(w <= sum(ws) / 2 for w in ws)
        ok = (_report_ok(p, p1_height(ws), "raw_height", f"p1_three_points_zeta[{branch}]")
              and p["branch"] == branch and p["semistable_advisory"] == semistable
              and _close(p["V"], v))
        return None if ok else f"p1 height {p} vs mpmath {mpmath.nstr(p1_height(ws), 15)}"

    def _pn_height(self, exp: dict, p: dict) -> str | None:
        n = exp["n"]
        ref = pn_height(n)
        ok = (_report_ok(p, ref, "raw_height", "pn_fubini_study") and p["n"] == n
              and _close(p["a_n"], a_n(n)))
        return None if ok else f"pn-height {n}: {p} vs {mpmath.nstr(ref, 15)}"

    def _scaled_height(self, exp: dict, p: dict) -> str | None:
        n, t = exp["n"], Fraction(exp["t"])
        v_t = _mp(t**n * Fraction((n + 1) ** n, math.factorial(n)))
        ref = math.factorial(n + 1) * v_t * (a_n(n) - mpmath.mpf(n) / 2 * mpmath.log(_mp(t)))
        ok = (_report_ok(p, ref, "raw_height", "scaled_divisor_family")
              and p["n"] == n and p["t"] == exp["t"])
        return None if ok else f"scaled-height {p} vs {mpmath.nstr(ref, 15)}"

    def _universal_bound(self, exp: dict, p: dict) -> str | None:
        n, v = exp["n"], Fraction(exp["volume"])
        vm = _mp(v)
        lead = mpmath.factorial(n + 1) / 2 * vm
        ref = lead * (n * mpmath.log(2 * mpmath.pi**2) - mpmath.log(vm))
        ok = (_report_ok(p, ref, "bound_on_height", "universal_toric_bound",
                         scale=float(lead * n * 4)) and p["n"] == n
              and p["poly_volume"] == frac_str(v))
        return None if ok else f"universal-bound {p} vs {mpmath.nstr(ref, 15)}"

    def _arrangement_bound(self, exp: dict, p: dict) -> str | None:
        n, ws = exp["n"], [Fraction(w) for w in exp["weights"]]
        total = sum(ws)
        degree = (n + 1 - total) ** n
        v = degree / math.factorial(n)
        lead = mpmath.factorial(n + 1) / 2 * _mp(v)
        ref = lead * (n * mpmath.log(n + 1) + 2 * a_n(n) - mpmath.log(_mp(math.factorial(n) * v)))
        if not (_report_ok(p, ref, "bound_on_height", "arrangement_bound", scale=float(lead) * 10)
                and p["degree"] == frac_str(degree)
                and p["t_toric"] == frac_str(1 - total / (n + 1))):
            return f"arrangement-bound {p} vs {mpmath.nstr(ref, 15)}"
        mu = [w * (n + 1) / total for w in ws] if total else [Fraction(0)] * len(ws)
        got = [Fraction(0)] * len(ws)
        coeff_sum = Fraction(0)
        for part in p["decomposition"]:
            c, support = Fraction(part["coeff"]), part["support"]
            if c <= 0 or len(set(support)) != n + 1 or not set(support) <= set(range(len(ws))):
                return f"bad decomposition part {part}"
            coeff_sum += c
            for i in support:
                got[i] += c
        if total and (coeff_sum != 1 or got != mu):
            return "decomposition does not reconstruct mu with coefficients summing to 1"
        return None

    def _stability_polytope(self, exp: dict, p: dict) -> str | None:
        n, m, d = exp["n"], exp["m"], Fraction(exp["degree"])
        num, den = _iroot(d.numerator, n), _iroot(d.denominator, n)
        exact = num is not None and den is not None
        c_ref = n + 1 - (Fraction(num, den) if exact else float(d) ** (1 / n))
        subsets = list(itertools.combinations(range(m), n + 1))
        if not (p["n"] == n and p["m"] == m and p["degree"] == frac_str(d)
                and p["c_exact"] == exact
                and p["vertex_count"] == len(subsets) == len(p["vertices"])):
            return f"stability polytope header {p['c_exact']}, {p['vertex_count']} vertices"
        c = Fraction(p["c"]) if exact else p["c"]
        if (c != c_ref) if exact else not _close(c, c_ref):
            return f"C = {p['c']}, expected {c_ref}"
        for subset, vert in zip(subsets, p["vertices"]):
            for i, x in enumerate(vert):
                want = c_ref / (n + 1) if i in subset else 0
                if (Fraction(x) != want) if exact else not _close(float(Fraction(x)), want):
                    return f"vertex for {subset} is {vert}"
        return None

    def _diagonal(self, exp: dict, p: dict) -> str | None:
        n, d, a = exp["n"], exp["d"], exp["a"]
        logs = mpmath.fsum(mpmath.log(abs(x)) for x in a)
        k = (1 - d) * (n + 2 - d) ** n
        corr, delta = k * logs, 2 * k * logs
        lam = Fraction(d * (n + 2 - d) ** n, (n + 1) ** n)
        v0 = Fraction((n + 1) ** n, math.factorial(n))
        fermat = mpmath.factorial(n + 1) / 2 * _mp(lam * v0) * (2 * a_n(n) - mpmath.log(_mp(lam)))
        pn = pn_height(n)
        scale = float(abs(pn) + abs(corr) + abs(fermat) + abs(delta))
        ok = (_report_ok(p["bound"], pn + corr, "bound_on_height", "diagonal_hypersurface_bound",
                         scale)
              and _report_ok(p["fermat_bound"], fermat, "bound_on_height", "fermat_cover_bound",
                             scale)
              and _close(p["correction"], corr, scale=scale)
              and _close(p["fermat_delta"], delta, scale=scale)
              and _close(p["chain_bound"], fermat + delta, scale=scale)
              and _close(p["lambda"], lam) and p["strict"] == (d >= 2)
              and p["branch_weights"] == [frac_str(1 - Fraction(1, d))] * (n + 2)
              and p["cover_degree_check"] == {"topological": str(d ** (n + 1)),
                                              "volume_ratio": str(d ** (n + 1))}
              and "general_delta" not in p)
        return None if ok else f"diagonal {n},{d},{a}: {p}"
