"""Coordinate-free toric answers: every answer of ``volume``, ``semistable``,
``gap-check`` and the degree is the same on each GL(n, Z) image of a moment
polytope, and ``barycenter`` maps with it, compared exactly (an error by its
class).  A toric pair is determined by its fan up to a lattice automorphism,
so a difference is a bug.

The inputs are every ``POLYTOPE_PRESETS`` body, the 16 reflexive polygons and
seeded simplices in dimensions 2 to 4, each under 12 seeded images of
``helpers.random_unimodular``.  ``sx`` is not invariant yet: its cut direction
is the barycenter's, which maps by A, while the half-space normals map by A^-T.
"""
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from fanokit import geometry as geom
from fanokit import presets
from fanokit import sx_optimizer as sx
from fanokit import toric_heights as th
from fanokit.errors import FanokitError, NotSemistable
from fanokit.geometry import HPolytope
from fanokit.presets import POLYTOPE_PRESETS
from fanokit.toric_heights import ToricLogFano

from helpers import apply, gl2z_normal_form, image, lattice_subpolygons, random_unimodular

IMAGES = 12


def outcome(f, *args):
    """f(*args), or the class of the fanokit error it raises."""
    try:
        return f(*args)
    except FanokitError as exc:
        return type(exc)


def gap_check(v):
    t = ToricLogFano(v)
    dets = Counter(d for _, d in t.polytope.cones)
    gorenstein = th.is_gorenstein(t) if all(f.offset == 1 for f in v.facets) else None
    return outcome(th.gap_check, t), dets, gorenstein


def answers(v):
    """Every coordinate-free answer for the moment polytope v."""
    return {
        "volume": (len(v.rows), geom.volume(v)),
        "degree": outcome(lambda: th.log_fano_degree(ToricLogFano(v))),
        "semistable": outcome(lambda: th.is_k_semistable(ToricLogFano(v))),
        "gap-check": outcome(gap_check, v),
    }


def reflexive_polygons():
    classes = {}
    for h in (presets.pn_polytope(2), presets.p1xp1_polytope(),
              presets.weighted_p112_polytope()):
        for p in lattice_subpolygons(geom.enumerate_vertices(h)):
            classes.setdefault(gl2z_normal_form(p), p)
    return list(classes.values())


def seeded_simplex(rng, n, anticanonical):
    """n+1 primitive normals with a positive relation, offsets 1 or in (0, 1]:
    a simplex with the origin inside."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        last = [-sum(rng.randint(1, 3) * r[j] for r in rows) for j in range(n)]
        if any(not any(u) for u in rows + [last]):
            continue
        normals = [[x // math.gcd(*u) for x in u] for u in rows + [last]]
        try:
            return geom.enumerate_vertices(HPolytope(n, tuple(
                (tuple(u), 1 if anticanonical else F(rng.randint(1, 4), 4))
                for u in normals)))
        except FanokitError:
            continue   # the normals do not span


def bodies():
    out = [(name, geom.enumerate_vertices(make())) for name, make in POLYTOPE_PRESETS.items()]
    out += [(f"reflexive-{i}", p) for i, p in enumerate(reflexive_polygons())]
    rng = random.Random(2727)
    out += [(f"simplex-{n}-{i}", seeded_simplex(rng, n, i < 2)) for n in (2, 3, 4)
            for i in range(3)]
    return out


BODIES = bodies()


@pytest.mark.parametrize("name, v", BODIES, ids=[name for name, _ in BODIES])
def test_answers_are_invariant(name, v):
    rng = random.Random(name)
    want, bary = answers(v), geom.barycenter(v)
    for _ in range(IMAGES):
        a = random_unimodular(rng, v.dim)
        moved = image(v, a)
        assert answers(moved) == want, a
        assert geom.barycenter(moved) == apply(a, bary), a


def test_inputs():
    # ten presets, sixteen polygons, nine simplices; a verdict and a refusal of
    # the gap check, and every answer of the Gorenstein test, occur
    assert len(BODIES) == 35
    seen = [answers(v)["gap-check"] for _, v in BODIES]
    assert {type(verdict) for verdict, _, _ in seen} == {th.GapReport, type}
    assert NotSemistable in {verdict for verdict, _, _ in seen}
    assert {gorenstein for _, _, gorenstein in seen} == {True, False, None}


@pytest.mark.xfail(strict=True, reason="ROADMAP items 14 and 1: S(X) cuts along the "
                   "barycenter, which maps by A, not along a normal, which maps by A^-T")
@pytest.mark.parametrize("name", sorted(presets.SX_PRESETS))
def test_sx_is_invariant(name):
    v, det = presets.SX_PRESETS[name]()
    want = sx.sx_invariant(v, det)
    rng = random.Random(name)
    for _ in range(IMAGES):
        got = sx.sx_invariant(image(v, random_unimodular(rng, v.dim)), det)
        assert (got.s_value, got.certified) == (want.s_value, want.certified)
