"""Built-in moment polytopes used by the CLI presets and the test suite."""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import OutOfRange
from .geometry import HPolytope, enumerate_vertices


def pn_polytope(n: int) -> HPolytope:
    """Anticanonical polytope of P^n: {x_i >= -1, sum x_i <= 1}."""
    facets = [(tuple(1 if j == i else 0 for j in range(n)), 1) for i in range(n)]
    facets.append((tuple(-1 for _ in range(n)), 1))
    return HPolytope(n, tuple(facets))


def pn_times_p1_polytope(n: int) -> HPolytope:
    """Anticanonical polytope of P^{n-1} x P^1 (degree 2 n^n)."""
    if n < 2:
        raise OutOfRange("need n >= 2")
    m = n - 1
    facets = [
        (tuple((1 if j == i else 0) for j in range(n)), 1) for i in range(m)
    ]
    facets.append((tuple([-1] * m + [0]), 1))
    facets.append((tuple([0] * m + [1]), 1))
    facets.append((tuple([0] * m + [-1]), 1))
    return HPolytope(n, tuple(facets))


def p3_blowup_polytope() -> HPolytope:
    """P^3 blown up in one point (degree 56): the simplex difference
    (4*Delta_3 - 1) \\ (2*Delta_3 - 1), already in unimodular coordinates."""
    return HPolytope(
        3,
        (
            ((1, 0, 0), 1),
            ((0, 1, 0), 1),
            ((0, 0, 1), 1),
            ((-1, -1, -1), 1),
            ((1, 1, 1), 1),
        ),
    )


def po_o2_polytope() -> HPolytope:
    """P(O + O(2)) over P^2 (degree 62), genuine moment polytope."""
    return HPolytope(
        3,
        (
            ((1, 0, 0), 1),
            ((0, 1, 0), 1),
            ((0, 0, 1), 1),
            ((0, 0, -1), 1),
            ((-1, -1, 2), 1),
        ),
    )


def po_o2_normal_form() -> HPolytope:
    """P(O + O(2)) under (x, y, z) -> (x, y, 2z - x - y), of determinant 2: the simplex
    difference (5*Delta_3 - 1) \\ (Delta_3 - 1), with its barycenter on the axis (1, 1, 1)."""
    return HPolytope(3, (((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
                         ((-1, -1, -1), 2), ((1, 1, 1), 2)))


def p1xp1_polytope() -> HPolytope:
    return HPolytope(2, (((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)))


def p2_blowup_polytope(m: int) -> HPolytope:
    """Toric del Pezzo: P^2 blown up in m torus-fixed points, m <= 3."""
    if not 0 <= m <= 3:
        raise OutOfRange("m must be 0..3")
    facets = [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]
    cuts = [((-1, 0), 1), ((0, -1), 1), ((1, 1), 1)]
    return HPolytope(2, tuple(facets + cuts[:m]))


def weighted_p112_polytope() -> HPolytope:
    """P(1,1,2) anticanonical polytope (fan rays e1, e2, -e1-2e2)."""
    return HPolytope(2, (((1, 0), 1), ((0, 1), 1), ((-1, -2), 1)))


def weighted_p112_centered() -> HPolytope:
    """A K-semistable log structure on P(1,1,2): offsets (1, 1/2, 1)."""
    return HPolytope(
        2, (((1, 0), 1), ((0, 1), Fraction(1, 2)), ((-1, -2), 1))
    )


def weighted_p113_polytope() -> HPolytope:
    """P(1,1,3) anticanonical polytope; non-reflexive (vertex (-1, 2/3))."""
    return HPolytope(2, (((1, 0), 1), ((0, 1), 1), ((-1, -3), 1)))


# name -> (the body sx_invariant solves on, |det| of the map that produced it)
SX_PRESETS = {
    "p3-blowup": lambda: (enumerate_vertices(p3_blowup_polytope()), 1),
    "po-o2": lambda: (enumerate_vertices(po_o2_normal_form()), 2),
}

# Cardano's radical for each preset's cut weight w: the root of
# (a-w)^3 ((a-w)/4 - 1) = b^3 (b/4 - 1) with a - w in (3, 4], where the body is
# (a*Delta_3 - 1) \ (b*Delta_3 - 1): (a, b) = (4, 2) and (5, 1)
_R = (19 - 3 * math.sqrt(33)) ** (1 / 3)
_S = 2 - math.sqrt(2)
SX_CLOSED_FORM_W = {
    "p3-blowup": (2 / 3) * (5 - 4 / _R - _R),
    "po-o2": 4 - (4 / _S) ** (1 / 3) - (2 * _S) ** (1 / 3),
}

POLYTOPE_PRESETS = {
    "p3-blowup": p3_blowup_polytope,
    "po-o2": po_o2_polytope,
    "p1xp1": p1xp1_polytope,
    "p2xp1": lambda: pn_times_p1_polytope(3),
}
POLYTOPE_PRESETS.update(
    {f"p{n}": (lambda n=n: pn_polytope(n)) for n in range(1, 7)}
)
