"""Shared JSON formats.

Polytopes:  {"dim": n, "facets": [{"normal": [int, ...], "offset": "p/q"}]}
        or  {"dim": n, "vertices": [["p/q", ...], ...]}
Rationals are serialized as strings "p/q" (or "p" for integers); integers
are also accepted on input.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import InputError
from .geometry import HPolytope, VPolytope


def frac_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_from_json(x: Any) -> Fraction:
    if isinstance(x, bool):
        raise InputError(f"expected a rational, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {x!r}") from exc
    raise InputError(f"expected a rational (int or 'p/q' string), got {x!r}")


def polytope_from_json(data: Any) -> HPolytope | VPolytope:
    """The polytope of a JSON object; the geometry constructors check its dimension."""
    if not isinstance(data, dict):
        raise InputError("polytope JSON must be an object")
    for key in ("facets", "vertices"):
        if key in data and not isinstance(data[key], list):
            raise InputError(f"'{key}' must be a list")
    if "facets" in data:
        facets = []
        for f in data["facets"]:
            if not isinstance(f, dict) or "normal" not in f or "offset" not in f:
                raise InputError("each facet needs 'normal' and 'offset'")
            normal = f["normal"]
            if not isinstance(normal, list) or not all(type(a) is int for a in normal):
                raise InputError("facet normal must be a list of integers")
            facets.append((tuple(normal), frac_from_json(f["offset"])))
        return HPolytope(data.get("dim"), tuple(facets))
    if "vertices" in data:
        verts = []
        for v in data["vertices"]:
            if not isinstance(v, list):
                raise InputError("each vertex must be a list")
            verts.append(tuple(frac_from_json(x) for x in v))
        return VPolytope.from_points(data.get("dim"), verts)
    raise InputError("polytope JSON needs 'facets' or 'vertices'")


def weights_from_json(data: Any):
    from .arrangements import WeightVector

    if not isinstance(data, dict) or not isinstance(data.get("weights"), list):
        raise InputError("weights JSON needs 'n' and a 'weights' list")
    return WeightVector(data.get("n"), tuple(frac_from_json(w) for w in data["weights"]))


def round_float(x: float) -> float:
    """12 significant digits, for deterministic byte-identical output."""
    return float(f"{x:.12g}")


def round_floats(obj):
    """Every float in a JSON-like value rounded by ``round_float``."""
    if isinstance(obj, float):
        return round_float(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def dumps(payload: dict) -> str:
    return json.dumps(round_floats(payload), sort_keys=True, indent=2)
