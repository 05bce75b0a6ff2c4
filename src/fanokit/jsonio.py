"""Shared JSON formats.

Polytopes:  {"dim": n, "facets": [{"normal": [int, ...], "offset": "p/q"}]}
        or  {"dim": n, "vertices": [["p/q", ...], ...]}
Rationals are serialized as strings "p/q" (or "p" for integers); integers
are also accepted on input.

Reports are encoded in one pass, byte-identical to ``json.dumps(payload,
sort_keys=True, indent=2)`` with every float rounded by ``round_float``; the
walk makes no closures, so it leaves nothing for the cyclic collector.
"""
from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .errors import InputError
from .geometry import HPolytope, VPolytope


def frac_to_str(x: Fraction) -> str:
    n, d = x.as_integer_ratio()
    return str(n) if d == 1 else f"{n}/{d}"


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
    if "facets" in data and "vertices" in data:
        raise InputError("give 'facets' or 'vertices', not both")
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
            a = f["offset"]   # an int goes on as it is, and make_facet keeps it
            facets.append((tuple(normal), a if type(a) is int else frac_from_json(a)))
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


_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}   # JSON's spelling


def _encode(obj, newline: str, out: list[str]) -> None:
    """Append the JSON of ``obj`` to ``out``; ``newline`` starts its lines."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, float):
        text = repr(round_float(obj))
        out.append(_FLOAT_NAMES.get(text, text))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        inner, sep = newline + "  ", "{"
        for key, value in sorted(obj.items()):   # the keys are strings
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _encode(value, inner, out)
            sep = ","
        out.append(newline + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = newline + "  ", "["
        for value in obj:
            out.append(sep + inner)
            _encode(value, inner, out)
            sep = ","
        out.append(newline + "]" if obj else "[]")
    else:
        json.dumps(obj)   # raises json's TypeError for a type it cannot encode


def dumps(payload: dict) -> str:
    """The report in one pass: the bytes of ``json.dumps(payload, sort_keys=True,
    indent=2)`` with every float rounded by ``round_float``."""
    out: list[str] = []
    _encode(payload, "\n", out)
    return "".join(out)
