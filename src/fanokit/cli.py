"""Command-line front door.

Every subcommand reads JSON (inline via --json, from a file via --input, or
from a preset), dispatches to the library and emits a report as JSON, CSV or
an aligned table.  Exit codes: 0 success, 1 invalid input, 2 numerical
failure (non-convergence or a reproduction mismatch).

A top-level {"batch": [item, ...]} input runs the subcommand over each item
in order (--jobs is accepted and ignored).  Every polytope input becomes one
``VPolytope``: a preset or facet list is enumerated once, a cloud hulled once.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import arrangements as arr
from . import geometry as geom
from . import hypersurfaces as hyp
from . import jsonio
from . import presets
from . import sx_optimizer as sx
from . import toric_heights as toric
from . import zeta
from .errors import FanokitError, InputError, NumericalError


def _load_input(args) -> dict | None:
    if args.json is not None and args.input:
        raise InputError("use --input or --json, not both")
    raw = args.json or None
    if raw is None and args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
    if raw is None:
        return None
    try:
        data = json.loads(raw)
    except ValueError as exc:   # a JSONDecodeError, or an integer beyond the digit limit
        raise InputError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("top-level JSON must be an object")
    return data


def _target(args, data) -> float:
    eps = args.precision
    if data is not None and "precision" in data:
        raw = data["precision"]
        try:
            eps = float(raw)
        except (TypeError, ValueError):
            eps = None
        if eps is None or isinstance(raw, bool):   # float(True) would be the target 1.0
            raise InputError(f"bad precision value {raw!r}")
    return eps


def _read_polytope(data, args) -> geom.HPolytope | geom.VPolytope:
    if args.preset:
        if data is not None:
            raise InputError("give either --preset or an input, not both")
        return presets.POLYTOPE_PRESETS[args.preset]()
    if data is None:
        raise InputError("missing input: give --input, --json or --preset")
    return jsonio.polytope_from_json(data)


def _need_polytope(data, args) -> geom.VPolytope:
    """The input polytope with its vertices and facets; a point cloud is already hulled."""
    p = _read_polytope(data, args)
    return p if isinstance(p, geom.VPolytope) else geom.enumerate_vertices(p)


# -- subcommand handlers -----------------------------------------------------

def _cmd_semistable(args, data) -> dict:
    if data is not None and "weights" in data:
        # the k-subset form of the criterion is implied by its k = 1 case,
        # so full_criterion repeats the one exact test
        ok = arr.is_arrangement_semistable(jsonio.weights_from_json(data))
        return {"kind": "arrangement", "semistable": ok, "full_criterion": ok}
    # ToricLogFano checks every given offset before it enumerates the vertices
    t = toric.ToricLogFano(_read_polytope(data, args))
    return {
        "kind": "toric",
        "semistable": toric.is_k_semistable(t),
        "barycenter": [jsonio.frac_to_str(x) for x in geom.barycenter(t.polytope)],
    }


def _cmd_volume(args, data) -> dict:
    v = _need_polytope(data, args)
    if args.cut_normal is not None or args.cut_offset is not None:
        if args.cut_normal is None or args.cut_offset is None:
            raise InputError("--cut-normal and --cut-offset go together")
        try:
            normal = tuple(int(x) for x in args.cut_normal.split(","))
        except ValueError as exc:
            raise InputError(f"bad cut normal: {exc}") from exc
        v = geom.intersect_halfspace(v, normal, jsonio.frac_from_json(args.cut_offset))
    vol = geom.volume(v)
    return {
        "vertex_count": len(v.rows),
        "poly_volume": jsonio.frac_to_str(vol),
        "degree": jsonio.frac_to_str(math.factorial(v.dim) * vol),
    }


def _cmd_barycenter(args, data) -> dict:
    bary = geom.barycenter(_need_polytope(data, args))
    return {
        "barycenter": [jsonio.frac_to_str(x) for x in bary],
        "is_origin": all(x == 0 for x in bary),
    }


def _cmd_sx(args, data) -> dict:
    if not args.preset:
        return sx.sx_invariant(_need_polytope(data, args)).to_json()
    if data is not None:
        raise InputError("give either --preset or an input, not both")
    payload = sx.sx_invariant(*presets.SX_PRESETS[args.preset]()).to_json()
    payload["preset"] = args.preset
    payload["closed_form_w"] = presets.SX_CLOSED_FORM_W[args.preset]
    return payload


def _cmd_pn_height(args, data) -> dict:
    rep = toric.pn_height(args.n)
    out = rep.to_json()
    out["n"] = args.n
    out["a_n"] = toric.a_n_constant(args.n)
    return out


def _cmd_scaled_height(args, data) -> dict:
    rep = toric.scaled_divisor_height(args.n, jsonio.frac_from_json(args.t))
    out = rep.to_json()
    out["n"] = args.n
    out["t"] = args.t
    return out


def _cmd_universal_bound(args, data) -> dict:
    v = jsonio.frac_from_json(args.volume)
    rep = toric.universal_height_bound(args.n, v)
    out = rep.to_json()
    out["n"] = args.n
    out["poly_volume"] = jsonio.frac_to_str(v)
    return out


def _cmd_gap_check(args, data) -> dict:
    t = toric.ToricLogFano(_read_polytope(data, args))
    report = toric.gap_check(t)
    cones = t.polytope.cones
    gorenstein = toric.is_gorenstein(t) if all(f.offset == 1 for f in t.polytope.facets) else None
    return {
        "verdict": report.verdict.value,
        "poly_volume": jsonio.frac_to_str(report.poly_volume),
        "gap_threshold": jsonio.frac_to_str(report.gap_threshold),
        "singular": report.singular,
        "certificate_bound": (None if report.certificate_bound is None
                              else jsonio.frac_to_str(report.certificate_bound)),
        "certificate_holds": report.certificate_holds,
        "vertex_dets": [d for _, d in cones],
        "all_vertices_simple": all(d is not None for _, d in cones),
        "gorenstein": gorenstein,
    }


def _cmd_stability_polytope(args, data) -> dict:
    sp = arr.stability_polytope(args.n, args.m, jsonio.frac_from_json(args.degree))
    c = jsonio.frac_to_str(sp.c_value) if sp.c_exact else float(sp.c_value)
    # every vertex permutes the first one's weights: format each distinct one once
    text = {x: jsonio.frac_to_str(x) for x in set(sp.vertices[0].weights)} if sp.vertices else {}
    return {
        "n": sp.n,
        "m": sp.m,
        "degree": jsonio.frac_to_str(sp.target_degree),
        "c": c,
        "c_exact": sp.c_exact,
        "vertex_count": len(sp.vertices),
        "vertices": [[text[x] for x in v.weights] for v in sp.vertices],
    }


def _cmd_arrangement_bound(args, data) -> dict:
    w = jsonio.weights_from_json(data)
    rep = arr.arrangement_height_bound(w)
    red = arr.reduce_to_toric(w)
    out = rep.to_json()
    out["degree"] = jsonio.frac_to_str(red.degree)
    out["t_toric"] = jsonio.frac_to_str(red.t)
    out["decomposition"] = [
        {"support": list(supp), "coeff": jsonio.frac_to_str(c)}
        for supp, c in red.decomposition
    ]
    return out


def _cmd_diagonal(args, data) -> dict:
    if data is None:
        raise InputError('diagonal needs JSON {"n": int, "d": int, "a": [int,...]}')
    for key in ("n", "d", "a"):
        if key not in data:
            raise InputError(f"diagonal input is missing {key!r}")
    if not isinstance(data["a"], list):
        raise InputError("'a' must be a list of integers")
    spec = hyp.DiagonalHypersurfaceSpec(data["n"], data["d"], tuple(data["a"]))
    bound = hyp.diagonal_theorem_bound(spec)
    branch = hyp.branch_arrangement(spec)
    # d (n+2-d)^n / ((n+2-d)/d)^n = d^{n+1}: the cover's degree is its volume ratio
    degree = str(spec.d ** (spec.n + 1))
    out = {
        "bound": bound.report.to_json(),
        "correction": bound.correction,
        "fermat_delta": 2 * bound.correction,
        "chain_bound": bound.fermat.value + 2 * bound.correction,
        "lambda": float(hyp.lambda_ratio(spec.n, spec.d)),
        "strict": bound.strict,
        "fermat_bound": bound.fermat.to_json(),
        "branch_weights": [jsonio.frac_to_str(x) for x in branch.weights],
        "cover_degree_check": {"topological": degree, "volume_ratio": degree},
    }
    if args.det_t is not None:
        out["general_delta"] = hyp.general_linear_height_delta(
            spec.n, spec.d, args.det_t
        )
    return out


def _cmd_p1_zeta_height(args, data) -> dict:
    if data is None or "weights" not in data:
        raise InputError('p1-zeta-height needs JSON {"weights": ["p/q","p/q","p/q"]}')
    ws = data["weights"]
    if not isinstance(ws, list) or len(ws) != 3:
        raise InputError("'weights' must be a list of three rationals")
    inp = zeta.ZetaHeightInput(*(jsonio.frac_from_json(w) for w in ws))
    rep = zeta.p1_canonical_height(inp, _target(args, data))
    out = rep.to_json()
    out["V"] = float(inp.v)
    out["branch"] = "fano" if inp.v > 0 else "continuation"
    # answered only where 2 w_i <= sum(w), the n = 1 arrangement test: only w_i = 1 fails
    out["semistable_advisory"] = all(w < 1 for w in inp.weights)
    return out


# -- reference-value reproduction ------------------------------------------------

def _reproduce_rows(perturb: bool) -> list[dict]:
    rows = []

    def row(name: str, reference, computed, tol):
        ref_f, got_f = float(reference), float(computed)
        rows.append({"name": name, "reference": ref_f, "computed": got_f, "tolerance": tol,
                     "pass": abs(ref_f - got_f) <= tol + 1e-15})

    h = presets.p3_blowup_polytope()
    if perturb:
        # the facet sum x <= 1 moved out to 11/10: (41/10 Delta_3 - 1) \ (2 Delta_3 - 1)
        h = geom.HPolytope(3, tuple(
            (l, Fraction(11, 10) if l == (-1, -1, -1) else a) for l, a in h.facets))
    blowup = geom.enumerate_vertices(h)

    r1 = sx.sx_invariant(blowup)
    r2 = sx.sx_invariant(*presets.SX_PRESETS["po-o2"]())
    row("n!S(X), P3 blown up in one point", 41.8, r1.s_value, 0.05)
    row("n!S(X), P(O+O(2))", 30.3, r2.s_value, 0.05)

    w = presets.SX_CLOSED_FORM_W
    row("cut weight w, P3 blown up in one point", w["p3-blowup"], r1.cut_weight, 1e-10)
    row("cut weight w, P(O+O(2))", w["po-o2"], r2.cut_weight, 1e-10)

    def degree_of(h):
        return toric.log_fano_degree(toric.ToricLogFano(h))

    row("degree, P3 blown up in one point", 56, float(math.factorial(3) * geom.volume(blowup)), 0)
    row("degree, P(O+O(2))", 62, float(degree_of(presets.po_o2_polytope())), 0)
    row("degree, P2xP1", 54, float(degree_of(presets.pn_times_p1_polytope(3))), 0)
    for n in range(1, 5):
        row(f"degree, P^{n}", (n + 1) ** n,
            float(degree_of(presets.pn_polytope(n))), 0)

    row("barycenter coordinate, P3 blowup polytope", 1 / 14, float(geom.barycenter(blowup)[0]), 0)

    row("Mabuchi constant of P^1_Z", -1 - math.log(math.pi),
        zeta.mabuchi_p1_constant(), 1e-12)

    sp = arr.stability_polytope(1, 3, 1)
    row("stability polytope vertex count, (n,m,D)=(1,3,1)", 3, len(sp.vertices), 0)
    sp2 = arr.stability_polytope(2, 5, 4)
    row("stability polytope vertex count, (n,m,D)=(2,5,4)",
        math.comb(5, 3), len(sp2.vertices), 0)

    spec = hyp.DiagonalHypersurfaceSpec(2, 3, (1, 1, 1, 8))
    row("diagonal correction, (n,d,a)=(2,3,(1,1,1,8))",
        -2 * math.log(8), hyp.diagonal_height_correction(spec), 1e-9)

    # the n = 2 classification: P^2 blown up in m points has degree 9 - m
    del_pezzo = [("P2", presets.p2_blowup_polytope(0), 9)]
    del_pezzo += [(f"Bl_{m} P2", presets.p2_blowup_polytope(m), 9 - m) for m in (1, 2, 3)]
    del_pezzo.append(("P1xP1", presets.p1xp1_polytope(), 8))
    for label, h, reference in del_pezzo:
        row(f"degree, {label}", reference, float(degree_of(h)), 0)

    ratio = (geom.volume(geom.enumerate_vertices(presets.po_o2_normal_form()))
             / geom.volume(geom.enumerate_vertices(presets.po_o2_polytope())))
    row("volume ratio under the determinant-2 normal-form map", 2,
        float(ratio), 0)

    return rows


def _cmd_reproduce_paper(args, data) -> dict:
    rows = _reproduce_rows(perturb=args.perturb)
    all_pass = all(r["pass"] for r in rows)
    payload = {"rows": rows, "all_pass": all_pass}
    if not all_pass:
        raise NumericalError(jsonio.dumps(payload))
    return payload


# -- output ---------------------------------------------------------------------

def _cell(x) -> str:
    return str(jsonio.round_float(x) if isinstance(x, float) else x)


def _flatten(prefix: str, obj, out: list[tuple[str, str]]):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else k, obj[k], out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, "" if obj is None else _cell(obj)))


def _emit(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return jsonio.dumps(payload)
    rows = payload.get("rows")
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        headers = list(rows[0])
        table = [[_cell(r[h]) for h in headers] for r in rows]
    else:
        flat: list[tuple[str, str]] = []
        _flatten("", payload, flat)
        headers = ["key", "value"]
        table = [[k, v] for k, v in flat]
    if fmt == "csv":
        lines = [",".join(headers)]
        for r in table:
            lines.append(",".join('"' + c.replace('"', '""') + '"'
                                  if ("," in c or '"' in c) else c for c in r))
        return "\n".join(lines)
    widths = [max(len(h), *(len(r[i]) for r in table)) if table else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


# -- argument parsing -------------------------------------------------------------

_POLYTOPE_PRESET = (("--preset",), {"choices": sorted(presets.POLYTOPE_PRESETS)})
_N = (("--n",), {"type": int, "required": True})

# subcommand -> (handler, the options it adds to the shared ones)
_COMMANDS = {
    "semistable": (_cmd_semistable, [_POLYTOPE_PRESET]),
    "volume": (_cmd_volume, [
        _POLYTOPE_PRESET,
        (("--cut-normal",), {"help": "integer vector 'a,b,...' to clip by before measuring"}),
        (("--cut-offset",), {"help": "rational cutoff c for <normal, x> <= c"}),
    ]),
    "barycenter": (_cmd_barycenter, [_POLYTOPE_PRESET]),
    "sx": (_cmd_sx, [(("--preset",), {"choices": sorted(presets.SX_PRESETS)})]),
    "pn-height": (_cmd_pn_height, [_N]),
    "scaled-height": (_cmd_scaled_height, [
        _N, (("--t",), {"required": True, "help": "rational in (0,1], e.g. '1/2'"})]),
    "universal-bound": (_cmd_universal_bound, [
        _N, (("--volume",), {"required": True, "help": "poly-volume as 'p/q'"})]),
    "gap-check": (_cmd_gap_check, [_POLYTOPE_PRESET]),
    "stability-polytope": (_cmd_stability_polytope, [
        _N, (("--m",), {"type": int, "required": True}),
        (("--degree",), {"required": True, "help": "target degree as 'p/q'"})]),
    "arrangement-bound": (_cmd_arrangement_bound, []),
    "diagonal": (_cmd_diagonal, [
        (("--det-t",), {"type": float,
                        "help": "|det T| for the general linear height delta"})]),
    "p1-zeta-height": (_cmd_p1_zeta_height, [
        (("--precision",), {"type": float, "default": zeta.DEFAULT_TARGET,
                            "help": "target absolute error (default: %(default)g)"})]),
    "reproduce-paper": (_cmd_reproduce_paper, [
        (("--perturb",), {"action": "store_true",
                          "help": "negative control: perturb one preset and expect a mismatch"})]),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="fanokit",
        description="K-semistability tests and height bounds for toric log Fano data",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(subcommand=name)   # for a parse by this parser alone
        p.add_argument("--input", help="path to a JSON input file")
        p.add_argument("--json", help="inline JSON input")
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; batch items run in order")
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
    return parser, sub.choices


# parsing fills a fresh namespace on every call, so one parser serves all runs
_PARSER, _SUBPARSERS = _build_parser()


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, print the report; returns the exit code.  One pass
    parses argv[1:] by the subparser argv[0] names; any other argv, or one with
    arguments left over, goes through the top-level parser as a whole."""
    try:
        sub = _SUBPARSERS.get(argv[0]) if argv else None
        args, rest = sub.parse_known_args(argv[1:]) if sub else (None, None)
        if sub is None or rest:
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handler = _COMMANDS[args.subcommand][0]
    try:
        data = _load_input(args)
        if data is not None and "batch" in data:
            items = data["batch"]
            if not isinstance(items, list):
                raise InputError("'batch' must be a list of inputs")
            if not all(isinstance(it, dict) for it in items):
                raise InputError("each batch item must be an object")
            payload = {"results": [handler(args, it) for it in items]}
        else:
            payload = handler(args, data)
    except NumericalError as exc:
        print(f"fanokit: numerical failure: {exc}", file=sys.stderr)
        return 2
    except FanokitError as exc:
        print(f"fanokit: input error: {exc}", file=sys.stderr)
        return 1
    print(_emit(payload, args.format))
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; send the interpreter's last flush to
        # devnull, so that it does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
