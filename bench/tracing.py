"""Outside-in tracing of fanokit, built only from the benchmark's own files.

``Tracer.install`` replaces each public function of the traced modules by a
wrapper that records a span, at the module attribute and at every other
fanokit namespace that bound the same function with ``from .x import y``.
Calls through ``geom.x`` and through module globals are therefore seen.
The cached ``geometry._vertices_of`` gets a wrapper without a span, which
tells each ``enumerate_vertices`` span whether its call hit the cache.
Spans stay in memory as [name, start, end, parent, request, extra] and are
written out once the run ends; self times and per-layer metrics are derived
from them afterwards.  While recording, ``parent`` is the parent span itself
(two batch threads may append at once, so list positions are not known
yet); ``records`` turns it into an index.
"""
from __future__ import annotations

import importlib
import math
import threading
import time
import types
from collections import defaultdict
from fractions import Fraction

MODULES = ("geometry", "toric_heights", "sx_optimizer", "zeta", "arrangements",
           "hypersurfaces", "jsonio", "presets")
# Exact-arithmetic helpers that run inside the combinatorial loops, up to
# millions of times per request: a span each would swamp the trace, so their
# time stays in the self time of the layer that calls them.
PRIMITIVES = {
    "geometry": {"vec", "dot", "vsub", "vadd", "primitive_int_vector", "mat_rank",
                 "mat_det", "mat_solve", "nullspace_vector", "make_facet"},
    "jsonio": {"frac_to_str", "frac_from_json", "round_float"},
}
NAME, START, END, PARENT, REQUEST, EXTRA = range(6)


def _bits(x) -> int:
    x = Fraction(x)
    return x.numerator.bit_length() + x.denominator.bit_length()


def vertices_cache(package):
    """The library's vertex-enumeration cache, or None once it is gone."""
    geometry = importlib.import_module(package.__name__ + ".geometry")
    fn = getattr(geometry, "_vertices_of", None)
    return fn if hasattr(fn, "cache_info") else None


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._local = threading.local()
        self._root: list | None = None
        self._request: int | None = None
        self._undo: list[tuple] = []
        # vertex tuples _vertices_of returned in the current request: the
        # cache hands back the same tuple object on a hit
        self._returned: dict[int, tuple] = {}

        def enumerate_vertices(args, result):
            h = args[0]
            hit = vars(self._local).pop("vertices_hit", False)
            return {"tuples": 0 if hit else math.comb(len(h.facets), h.dim),
                    "out": len(result.vertices)}

        def facets_from_points(args, result):
            dim, pts = args[0], args[1]
            return {"tuples": math.comb(len(pts), dim) if dim > 1 else 0, "out": len(result)}

        def clip(args, result):
            vol, mom = result
            return {"cutoff_bits": _bits(args[2]),
                    "result_bits": max(_bits(x) for x in (vol, *mom))}

        def em_pass(args, result):
            return {"arg": (float(args[0]), float(args[1]))}

        # name -> turns the arguments and result into the span's extra
        self._probes = {
            "geometry.enumerate_vertices": enumerate_vertices,
            "geometry.facets_from_points": facets_from_points,
            "geometry.volume_and_moment": lambda a, r: {"in": len(a[0].vertices)},
            "geometry.clip_volume_and_moment": clip,
            "sx_optimizer.sx_invariant": lambda a, r: {"certified": r.certified},
            "zeta.hurwitz_zeta": em_pass,
            "zeta.hurwitz_zeta_s_derivative": em_pass,
        }

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        pkg = self.package.__name__
        modules = {m: importlib.import_module(f"{pkg}.{m}") for m in MODULES}
        cli = importlib.import_module(f"{pkg}.cli")
        namespaces = list(modules.values()) + [cli]
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or attr in PRIMITIVES.get(short, ())
                        or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                self._replace(namespaces, fn, self.wrap(f"{short}.{attr}", fn))
        # the CLI's JSON input step is private; it is the jsonio.parse layer
        self._replace([cli], cli._load_input, self.wrap("cli.load_input", cli._load_input))
        if vertices_cache(self.package) is not None:
            geometry = modules["geometry"]
            self._replace([geometry], geometry._vertices_of,
                          self._hit_probe(geometry._vertices_of))

    def _hit_probe(self, fn):
        """Wraps the cached vertex enumeration without a span: a call is a
        hit when it returns a tuple already returned in the same request.
        The answer is kept per thread, for the enumerate_vertices call that
        made the call, since batch threads run at once."""
        returned, local, lock = self._returned, self._local, threading.Lock()

        def probed(h):
            verts = fn(h)
            # one thread at a time, so that a tuple two threads receive at
            # once counts as one miss and one hit
            with lock:
                local.vertices_hit = returned.get(id(verts)) is verts
                returned[id(verts)] = verts
            return verts

        probed.__wrapped__ = fn
        return probed

    def _replace(self, namespaces, fn, wrapper) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, attr, wrapper)
                    self._undo.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._undo):
            setattr(ns, attr, fn)
        self._undo.clear()

    def wrap(self, name: str, fn):
        probe = self._probes.get(name)
        spans, local = self.spans, self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # worker threads of a batch start with an empty stack: their
            # calls belong to the request's root span
            span = [name, 0.0, 0.0, stack[-1] if stack else self._root, self._request, None]
            stack.append(span)
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if probe:
                span[EXTRA] = probe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- requests -------------------------------------------------------------

    def begin(self, name: str, request: int) -> list:
        """Open the root span of a request on the calling thread."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, 0.0, 0.0, None, request, None]
        self._root, self._request = span, request
        self._returned.clear()
        stack.append(span)
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()
        self._root = self._request = None

    def records(self) -> list[list]:
        """The spans with each parent given by its index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s[NAME], s[START], s[END], None if s[PARENT] is None else index[id(s[PARENT])],
                 s[REQUEST], s[EXTRA]] for s in self.spans]


# -- analysis -----------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """A span's duration minus the part of it that its children cover.

    Children on different threads may overlap, so the covered part is the
    union of their intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def _ancestor(spans, i: int, name: str) -> int | None:
    p = spans[i][PARENT]
    while p is not None:
        if spans[p][NAME] == name:
            return p
        p = spans[p][PARENT]
    return None


def layer_metrics(spans: list[list], cache_hits: int, cache_misses: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, from the spans of a traced
    pass and the vertex-cache counts of its requests."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    extra: dict[str, list] = defaultdict(list)
    for s, t in zip(spans, selfs):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += t
        if s[EXTRA] is not None:
            extra[s[NAME]].append(s[EXTRA])

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    def total(name, key) -> int:
        return sum(e[key] for e in extra[name])

    m = {}
    for name, out in (("geometry.facets_from_points", "facets_out"),
                      ("geometry.enumerate_vertices", "vertices_out")):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.tuples_tried"] = total(name, "tuples")
        m[f"{name}.{out}"] = total(name, "out")
    vm = "geometry.volume_and_moment"
    m[f"{vm}.calls"], m[f"{vm}.self_s"] = calls[vm], self_s[vm]
    m[f"{vm}.vertices_in"] = total(vm, "in")
    m["geometry.vertices_cache.hits"] = cache_hits
    m["geometry.vertices_cache.misses"] = cache_misses
    m["geometry.vertices_cache.hit_ratio"] = ratio(cache_hits, cache_hits + cache_misses)
    clip = "geometry.clip_volume_and_moment"
    m[f"{clip}.calls"], m[f"{clip}.self_s"] = calls[clip], self_s[clip]
    m[f"{clip}.cutoff_bits_max"] = max((e["cutoff_bits"] for e in extra[clip]), default=0)
    m[f"{clip}.result_bits_max"] = max((e["result_bits"] for e in extra[clip]), default=0)

    def under(child: str, parent: str) -> int:
        return sum(1 for i, s in enumerate(spans)
                   if s[NAME] == child and _ancestor(spans, i, parent) is not None)

    sx = "sx_optimizer.sx_invariant"
    m[f"{sx}.calls"], m[f"{sx}.self_s"] = calls[sx], self_s[sx]
    m[f"{sx}.clips_per_solve"] = ratio(under(clip, sx), calls[sx])
    m[f"{sx}.certified_ratio"] = ratio(sum(e["certified"] for e in extra[sx]), calls[sx])
    gap = "toric_heights.gap_check"
    m[f"{gap}.self_s"] = self_s[gap]
    m[f"{gap}.enumerations_per_call"] = ratio(under("geometry.enumerate_vertices", gap),
                                              calls[gap])
    m["toric_heights.is_k_semistable.self_s"] = self_s["toric_heights.is_k_semistable"]
    p1 = "zeta.p1_canonical_height"
    m[f"{p1}.calls"], m[f"{p1}.self_s"] = calls[p1], self_s[p1]
    passes = ("zeta.hurwitz_zeta", "zeta.hurwitz_zeta_s_derivative")
    m["zeta.em_passes"] = sum(calls[p] for p in passes)
    per_height: dict[int, set] = defaultdict(set)
    in_heights = 0
    for i, s in enumerate(spans):
        if s[NAME] in passes:
            top = _ancestor(spans, i, p1)
            if top is not None and s[EXTRA] is not None:
                per_height[top].add(s[EXTRA]["arg"])
                in_heights += 1
    m["zeta.distinct_args_ratio"] = ratio(sum(map(len, per_height.values())), in_heights)
    for name in ("arrangements.stability_polytope", "arrangements.reduce_to_toric",
                 "hypersurfaces.diagonal_theorem_bound", "cli.run", "cli.batch",
                 "jsonio.dumps"):
        m[f"{name}.self_s"] = self_s[name]
    m["jsonio.parse.self_s"] = (self_s["cli.load_input"] + self_s["jsonio.polytope_from_json"]
                                + self_s["jsonio.weights_from_json"])
    return m
