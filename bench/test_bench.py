"""Self-tests of the benchmark: seeded generation, oracle negative controls
and span accounting.

    python3 -m pytest bench            (or: python3 -m unittest discover -s bench)
"""
from __future__ import annotations

import copy
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FANOKIT, CLI = run.import_fanokit()
CACHE = tracing.vertices_cache(FANOKIT)


def first(workload: str, count: int, seed: int = 7) -> list[workloads.Request]:
    rounds = -(-count // len(next(workloads.ROUNDS[workload](seed))))
    return list(workloads.requests(workload, seed, rounds))[:count]


def pick(workload: str, kinds: set[str], seed: int = 7) -> list[workloads.Request]:
    """The first request of each kind in the workload's first round."""
    out = {}
    for req in next(workloads.ROUNDS[workload](seed)):
        if req.kind in kinds:
            out.setdefault(req.kind, req)
    assert set(out) == kinds, set(kinds) - set(out)
    return list(out.values())


def bump(x: str, by: Fraction) -> str:
    return workloads.frac_str(Fraction(x) + by)


def corrupt(req: workloads.Request, out: run.Outcome) -> run.Outcome:
    """A wrong answer in the field the request is about."""
    if req.expect["check"] == "malformed":
        return out._replace(rc=0)
    p = json.loads(out.out)
    target = p["results"][0] if "results" in p else p
    check = req.expect["check"]
    if check == "batch":
        check = "toric"
        question = req.expect["items"][0]["question"]
    else:
        question = req.expect.get("question")
    if check in ("toric", "cloud", "clip"):
        if question in ("barycenter", "semistable"):
            target["barycenter"][0] = bump(target["barycenter"][0], Fraction(1, 7))
        else:
            target["poly_volume"] = bump(target["poly_volume"], Fraction(1, 1000))
    elif check.startswith("sx"):
        target["n_factorial_S"] *= 1 + 1e-6
    elif check == "reproduce":
        target["rows"][0]["computed"] += 0.1
    elif check == "stability-polytope":
        target["vertex_count"] += 1
    else:
        rep = target["bound"] if check == "diagonal" else target
        rep["value"] += 10 * rep["abs_error"] + 1e-6 * max(1.0, abs(rep["value"]))
    return out._replace(out=json.dumps(p))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for w in workloads.WORKLOADS:
            a, b = first(w, 30, seed=5), first(w, 30, seed=5)
            self.assertEqual([r.argv for r in a], [r.argv for r in b], w)
            self.assertEqual([r.expect for r in a], [r.expect for r in b], w)

    def test_other_seed_other_parameters_same_mix(self):
        for w in workloads.WORKLOADS:
            a, b = first(w, 40, seed=5), first(w, 40, seed=6)
            self.assertNotEqual([r.argv for r in a], [r.argv for r in b], w)
            self.assertEqual([r.kind for r in a], [r.kind for r in b], w)

    def test_exact_geometry_never_repeats_a_polytope(self):
        reqs = first("exact-geometry", 150)
        self.assertEqual(workloads.repeat_share(reqs), 0.0)

    def test_batch_repeat_share(self):
        req = first("geometry-batch", 1)[0]
        items = json.loads(req.argv[-1])["batch"]
        distinct = {json.dumps(i, sort_keys=True) for i in items}
        self.assertEqual(1 - len(distinct) / len(items), 1 - 1 / workloads.BATCH_REPEATS)


class OracleTest(unittest.TestCase):
    """Each oracle accepts the real output and rejects a corrupted one."""

    def assert_controls(self, requests):
        client = run.Client(CLI, CACHE)
        oracle = oracles.Oracle()
        for req in requests:
            out = client.send(req)[0]
            with self.subTest(kind=req.kind):
                self.assertIsNone(oracle.check(req, out))
                self.assertIsNotNone(oracle.check(req, corrupt(req, out)))

    def test_exact_geometry(self):
        self.assert_controls(pick("exact-geometry", {
            "volume:p2", "barycenter:bl2p2", "semistable:p3", "gap-check:p3",
            "volume:cloud3d-8", "barycenter:cloud3d-8"}))

    def test_sx_cut(self):
        self.assert_controls(pick("sx-cut", {
            "sx-preset:p3-blowup", "sx-real:p3-blowup", "sx-image:p3-blowup",
            "sx-sd:simplex-difference", "clip:po-o2", "reproduce:paper"}))

    def test_heights(self):
        self.assert_controls(next(workloads.ROUNDS["heights"](7)))

    def test_geometry_batch(self):
        self.assert_controls(first("geometry-batch", 1))

    def test_simplex_difference_inner_cut(self):
        # barycenter along -(1,1,1): the inner level moves out
        s, w = oracles.sd_cut(Fraction(11, 3), Fraction(1, 2))
        self.assertGreater(w, 0)
        self.assertLess(s, float(Fraction(11, 3) ** 3 - Fraction(1, 2) ** 3))

    def test_known_defects_are_probed(self):
        report = run.known_defects(run.Client(CLI, CACHE))
        self.assertEqual(set(report), {r.kind for r in workloads.KNOWN_DEFECTS})


class TracingTest(unittest.TestCase):
    def test_self_times_sum_to_request_time(self):
        reqs = next(workloads.ROUNDS["heights"](7)) + pick(
            "exact-geometry", {"gap-check:p4", "volume:cloud4d-6"}) + pick(
            "sx-cut", {"clip:p3-blowup"})
        plain = run.Client(CLI, CACHE)
        expected = [plain.send(r)[0] for r in reqs]
        tracer = tracing.Tracer(FANOKIT)
        client = run.Client(CLI, CACHE, tracer)
        tracer.install()
        try:
            got = [client.send(r, i)[0] for i, r in enumerate(reqs)]
        finally:
            tracer.uninstall()
        self.assertEqual(got, expected)          # tracing leaves stdout as it was
        spans = tracer.records()
        selfs = tracing.self_times(spans)
        for i in range(len(reqs)):
            mine = [k for k, s in enumerate(spans) if s[tracing.REQUEST] == i]
            root = [k for k in mine if spans[k][tracing.PARENT] is None]
            self.assertEqual(len(root), 1)
            s = spans[root[0]]
            self.assertAlmostEqual(sum(selfs[k] for k in mine), s[tracing.END] - s[tracing.START],
                                   delta=1e-9)
        names = {s[tracing.NAME] for s in spans}
        self.assertIn("geometry.enumerate_vertices", names)
        self.assertIn("zeta.hurwitz_zeta", names)
        self.assertNotIn("geometry.dot", names)

    def test_cache_hits_are_told_apart_per_call(self):
        # two batch threads run at once; each enumerate_vertices span still
        # knows whether its own call hit the cache
        req = first("geometry-batch", 1)[0]
        tracer = tracing.Tracer(FANOKIT)
        client = run.Client(CLI, CACHE, tracer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)      # switch threads often
        tracer.install()
        try:
            client.send(req, 0)
        finally:
            tracer.uninstall()
            sys.setswitchinterval(interval)
        tuples = [s[tracing.EXTRA]["tuples"] for s in tracer.records()
                  if s[tracing.NAME] == "geometry.enumerate_vertices"]
        self.assertGreater(client.hits, 0)
        self.assertEqual(tuples.count(0), client.hits)
        self.assertEqual(len(tuples) - tuples.count(0), client.misses)

    def test_uninstall_restores_every_binding(self):
        geometry = sys.modules["fanokit.geometry"]
        hyp = sys.modules["fanokit.hypersurfaces"]
        before = (geometry.enumerate_vertices, hyp.pn_height, CLI._load_input)
        tracer = tracing.Tracer(FANOKIT)
        tracer.install()
        # a name bound by `from .toric_heights import pn_height` is wrapped too
        self.assertIs(hyp.pn_height.__wrapped__, before[1])
        tracer.uninstall()
        self.assertEqual((geometry.enumerate_vertices, hyp.pn_height, CLI._load_input), before)

    def test_layer_metrics_from_a_hand_made_trace(self):
        # root [0, 10] > sx [1, 9] > two clips [2, 3] and [4, 6]
        spans = [["cli.run", 0.0, 10.0, None, 0, None],
                 ["sx_optimizer.sx_invariant", 1.0, 9.0, 0, 0, {"certified": True}],
                 ["geometry.clip_volume_and_moment", 2.0, 3.0, 1, 0,
                  {"cutoff_bits": 5, "result_bits": 9}],
                 ["geometry.clip_volume_and_moment", 4.0, 6.0, 1, 0,
                  {"cutoff_bits": 7, "result_bits": 3}]]
        self.assertEqual(tracing.self_times(copy.deepcopy(spans)), [2.0, 5.0, 1.0, 2.0])
        m = tracing.layer_metrics(spans, 1, 3)
        self.assertEqual(m["sx_optimizer.sx_invariant.clips_per_solve"], 2)
        self.assertEqual(m["geometry.clip_volume_and_moment.cutoff_bits_max"], 7)
        self.assertEqual(m["geometry.vertices_cache.hit_ratio"], 0.25)
        self.assertEqual(m["cli.run.self_s"], 2.0)


class SpeedTest(unittest.TestCase):
    def test_factor_uses_the_calibrations_around_a_request(self):
        clock = speed.Speed()
        for t, took in [(0.0, 1.0), (0.1, 1.0), (0.2, 1.0), (5.0, 2.0), (5.1, 2.0),
                        (5.2, 2.0), (5.3, 2.0), (5.4, 2.0)]:
            clock.mid.append(t)
            clock.took.append(took * speed.REFERENCE_S)
        self.assertEqual(clock.factor(5.0, 5.1), 0.5)
        # only three samples near [0, 0.1]: widened to the five nearest
        self.assertEqual(clock.factor(0.0, 0.1), 1.0)
        self.assertEqual(clock.factor(1.0, 4.8), 0.5)


if __name__ == "__main__":
    unittest.main()
