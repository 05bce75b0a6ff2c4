#!/usr/bin/env python3
"""One benchmark run of one fanokit workload.

    python3 bench/run.py --workload exact-geometry --seed 1 --seconds 15 --trace 0

Run it from the root of a fanokit checkout; it imports fanokit from ``src/``
of that checkout.  The run process is fresh, so imports and caches start
cold.  One closed-loop client sends the workload's seeded requests through
``fanokit.cli.run(argv)``, one after the other, and captures stdout and
stderr.  Every output is checked against an independent oracle after the
timed loop.

``--seconds`` sets the work of a run: the whole rounds of the workload that
take about that long at the reference speed (see ``speed.py``) at the commit
the benchmark was written at.  A run sends whole rounds only, so every run
of a workload sends the same mix of request kinds, and a faster program
finishes sooner.  Every timing is scaled to the reference speed by a
calibration loop run between requests; the raw wall times are in the
details line.

``--trace 0`` measures the end-to-end metrics and also times a fresh
interpreter answering ``pn-height --n 1`` (set-up).  ``--trace 1`` sends a
third of those rounds, each request once untraced and once traced, and
reports per-layer metrics and the tracing overhead.

Standard output ends with one JSON line: correct, attempted, failed and the
metrics.  The line before it holds the details (environment, tail
percentile and sample count, error rate, failures by kind, known defects).
Both are also kept in ``.bench_out/`` in the checkout, with the spans of a
traced run.
"""
from __future__ import annotations

import argparse
import array
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"     # spans and result copies; ignored by git
SETUP_SAMPLES = 11
TAIL_BEYOND = 10            # the tail percentile keeps ten samples beyond it
# Seconds one round takes at the reference speed, measured at the commit the
# benchmark was written at.  Fixed, so that the work of a run does not
# depend on how fast the machine or the program is.
ROUND_SECONDS = {"exact-geometry": 4.0, "sx-cut": 5.3, "heights": 0.042, "geometry-batch": 1.9}
TRACE_SHARE = 1 / 3         # share of a timed run's rounds a traced run sends
SETUP_CODE = "import sys; from fanokit.cli import run; sys.exit(run(['pn-height', '--n', '1']))"


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


class Outcome(NamedTuple):
    rc: int | None
    out: str
    err: str
    exc: str | None          # exception that escaped cli.run, as a CLI user would see it


class Client:
    """Sends requests through cli.run and captures what a CLI user sees."""

    def __init__(self, cli, cache, tracer=None):
        self.run = cli.run
        self.cache = cache
        self.tracer = tracer
        self.hits = self.misses = 0

    def send(self, req: workloads.Request, number: int = 0) -> tuple[Outcome, float, float]:
        """The outcome, and the perf_counter times the call started and ended."""
        # A CLI call is its own process: the vertex cache starts empty.
        if self.cache is not None:
            self.cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        exc = rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            root = self.tracer and self.tracer.begin(
                "cli.batch" if req.kind.startswith("batch:") else "cli.run", number)
            t0 = time.perf_counter()
            try:
                rc = self.run(list(req.argv))
            except Exception as e:  # noqa: BLE001 - recorded as a failed request
                exc = f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            if root:
                self.tracer.end(root)
        if self.cache is not None:
            info = self.cache.cache_info()
            self.hits += info.hits
            self.misses += info.misses
        return Outcome(rc, out.getvalue(), err.getvalue(), exc), t0, t1


# -- environment --------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    return {"python": platform.python_version(), "nproc": workloads.nproc(),
            "cpu_count": os.cpu_count(), "cpu_model": _cpu_model(), "commit": _commit(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


# -- set-up -------------------------------------------------------------------

def measure_setup() -> tuple[list[float], list[float], Outcome]:
    """Set-up times of fresh interpreters that import fanokit.cli and answer
    pn-height --n 1, each scaled by a reference interpreter start taken just
    before it (see speed.py), and the same times unscaled.  One unrecorded
    pair first writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def child(code: str):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"{code!r} failed: {proc.stderr.strip()[-300:]}")
        return time.perf_counter() - t0, proc

    scaled, raw, outcome = [], [], None
    for i in range(SETUP_SAMPLES + 1):
        reference, _ = child(speed.STARTUP_CODE)
        wall, proc = child(SETUP_CODE)
        outcome = Outcome(proc.returncode, proc.stdout, proc.stderr, None)
        if i:
            raw.append(wall)
            scaled.append(wall * speed.STARTUP_REFERENCE_S / reference)
    return scaled, raw, outcome


def import_fanokit():
    if not (SRC / "fanokit" / "cli.py").is_file():
        raise BenchError(f"no fanokit sources under {SRC}; run from a fanokit checkout")
    sys.path.insert(0, str(SRC))
    import fanokit
    from fanokit import cli
    if Path(fanokit.__file__).resolve().parent != SRC / "fanokit":
        raise BenchError(f"imported fanokit from {fanokit.__file__}, not from {SRC}")
    return fanokit, cli


# -- checking -----------------------------------------------------------------

def check_all(pairs) -> tuple[Counter, list[str]]:
    """Failures by request kind, and the first few reasons."""
    import oracles  # scipy and mpmath load after peak memory has been read

    oracle = oracles.Oracle()
    failures: Counter = Counter()
    reasons: list[str] = []
    for req, outcome in pairs:
        why = oracle.check(req, outcome)
        if why:
            failures[req.kind] += 1
            if len(reasons) < 5:
                reasons.append(f"{req.kind}: {why}"[:400])
    return failures, reasons


def known_defects(client: Client) -> dict:
    """Send the inputs known to raise out of cli.run; report each outcome."""
    report = {}
    for req in workloads.KNOWN_DEFECTS:
        outcome = client.send(req)[0]
        if outcome.exc:
            report[req.kind] = f"raised {outcome.exc.split(':')[0]}"
        else:
            report[req.kind] = f"exit {outcome.rc}"
    return report


# -- the two kinds of run -----------------------------------------------------

def by_kind(sent, times) -> dict:
    """Median latency in ms of each request kind."""
    groups: dict[str, list[float]] = {}
    for req, t in zip(sent, times):
        groups.setdefault(req.kind, []).append(t * 1000)
    return {k: statistics.median(v) for k, v in sorted(groups.items())}


def plan(workload: str, seconds: float) -> int:
    """Whole rounds taking about `seconds` at the reference speed, and at
    least enough for the tail percentile to keep ten samples beyond it."""
    per_round = len(next(workloads.ROUNDS[workload](0)))
    return max(round(seconds / ROUND_SECONDS[workload]), -(-(TAIL_BEYOND + 1) // per_round))


def summary(sent, times) -> dict:
    lat = sorted(t * 1000 for t in times)
    n = len(lat)
    return {"latency_p50_ms": (statistics.median(lat), "ms"),
            "latency_tail_ms": (lat[n - TAIL_BEYOND - 1], "ms"),
            "throughput_rps": (sum(r.items for r in sent) / sum(times), "1/s")}


def timed_run(args, cli, cache) -> tuple[dict, dict]:
    setup_scaled, setup_raw, setup_outcome = measure_setup()
    rounds = plan(args.workload, args.seconds)
    client = Client(cli, cache)
    # Requests are made one round at a time and made again from the seed for
    # checking, and outputs go to a file and are read back, so that the run's
    # peak memory is the program's, not the size of the benchmark's lists.
    OUT.mkdir(exist_ok=True)
    log = OUT / f"outcomes-{args.workload}-{args.seed}.jsonl"
    stamps = array.array("d")      # start and end of each request, in turn
    clock = speed.Speed()
    with open(log, "w", encoding="utf-8") as fh:
        for req in workloads.requests(args.workload, args.seed, rounds):
            clock.keep_up()
            outcome, t0, t1 = client.send(req)
            fh.write(json.dumps(outcome) + "\n")
            stamps.extend((t0, t1))
    for _ in range(speed.NEAREST):
        clock.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    defects = known_defects(client) if args.workload == "heights" else {}
    sent = list(workloads.requests(args.workload, args.seed, rounds))
    with open(log, encoding="utf-8") as fh:
        outcomes = [Outcome(*json.loads(line)) for line in fh]

    setup_req = workloads.Request("setup", ("pn-height", "--n", "1"),
                                  {"check": "pn-height", "n": 1})
    failures, reasons = check_all(list(zip(sent, outcomes)) + [(setup_req, setup_outcome)])
    failed = sum(failures.values())
    attempted = len(sent) + 1

    pairs = list(zip(stamps[::2], stamps[1::2]))
    raw = [t1 - t0 for t0, t1 in pairs]
    factors = [clock.factor(t0, t1) for t0, t1 in pairs]
    scaled = [t * f for t, f in zip(raw, factors)]
    metrics = {"setup_s": (statistics.median(setup_scaled), "s"),
               **summary(sent, scaled),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    wall = {k: v for k, (v, _) in summary(sent, raw).items()}
    wall["setup_s"] = statistics.median(setup_raw)
    n = len(sent)
    details = {
        "rounds": rounds,
        "latency_tail": {"percentile": 100 * (n - TAIL_BEYOND) / n, "samples": n,
                         "beyond": TAIL_BEYOND},
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "failures_by_kind": dict(failures),
        "first_failures": reasons,
        "known_defects": defects,
        "unscaled": wall,
        "speed": {"calibration_median_s": statistics.median(clock.took),
                  "calibrations": len(clock.took),
                  "factor_min": min(factors), "factor_max": max(factors)},
        "requests_by_kind": dict(Counter(r.kind for r in sent)),
        "latency_by_kind_ms": by_kind(sent, scaled),
        "repeat_share": workloads.repeat_share(sent),
        "batch_items": sum(r.items for r in sent),
        "vertices_cache": (None if cache is None
                           else {"hits": client.hits, "misses": client.misses}),
        "setup_samples_s": setup_scaled,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, details


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "tuples_tried": "count",
                   "facets_out": "count", "vertices_out": "count", "vertices_in": "count",
                   "hits": "count", "misses": "count", "hit_ratio": "ratio",
                   "cutoff_bits_max": "bits", "result_bits_max": "bits",
                   "clips_per_solve": "count", "certified_ratio": "ratio",
                   "enumerations_per_call": "count", "em_passes": "count",
                   "distinct_args_ratio": "ratio", "traced_over_untraced": "ratio"}


def traced_run(args, fanokit, cli, cache) -> tuple[dict, dict]:
    n_rounds = max(1, round(plan(args.workload, args.seconds) * TRACE_SHARE))
    sent = list(workloads.requests(args.workload, args.seed, n_rounds))

    plain = Client(cli, cache)
    tracer = tracing.Tracer(fanokit)
    client = Client(cli, cache, tracer)

    def send_traced(req, i):
        tracer.install()
        try:
            return client.send(req, i)
        finally:
            tracer.uninstall()

    # Each request runs untraced and traced back to back, alternating which
    # goes first, so warm-up and machine drift fall on both sides alike.
    untraced, traced = [], []
    for i, req in enumerate(sent):
        if i % 2:
            traced.append(send_traced(req, i))
            untraced.append(plain.send(req, i))
        else:
            untraced.append(plain.send(req, i))
            traced.append(send_traced(req, i))
    spans = tracer.records()

    failures, reasons = check_all((req, out) for req, (out, *_) in zip(sent, untraced))
    for req, (a, *_), (b, *_) in zip(sent, untraced, traced):
        if a != b:
            failures[req.kind] += 1
            reasons.append(f"{req.kind}: output changed under tracing")
    failed = sum(failures.values())

    untraced_s = sum(t1 - t0 for _, t0, t1 in untraced)
    traced_s = sum(t1 - t0 for _, t0, t1 in traced)
    metrics = tracing.layer_metrics(spans, client.hits, client.misses)
    metrics["trace.traced_over_untraced"] = traced_s / untraced_s

    span_file = OUT / f"spans-{args.workload}-{args.seed}.json"
    OUT.mkdir(exist_ok=True)
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request", "extra"],
                   "spans": spans}, fh)

    # batch threads overlap, so shares are of the summed self time
    selfs = tracing.self_times(spans)
    share: Counter = Counter()
    for s, t in zip(spans, selfs):
        share[s[tracing.NAME]] += t / sum(selfs)
    details = {
        "rounds": n_rounds,
        "requests": len(sent),
        "spans": len(spans),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "trace_overhead_s": traced_s - untraced_s,
        "self_time_share": {k: round(v, 4) for k, v in share.most_common(12)},
        "vertices_cache": (None if cache is None
                           else {"hits": client.hits, "misses": client.misses}),
        "failures_by_kind": dict(failures),
        "first_failures": reasons[:5],
        "span_file": str(span_file.relative_to(ROOT)),
    }
    result = {"correct": failed == 0, "attempted": len(sent), "failed": failed,
              "metrics": {k: {"value": v, "unit": PER_LAYER_UNITS[k.rsplit(".", 1)[1]]}
                          for k, v in metrics.items()}}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        fanokit, cli = import_fanokit()
        cache = tracing.vertices_cache(fanokit)
        if args.trace:
            result, details = traced_run(args, fanokit, cli, cache)
        else:
            result, details = timed_run(args, cli, cache)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    details["environment"] = environment(args)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
