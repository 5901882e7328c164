"""megset benchmark: one closed-loop caller, no threads, answers checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, tail percentile, per-layer breakdown).

``--trace 0`` measures the end-to-end metrics for ``--seconds`` of
operation time.  ``--trace 1`` runs a fixed list of operations three times,
plain, with spans recorded around the calls into each module, and plain
again (emptying the library's caches before each), and reports the
per-layer metrics.  See NOTES.md for the workloads and the metric map.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as T
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5
# Operations per second of --seconds in the traced run.  Fixed, so that the
# traced run's operation list, and its counters, depend only on the seed.
TRACE_OPS_PER_SECOND = {"solve_search": 4, "solve_seeded": 3, "plan_large": 1.5, "query_warm": 7}
# Peak RSS is read after this many operations: caches that grow with every
# operation would otherwise tie it to how many operations the run managed.
RSS_AFTER_OPS = 50
WALL_LIMIT_FACTOR = 3  # a run stops at this multiple of --seconds of wall time

LAYER_TIMES = ("solver.search", "solver.coverage", "solver.seed", "monitoring.geodesy",
               "monitoring.verify", "monitoring.simulate", "monitoring.pair_test", "graph.build",
               "structure.fes", "classes.recognize", "hierarchy.check", "cli.parse", "cli.emit",
               "randgraphs.generate")
# counts returned by the workloads' answer checks, and counts made by the tracer
CHECK_COUNTS = {"solver.nodes_explored": "count", "solver.seed_size": "count",
                "cli.emit_bytes": "bytes"}
TRACER_COUNTS = ("monitoring.geodesy_computed", "graph.bfs_runs")
# per-layer metric names that differ from the layer's name plus "_ms"
METRIC_NAMES = {"cli.main": "cli.self_ms", "graph.has_edge": "graph.has_edge_us",
                "graph.bfs_runs": "graph.bfs_runs"}


class Fatal(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_megset():
    """Import the package from this checkout's src/, never from elsewhere.

    It is imported SETUP_REPS times, dropping it from ``sys.modules`` in
    between; the durations are returned with the last import.
    """
    if not (SRC / "megset" / "__init__.py").is_file():
        raise Fatal(f"no megset package under {SRC}: run from a source checkout")
    sys.path.insert(0, str(SRC))
    durations = []
    for _ in range(SETUP_REPS):
        for mod in T.megset_modules():
            del sys.modules[mod.__name__]
        t = time.perf_counter()
        M = importlib.import_module("megset")
        importlib.import_module("megset.cli")
        durations.append(time.perf_counter() - t)
    if Path(M.__file__).resolve().parent != (SRC / "megset").resolve():
        raise Fatal(f"imported megset from {M.__file__}, not from {SRC}")
    return M, durations


def percentile_tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0 * (n - 1) / n if n > 1 else 0.0
    return xs[n - 11], 100.0 * (n - 10) / n


def clear_caches():
    """Empty every functools cache in megset; returns the names emptied."""
    names = set()
    for mod in T.megset_modules():
        for attr, value in list(vars(mod).items()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()
                names.add(f"{mod.__name__}.{attr}")
    return sorted(names)


class Loop:
    """Runs operations one after another and records each latency."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.attempted = 0
        self.failures = []
        self.counters = {}
        self.seen = set()
        self.repeats = 0
        self.between = 0.0  # time spent making the next operation's inputs
        self.rss_kb = 0

    def run(self, seconds=None, count=None, wall_limit=None):
        clock = time.perf_counter
        busy = 0.0
        started = clock()
        ops = self.workload.ops()
        while True:
            t = clock()
            op = next(ops, None)
            self.between += clock() - t
            if op is None:
                break
            if self.workload.cold:
                if op.graph_key in self.seen:
                    self.repeats += 1
                    self.failures.append(f"{op.kind}: graph value repeated in one process")
                    self.attempted += 1
                    continue
                self.seen.add(op.graph_key)
            self.attempted += 1
            t = clock()
            try:
                out = op.call()
            except Exception as exc:  # an operation that raises is a failure, not a crash
                dt = clock() - t
                self.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            else:
                dt = clock() - t
                self._check(op, out)
            self.latencies.append(dt)
            busy += dt
            if len(self.latencies) <= RSS_AFTER_OPS:
                self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if count is not None and self.attempted >= count:
                break
            if seconds is not None and busy >= seconds:
                break
            if wall_limit is not None and clock() - started >= wall_limit:
                break
        return busy

    def _check(self, op, out):
        tracer = self.workload.tracer
        was = tracer.active
        tracer.active = False
        try:
            extra = op.check(out)
        except Exception as exc:
            self.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            return
        finally:
            tracer.active = was
        for name, value in (extra or {}).items():
            self.counters[name] = self.counters.get(name, 0) + value


def timed_setups(Workload, M, seed, tracer, reps):
    times = []
    workload = None
    for rep in range(reps):
        workload = Workload(M, seed, tracer)
        t = time.perf_counter()
        workload.setup(rep)
        times.append(time.perf_counter() - t)
    return workload, times


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_plain(Workload, M, args, import_times):
    workload, setup_times = timed_setups(Workload, M, args.seed, T.NullTracer(), SETUP_REPS)
    gc.collect()
    loop = Loop(workload)
    busy = loop.run(seconds=args.seconds, wall_limit=WALL_LIMIT_FACTOR * args.seconds + 30)
    lat = loop.latencies
    if not lat:
        raise Fatal("no operation completed")
    tail, pct = percentile_tail(lat)
    metrics = {
        "setup_s": metric(statistics.median(import_times) + statistics.median(setup_times), "s"),
        "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": metric(tail * 1e3, "ms"),
        "ops_per_s": metric(len(lat) / busy, "1/s"),
        "peak_rss_mb": metric(loop.rss_kb / 1024.0, "MB"),
    }
    details = {
        "import_s": import_times,
        "setup_reps_s": setup_times,
        "tail_percentile": pct,
        "samples": len(lat),
        "busy_s": busy,
    }
    return [loop], metrics, details


def run_traced(Workload, M, args, _import_times):
    count = max(4, math.ceil(TRACE_OPS_PER_SECOND[Workload.name] * args.seconds))
    tracer = T.Tracer()

    def plain_pass(rep):
        """The same operations untraced and cold, for the overhead ratio."""
        clear_caches()
        workload = Workload(M, args.seed, tracer)
        workload.setup(rep)
        gc.collect()
        loop = Loop(workload)
        return loop, loop.run(count=count)

    # plain passes before and after the traced one, so that neither side
    # alone gets the first, slower pass through the code
    before, before_busy = plain_pass(0)
    cleared = clear_caches()
    inst = T.install(tracer)
    try:
        tracer.active = True
        tracer.phase = "setup"
        t = time.perf_counter()
        workload = Workload(M, args.seed, tracer)
        workload.setup(SETUP_REPS)
        traced_setup = time.perf_counter() - t
        tracer.phase = "ops"
        gc.collect()
        traced = Loop(workload)
        traced_busy = traced.run(count=count)
    finally:
        tracer.active = False
        inst.restore()
    after, after_busy = plain_pass(SETUP_REPS + 1)
    plain_per_op = (before_busy + after_busy) / (len(before.latencies) + len(after.latencies))

    ops = max(1, len(traced.latencies))
    total_s = traced_setup + traced_busy + traced.between
    metrics = {}
    breakdown = {}
    for layer in LAYER_TIMES + ("cli.main",):
        setup_ns = tracer.self_ns.get(("setup", layer), 0)
        ops_ns = tracer.self_ns.get(("ops", layer), 0)
        name = METRIC_NAMES.get(layer, layer + "_ms")
        metrics[name] = metric((setup_ns + ops_ns) / 1e6 / ops, "ms")
        breakdown[name] = {"setup_ms": setup_ns / 1e6, "ops_ms": ops_ns / 1e6,
                           "share": (setup_ns + ops_ns) / 1e9 / total_s}
    for name, unit in CHECK_COUNTS.items():
        metrics[name] = metric(traced.counters.get(name, 0) / ops, unit)
    for name in TRACER_COUNTS:
        total = tracer.counts.get(("setup", name), 0) + tracer.counts.get(("ops", name), 0)
        metrics[name] = metric(total / ops, "count")
    calls = tracer.has_edge_calls
    metrics["graph.has_edge_us"] = metric(tracer.has_edge_ns / 1e3 / calls if calls else 0.0, "us")
    metrics["trace.overhead_ratio"] = metric(traced_busy / ops / plain_per_op, "ratio")
    not_measured = {METRIC_NAMES.get(layer, layer + "_ms"): why
                    for layer, why in inst.missing.items()}
    if "monitoring.geodesy_ms" in not_measured:
        not_measured["monitoring.geodesy_computed"] = not_measured["monitoring.geodesy_ms"]
    attributed = sum(v["share"] for v in breakdown.values())
    details = {
        "trace_ops": count,
        "traced_setup_s": traced_setup,
        "traced_ops_s": traced_busy,
        "plain_ops_s": [before_busy, after_busy],
        "share_base_s": total_s,
        "unattributed_share": 1.0 - attributed,
        "layers": breakdown,
        "has_edge_calls": calls,
        "not_measured": not_measured,
        "caches_cleared_between_passes": cleared,
        "geodesy_computed_setup": tracer.counts.get(("setup", "monitoring.geodesy_computed"), 0),
    }
    return [before, traced, after], metrics, details


def main(argv=None):
    args = parse_args(argv)
    try:
        M, import_times = import_megset()
        Workload = W.WORKLOADS.get(args.workload)
        if Workload is None:
            raise Fatal(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
        runner = run_traced if args.trace else run_plain
        loops, metrics, details = runner(Workload, M, args, import_times)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except W.CorpusMismatch as exc:
        print(f"error: {exc}; the pinned answers no longer apply", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    attempted = sum(loop.attempted for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)), "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted if attempted else 1.0,
        "graph_repeats": sum(loop.repeats for loop in loops), "first_failures": failures[:5],
    })
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": not failures and attempted > 0, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
