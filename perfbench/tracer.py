"""Spans and counters recorded around the calls into each ``megset`` module.

Nothing inside ``src/`` is edited.  For a traced run, each entry point is
looked up by name in its defining module, and every ``megset`` module
attribute (the package namespace included) that holds that same object is
replaced by a recording wrapper, so callers that imported the name keep
calling through the wrapper.  ``restore`` puts the originals back.  An
entry point that no longer exists is reported as not measured.

A span's self time is its duration minus the durations of the spans
nested in it.  A call to an ``lru_cache`` entry point that hits the cache
records no span: its cost (hashing the argument) stays in the caller.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# layer -> (module, attribute) entry points timed as spans
SPANS = {
    "solver.search": [("solver", "minimum_meg"), ("solver", "all_minimum_megs")],
    "solver.coverage": [("solver", "_witness_masks")],
    "solver.seed": [("solver", "forced_vertices"), ("solver", "_implied_seed")],
    "monitoring.geodesy": [("monitoring", "geodesy")],
    "monitoring.verify": [("monitoring", "is_meg_set"), ("monitoring", "witness_report"),
                          ("monitoring", "monitored_edges")],
    "monitoring.simulate": [("monitoring", "simulate_failure")],
    "monitoring.pair_test": [("monitoring", "pair_monitors_edge")],
    "graph.build": [("graph", "build_graph")],
    "structure.fes": [("structure", "fes_meg_construction")],
    "classes.recognize": [("classes", "recognize_class")],
    "hierarchy.check": [("hierarchy", "is_geodetic_set"), ("hierarchy", "is_edge_geodetic_set"),
                        ("hierarchy", "is_dem_set")],
    "cli.parse": [("cli", "parse_graph_text")],
    "cli.emit": [("cli", "_emit")],
    "cli.main": [("cli", "main")],
}

# counter -> (module, attribute) entry points whose calls are counted
COUNTED = {
    "graph.bfs_runs": [("graph", "bfs_distances"), ("graph", "distance"),
                       ("graph", "distance_without_edge"), ("graph", "_bfs_with_counts"),
                       ("monitoring", "_bfs_without_edge")],
}

# the layer whose cache misses are also counted
COMPUTED_COUNTER = {"monitoring.geodesy": "monitoring.geodesy_computed"}


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = "setup"
        self.self_ns = defaultdict(int)  # (phase, layer) -> ns
        self.counts = defaultdict(int)  # (phase, counter) -> count
        self.has_edge_calls = 0
        self.has_edge_ns = 0
        self._stack: list[list] = []  # [layer, start_ns, child_ns]

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter_ns(), 0])

    def leave(self, keep: bool = True) -> None:
        layer, start, child = self._stack.pop()
        if not keep:
            return
        dur = time.perf_counter_ns() - start
        self.self_ns[(self.phase, layer)] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, name: str) -> None:
        self.counts[(self.phase, name)] += 1

    @contextmanager
    def span(self, layer: str):
        if not self.active:
            yield
            return
        self.enter(layer)
        try:
            yield
        finally:
            self.leave()


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    active = False

    @contextmanager
    def span(self, layer: str):
        yield


def _span_wrapper(tracer: Tracer, layer: str, fn):
    info = getattr(fn, "cache_info", None)
    computed = COMPUTED_COUNTER.get(layer)

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        misses = info().misses if info else 0
        tracer.enter(layer)
        keep = True
        try:
            return fn(*args, **kwargs)
        finally:
            if info:
                keep = info().misses > misses
            tracer.leave(keep)
            if keep and computed:
                tracer.count(computed)

    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.count(name)
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_method(tracer: Tracer, fn):
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        t = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.has_edge_ns += clock() - t
            tracer.has_edge_calls += 1

    wrapper.__wrapped__ = fn
    return wrapper


class Installation:
    """Wrappers in place; ``restore`` undoes them.  ``missing`` maps each
    layer with no entry point left to the reason."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: dict[str, str] = {}

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def megset_modules() -> list:
    """The imported ``megset`` package and its submodules."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "megset" or name.startswith("megset."))]


def install(tracer: Tracer) -> Installation:
    inst = Installation()
    modules = megset_modules()

    def patch_all(layer, targets, make):
        found = []
        for modname, attr in targets:
            home = sys.modules.get(f"megset.{modname}")
            original = getattr(home, attr, None) if home else None
            if original is None:
                continue
            found.append(attr)
            wrapped = make(tracer, layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        inst.replace(mod, name, wrapped)
        if not found:
            names = ", ".join(f"megset.{m}.{a}" for m, a in targets)
            inst.missing[layer] = f"no entry point left: {names}"

    for layer, targets in SPANS.items():
        patch_all(layer, targets, _span_wrapper)
    for name, targets in COUNTED.items():
        patch_all(name, targets, _count_wrapper)
    graph = sys.modules.get("megset.graph")
    cls = getattr(graph, "Graph", None)
    if cls is not None and hasattr(cls, "has_edge"):
        inst.replace(cls, "has_edge", _timed_method(tracer, cls.has_edge))
    else:
        inst.missing["graph.has_edge"] = "no entry point left: megset.graph.Graph.has_edge"
    return inst
