"""The four workloads: their corpora, their operations and the answer checks.

A workload is built once per pass.  ``setup(rep)`` makes its inputs (and,
for ``query_warm``, warms the library on them); ``ops()`` then yields
operations lazily, generating later inputs between operations, outside the
timed region.  Each ``Op`` has a zero-argument ``call`` that the benchmark
times, and a ``check`` that it runs afterwards, untimed, on the result.
``check`` raises ``WrongAnswer`` on a mismatch and may return counters for
the traced run.

Expected answers come from ``pinned/*.json`` (see ``pin.py``) or from
closed forms written out here, never from the code under test.
"""

from __future__ import annotations

import inspect
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import corpus as C

PINNED = Path(__file__).resolve().parent / "pinned"


class WrongAnswer(Exception):
    pass


class CorpusMismatch(Exception):
    """A generator no longer produces the graph the answers were pinned for."""


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], dict | None]
    graph_key: object = None  # set when the op must meet its graph cold


def expect(got, want, what: str) -> None:
    if got != want:
        raise WrongAnswer(f"{what}: got {got!r}, expected {want!r}")


def _load(name: str) -> dict:
    with open(PINNED / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _cap_kwargs(fn, g) -> dict:
    """Lift the vertex cap to n, but only if the solver still takes one."""
    return {"cap": g.n} if "cap" in inspect.signature(fn).parameters else {}


def _solve_counters(res) -> dict:
    return {"solver.nodes_explored": getattr(res, "nodes_explored", 0),
            "solver.seed_size": len(getattr(res, "forced", ()))}


def _check_fingerprint(g, want: int, what: str) -> None:
    if C.fingerprint(g) != want:
        raise CorpusMismatch(f"{what} differs from the pinned corpus")


class Workload:
    name = ""
    cold = True  # every operation must meet a graph value not seen before

    def __init__(self, M, seed: int, tracer):
        self.M = M
        self.seed = seed
        self.tracer = tracer

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# solve_search

class SolveSearch(Workload):
    """Exact solves of sparse random graphs, n = 32..40: search dominates.

    The pinned pool is sorted by the node count each graph needed when it
    was pinned and cut into strata of ``STRATUM`` neighbours.  A pass takes
    one graph from every stratum, in bit-reversed stratum order, so any
    prefix of a pass has the same mix of easy and hard graphs whatever the
    seed; the seed picks the graph inside each stratum.
    """

    name = "solve_search"
    STRATUM = 4

    def setup(self, rep: int) -> None:
        pins = _load(self.name)
        entries = sorted(pins["entries"], key=lambda e: (e[2], e[0]))
        self.all_limit = pins["all_limit"]
        strata = [entries[k:k + self.STRATUM] for k in range(0, len(entries), self.STRATUM)]
        rng = random.Random(f"{self.name}:{self.seed}")
        for stratum in strata:
            rng.shuffle(stratum)
        order = C.bit_reversal_order(len(strata))
        self.sequence = [strata[k][p] for p in range(self.STRATUM) for k in order
                         if p < len(strata[k])]
        first_pass = len(order)
        self.ready = [self._make(e) for e in self.sequence[:first_pass]]

    def _make(self, entry) -> Op:
        M = self.M
        index, kind, _nodes, size, answer, fp = entry
        with self.tracer.span("randgraphs.generate"):
            g = C.search_graph(M, index)
        _check_fingerprint(g, fp, f"solve_search pool graph {index}")
        if kind == "min":
            kwargs = _cap_kwargs(M.minimum_meg, g)

            def call():
                return M.minimum_meg(g, **kwargs)

            def check(res):
                expect(res.meg_number, size, "meg_number")
                expect(sorted(res.optimal_set), answer, "lexicographically smallest optimum")
                expect(M.is_meg_set(g, res.optimal_set), True, "is_meg_set of the optimum")
                return _solve_counters(res)
        else:
            kwargs = _cap_kwargs(M.all_minimum_megs, g)

            def call():
                return M.all_minimum_megs(g, self.all_limit, **kwargs)

            def check(res):
                expect([sorted(s) for s in res], answer, f"all_minimum_megs(limit={self.all_limit})")
                return None
        return Op(kind, call, check, (g.n, g.edges))

    def ops(self) -> Iterator[Op]:
        yield from self.ready
        for entry in self.sequence[len(self.ready):]:
            yield self._make(entry)


# ---------------------------------------------------------------------------
# solve_seeded

SEEDED_SHAPES = (
    [("grid", (a, b)) for a in range(5, 11) for b in range(a, 21) if a * b <= 100]
    + [("hypercube", (d,)) for d in (5, 6, 7)]
    + [("tightness", (k, k % 5)) for k in range(4, 31)]
    + [("multipartite", (p,) * r) for p in (2, 3, 4, 5) for r in (3, 4, 5)]
    + [("multipartite", parts) for parts in ((5, 6), (10, 12), (6, 7, 8), (8, 9, 10), (1, 12), (1, 20))]
)


def seeded_meg_number(family: str, params: tuple) -> int:
    """Closed forms of the seeded families, as the paper states them."""
    if family == "grid":
        a, b = params
        return 2 * (a + b - 2)
    if family == "hypercube":
        return 1 << params[0]
    if family == "tightness":
        k, leaves = params
        return 3 * k + leaves
    parts = list(params)
    if len(parts) == 2 and min(parts) == 1 and max(parts) >= 2:
        return max(parts)  # a star needs only its leaves
    return sum(parts)


class SolveSeeded(Workload):
    """Exact solves that seeding finishes in one node: the per-edge table of
    monitoring pairs dominates and search is bypassed.

    One pass runs every shape of ``SEEDED_SHAPES`` once, in bit-reversed
    order of a size proxy (n^2 m), each under a fresh seeded relabelling.
    The shapes are many and their sizes close together, so the latency
    distribution has no gaps for the median to jump across.
    """

    name = "solve_seeded"

    def setup(self, rep: int) -> None:
        M = self.M
        gens = {
            "grid": M.gen_grid,
            "hypercube": M.gen_hypercube,
            "tightness": M.gen_tightness_family,
            "multipartite": lambda *parts: M.gen_multipartite(list(parts)),
        }
        with self.tracer.span("randgraphs.generate"):
            bases = [(family, params, gens[family](*params)) for family, params in SEEDED_SHAPES]
        bases.sort(key=lambda b: (b[2].n ** 2 * b[2].m, b[0], b[1]))
        self.bases = [bases[k] for k in C.bit_reversal_order(len(bases))]
        self.rng = random.Random(f"{self.name}:{self.seed}")
        self.seen: set = set()
        self.ready = [self._make(*b) for b in self.bases]

    def _make(self, family, params, base) -> Op:
        M = self.M
        while True:
            with self.tracer.span("randgraphs.generate"):
                g, _ = C.relabel(M, base, self.rng)
            key = (g.n, g.edges)
            if key not in self.seen:
                self.seen.add(key)
                break
        want = seeded_meg_number(family, params)
        kwargs = _cap_kwargs(M.minimum_meg, g)

        def call():
            return M.minimum_meg(g, **kwargs)

        def check(res):
            expect(res.meg_number, want, f"meg_number of {family}{params}")
            expect(len(res.optimal_set), want, "optimum size")
            if want < g.n:  # V(G) is always an MEG-set; checking it would cost seconds on Q7
                expect(M.is_meg_set(g, res.optimal_set), True, "is_meg_set of the optimum")
            return _solve_counters(res)

        return Op(family, call, check, key)

    def ops(self) -> Iterator[Op]:
        yield from self.ready
        while True:
            for b in self.bases:
                yield self._make(*b)


# ---------------------------------------------------------------------------
# plan_large

PLAN_SIZE_ORDER = (450, 300, 600, 400, 550, 350, 500)
PLAN_KINDS = ("construct-fes", "verify", "simulate", "construct-class")


def _csv(vertices) -> str:
    return ",".join(map(str, vertices))


class PlanLarge(Workload):
    """Operator commands through ``megset.cli.main``, each on its own graph.

    A cycle is seven rounds, one per size; a round runs the four commands.
    So every cycle has the same mix of commands and sizes, and the seed
    picks which pinned pool graph each command meets.  The class command
    alternates between a unicyclic pool graph and a canonical grid (grids are
    recognized only in canonical labelling), taken in bit-reversed order of
    area so that any prefix mixes small and large grids.
    """

    name = "plan_large"

    def setup(self, rep: int) -> None:
        self.cli = self.M.cli
        pins = _load(self.name)
        self.random_pins = pins["random"]
        self.unicyclic_pins = pins["unicyclic"]
        rng = random.Random(f"{self.name}:{self.seed}")
        self.random_queue = {n: rng.sample(range(C.PLAN_POOL_PER_SIZE), C.PLAN_POOL_PER_SIZE)
                             for n in C.PLAN_SIZES}
        self.unicyclic_queue = {n: rng.sample(range(C.PLAN_POOL_PER_SIZE), C.PLAN_POOL_PER_SIZE)
                                for n in C.PLAN_SIZES}
        by_area = sorted(C.PLAN_GRIDS, key=lambda ab: (ab[0] * ab[1], ab))
        self.grid_queue = [by_area[k] for k in reversed(C.bit_reversal_order(len(by_area)))]
        self.position = 0
        cycle = len(PLAN_SIZE_ORDER) * len(PLAN_KINDS)
        self.ready = [op for op in (self._next() for _ in range(cycle)) if op]

    def _next(self) -> Op | None:
        """The op at the current position, or None when its pool is used up."""
        j = self.position
        self.position += 1
        kind = PLAN_KINDS[j % len(PLAN_KINDS)]
        rnd = j // len(PLAN_KINDS)
        n = PLAN_SIZE_ORDER[rnd % len(PLAN_SIZE_ORDER)]
        if kind != "construct-class":
            if not self.random_queue[n]:
                return None
            s = self.random_queue[n].pop()
            return self._random_op(kind, n, s)
        if rnd % 2 == 0:
            if not self.grid_queue:
                return None
            return self._grid_op(*self.grid_queue.pop())
        if not self.unicyclic_queue[n]:
            return None
        return self._unicyclic_op(n, self.unicyclic_queue[n].pop())

    def _command(self, kind, argv, text, check) -> Op:
        cli = self.cli

        def call():
            return C.run_cli(cli, argv, text)

        def checked(out):
            code, stdout = out
            result = json.loads(stdout)["result"]
            check(code, result)
            return {"cli.emit_bytes": len(stdout.encode())}

        return Op(kind, call, checked, text)

    def _random_op(self, kind, n, s) -> Op:
        pin = self.random_pins[f"{n}:{s}"]
        with self.tracer.span("randgraphs.generate"):
            g = C.plan_graph(self.M, n, s)
        _check_fingerprint(g, pin["fingerprint"], f"plan_large graph {n}:{s}")
        text = C.graph_text(g)
        probes = C.mask_to_list(pin["set"])
        if kind == "construct-fes":
            def check(code, r):
                expect(code, 0, "exit code")
                expect((r["size"], r["verified"]), (len(probes), True), "fes size, verified")
                expect(r["set"], probes, "fes set")
            argv = ["construct", "-", "--method", "fes"]
        elif kind == "verify":
            def check(code, r):
                expect(code, 0 if pin["is_meg"] else 1, "exit code")
                got = (r["is_meg"], len(r["uncovered"]),
                       sum(len(w["pairs"]) for w in r["witnesses"]))
                expect(got, (pin["is_meg"], pin["uncovered"], pin["witness_pairs"]),
                       "is_meg, uncovered, witness pairs")
            argv = ["verify", "-", "--set", _csv(C.mask_to_list(pin["verify_set"]))]
        else:
            u, v = pin["fail_edge"]

            def check(code, r):
                expect(code, 0 if pin["detected"] else 1, "exit code")
                expect((r["detected"], len(r["observations"])),
                       (pin["detected"], pin["observations"]), "detected, observations")
            argv = ["simulate", "-", "--set", _csv(probes), "--fail-edge", f"{u}-{v}"]
        return self._command(kind, argv, text, check)

    def _grid_op(self, a, b) -> Op:
        with self.tracer.span("randgraphs.generate"):
            g = self.M.gen_grid(a, b)
        want = 2 * (a + b - 2)

        def check(code, r):
            expect(code, 0, "exit code")
            expect((r["theorem"], r["meg_number"], r["size"]), ("GRID", want, want),
                   f"grid {a}x{b} class result")
        return self._command("construct-class", ["construct", "-", "--method", "class"],
                             C.graph_text(g), check)

    def _unicyclic_op(self, n, s) -> Op:
        pin = self.unicyclic_pins[f"{n}:{s}"]
        with self.tracer.span("randgraphs.generate"):
            g = C.plan_unicyclic(self.M, n, s)
        _check_fingerprint(g, pin["fingerprint"], f"plan_large unicyclic {n}:{s}")

        def check(code, r):
            expect(code, 0, "exit code")
            expect((r["theorem"], r["meg_number"], r["size"]),
                   (pin["theorem"], pin["meg_number"], pin["size"]), "unicyclic class result")
        return self._command("construct-class", ["construct", "-", "--method", "class"],
                             C.graph_text(g), check)

    def ops(self) -> Iterator[Op]:
        yield from self.ready
        while True:
            op = self._next()
            if op is None:
                return  # a pool ran out: the run ends early
            yield op


# ---------------------------------------------------------------------------
# query_warm

@dataclass
class _Loaded:
    key: str
    g: object
    probes: list  # relabelled, sorted
    canon_probes: list  # as pinned, sorted
    edge: Callable[[int], tuple]  # pinned edge index -> edge of the relabelled graph
    vertex: Callable[[int], int]
    pin: dict


# One round of what-if queries: R is the round's random graph, G the grid.
# Eight of sixteen are simulations on R, so the median lies well inside
# that class rather than at its edge.
QUERY_ROUND = (
    ("simulate", "R"), ("simulate", "G"), ("pair", "R"), ("simulate", "R"),
    ("hierarchy", None), ("simulate", "R"), ("simulate", "R"), ("pair", "G"),
    ("simulate", "R"), ("probe-loss", "R"), ("simulate", "R"), ("simulate", "R"),
    ("pair", "R"), ("witness", "R"), ("simulate", "R"), ("simulate", "G"),
)
QUERY_HIERARCHY = (("is_geodetic", "R"), ("is_edge_geodetic", "R"), ("is_dem", "R"),
                   ("is_geodetic", "G"), ("is_edge_geodetic", "G"))
QUERY_GRID_WITNESS_EVERY = 8  # rounds; replaces the round's last grid simulate


class QueryWarm(Workload):
    """What-if queries against graphs loaded and warmed once in set-up.

    Set-up loads the 20x20 grid with its boundary and every pinned random
    n = 400 graph with its fes set, each under a seeded relabelling (a new
    one per set-up, so no set-up reuses another's caches), and warms each
    with one full verification and one simulated failure.  Rounds cycle
    through the random graphs, so every run has the same mix; the seed
    picks the edges, pairs and probes queried.  The DEM check runs on the
    random graphs only: one on the grid costs as much as ~150 other queries.
    """

    name = "query_warm"
    cold = False

    def setup(self, rep: int) -> None:
        M = self.M
        pins = _load(self.name)
        rng = random.Random(f"{self.name}:{self.seed}:{rep}")
        a, b = C.QUERY_GRID
        with self.tracer.span("randgraphs.generate"):
            canon = [("grid", M.gen_grid(a, b))]
            canon += [(f"r{s}", C.query_graph(M, s)) for s in range(C.QUERY_POOL_SIZE)]
        self.graphs = {}
        for key, g0 in canon:
            pin = pins[key]
            _check_fingerprint(g0, pin["fingerprint"], f"query_warm graph {key}")
            with self.tracer.span("randgraphs.generate"):
                g, perm = C.relabel(M, g0, rng)
            edges = g0.edges

            def edge(j, perm=perm, edges=edges):
                u, v = edges[j]
                return (perm[u], perm[v])

            canon_probes = C.mask_to_list(pin["set"])
            probes = sorted(perm[v] for v in canon_probes)
            self.graphs[key] = _Loaded(key, g, probes, canon_probes, edge, perm.__getitem__, pin)
            M.is_meg_set(g, probes)
            M.simulate_failure(g, probes, edge(0))
        self.rng = random.Random(f"{self.name}:{self.seed}:queries")
        self.random_keys = [f"r{s}" for s in range(C.QUERY_POOL_SIZE)]

    def _op(self, kind: str, L: _Loaded) -> Op:
        M, rng, pin, g = self.M, self.rng, L.pin, L.g
        if kind == "simulate":
            j = rng.randrange(g.m)
            e = L.edge(j)
            want = pin["simulate_observations"][j]
            return Op(kind, lambda: M.simulate_failure(g, L.probes, e),
                      lambda r: expect(len(r.observations), want, f"observations for edge {j}"))
        if kind == "pair":
            x, y, j, want = pin["pairs"][rng.randrange(len(pin["pairs"]))]
            x, y, e = L.vertex(x), L.vertex(y), L.edge(j)
            return Op(kind, lambda: M.pair_monitors_edge(g, x, y, e),
                      lambda r: expect(r, bool(want), "pair_monitors_edge"))
        if kind == "probe-loss":
            i = rng.randrange(len(L.probes))
            lost = L.vertex(L.canon_probes[i])
            rest = [v for v in L.probes if v != lost]
            want = bool(pin["probe_loss_is_meg"][i])
            return Op(kind, lambda: M.is_meg_set(g, rest),
                      lambda r: expect(r, want, "is_meg_set after losing a probe"))
        if kind == "witness":
            want = pin["witness"]

            def check(rep):
                got = [len(rep.uncovered), sum(len(p) for p in rep.witnesses.values())]
                expect(got, want, "witness_report uncovered, pairs")
            return Op(kind, lambda: M.witness_report(g, L.probes), check)
        fn = {"is_geodetic": "is_geodetic_set", "is_edge_geodetic": "is_edge_geodetic_set",
              "is_dem": "is_dem_set"}[kind]
        want = pin[kind]
        return Op(kind, lambda: getattr(M, fn)(g, L.probes), lambda r: expect(r, want, fn))

    def ops(self) -> Iterator[Op]:
        rnd = 0
        while True:
            R = self.graphs[self.random_keys[rnd % len(self.random_keys)]]
            G = self.graphs["grid"]
            round_ops = list(QUERY_ROUND)
            if rnd % QUERY_GRID_WITNESS_EVERY == QUERY_GRID_WITNESS_EVERY - 1:
                last = max(i for i, (k, w) in enumerate(round_ops) if (k, w) == ("simulate", "G"))
                round_ops[last] = ("witness", "G")
            for kind, where in round_ops:
                if kind == "hierarchy":
                    kind, where = QUERY_HIERARCHY[rnd % len(QUERY_HIERARCHY)]
                yield self._op(kind, R if where == "R" else G)
            rnd += 1


WORKLOADS = {w.name: w for w in (SolveSearch, SolveSeeded, PlanLarge, QueryWarm)}
