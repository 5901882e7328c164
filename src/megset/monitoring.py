"""The monitoring predicate and its set-level operations.

A pair (x, y) monitors an edge e when e lies on every geodesic between
x and y, or equivalently when deleting e strictly increases d(x, y):
e is on all geodesics exactly when its removal destroys all of them.

This module decides monitoring one way only, by a count-product
criterion that costs O(1) per query: e = (u, v) is on all x-y geodesics
iff the number of geodesics through e, which is sigma(x,u) * sigma(y,v)
in the feasible orientation, equals sigma(x,y).  It reads only the
geodesy rows of x and y, so a check builds one counting BFS row per
probe, kept on the graph.  pair_monitors_edge and every set-level check
use it.  Distance increase and path enumeration live on as test
oracles, and the suite pins all three routes to each other.  The
simulator still runs a BFS on G-e, for the new distances it reports.

DEM lemma: some pair (x, y) monitors u-v iff d(x,u) != d(x,v) and
sigma(x,u) = sigma(x,v), that is iff the farther endpoint has the nearer
one as its only neighbour one step closer to x (and then y can be the
farther endpoint).  So hierarchy's DEM check reads only members' rows.

These checks read one scan, _monitoring_pairs, which yields the
monitoring pairs of one edge among given candidate rows: is_meg_set and
monitored_edges take its first pair, witness_report its first few,
simulate_failure all pairs of the probe set, and the solver's mask
table scans all pairs of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .graph import (
    INFINITE,
    Edge,
    Graph,
    bfs_distances,
    normalize_edge,
    require_connected,
)


@dataclass
class WitnessReport:
    """Per-edge monitoring pairs (possibly capped) plus the uncovered edges."""

    witnesses: dict[Edge, list[tuple[int, int]]]
    uncovered: list[Edge]


@dataclass
class ProbeObservation:
    x: int
    y: int
    old_distance: float
    new_distance: float  # INFINITE when the failed edge was a bridge


@dataclass
class DetectionReport:
    """Distance changes seen by a probe set after one edge fails."""

    failed_edge: Edge
    observations: list[ProbeObservation] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return bool(self.observations)


def _monitors(D, C, x: int, y: int, u: int, v: int) -> bool:
    """Count-product criterion: is edge (u,v) on all x-y geodesics?"""
    d = D[x][y]
    if d == INFINITE:
        return False
    via = 0
    if D[x][u] + 1 + D[y][v] == d:
        via = C[x][u] * C[y][v]
    elif D[x][v] + 1 + D[y][u] == d:
        via = C[x][v] * C[y][u]
    return via == C[x][y]


def pair_monitors_edge(g: Graph, x: int, y: int, e: tuple[int, int]) -> bool:
    """True iff e lies on every geodesic between x and y.

    Decided by the count product on the geodesy rows of x and y.
    """
    require_connected(g)
    eu, ev = normalize_edge(g, e)
    if x == y:
        raise ValueError("monitoring pair must be two distinct vertices")
    D, C = g.geodesy((y, x))  # y's range error comes first
    return _monitors(D, C, x, y, eu, ev)


def _probes(g: Graph, s):
    """Preamble of the set-level checks: the sorted members of s, their
    geodesy rows (D, C), and their pairs as lexicographic scan rows."""
    require_connected(g)
    members = sorted(set(s))
    geodesy = g.geodesy(members)  # raises on a member outside the graph
    rows = [(x, members[i + 1:]) for i, x in enumerate(members)]
    return members, geodesy, rows


def _monitoring_pairs(D, C, e: Edge, rows):
    """The pairs (x, y) that monitor edge e, in the order of rows.

    rows is a sequence of (x, ys); x is paired with each y of ys in turn;
    D and C must hold the geodesy rows of every vertex in rows.
    """
    u, v = e
    for x, ys in rows:
        for y in ys:
            if _monitors(D, C, x, y, u, v):
                yield x, y


def monitored_edges(g: Graph, s) -> set[Edge]:
    """All edges monitored by at least one pair drawn from s."""
    _, (D, C), rows = _probes(g, s)
    return {e for e in g.edges if next(_monitoring_pairs(D, C, e, rows), None) is not None}


def is_meg_set(g: Graph, s) -> bool:
    """True iff every edge of g is monitored by some pair of s."""
    _, (D, C), rows = _probes(g, s)
    return all(next(_monitoring_pairs(D, C, e, rows), None) is not None for e in g.edges)


def witness_report(g: Graph, s, max_witnesses_per_edge: int = 3) -> WitnessReport:
    """Up to max_witnesses_per_edge monitoring pairs per edge, lexicographic.

    The uncovered list is always complete regardless of the cap.
    """
    _, (D, C), rows = _probes(g, s)
    if max_witnesses_per_edge < 1:
        raise ValueError("max_witnesses_per_edge must be positive")
    witnesses = {
        e: list(islice(_monitoring_pairs(D, C, e, rows), max_witnesses_per_edge))
        for e in g.edges
    }
    uncovered = [e for e, found in witnesses.items() if not found]
    return WitnessReport(witnesses=witnesses, uncovered=uncovered)


def simulate_failure(g: Graph, s, e: tuple[int, int]) -> DetectionReport:
    """Remove edge e and report every probe pair whose distance grew.

    The pairs are those of s that monitor e, in lexicographic order; a
    bridge failure shows up as INFINITE new distance.  An empty report
    means no pair of s monitors e.
    """
    # the edge is checked before the set
    require_connected(g)
    failed = normalize_edge(g, e)
    _, (D, C), rows = _probes(g, s)
    report = DetectionReport(failed_edge=failed)
    # one BFS on G-e per probe that heads a detecting pair
    new_dist = {}
    for x, y in _monitoring_pairs(D, C, failed, rows):
        if x not in new_dist:
            new_dist[x] = bfs_distances(g, x, failed)
        report.observations.append(ProbeObservation(x, y, D[x][y], new_dist[x][y]))
    return report
