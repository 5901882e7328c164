"""The monitoring predicate and its set-level operations.

A pair (x, y) monitors an edge e when e lies on every geodesic between
x and y, or equivalently when deleting e strictly increases d(x, y):
e is on all geodesics exactly when its removal destroys all of them.

This module decides monitoring in one place, _monitoring_pairs, by a
count-product criterion that costs O(1) per pair: e = (u, v) is on all
x-y geodesics iff the number of geodesics through e, which is
sigma(x,u) * sigma(y,v) in the feasible orientation, equals sigma(x,y).
It reads only the geodesy rows of x and y, kept on the graph; a
hanging probe's rows derive from its root's, so a check runs one
counting BFS per distinct root of its probes.  Distance increase and
path enumeration live on as test oracles, and the suite pins all three
routes to each other.  The simulator runs the counting BFS on the
adjacency of G-e, for the new distances it reports.

DEM lemma: some pair (x, y) monitors u-v iff d(x,u) != d(x,v) and
sigma(x,u) = sigma(x,v), that is iff the farther endpoint has the nearer
one as its only neighbour one step closer to x (and then y can be the
farther endpoint).  Both ends of a monitoring pair pass this test, _dem,
so the DEM check and the scan of a 2-core edge read the members it keeps.

_monitoring_pairs scans each member's rows against the later members,
so it yields the monitoring pairs of one edge in lexicographic order;
the solver's mask table takes all pairs of each block from it, and
pair_monitors_edge its one pair.

The set checks read the graph's peel of degree-1 vertices.  A tree edge
is a bridge, monitored by exactly the pairs it separates, so its sides
come from a bisect over the members in Euler order.  One lister,
_pair_lister, gives any edge's pairs of members: a tree edge's by side,
a core edge's from _monitoring_pairs.  witness_report caps it per edge
and simulate_failure reads it for the failed edge.  A pair monitors an
edge of the 2-core exactly when the pair's roots differ and monitor it,
so is_meg_set and monitored_edges scan those edges over the members'
distinct roots, and take the first pair there.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice

from .graph import (
    Edge,
    Graph,
    _adjacency_without,
    _bfs_with_counts,
    _check_vertex,
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


def pair_monitors_edge(g: Graph, x: int, y: int, e: tuple[int, int]) -> bool:
    """True iff e lies on every geodesic between x and y.

    Decided by the count product on the geodesy rows of x and y.
    """
    require_connected(g)
    e = normalize_edge(g, e)
    if x == y:
        raise ValueError("monitoring pair must be two distinct vertices")
    D, C = g.geodesy((y, x))  # y's range error comes first
    return any(_monitoring_pairs(D, C, e, (x, y)))


def _probes(g: Graph, s):
    """Preamble of the set-level checks that read member rows: the sorted
    members of s and their geodesy rows (D, C)."""
    require_connected(g)
    members = sorted(set(s))
    D, C = g.geodesy(members)  # checks every member before it builds a row
    return members, D, C


def _below(h, tins: list[int], e: Edge) -> slice | None:
    """None for a 2-core edge of the peel ``h``; for a tree edge, the slice
    of ``tins`` (the members' sorted Euler entry times) below it."""
    u, v = e
    w = v if h.parent[v] == u else u if h.parent[u] == v else -1
    return None if w < 0 else slice(bisect_left(tins, h.tin[w]), bisect_left(tins, h.tout[w]))


def _monitoring_pairs(D, C, e: Edge, members):
    """The pairs (x, y) of combinations(members, 2) that monitor edge e.

    A pair monitors e = (u, v) when the geodesics through e, counted in
    the orientation that lies on some x-y geodesic, are all of them.  D
    and C must hold the geodesy rows of every member, members must slice
    (a list, tuple or range), and the graph must be connected.
    """
    u, v = e
    for i, x in enumerate(members):
        Dx, Cx = D[x], C[x]
        xu, xv = Dx[u] + 1, Dx[v] + 1
        for y in members[i + 1:]:
            d, Dy = Dx[y], D[y]
            if xu + Dy[v] == d:
                via = Cx[u] * C[y][v]
            elif xv + Dy[u] == d:
                via = Cx[v] * C[y][u]
            else:
                continue
            if via == Cx[y]:
                yield x, y


def _dem(D, C, e: Edge, vertices):
    """The vertices x, lazily and in their given order, that pass the DEM test for e."""
    u, v = e
    return (x for x in vertices if D[x][u] != D[x][v] and C[x][u] == C[x][v])


def _coverage(g: Graph, s):
    """Each edge of g, in order, with whether some pair of s monitors it.

    A tree edge is monitored when members lie on both of its sides.  Two
    members monitor a core edge exactly when their roots differ and
    monitor it, so core edges are scanned over the members' roots.
    """
    require_connected(g)
    members = sorted(set(s))
    for x in members:
        _check_vertex(g, x)
    h = g._hanging
    roots = sorted({h.root[x] for x in members})
    D, C = g.geodesy(roots)
    tins = sorted(h.tin[x] for x in members)
    for e in g.edges:
        inside = _below(h, tins, e)
        if inside is None:
            yield e, any(_monitoring_pairs(D, C, e, roots))
        else:
            yield e, 0 < inside.stop - inside.start < len(tins)


def monitored_edges(g: Graph, s) -> set[Edge]:
    """All edges monitored by at least one pair drawn from s."""
    return {e for e, covered in _coverage(g, s) if covered}


def is_meg_set(g: Graph, s) -> bool:
    """True iff every edge of g is monitored by some pair of s."""
    return all(covered for _, covered in _coverage(g, s))


def _separated_pairs(members: list[int], inside: list[int]):
    """The pairs of combinations(members, 2) with exactly one vertex in
    ``inside``, a sorted part of the sorted ``members``, in that order."""
    side = set(inside)
    outside = [x for x in members if x not in side]
    if not (inside and outside):
        return
    for x in members:
        other = outside if x in side else inside
        for i in range(bisect_right(other, x), len(other)):
            yield x, other[i]


def _pair_lister(g: Graph, members: list[int], D, C):
    """The function from an edge to the pairs of the sorted ``members``
    that monitor it, lazily and in lexicographic order.  A tree edge's are
    the pairs it separates, from the members in Euler order; a core edge's
    scan the rows, which D and C must hold, of the members _dem keeps."""
    h = g._hanging
    tins = sorted(h.tin[x] for x in members)

    def pairs(e: Edge):
        inside = _below(h, tins, e)
        if inside is None:
            return _monitoring_pairs(D, C, e, list(_dem(D, C, e, members)))
        return _separated_pairs(members, sorted(map(h.order.__getitem__, tins[inside])))
    return pairs


def witness_report(g: Graph, s, max_witnesses_per_edge: int = 3) -> WitnessReport:
    """Up to max_witnesses_per_edge monitoring pairs per edge, lexicographic.

    The uncovered list is always complete regardless of the cap.
    """
    members, D, C = _probes(g, s)
    if max_witnesses_per_edge < 1:
        raise ValueError("max_witnesses_per_edge must be positive")
    pairs = _pair_lister(g, members, D, C)
    witnesses = {e: list(islice(pairs(e), max_witnesses_per_edge)) for e in g.edges}
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
    members, D, C = _probes(g, s)
    report = DetectionReport(failed_edge=failed)
    # one BFS on G-e per probe that heads a detecting pair
    without = _adjacency_without(g, failed)
    new_dist = {}
    for x, y in _pair_lister(g, members, D, C)(failed):
        if x not in new_dist:
            new_dist[x] = _bfs_with_counts(without, x)[0]
        report.observations.append(ProbeObservation(x, y, D[x][y], new_dist[x][y]))
    return report
