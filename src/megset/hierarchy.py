"""Verifiers for the related covering notions weaker than full monitoring.

These check, in increasing strength: geodetic sets (vertices covered by
some geodesic), edge-geodetic sets (edges covered by some geodesic),
strong edge-geodetic sets (one chosen geodesic per pair covers all
edges), and distance-edge-monitoring sets (one endpoint of the
monitoring pair may be any vertex).  Only verification is provided;
minimizing these parameters is a different problem.  The strong check's
backtracking and its geodesic lists run on ``graph._depth_first``.
"""

from __future__ import annotations

from itertools import combinations

from .errors import SizeCapExceededError
from .graph import Edge, Graph, _depth_first
from .monitoring import _dem, _probes

STRONG_EG_DEFAULT_CAP = 10**6


def is_geodetic_set(g: Graph, s) -> bool:
    """Every vertex lies on some geodesic between two vertices of s."""
    members, D, _ = _probes(g, s)
    in_s = set(members)
    for v in range(g.n):
        if v in in_s:
            continue
        if not any(D[x][v] + D[y][v] == D[x][y] for x, y in combinations(members, 2)):
            return False
    return True


def is_edge_geodetic_set(g: Graph, s) -> bool:
    """Every edge lies on some geodesic between two vertices of s."""
    members, D, _ = _probes(g, s)
    for (u, v) in g.edges:
        if not any(
            D[x][u] + 1 + D[y][v] == D[x][y] or D[x][v] + 1 + D[y][u] == D[x][y]
            for x, y in combinations(members, 2)
        ):
            return False
    return True


def is_strong_edge_geodetic_set(g: Graph, s, *, cap: int = STRONG_EG_DEFAULT_CAP) -> bool:
    """Can one geodesic per pair of s be chosen so their union covers E?

    Exact backtracking over the per-pair geodesic lists.  The number of
    selections is the product of per-pair geodesic counts; instances
    where it exceeds the cap raise instead of running unbounded.
    """
    members, D, C = _probes(g, s)
    product = 1
    pairs = []
    for x, y in combinations(members, 2):
        pairs.append((x, y))
        product *= C[x][y]
        if product > cap:
            raise SizeCapExceededError(
                f"strong edge-geodetic search space exceeds cap {cap}"
            )
    target = set(g.edges)
    choice_lists = [_geodesic_edge_sets(g, D, x, y) for (x, y) in pairs]
    choice_lists.sort(key=len)
    suffix: list[set[Edge]] = [set() for _ in range(len(choice_lists) + 1)]
    for i in range(len(choice_lists) - 1, -1, -1):
        suffix[i] = suffix[i + 1].union(*choice_lists[i])

    def choices(state):
        i, covered = state
        if i == len(choice_lists) or not (target - covered) <= suffix[i]:
            return None
        return ((i + 1, covered | es) for es in choice_lists[i])

    return any(len(covered) == len(target) for _, covered in _depth_first((0, frozenset()), choices))


def _geodesic_edge_sets(g: Graph, D, x: int, y: int) -> list[frozenset[Edge]]:
    """Edge sets of all geodesics from x to y, walking the distance DAG
    from y.  ``walk[d]`` is the current path's vertex at distance d from x."""
    dx = D[x]

    def steps_toward_x(v: int):
        return None if v == x else (w for w in g.adj[v] if dx[w] + 1 == dx[v])

    out: list[frozenset[Edge]] = []
    walk = [y] * (dx[y] + 1)
    for v in _depth_first(y, steps_toward_x):
        walk[dx[v]] = v
        if v == x:
            out.append(frozenset((a, b) if a < b else (b, a) for a, b in zip(walk, walk[1:])))
    return out


def is_dem_set(g: Graph, s) -> bool:
    """Distance-edge-monitoring: each edge is monitored by a member and some
    vertex, that is, some member passes ``monitoring._dem``'s test for it."""
    members, D, C = _probes(g, s)
    return all(next(_dem(D, C, e, members), None) is not None for e in g.edges)
