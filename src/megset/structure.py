"""Feedback-edge-set structure: base graph, core decomposition, and the
constructive MEG-set whose size is linear in the cyclomatic number.

The base graph is what remains after iteratively deleting degree-1
vertices; the removed parts are hanging trees rooted on the base.  The
base decomposes into core vertices (degree >= 3), proper core paths
(degree-2 interiors between distinct core vertices) and core cycles
(closed core paths attached at a single core vertex).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .errors import SizeCapExceededError
from .graph import Graph, build_graph, require_connected
from .monitoring import is_meg_set

MLN_VERTEX_CAP = 12


@dataclass
class CoreDecomposition:
    """Base graph plus its hanging trees, core vertices, paths and cycles.

    `base` shares vertex ids with the original graph; vertices stripped
    while forming it are simply isolated there.  Core cycles are closed
    vertex walks (first == last); proper core paths run between two
    distinct core vertices.
    """

    base: Graph
    base_vertices: frozenset[int]
    hanging_trees: list[tuple[int, frozenset[int]]]
    core_vertices: frozenset[int]
    proper_core_paths: list[tuple[int, ...]]
    core_cycles: list[tuple[int, ...]]


@dataclass
class FesConstruction:
    meg_set: frozenset[int]
    k: int
    leaf_count: int
    budget: int


def feedback_edge_number(g: Graph) -> int:
    """Cyclomatic number m - n + c of a connected graph, where the number
    of components c is 1, or 0 for the null graph."""
    require_connected(g)
    return g.m - g.n + min(g.n, 1)


def leaf_set(g: Graph) -> frozenset[int]:
    return frozenset(v for v in range(g.n) if g.degree(v) == 1)


def base_graph(g: Graph) -> CoreDecomposition:
    """Strip degree-1 vertices to the 2-core and collect the hanging trees.

    A tree strips away entirely: the base is empty and the whole graph
    is one hanging tree rooted (by convention) at its smallest vertex.
    """
    require_connected(g)
    deg = [g.degree(v) for v in range(g.n)]
    stack = [v for v in range(g.n) if deg[v] == 1]
    stripped = []
    up = [-1] * g.n  # the neighbor still present when a vertex was stripped
    while stack:
        v = stack.pop()
        deg[v] = 0
        stripped.append(v)
        for w in g.adj[v]:
            if deg[w] > 0:
                up[v] = w
                deg[w] -= 1
                if deg[w] == 1:
                    stack.append(w)
    base_vertices = frozenset(v for v in range(g.n) if deg[v] >= 2)
    base_edges = [(u, v) for (u, v) in g.edges if u in base_vertices and v in base_vertices]
    hanging: list[tuple[int, frozenset[int]]] = []
    if not base_vertices:
        if g.n:
            hanging.append((0, frozenset(range(g.n))))
    else:
        # a vertex's recorded neighbor goes later, so walking the strip order
        # backwards meets it first; the top vertex of a tree hangs on the base
        top = list(range(g.n))
        trees: dict[int, list[int]] = {}
        for v in reversed(stripped):
            if up[v] < 0:
                raise RuntimeError("every stripped vertex must hang on a neighbor that outlasts it")
            if up[v] not in base_vertices:
                top[v] = top[up[v]]
            trees.setdefault(top[v], []).append(v)
        hanging = sorted(((up[t], frozenset(tree)) for t, tree in trees.items()),
                         key=lambda rt: (rt[0], min(rt[1])))
    return CoreDecomposition(
        base=build_graph(g.n, base_edges),
        base_vertices=base_vertices,
        hanging_trees=hanging,
        core_vertices=frozenset(),
        proper_core_paths=[],
        core_cycles=[],
    )


def core_decomposition(g: Graph) -> CoreDecomposition:
    """Full decomposition of the base into core vertices, paths and cycles.

    Needs at least one cycle (fes >= 1).  With fes = 1 the base is a
    single cycle with no core vertex; it is reported as one core cycle
    anchored at its smallest vertex.
    """
    k = feedback_edge_number(g)
    if k < 1:
        raise ValueError("core decomposition needs feedback edge number >= 1")
    dec = base_graph(g)
    base = dec.base
    core = frozenset(v for v in dec.base_vertices if base.degree(v) >= 3)
    # walks run between stops; with fes = 1 the only stop is the cycle's smallest vertex
    stops = core or frozenset({min(dec.base_vertices)})
    paths: list[tuple[int, ...]] = []
    cycles: list[tuple[int, ...]] = []
    used: set[tuple[int, int]] = set()
    for c in sorted(stops):
        for w in base.adj[c]:
            if ((c, w) if c < w else (w, c)) in used:
                continue
            walk = [c, w]
            while True:
                prev, cur = walk[-2], walk[-1]
                used.add((prev, cur) if prev < cur else (cur, prev))
                if cur in stops:
                    break
                walk.append(next(x for x in base.adj[cur] if x != prev))
            (cycles if walk[-1] == c else paths).append(tuple(walk))
    if len(used) != base.m:
        raise RuntimeError("every base edge must lie on exactly one core path or cycle")
    return replace(dec, core_vertices=core, proper_core_paths=paths, core_cycles=cycles)


def _path_medians(path: tuple[int, ...]) -> list[int]:
    """Central vertex (even edge count) or both central vertices (odd)."""
    length = len(path) - 1
    if length < 2:
        return []
    if length % 2 == 0:
        return [path[length // 2]]
    return [path[(length - 1) // 2], path[(length + 1) // 2]]


def _cycle_picks(walk: tuple[int, ...]) -> list[int]:
    """Spread internal vertices of a core cycle, as in the cycle construction.

    Two vertices at one-third offsets from the anchor suffice except on
    a 4-cycle, which needs all three internal vertices.
    """
    length = len(walk) - 1
    if length == 4:
        return [walk[1], walk[2], walk[3]]
    return [walk[length // 3], walk[2 * length // 3]]


def fes_meg_construction(g: Graph) -> FesConstruction:
    """MEG-set of size at most 9*fes + leaves - 8 (fes >= 2), built from the
    core decomposition; trees use their leaves and a single cycle uses the
    three-vertex cycle construction on its base.

    The result is verified; a failure would falsify the underlying bound
    and raises instead of returning.
    """
    k = feedback_edge_number(g)
    if g.m == 0:
        raise ValueError("construction needs at least one edge")
    leaves = leaf_set(g)
    chosen: set[int] = set(leaves)
    if k >= 1:
        dec = core_decomposition(g)
        chosen |= dec.core_vertices
        for path in dec.proper_core_paths:
            chosen.update(_path_medians(path))
        for walk in dec.core_cycles:
            chosen.update(_cycle_picks(walk))
        if k == 1:
            # a lone cycle has no core vertex, so its anchor is probed too
            chosen.add(dec.core_cycles[0][0])
    budget = fes_budget(k, len(leaves))
    meg = frozenset(chosen)
    if len(meg) > budget:
        raise RuntimeError(
            f"construction used {len(meg)} vertices, over its budget {budget}; "
            "this would falsify the feedback-edge-set bound"
        )
    if not is_meg_set(g, meg):
        raise RuntimeError("constructed set failed MEG verification")
    return FesConstruction(meg_set=meg, k=k, leaf_count=len(leaves), budget=budget)


def fes_budget(k: int, leaf_count: int) -> int:
    """Size bound met by `fes_meg_construction` at feedback edge number k:
    the leaves for a tree, leaves + 4 for one cycle, else 9k + leaves - 8."""
    if k == 0:
        return leaf_count
    if k == 1:
        return leaf_count + 4
    return 9 * k + leaf_count - 8


def max_leaf_number(g: Graph, *, cap: int = MLN_VERTEX_CAP) -> int:
    """Maximum leaf count over all spanning trees, exactly.

    Uses the identity: for connected graphs on n >= 3 vertices the
    maximum number of leaves equals n minus the size of a minimum
    connected dominating set (the internal vertices of an optimal tree
    are exactly such a set).  Exhaustive over vertex subsets, so capped.
    """
    require_connected(g)
    if g.n > cap:
        raise SizeCapExceededError(f"max leaf number cap is {cap} vertices, got {g.n}")
    if g.n == 1:
        return 0
    if g.n == 2:
        return 2
    for size in range(1, g.n + 1):
        for cand in combinations(range(g.n), size):
            if _connected_dominating(g, cand):
                return g.n - size
    raise RuntimeError("a connected graph always has a connected dominating set")


def _connected_dominating(g: Graph, cand: tuple[int, ...]) -> bool:
    inside = set(cand)
    dominated = set(inside)
    for v in inside:
        dominated.update(g.adj[v])
    if len(dominated) != g.n:
        return False
    seen = {cand[0]}
    stack = [cand[0]]
    while stack:
        x = stack.pop()
        for y in g.adj[x]:
            if y in inside and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(inside)


def gen_tightness_family(k: int, leaves: int) -> Graph:
    """k four-cycles sharing one core vertex, plus pendant leaves there.

    The family realizes feedback edge number k with monitoring number
    3k + leaves, showing the linear bound cannot drop below 3 per unit
    of feedback.
    """
    if k < 2:
        raise ValueError("tightness family needs k >= 2")
    if leaves < 0:
        raise ValueError("leaf count must be nonnegative")
    edges = []
    for i in range(k):
        a, b, d = 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(0, a), (a, b), (b, d), (0, d)]
    first_leaf = 3 * k + 1
    edges += [(0, first_leaf + j) for j in range(leaves)]
    return build_graph(first_leaf + leaves, edges)
