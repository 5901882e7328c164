"""Feedback-edge-set structure: base graph, core decomposition, and the
constructive MEG-set whose size is linear in the cyclomatic number.

The base graph is what remains after iteratively deleting degree-1
vertices; the removed parts are hanging trees rooted on the base.  The
peel is the graph's own, done once per graph (``Graph._hanging``), and
the geodesy rows and the monitoring checks read the same one.  The
base decomposes into core vertices (degree >= 3), proper core paths
(degree-2 interiors between distinct core vertices) and core cycles
(closed core paths attached at a single core vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import SizeCapExceededError
from .graph import Graph, _components, build_graph, require_connected
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
    """The 2-core left by the graph's one peel of degree-1 vertices
    (``Graph._hanging``), decomposed.

    The hanging trees are the components of G - base, each rooted at its
    one base neighbor: the peel's subtrees below a base vertex.  A tree
    strips away entirely: the base and the core fields are empty and the
    whole graph is one hanging tree rooted (by convention) at vertex 0,
    the core vertex the peel keeps.  With one cycle the base is that cycle,
    with no core vertex; it is reported as one core cycle anchored at its
    smallest vertex.
    """
    require_connected(g)
    h = g._hanging
    if g.m < g.n:  # a tree keeps only its core vertex 0, which is no base
        base_vertices = frozenset()
        hanging = [(0, frozenset(range(g.n)))] if g.n else []
    else:
        base_vertices = frozenset(v for v in range(g.n) if h.root[v] == v)
        hanging = sorted(((h.parent[w], frozenset(h.order[h.tin[w]:h.tout[w]]))
                          for w in range(g.n) if h.parent[w] in base_vertices),
                         key=lambda rt: (rt[0], min(rt[1])))
    base = build_graph(g.n, [e for e in g.edges if base_vertices.issuperset(e)])
    core = frozenset(v for v in base_vertices if base.degree(v) >= 3)
    # walks run between stops; a lone cycle's only stop is its smallest vertex
    stops = core or frozenset(sorted(base_vertices)[:1])
    paths: list[tuple[int, ...]] = []
    cycles: list[tuple[int, ...]] = []
    used: set[tuple[int, int]] = set()
    for c in sorted(stops):
        for w in base.adj[c]:
            if ((c, w) if c < w else (w, c)) in used:
                continue
            walk = [c, w]
            while walk[-1] not in stops:
                walk.append(next(x for x in base.adj[walk[-1]] if x != walk[-2]))
            used.update((a, b) if a < b else (b, a) for a, b in zip(walk, walk[1:]))
            (cycles if walk[-1] == c else paths).append(tuple(walk))
    if len(used) != base.m:
        raise RuntimeError("every base edge must lie on exactly one core path or cycle")
    return CoreDecomposition(
        base=base,
        base_vertices=base_vertices,
        hanging_trees=hanging,
        core_vertices=core,
        proper_core_paths=paths,
        core_cycles=cycles,
    )


def core_decomposition(g: Graph) -> CoreDecomposition:
    """``base_graph`` of a graph with at least one cycle (fes >= 1)."""
    if feedback_edge_number(g) < 1:
        raise ValueError("core decomposition needs feedback edge number >= 1")
    return base_graph(g)


def _path_medians(path: tuple[int, ...]) -> set[int]:
    """Central vertex (even edge count) or both central vertices (odd)."""
    return {path[(len(path) - 1) // 2], path[len(path) // 2]}


def cycle_probes(walk: tuple[int, ...]) -> list[int]:
    """Probes that monitor a cycle given as a closed walk (first == last).

    The walk's anchor and the vertices a third and two thirds of the way
    round suffice, except on a 4-cycle, which needs all four vertices.
    """
    length = len(walk) - 1
    if length == 4:
        return list(walk[:4])
    return [walk[0], walk[length // 3], walk[2 * length // 3]]


def fes_meg_construction(g: Graph) -> FesConstruction:
    """MEG-set of size at most 9*fes + leaves - 8 (fes >= 2), built from the
    core decomposition: the leaves, the core vertices, the medians of each
    core path and the `cycle_probes` of each core cycle.  A tree takes its
    leaves alone.

    The result is verified; a failure would falsify the underlying bound
    and raises instead of returning.
    """
    k = feedback_edge_number(g)
    if g.m == 0:
        raise ValueError("construction needs at least one edge")
    leaves = leaf_set(g)
    dec = base_graph(g)
    chosen = set(leaves) | dec.core_vertices
    for path in dec.proper_core_paths:
        chosen.update(_path_medians(path))
    for walk in dec.core_cycles:
        chosen.update(cycle_probes(walk))
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
    if g.n <= 1:
        return 0
    if g.n == 2:
        return 2
    for size in range(1, g.n + 1):
        for cand in combinations(range(g.n), size):
            if _connected_dominating(g, cand):
                return g.n - size
    raise RuntimeError("a connected graph always has a connected dominating set")


def _connected_dominating(g: Graph, cand: tuple[int, ...]) -> bool:
    dominated = set(cand)
    for v in cand:
        dominated.update(g.adj[v])
    return len(dominated) == g.n and len(_components(g, cand)) == 1


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
