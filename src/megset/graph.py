"""Immutable simple undirected graphs and unweighted shortest-path machinery.

Vertices are dense integers 0..n-1; external labels belong at the I/O
layer.  All distances are BFS hop counts, from one counting BFS that
walks the adjacency it is given: ``g.adj`` for the geodesy rows of G,
``_adjacency_without(g, e)`` for distances in G-e.  ``INFINITE`` marks
unreachable pairs and saturates under addition, so callers never juggle
sentinel integers.

Each graph peels its degree-1 vertices once (``Graph._hanging``): what
is left is the 2-core, and every peeled vertex hangs in a tree below one
core vertex, its root.  A geodesic from a hanging vertex leaves through
its root along the one tree path, so its geodesy rows derive from the
root's: the same counts, and distances shifted by its depth except in
its own hanging component.

Every DFS, for the blocks and the peel too, runs on ``_depth_first``:
one pre-order walk over a stack of iterators, so none recurses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import DisconnectedGraphError, GraphFormatError

INFINITE = float("inf")

Edge = tuple[int, int]
DistanceMatrix = tuple[tuple[float, ...], ...]
CountMatrix = tuple[tuple[int, ...], ...]


class _Hanging(NamedTuple):
    """The peel of a graph's degree-1 vertices, indexed by vertex.

    A vertex that survives the peel is a core vertex and its own root; a
    component without a cycle keeps its smallest vertex as its core.
    Every other vertex hangs below ``root``, at ``depth`` tree steps,
    under tree ``parent`` (-1 on the core).  ``order`` lists each core
    vertex followed by the vertices hanging below it, in preorder, and
    ``order[tin[v]:tout[v]]`` is v's subtree (for a core vertex, all that
    hangs below it).
    """

    root: list[int]
    depth: list[int]
    parent: list[int]
    order: list[int]
    tin: list[int]
    tout: list[int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: edge list plus sorted adjacency, both immutable.

    Connectivity is not an invariant; operations that need it check it.
    Derived tables (the edge set, connectivity, the ``geodesy`` rows,
    filled per source on first use) are cached on the instance and freed
    with it; equality and hashing see only ``n``, ``edges`` and ``adj``.
    """

    n: int
    edges: tuple[Edge, ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set

    @cached_property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def _connected(self) -> bool:
        return len(_components(self, range(self.n))) <= 1

    @cached_property
    def _hanging(self) -> _Hanging:
        """The graph's one peel of degree-1 vertices."""
        n, adj = self.n, self.adj
        deg = [len(a) for a in adj]
        stack = [v for v in range(n) if deg[v] == 1]
        while stack:
            v = stack.pop()
            deg[v] = 0
            for w in adj[v]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        stack.append(w)
        core = [d >= 2 for d in deg]
        root, depth, parent, tin = list(range(n)), [0] * n, [-1] * n, [-1] * n
        order: list[int] = []

        def hanging_below(v):
            for w in reversed(adj[v]):
                if w != parent[v] and not core[w]:
                    root[w], depth[w], parent[w] = root[v], depth[v] + 1, v
                    yield w

        # the 2-core first; a component without a cycle peels away whole and
        # keeps as its core the first vertex it is met at, its smallest
        for c in [v for v in range(n) if core[v]] + list(range(n)):
            if tin[c] < 0:
                for v in _depth_first(c, hanging_below):
                    tin[v] = len(order)
                    order.append(v)
        size = [1] * n
        for v in reversed(order):
            if parent[v] >= 0:
                size[parent[v]] += size[v]
        return _Hanging(root, depth, parent, order, tin, [tin[v] + size[v] for v in range(n)])

    @cached_property
    def _geodesy_rows(self) -> tuple[list, list]:
        return [None] * self.n, [None] * self.n

    def geodesy(self, sources: Iterable[int]) -> tuple[DistanceMatrix, CountMatrix]:
        """Distance and geodesic-count rows indexed by source: those of the
        given sources filled on first use, None for a source that no call
        has asked for yet.  Every source is checked before any row is
        built.  A core source takes one counting BFS; a hanging source
        shares its root's count row and shifts its root's distance row."""
        sources = list(sources)
        for s in sources:
            _check_vertex(self, s)
        dists, counts = self._geodesy_rows
        for s in sources:
            if dists[s] is None:
                h = self._hanging
                r = h.root[s]
                if dists[r] is None:
                    d, c = _bfs_with_counts(self.adj, r)
                    dists[r], counts[r] = tuple(d), tuple(c)
                if s != r:
                    dists[s], counts[s] = _hanging_row(h, dists[r], s), counts[r]
        return tuple(dists), tuple(counts)


def build_graph(n: int, edges: Iterable[tuple[int, int]], *, strict: bool = False) -> Graph:
    """Validate and normalize an edge list into a Graph.

    Edges are stored with u < v and sorted.  Duplicates are silently
    merged unless ``strict`` is set, in which case they are an error.
    """
    if n < 0:
        raise GraphFormatError(f"vertex count must be nonnegative, got {n}")
    seen: set[Edge] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            if strict:
                raise GraphFormatError(f"duplicate edge ({e[0]},{e[1]})")
            continue
        seen.add(e)
    ordered = tuple(sorted(seen))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in ordered:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n=n, edges=ordered, adj=tuple(tuple(sorted(a)) for a in adj))


def _check_vertex(g: Graph, v: int) -> None:
    if not (0 <= v < g.n):
        raise GraphFormatError(f"vertex {v} outside [0,{g.n})")


def normalize_edge(g: Graph, e: tuple[int, int]) -> Edge:
    """Return e as (u,v) with u < v; raise if e is not an edge of g."""
    u, v = e
    _check_vertex(g, u)
    _check_vertex(g, v)
    if u > v:
        u, v = v, u
    if not g.has_edge(u, v):
        raise GraphFormatError(f"({u},{v}) is not an edge of the graph")
    return (u, v)


def distance(g: Graph, u: int, v: int) -> float:
    """BFS hop distance between u and v; INFINITE across components."""
    _check_vertex(g, v)
    return g.geodesy((u,))[0][u][v]


def distance_matrix(g: Graph) -> DistanceMatrix:
    """All-pairs hop distances: every row of ``geodesy``."""
    return g.geodesy(range(g.n))[0]


def count_shortest_paths(g: Graph, u: int, v: int) -> int:
    """Number of distinct geodesics from u to v (0 if disconnected).

    Counted over the BFS DAG; Python integers make overflow a non-issue
    even though hypercube counts grow factorially.
    """
    _check_vertex(g, u)
    _check_vertex(g, v)
    if u == v:
        raise ValueError("count_shortest_paths requires u != v")
    return g.geodesy((u,))[1][u][v]


def _hanging_row(h: _Hanging, root_row: tuple[float, ...], s: int) -> tuple[float, ...]:
    """The distance row of a hanging vertex s from its root's row.

    A path out of s's own hanging component leaves through the root, so it
    is depth(s) longer than from the root.  Inside that component the one
    tree path turns at the lowest common ancestor: walking up from s, the
    part of each ancestor a's subtree not under the previous one is at
    depth(s) + depth(v) - 2 depth(a).
    """
    ds = h.depth[s]
    row = [d + ds for d in root_row]
    order, tin, tout, depth = h.order, h.tin, h.tout, h.depth
    a = s
    lo = hi = tin[s]
    while a != h.root[s]:
        shift = ds - 2 * depth[a]
        for v in order[tin[a]:lo] + order[hi:tout[a]]:
            row[v] = shift + depth[v]
        lo, hi = tin[a], tout[a]
        a = h.parent[a]
    return tuple(row)


def _bfs_with_counts(adj: Sequence[tuple[int, ...]], source: int) -> tuple[list[float], list[int]]:
    """Hop distances (INFINITE if unreachable) and geodesic counts (0 if
    unreachable) from source over the adjacency lists ``adj``."""
    # count 0 means unreached; none lies deeper than d yet, so dist >= d is d
    n = len(adj)
    dist: list[float] = [INFINITE] * n
    counts = [0] * n
    dist[source] = 0
    counts[source] = 1
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        found = []
        for x in frontier:
            cx = counts[x]
            for y in adj[x]:
                if not counts[y]:
                    dist[y] = d
                    counts[y] = cx
                    found.append(y)
                elif dist[y] >= d:
                    counts[y] += cx
        frontier = found
    return dist, counts


def _adjacency_without(g: Graph, e: Edge) -> list[tuple[int, ...]]:
    """The adjacency of G-e for an edge e of g: a copy of ``g.adj`` in
    which only the lists of e's two endpoints are filtered."""
    u, v = e
    adj = list(g.adj)
    adj[u] = tuple(w for w in adj[u] if w != v)
    adj[v] = tuple(w for w in adj[v] if w != u)
    return adj


def distance_without_edge(g: Graph, e: tuple[int, int], u: int, v: int) -> float:
    """BFS distance between u and v in G-e; e is checked first, then v, then u."""
    e = normalize_edge(g, e)
    _check_vertex(g, v)
    _check_vertex(g, u)
    return _bfs_with_counts(_adjacency_without(g, e), u)[0][v]


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single component (vacuously true for n <= 1)."""
    return g._connected


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("operation requires a connected graph")


def simplicial_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose open neighborhood induces a clique.

    Isolated vertices and leaves qualify: their neighborhoods are
    trivially cliques.
    """
    edge_set = g._edge_set
    return frozenset(
        v for v in range(g.n) if all(pair in edge_set for pair in combinations(g.adj[v], 2))
    )


def twin_vertices(g: Graph) -> frozenset[int]:
    """Vertices of degree >= 1 that have an open or closed twin.

    Open twins share N(u) = N(v); closed twins share N[u] = N[v].  The
    result contains every member of every twin pair, not the pairs.
    """
    # one dict serves both kinds: N(u) = N[w] would put w in N(u), hence
    # u in N(w), which is inside N[w] = N(u), and no vertex is its own neighbor
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        if g.adj[v]:
            nv = frozenset(g.adj[v])
            groups.setdefault(nv, []).append(v)
            groups.setdefault(nv | {v}, []).append(v)
    return frozenset(v for grp in groups.values() if len(grp) > 1 for v in grp)


def cut_vertices(g: Graph) -> frozenset[int]:
    """The articulation vertices, those of two or more blocks, as the one
    lowlink DFS of ``_blocks`` finds them.  Requires a connected graph."""
    require_connected(g)
    return _blocks(g)[1]


def _blocks(g: Graph) -> tuple[list[tuple[list[int], list[Edge]]], frozenset[int]]:
    """The blocks (biconnected components) of a connected graph as (sorted
    vertices, sorted edges), in vertex-list order, and its cut vertices
    (those of two or more blocks), by Hopcroft-Tarjan lowlink on one
    ``_depth_first`` walk that marks children as yielded, so non-tree edges
    join ancestors.  low[w], the least disc beside w's subtree (p's too),
    fills in reverse pre-order; the tree edge (p, w) opens a block when
    low[w] >= disc[p], and each edge joins its later-discovered end's block."""
    disc, parent = [0] + [-1] * (g.n - 1), [-1] * g.n
    order: list[int] = []

    def tree_children(v):
        for w in g.adj[v]:
            if disc[w] < 0:
                disc[w], parent[w] = len(order), v
                yield w

    for v in (_depth_first(0, tree_children) if g.n else ()):
        order.append(v)
    low = [min([disc[v], *map(disc.__getitem__, g.adj[v])]) for v in range(g.n)]
    for v in reversed(order[1:]):
        low[parent[v]] = min(low[parent[v]], low[v])
    opener = [-1] * g.n  # the child whose tree edge opened the block of (parent[w], w)
    for w in order[1:]:
        opener[w] = w if low[w] >= disc[parent[w]] else opener[parent[w]]
    edges: dict[int, list[Edge]] = {}
    for a, b in g.edges:
        edges.setdefault(opener[a if disc[a] > disc[b] else b], []).append((a, b))
    blocks = sorted((sorted({x for e in es for x in e}), es) for es in edges.values())
    shared = Counter(v for block, _ in blocks for v in block)
    return blocks, frozenset(v for v, k in shared.items() if k > 1)


def _components(g: Graph, vertices: Iterable[int]) -> list[list[int]]:
    """Components of the subgraph induced by ``vertices``, each in visiting
    order from its first vertex, in the order of those first vertices."""
    order = list(vertices)
    left = set(order)
    comps = []
    for s in order:
        if s in left:
            left.remove(s)
            comp = [s]
            for x in comp:
                for w in g.adj[x]:
                    if w in left:
                        left.remove(w)
                        comp.append(w)
            comps.append(comp)
    return comps


def _depth_first(root, children):
    """The states below ``root`` in pre-order, root first.  ``children(state)``
    returns a lazy iterable of the state's children, in visiting order, or
    None for a leaf; it is called once per state, when the state after it
    is asked for, so a consumer that stops at a state never expands it."""
    stack = [iter((root,))]
    while stack:
        for state in stack[-1]:
            yield state
            below = children(state)
            if below is not None:
                stack.append(iter(below))
            break
        else:
            stack.pop()
