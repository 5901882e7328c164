"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's production code paths: geodesics
are enumerated explicitly, minimums come from unpruned subset sweeps,
spanning trees and feedback edge sets from raw combinations.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, product

from megset import (INFINITE, Graph, build_graph, is_meg_set, random_connected, random_tree,
                    random_unicyclic)
from megset.randgraphs import _random_tree_edges
from megset.monitoring import _monitoring_pairs, _probes
from megset.solver import _requirements


def random_corpus(count: int, max_n: int, base_seed: int) -> list[Graph]:
    """Small connected random graphs, 2 to max_n vertices, any density."""
    rng = random.Random(base_seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        out.append(random_connected(n, m, rng.randrange(10**9)))
    return out


def random_block_graph(rng: random.Random, pieces: int) -> Graph:
    """Random connected pieces of 2-5 vertices, each glued by its vertex 0
    onto a random vertex of the graph built so far."""
    n, edges = 1, []
    for _ in range(pieces):
        k = rng.randint(2, 5)
        h = random_connected(k, rng.randint(k - 1, k * (k - 1) // 2), rng.randrange(10**9))
        label = [rng.randrange(n)] + list(range(n, n + k - 1))
        edges += [(label[a], label[b]) for a, b in h.edges]
        n += k - 1
    return build_graph(n, edges)


def square_chain(k: int) -> Graph:
    """k four-cycles glued in series: vertex 3i is joined to 3i+3 through
    both 3i+1 and 3i+2, so the ends 0 and 3k have 2**k geodesics."""
    return build_graph(3 * k + 1, [(3 * i, 3 * i + j) for i in range(k) for j in (1, 2)]
                       + [(3 * i + j, 3 * i + 3) for i in range(k) for j in (1, 2)])


def relabel(g: Graph, rng: random.Random) -> Graph:
    """g under a uniformly random vertex relabelling."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def forest_corpus(count: int, max_n: int, base_seed: int) -> list[Graph]:
    """Connected graphs with hanging trees: K1, K2, a star centred at its
    smallest vertex and one centred at a larger one, then per round a
    random tree, a relabelled random unicyclic graph and a random graph with
    at most four edges past a tree, 2 to max_n vertices."""
    rng = random.Random(base_seed)
    out = [build_graph(1, []), build_graph(2, [(0, 1)]),
           build_graph(6, [(0, v) for v in range(1, 6)]),
           build_graph(6, [(3, v) for v in (0, 1, 2, 4, 5)])]
    for _ in range(count):
        out.append(random_tree(rng.randint(2, max_n), rng.randrange(10**9)))
        n = rng.randint(3, max_n)
        out.append(relabel(random_unicyclic(n, rng.randint(3, n), rng.randrange(10**9)), rng))
        n = rng.randint(2, max_n)
        out.append(random_connected(n, min(n * (n - 1) // 2, n - 1 + rng.randint(0, 4)),
                                    rng.randrange(10**9)))
    return out


def bfs_levels(g: Graph, src: int) -> dict[int, int]:
    levels = {src: 0}
    q = deque([src])
    while q:
        x = q.popleft()
        for y in g.adj[x]:
            if y not in levels:
                levels[y] = levels[x] + 1
                q.append(y)
    return levels


def enumerate_geodesics(g: Graph, x: int, y: int) -> list[tuple[int, ...]]:
    """All shortest x-y paths, by DFS over the BFS level structure.

    The DFS keeps its own stack, one neighbour iterator per vertex of the
    current path from y, so a geodesic longer than the recursion limit is
    enumerated too.
    """
    levels = bfs_levels(g, x)
    if y not in levels:
        return []
    if y == x:
        return [(x,)]
    paths: list[tuple[int, ...]] = []
    path = [y]
    pending = [iter(g.adj[y])]
    while pending:
        w = next(pending[-1], None)
        if w is None:
            pending.pop()
            path.pop()
        elif levels.get(w, -1) == levels[path[-1]] - 1:
            path.append(w)
            if w == x:
                paths.append(tuple(reversed(path)))
                path.pop()
            else:
                pending.append(iter(g.adj[w]))
    return paths


def path_edges(path: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    return frozenset(
        (a, b) if a < b else (b, a) for a, b in zip(path, path[1:])
    )


def monitors_by_enumeration(g: Graph, x: int, y: int, e: tuple[int, int]) -> bool:
    """Definitional check: e lies on every geodesic between x and y."""
    eu, ev = min(e), max(e)
    paths = enumerate_geodesics(g, x, y)
    return bool(paths) and all((eu, ev) in path_edges(p) for p in paths)


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """A new Graph equal to G-e, rebuilt from the remaining edge list."""
    gone = (min(e), max(e))
    return build_graph(g.n, [ed for ed in g.edges if ed != gone])


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the given vertices, relabeled densely.

    Returns the subgraph and the old-id -> new-id mapping (sorted order).
    """
    vs = sorted(set(vertices))
    remap = {v: i for i, v in enumerate(vs)}
    edges = [(remap[u], remap[v]) for (u, v) in g.edges if u in remap and v in remap]
    return build_graph(len(vs), edges), remap


def compose_by_pieces(g: Graph, v: int, component_sets: list) -> frozenset[int]:
    """``compose_via_cut_vertex`` by its definition: each piece C_i + v is
    rebuilt as its own graph and checked there, with the same errors in
    the same order."""
    comps = induced_components(g, set(range(g.n)) - {v})
    if len(comps) < 2:
        raise ValueError(f"vertex {v} is not a cut vertex")
    if len(component_sets) != len(comps):
        raise ValueError(f"expected {len(comps)} component sets, got {len(component_sets)}")
    union: set[int] = set()
    for comp, cset in zip(comps, component_sets):
        cset = set(cset)
        if not cset <= comp | {v}:
            raise ValueError("component set contains vertices outside its piece")
        piece, remap = induced_subgraph(g, comp | {v})
        if not is_meg_set(piece, {remap[w] for w in cset}):
            raise ValueError("component set is not an MEG-set of its piece")
        union |= cset
    return frozenset(union - {v})


def monitors_by_distance(g: Graph, x: int, y: int, e: tuple[int, int]) -> bool:
    """Distance-increase check: deleting e makes y farther from x; an
    unreachable y counts as farther (bridge case)."""
    farther = bfs_levels(delete_edge(g, e), x).get(y, INFINITE)
    return farther > bfs_levels(g, x)[y]


def is_meg_by_enumeration(g: Graph, s) -> bool:
    members = sorted(set(s))
    for e in g.edges:
        if not any(
            monitors_by_enumeration(g, x, y, e)
            for i, x in enumerate(members)
            for y in members[i + 1:]
        ):
            return False
    return True


def is_geodetic_by_enumeration(g: Graph, s) -> bool:
    """Every vertex lies in s or on some geodesic between two vertices of s."""
    members = sorted(set(s))
    covered = set(members)
    for x, y in combinations(members, 2):
        for p in enumerate_geodesics(g, x, y):
            covered.update(p)
    return covered >= set(range(g.n))


def is_edge_geodetic_by_enumeration(g: Graph, s) -> bool:
    """Every edge lies on some geodesic between two vertices of s."""
    covered: set[tuple[int, int]] = set()
    for x, y in combinations(sorted(set(s)), 2):
        for p in enumerate_geodesics(g, x, y):
            covered |= path_edges(p)
    return covered >= set(g.edges)


def is_dem_by_enumeration(g: Graph, s) -> bool:
    """Every edge is monitored by a pair of a vertex of s and any other vertex."""
    members = sorted(set(s))
    for e in g.edges:
        if not any(
            monitors_by_enumeration(g, x, y, e)
            for x in members
            for y in range(g.n)
            if y != x
        ):
            return False
    return True


def detections_by_levels(g: Graph, s, e: tuple[int, int]) -> list[tuple]:
    """(x, y, old, new) for each pair of s, lexicographic, whose BFS
    distance grows when e is deleted; unreachable counts as INFINITE."""
    h = delete_edge(g, e)
    out = []
    for x, y in combinations(sorted(set(s)), 2):
        old = bfs_levels(g, x).get(y, INFINITE)
        new = bfs_levels(h, x).get(y, INFINITE)
        if new > old:
            out.append((x, y, old, new))
    return out


def random_connected_by_list(n: int, m: int, seed: int) -> Graph:
    """``random_connected`` as first written: the extra edges are sampled
    from a list of every non-tree pair, in lexicographic order."""
    rng = random.Random(seed)
    tree_edges = _random_tree_edges(n, rng)
    have = {(min(u, v), max(u, v)) for u, v in tree_edges}
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in have
    ]
    extra = rng.sample(candidates, m - (n - 1))
    return build_graph(n, tree_edges + extra)


def all_minimum_megs_bruteforce(g: Graph) -> list[frozenset[int]]:
    """Every minimum MEG-set, by unpruned sweep over all vertex subsets.

    Uses the library predicate (itself pinned to the enumeration oracle
    elsewhere) so the sweep stays affordable; the point here is that no
    forcing or seeding narrows the candidate space.
    """
    for size in range(g.n + 1):
        hits = [
            frozenset(c)
            for c in combinations(range(g.n), size)
            if is_meg_set(g, c)
        ]
        if hits:
            return hits
    return []


def full_witness_masks(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Per edge, the bitmasks of all pairs of V(G) that monitor it: the
    solver's former mask table, before it was built per block."""
    members, D, C = _probes(g, range(g.n))
    return tuple(
        tuple((1 << x) | (1 << y) for x, y in _monitoring_pairs(D, C, e, members))
        for e in g.edges
    )


def combinations_sweep(g: Graph) -> list[frozenset[int]]:
    """Every minimum MEG-set, in lexicographic order, by the solver's former search.

    Supersets of the implied seed are tried by increasing size, in
    ``combinations`` order, against the coverage requirements of the
    full-V mask table with no cut vertex seeded; the hits of the first
    size that has any are the minimums.  It checks the search and the
    solver's per-block table with its seeded cut vertices; the full
    table is pinned to enumeration by the predicate tests.
    """
    seed, reqs = _requirements(0, full_witness_masks(g))
    seeded = frozenset(v for v in range(g.n) if (seed >> v) & 1)
    free = [v for v in range(g.n) if v not in seeded]

    def covers(combo) -> bool:
        m = sum(1 << v for v in combo)
        return all(any(r & m == r for r in options) for options in reqs)

    for size in range(len(free) + 1):
        hits = [seeded | frozenset(c) for c in combinations(free, size) if covers(c)]
        if hits:
            return hits
    raise AssertionError("V(G) is always an MEG-set of a connected graph")


def minimum_meg_bruteforce(g: Graph) -> int:
    return len(next(iter(all_minimum_megs_bruteforce(g))))


def is_acyclic(n: int, edges: list[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def fes_bruteforce(g: Graph) -> int:
    """Smallest number of edges whose removal leaves a forest."""
    edges = list(g.edges)
    for k in range(len(edges) + 1):
        for removed in combinations(range(len(edges)), k):
            gone = set(removed)
            if is_acyclic(g.n, [e for i, e in enumerate(edges) if i not in gone]):
                return k
    raise AssertionError


def max_leaf_spanning_tree_bruteforce(g: Graph) -> int:
    """Maximum leaf count over all spanning trees, by raw edge subsets."""
    best = -1
    for subset in combinations(range(g.m), g.n - 1):
        chosen = [g.edges[i] for i in subset]
        if not is_acyclic(g.n, chosen):
            continue
        deg = [0] * g.n
        for u, v in chosen:
            deg[u] += 1
            deg[v] += 1
        if all(d > 0 for d in deg) or g.n == 1:
            best = max(best, sum(1 for d in deg if d == 1))
    return best


def strong_eg_bruteforce(g: Graph, s) -> bool:
    """Exhaustive product over per-pair geodesic choices."""
    members = sorted(set(s))
    pair_choices = []
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            pair_choices.append([path_edges(p) for p in enumerate_geodesics(g, x, y)])
    target = set(g.edges)
    if not target:
        return True
    for pick in product(*pair_choices):
        union = set().union(*pick) if pick else set()
        if union >= target:
            return True
    return False


def longest_path_in_subgraph(g: Graph, vertices: set[int]) -> int:
    """Edge length of the longest simple path inside an induced subgraph."""
    best = 0

    def extend(v: int, seen: set[int], length: int) -> None:
        nonlocal best
        best = max(best, length)
        for w in g.adj[v]:
            if w in vertices and w not in seen:
                seen.add(w)
                extend(w, seen, length + 1)
                seen.remove(w)

    for v in vertices:
        extend(v, {v}, 0)
    return best


def count_simple_paths_of_length(g: Graph, x: int, y: int, length: int) -> int:
    """Brute-force count of simple x-y paths with exactly `length` edges."""
    total = 0

    def extend(v: int, seen: set[int], used: int) -> None:
        nonlocal total
        if used == length:
            if v == y:
                total += 1
            return
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                extend(w, seen, used + 1)
                seen.remove(w)

    extend(x, {x}, 0)
    return total


def simplicial_by_pairs(g: Graph) -> set[int]:
    """Vertices any two of whose neighbors are adjacent."""
    return {
        v for v in range(g.n)
        if all(b in g.adj[a] for a, b in combinations(g.adj[v], 2))
    }


def twins_by_pairs(g: Graph) -> set[int]:
    """Members of the pairs u != v with N(u) = N(v) nonempty or N[u] = N[v]."""
    out: set[int] = set()
    for u, v in combinations(range(g.n), 2):
        nu, nv = set(g.adj[u]), set(g.adj[v])
        if (nu and nu == nv) or nu | {u} == nv | {v}:
            out.update((u, v))
    return out


def is_complete_multipartite_by_pairs(g: Graph) -> bool:
    """The graph has an edge, and non-adjacency of distinct vertices is
    transitive (so its classes are the parts, pairwise fully joined)."""
    def apart(a: int, b: int) -> bool:
        return a != b and b not in g.adj[a]

    return g.m > 0 and all(
        a == c or apart(a, c) or not (apart(a, b) and apart(b, c))
        for a, b, c in product(range(g.n), repeat=3)
    )


def base_by_stripping(g: Graph) -> tuple[frozenset[int], list[tuple[int, frozenset[int]]]]:
    """Base vertices and hanging trees of a connected graph, by deleting one
    degree-1 vertex at a time.

    The hanging trees are the components of G - base, each paired with its
    single base neighbor and listed by (root, smallest vertex).  A tree
    strips away entirely; it is one hanging tree rooted at vertex 0.
    """
    alive = set(range(g.n))

    def live_degree(v: int) -> int:
        return sum(w in alive for w in g.adj[v])

    while (leaf := next((v for v in alive if live_degree(v) == 1), None)) is not None:
        alive.remove(leaf)
    base = frozenset(v for v in alive if live_degree(v) >= 2)
    if not base:
        return base, [(0, frozenset(range(g.n)))] if g.n else []
    trees = []
    for comp in induced_components(g, set(range(g.n)) - base):
        roots = {w for v in comp for w in g.adj[v] if w in base}
        if len(roots) != 1:
            raise AssertionError(f"hanging tree {sorted(comp)} touches base at {sorted(roots)}")
        trees.append((roots.pop(), frozenset(comp)))
    return base, sorted(trees, key=lambda rt: (rt[0], min(rt[1])))


def induced_components(g: Graph, vertices: set[int]) -> list[set[int]]:
    """Components of the subgraph induced by vertices, by smallest vertex."""
    left = set(vertices)
    comps = []
    while left:
        comp = {left.pop()}
        stack = list(comp)
        while stack:
            for w in g.adj[stack.pop()]:
                if w in left:
                    left.remove(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return sorted(comps, key=min)
