import gc
import random
import sys
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megset import (
    INFINITE,
    GraphFormatError,
    DisconnectedGraphError,
    build_graph,
    count_shortest_paths,
    cut_vertices,
    distance,
    distance_matrix,
    distance_without_edge,
    gen_complete,
    gen_cycle,
    gen_grid,
    gen_hypercube,
    gen_path,
    is_connected,
    is_meg_set,
    minimum_meg,
    random_connected,
    random_tree,
    simplicial_vertices,
    simulate_failure,
    twin_vertices,
)
from megset import graph as graph_module
from megset import monitoring
from megset.graph import require_connected

import oracles


def test_build_graph_path3():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.adj == ((1,), (0, 2), (1,))


def test_build_graph_single_vertex():
    g = build_graph(1, [])
    assert g.n == 1 and g.m == 0


def test_build_graph_rejects_self_loop():
    with pytest.raises(GraphFormatError):
        build_graph(4, [(0, 0)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(GraphFormatError):
        build_graph(3, [(0, 3)])


def test_has_edge_takes_either_endpoint_first():
    g = build_graph(4, [(0, 1), (1, 3)])
    assert g.has_edge(3, 1) and g.has_edge(1, 3) and g.has_edge(1, 0)
    assert not g.has_edge(3, 0) and not g.has_edge(2, 1)


def test_derived_tables_die_with_their_graph():
    g = random_connected(12, 18, 5)
    assert g.has_edge(*g.edges[0])
    assert is_meg_set(g, range(g.n))
    minimum_meg(g)
    simulate_failure(g, range(g.n), g.edges[0])
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_warmed_graph_equals_fresh_copy():
    warm = random_connected(12, 18, 5)
    minimum_meg(warm)
    fresh = random_connected(12, 18, 5)
    assert warm == fresh and hash(warm) == hash(fresh)


def test_build_graph_duplicate_handling():
    g = build_graph(3, [(0, 1), (1, 0)])
    assert g.m == 1
    with pytest.raises(GraphFormatError):
        build_graph(3, [(0, 1), (1, 0)], strict=True)


def test_distance_examples():
    assert distance(gen_cycle(5), 0, 2) == 2
    assert distance(gen_path(3), 0, 2) == 2
    two_comp = build_graph(4, [(0, 1), (2, 3)])
    assert distance(two_comp, 0, 3) == INFINITE


def test_distance_invalid_vertex():
    with pytest.raises(GraphFormatError):
        distance(gen_path(3), 0, 7)


def test_distance_matrix_examples():
    k3 = distance_matrix(gen_complete(3))
    assert all(k3[i][j] == 1 for i in range(3) for j in range(3) if i != j)
    p4 = distance_matrix(gen_path(4))
    assert p4[0][3] == 3
    c4 = distance_matrix(gen_cycle(4))
    assert c4[0][2] == 2 and c4[0][1] == 1


def test_count_shortest_paths_examples():
    assert count_shortest_paths(gen_cycle(4), 0, 2) == 2
    assert count_shortest_paths(gen_path(4), 0, 3) == 1


def test_count_shortest_paths_hypercube_antipodal():
    q3 = gen_hypercube(3)
    expected = oracles.count_simple_paths_of_length(q3, 0, 7, 3)
    assert expected == 6
    assert count_shortest_paths(q3, 0, 7) == expected


def test_geodesy_rows_match_level_and_enumeration_oracles():
    # every row against plain BFS levels and explicit path enumeration; in
    # the two-component graphs (7 and 8 are isolated) other parts read
    # INFINITE/0.  A hanging source shares its root's count row: the
    # second two-component graph has a pendant on its cycle and a tree part
    # whose core vertex 1 is interior
    two_parts = build_graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3), (3, 5)])
    tree_and_cycle = build_graph(9, [(0, 2), (2, 5), (0, 5), (5, 7), (1, 3), (1, 4), (4, 6)])
    corpus = oracles.random_corpus(40, 9, 53) + oracles.forest_corpus(12, 13, 61)
    for g in corpus + [gen_grid(4, 5), gen_hypercube(4), two_parts, tree_and_cycle]:
        D, C = g.geodesy(range(g.n))
        for x in range(g.n):
            levels = oracles.bfs_levels(g, x)
            assert C[x] is C[g._hanging.root[x]]
            for y in range(g.n):
                assert D[x][y] == levels.get(y, INFINITE)
                assert C[x][y] == len(oracles.enumerate_geodesics(g, x, y))
                assert type(C[x][y]) is int
    D, C = two_parts.geodesy((0, 7))
    assert D[0][3] == INFINITE and C[0][3] == 0 and C[7][7] == 1
    chain = oracles.square_chain(65)
    D, C = chain.geodesy((0, 195))
    assert D[0][195] == D[195][0] == 130
    assert C[0][195] == C[195][0] == 2**65


def test_hanging_rows_of_a_long_path():
    # 5,000 vertices deep, in identity and shuffled labelling: the peel and
    # the rows recurse nowhere; paths count one geodesic per pair, to
    # targets anywhere on the path
    n = 5000
    rng = random.Random(67)
    for g in (gen_path(n), oracles.relabel(gen_path(n), rng)):
        sources = [0, 1, n // 2, n - 2, n - 1] + rng.sample(range(n), 5)
        D, C = g.geodesy(sources)
        for x in sources:
            levels = oracles.bfs_levels(g, x)
            assert D[x] == tuple(levels[y] for y in range(n))
            assert set(C[x]) == {1}
            for y in rng.sample(range(n), 5):
                assert C[x][y] == len(oracles.enumerate_geodesics(g, x, y))


def test_geodesic_oracle_follows_a_path_past_the_recursion_limit():
    assert oracles.enumerate_geodesics(gen_path(1200), 0, 1199) == [tuple(range(1200))]


def test_depth_first_walks_in_preorder_and_expands_lazily():
    tree = {0: [1, 4], 1: [2, 3], 4: [5]}
    expanded = []

    def children(v):
        expanded.append(v)
        return iter(tree[v]) if v in tree else None

    assert list(graph_module._depth_first(0, children)) == [0, 1, 2, 3, 4, 5]
    assert expanded == [0, 1, 2, 3, 4, 5]
    # a state is expanded only when the state after it is asked for
    expanded.clear()
    walk = graph_module._depth_first(0, children)
    assert next(walk) == 0 and expanded == []
    assert next(walk) == 1 and expanded == [0]
    assert next(walk) == 2 and expanded == [0, 1]
    walk.close()
    assert expanded == [0, 1]
    # children come from a lazy iterable, pulled one at a time
    pulled = []

    def counted(v):
        for w in tree.get(v, ()):
            pulled.append(w)
            yield w

    walk = graph_module._depth_first(0, counted)
    assert [next(walk), next(walk), next(walk)] == [0, 1, 2] and pulled == [1, 2]


def test_depth_first_runs_a_chain_deeper_than_the_recursion_limit():
    depth = 200_000
    walk = graph_module._depth_first(0, lambda v: iter((v + 1,)) if v < depth else None)
    assert sum(1 for _ in walk) == depth + 1


def test_hanging_count_row_is_shared_past_64_bits():
    # a pendant path 196-197-198-199 on end 0 of the square chain: from the
    # leaf 199 every geodesic to the chain leaves through 0
    chain = oracles.square_chain(65)
    g = build_graph(200, chain.edges + ((0, 196), (196, 197), (197, 198), (198, 199)))
    D, C = g.geodesy((199, 197))
    assert C[199] is C[197] is C[0]
    assert C[199][192] == 2**64 and C[199][195] == 2**65
    assert [C[199][3 * i] for i in range(66)] == [2**i for i in range(66)]
    assert D[199][192] == 132 and D[199][196] == 3
    for x in (199, 197):
        levels = oracles.bfs_levels(g, x)
        assert D[x] == tuple(levels[y] for y in range(g.n))


def test_geodesy_checks_every_source_before_any_bfs(monkeypatch):
    def no_bfs(*args):
        raise AssertionError("a row was built before every source was checked")

    g = random_connected(20, 24, 5)
    monkeypatch.setattr(graph_module, "_bfs_with_counts", no_bfs)
    for sources in ([0, 1, 20], [3, -1], iter([5, 2, 21])):
        with pytest.raises(GraphFormatError, match=r"vertex (20|-1|21) outside \[0,20\)"):
            g.geodesy(sources)
    assert g._geodesy_rows == ([None] * 20, [None] * 20)


def test_count_shortest_paths_requires_distinct():
    with pytest.raises(ValueError):
        count_shortest_paths(gen_path(3), 1, 1)


def test_count_shortest_paths_disconnected_is_zero():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert count_shortest_paths(g, 0, 3) == 0


def test_distance_without_edge_examples():
    assert distance_without_edge(gen_path(3), (0, 1), 0, 2) == INFINITE
    assert distance_without_edge(gen_cycle(4), (0, 1), 0, 1) == 3
    # the 0-1-2 geodesic uses (0,1), so deleting it forces the long way
    assert distance_without_edge(gen_cycle(5), (0, 1), 0, 2) == 3
    # an edge off every geodesic leaves the distance unchanged
    assert distance_without_edge(gen_cycle(5), (3, 4), 0, 2) == 2


def test_distance_without_edge_requires_edge():
    with pytest.raises(GraphFormatError):
        distance_without_edge(gen_path(3), (0, 2), 0, 2)


def test_distance_without_edge_checks_the_edge_then_v_then_u():
    p3 = gen_path(3)
    for e, u, v, message in (((0, 2), 9, 7, r"\(0,2\) is not an edge"),
                             ((0, 5), 9, 7, r"vertex 5 outside \[0,3\)"),
                             ((0, 1), 9, 7, r"vertex 7 outside \[0,3\)"),
                             ((0, 1), -1, 3, r"vertex 3 outside \[0,3\)"),
                             ((0, 1), 9, 2, r"vertex 9 outside \[0,3\)"),
                             # a negative source must not wrap round to vertex n - 1
                             ((0, 1), -1, 2, r"vertex -1 outside \[0,3\)"),
                             ((1, 2), 0, -1, r"vertex -1 outside \[0,3\)")):
        with pytest.raises(GraphFormatError, match=message):
            distance_without_edge(p3, e, u, v)


def test_counting_bfs_on_graph_minus_edge_matches_rebuilt_graph():
    # every (source, edge) pair; the tree makes every edge a bridge
    rng = random.Random(61)
    corpus = oracles.random_corpus(20, 9, 61) + [random_tree(10, 61), gen_grid(4, 5),
                                                 gen_hypercube(4)]
    for g in corpus:
        adj = g.adj
        g.geodesy(range(0, g.n, 2))  # half the rows built, half not yet
        for e in g.edges:
            rebuilt = oracles.delete_edge(g, e)
            without = graph_module._adjacency_without(g, e)
            for s in range(g.n):
                dist, counts = graph_module._bfs_with_counts(without, s)
                levels = oracles.bfs_levels(rebuilt, s)
                assert dist == [levels.get(t, INFINITE) for t in range(g.n)]
                assert counts == [len(oracles.enumerate_geodesics(rebuilt, s, t))
                                  for t in range(g.n)]
                t = rng.randrange(g.n)
                assert distance_without_edge(g, e[::-1], s, t) == dist[t]
            simulate_failure(g, range(g.n), e)
        # the walks on G-e left g's adjacency and its cached rows those of G
        assert g.adj is adj
        assert g.geodesy(range(g.n)) == build_graph(g.n, g.edges).geodesy(range(g.n))


def test_counting_bfs_on_graph_minus_edge_counts_past_64_bits():
    chain = oracles.square_chain(65)
    for e in ((0, 1), (97, 99), (193, 195)):
        dist, counts = graph_module._bfs_with_counts(graph_module._adjacency_without(chain, e), 0)
        assert (dist[195], counts[195]) == (130, 2**64)
        assert distance_without_edge(chain, e, 0, 195) == 130


def test_is_connected_examples():
    assert is_connected(gen_path(5))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(build_graph(1, []))
    # the null graph is vacuously connected; networkx raises on it
    assert is_connected(build_graph(0, []))


def test_is_connected_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    corpus = [build_graph(2, []), gen_path(2)]
    for _ in range(400):
        n = rng.randint(1, 12)
        pairs = list(combinations(range(n), 2))
        # sparse edge counts leave isolated vertices and several components
        corpus.append(build_graph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n)))))
    assert {is_connected(g) for g in corpus} == {True, False}
    for g in corpus:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        assert is_connected(g) == nx.is_connected(h)


def test_connectivity_is_checked_once_per_graph(monkeypatch):
    # one component traversal per graph, and no BFS
    checked = []
    components = graph_module._components

    def counting_components(g, vertices):
        checked.append(g)
        return components(g, vertices)

    def no_bfs(*args):
        raise AssertionError("the connectivity check ran a BFS")

    monkeypatch.setattr(graph_module, "_components", counting_components)
    for module in (graph_module, monitoring):
        monkeypatch.setattr(module, "_bfs_with_counts", no_bfs)
    g = random_connected(30, 40, 3)
    require_connected(g)
    assert checked == [g]
    require_connected(g)
    assert is_connected(g)
    assert checked == [g]
    split = build_graph(4, [(0, 1), (2, 3)])
    for _ in range(2):
        with pytest.raises(DisconnectedGraphError):
            require_connected(split)
    assert checked == [g, split]


def test_simplicial_examples():
    assert simplicial_vertices(gen_complete(4)) == frozenset({0, 1, 2, 3})
    assert simplicial_vertices(gen_path(4)) == frozenset({0, 3})
    assert simplicial_vertices(gen_cycle(5)) == frozenset()


def test_twin_examples():
    k23 = build_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert twin_vertices(k23) == frozenset(range(5))
    assert twin_vertices(gen_path(4)) == frozenset()
    assert twin_vertices(gen_complete(3)) == frozenset({0, 1, 2})


def test_simplicial_and_twins_match_pair_oracles():
    # isolated vertices share the empty neighborhood but are nobody's twins
    corpus = oracles.random_corpus(60, 9, 13) + [
        random_tree(9, 13),
        gen_complete(5),
        build_graph(5, [(0, 1), (1, 2)]),
    ]
    for g in corpus:
        assert simplicial_vertices(g) == oracles.simplicial_by_pairs(g)
        assert twin_vertices(g) == oracles.twins_by_pairs(g)


def test_cut_vertices_examples():
    assert cut_vertices(gen_path(3)) == frozenset({1})
    assert cut_vertices(gen_cycle(5)) == frozenset()
    bowtie = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert cut_vertices(bowtie) == frozenset({0})


def test_cut_vertices_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        cut_vertices(build_graph(4, [(0, 1), (2, 3)]))


def test_cut_vertices_matches_component_count_oracle():
    rng = random.Random(7)
    corpus = [build_graph(0, []), gen_path(1), gen_path(2)]
    for _ in range(200):
        n = rng.randint(3, 14)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
        corpus.append(random_connected(n, m, rng.randrange(10**6)))
    for g in corpus:
        n = g.n
        expected = set()
        for v in range(n):
            rest = [e for e in g.edges if v not in e]
            keep = [w for w in range(n) if w != v]
            remap = {w: i for i, w in enumerate(keep)}
            h = build_graph(n - 1, [(remap[a], remap[b]) for a, b in rest])
            if not is_connected(h):
                expected.add(v)
        assert cut_vertices(g) == expected


def _blocks_by_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    blocks = [sorted((min(e), max(e)) for e in b) for b in nx.biconnected_component_edges(h)]
    return sorted((sorted({v for e in b for v in e}), b) for b in blocks), set(nx.articulation_points(h))


def test_blocks_and_cut_vertices_match_networkx():
    rng = random.Random(67)
    corpus = oracles.random_corpus(150, 14, 71) + [build_graph(0, []), gen_path(1)]
    corpus += [oracles.random_block_graph(rng, rng.randint(1, 6)) for _ in range(150)]
    corpus += [random_tree(n, rng.randrange(10**9)) for n in range(1, 40)]
    for g in corpus:
        blocks, cuts = _blocks_by_networkx(g)
        assert graph_module._blocks(g) == (blocks, cuts)
        assert cut_vertices(g) == cuts


def test_blocks_of_deep_inputs():
    # the lowlink passes run on _depth_first's stack of iterators, so depth 3,000 is fine
    n = 3000
    assert sys.getrecursionlimit() < n
    path, cycle = gen_path(n), gen_cycle(n)
    path_blocks = [([v, v + 1], [(v, v + 1)]) for v in range(n - 1)]
    assert graph_module._blocks(path) == (path_blocks, frozenset(range(1, n - 1)))
    assert cut_vertices(path) == frozenset(range(1, n - 1))
    assert graph_module._blocks(cycle) == ([(list(range(n)), list(cycle.edges))], frozenset())
    assert cut_vertices(cycle) == frozenset()


def test_components_match_induced_components_oracle():
    rng = random.Random(41)
    for g in oracles.random_corpus(40, 12, 43) + [build_graph(0, []), gen_path(1)]:
        everything = set(range(g.n))
        subsets = [set(), everything] + ([{rng.randrange(g.n)}] if g.n else [])
        subsets += [everything - {v} for v in range(g.n)]
        subsets += [set(rng.sample(range(g.n), rng.randint(0, g.n))) for _ in range(5)]
        for vertices in subsets:
            comps = graph_module._components(g, sorted(vertices))
            assert [set(c) for c in comps] == oracles.induced_components(g, vertices)
            assert sum(map(len, comps)) == len(vertices)
            for comp in comps:
                # visiting order: each vertex after the first joins a neighbor seen before it
                assert all(set(g.adj[w]) & set(comp[:i]) for i, w in enumerate(comp) if i)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_distance_properties(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    m = rng.randint(n - 1, n * (n - 1) // 2)
    g = random_connected(n, m, seed)
    dm = distance_matrix(g)
    for u in range(n):
        assert dm[u][u] == 0
        for v in range(n):
            assert dm[u][v] == dm[v][u]
            for w in range(n):
                assert dm[u][v] <= dm[u][w] + dm[w][v]
    for (u, v) in g.edges:
        assert dm[u][v] == 1
    u, v = rng.sample(range(n), 2)
    assert (count_shortest_paths(g, u, v) >= 1) == (dm[u][v] != INFINITE)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_distance_without_edge_matches_rebuilt_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    m = rng.randint(n - 1, n * (n - 1) // 2)
    g = random_connected(n, m, seed)
    e = g.edges[rng.randrange(g.m)]
    rebuilt = oracles.delete_edge(g, e)
    u, v = rng.sample(range(n), 2)
    assert distance_without_edge(g, e, u, v) == distance(rebuilt, u, v)
    assert distance_without_edge(g, e, u, v) >= distance(g, u, v)


def test_grid_and_hypercube_sizes():
    assert gen_grid(3, 4).m == 17
    q3 = gen_hypercube(3)
    assert q3.n == 8 and q3.m == 12
