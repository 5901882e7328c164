import random
from itertools import combinations

import pytest

from megset import (
    DisconnectedGraphError,
    GraphFormatError,
    SizeCapExceededError,
    all_minimum_megs,
    build_graph,
    compose_via_cut_vertex,
    cut_vertices,
    forced_vertices,
    gen_complete,
    gen_cycle,
    gen_grid,
    gen_hypercube,
    gen_multipartite,
    gen_path,
    gen_star,
    gen_tightness_family,
    is_connected,
    is_meg_set,
    minimum_meg,
    random_connected,
    random_tree,
)

from megset import graph as graph_module
from megset import monitoring
from megset import solver as solver_module
from megset.solver import _CoverSearch, _requirements, _trim, _witness_masks

import oracles


def bowtie():
    return build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def spider():
    # center 0 with three legs of length 2
    return build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def test_forced_vertices_examples():
    assert forced_vertices(gen_complete(4)) == frozenset(range(4))
    assert forced_vertices(gen_cycle(6)) == frozenset()
    assert forced_vertices(gen_star(4)) == frozenset({1, 2, 3, 4})


def test_forced_vertices_errors():
    with pytest.raises(ValueError):
        forced_vertices(build_graph(1, []))
    with pytest.raises(DisconnectedGraphError):
        forced_vertices(build_graph(4, [(0, 1), (2, 3)]))


def test_minimum_meg_examples():
    assert minimum_meg(gen_complete(5)).meg_number == 5
    assert minimum_meg(gen_cycle(7)).meg_number == 3
    assert minimum_meg(gen_hypercube(3)).meg_number == 8


def test_minimum_meg_result_invariants():
    g = gen_cycle(7)
    res = minimum_meg(g)
    assert is_meg_set(g, res.optimal_set)
    assert res.forced <= res.optimal_set
    assert len(res.optimal_set) == res.meg_number
    assert res.nodes_explored >= 1


def test_minimum_meg_cap():
    with pytest.raises(SizeCapExceededError):
        minimum_meg(gen_cycle(8), cap=6)


def test_minimum_meg_rejects_edgeless_and_disconnected():
    with pytest.raises(ValueError):
        minimum_meg(build_graph(1, []))
    with pytest.raises(DisconnectedGraphError):
        minimum_meg(build_graph(4, [(0, 1), (2, 3)]))


def test_all_minimum_megs_path_unique():
    assert all_minimum_megs(gen_path(4)) == [frozenset({0, 3})]


def test_all_minimum_megs_c6_matches_bruteforce():
    g = gen_cycle(6)
    got = all_minimum_megs(g)
    expected = sorted(oracles.all_minimum_megs_bruteforce(g), key=sorted)
    assert sorted(got, key=sorted) == expected
    assert len(got) > 1


def test_all_minimum_megs_limit():
    g = gen_cycle(6)
    assert len(all_minimum_megs(g, limit=1)) == 1
    with pytest.raises(ValueError):
        all_minimum_megs(g, limit=0)


def test_solver_matches_unpruned_enumeration():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected(n, m, rng.randrange(10**9))
        res = minimum_meg(g)
        hits = oracles.all_minimum_megs_bruteforce(g)
        assert res.meg_number == len(next(iter(hits)))
        assert sorted(all_minimum_megs(g), key=sorted) == sorted(hits, key=sorted)
        # lexicographically smallest optimum is the one returned
        assert res.optimal_set == min(hits, key=lambda s: tuple(sorted(s)))


def test_forced_subset_of_every_minimum():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(3, 9)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected(n, m, rng.randrange(10**9))
        forced = forced_vertices(g)
        for s in oracles.all_minimum_megs_bruteforce(g):
            assert forced <= s


def test_no_minimum_meg_set_contains_a_cut_vertex():
    # every leaf block holds a non-cut probe, which activates the cut vertices
    rng = random.Random(61)
    checked = 0
    while checked < 300:
        n = rng.randint(3, 10)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, n + 3))
        g = random_connected(n, m, rng.randrange(10**9))
        cuts = cut_vertices(g)
        if cuts:
            assert all(not (s & cuts) for s in oracles.all_minimum_megs_bruteforce(g))
            checked += 1


def test_block_table_matches_enumeration():
    # per edge of a block that holds a non-cut vertex, the block's monitoring pairs
    rng = random.Random(73)
    corpus = oracles.random_corpus(25, 9, 79) + [bowtie(), spider(), gen_tightness_family(2, 1)]
    corpus += [oracles.random_block_graph(rng, rng.randint(2, 4)) for _ in range(25)]
    corpus += [random_tree(n, rng.randrange(10**9)) for n in range(2, 12)]
    for g in corpus:
        cuts = cut_vertices(g)
        want = tuple(
            tuple(
                (1 << x) | (1 << y)
                for x, y in combinations(block, 2)
                if oracles.monitors_by_enumeration(g, x, y, e)
            )
            for block, edges in graph_module._blocks(g)[0]
            if not cuts.issuperset(block)
            for e in edges
        )
        assert _witness_masks(g) == (sum(1 << v for v in cuts), want)


def test_block_table_search_matches_bruteforce():
    # graphs of several blocks, where seeding the cut vertices narrows the search
    rng = random.Random(89)
    corpus = [bowtie(), spider()]
    corpus += [gen_tightness_family(k, r) for k in (2, 3, 4) for r in (0, 1, 2)]
    corpus += [oracles.random_block_graph(rng, rng.randint(2, 3)) for _ in range(30)]
    corpus += [random_tree(n, rng.randrange(10**9)) for n in range(3, 12)]
    corpus += [random_connected(n, n + d, rng.randrange(10**9)) for n in range(5, 12) for d in (1, 2, 3)]
    corpus = [g for g in corpus if cut_vertices(g)]
    assert len(corpus) >= 60
    for g in corpus:
        hits = oracles.all_minimum_megs_bruteforce(g)
        assert minimum_meg(g).optimal_set == hits[0]
        assert all_minimum_megs(g, None) == hits


def test_solve_runs_one_lowlink_pass(monkeypatch):
    # the blocks and the cut vertices of a solve come from one DFS
    rng = random.Random(103)
    corpus = [gen_tightness_family(3, 1)] + [oracles.random_block_graph(rng, 3) for _ in range(6)]
    assert all(cut_vertices(g) for g in corpus)
    calls = []
    blocks = graph_module._blocks

    def counting_blocks(g):
        calls.append(g)
        return blocks(g)

    monkeypatch.setattr(graph_module, "_blocks", counting_blocks)
    monkeypatch.setattr(solver_module, "_blocks", counting_blocks)
    for g in corpus:
        for solve in (minimum_meg, lambda g: all_minimum_megs(g, None)):
            calls.clear()
            solve(g)
            assert calls == [g]


def test_forced_within_implied_seed():
    # simplicial vertices and twins lie in every monitoring pair of one of
    # their own edges, so the mask table's seed needs no structural input
    rng = random.Random(23)
    corpus = []
    for _ in range(60):
        n = rng.randint(2, 14)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        corpus.append(random_connected(n, m, rng.randrange(10**9)))
    corpus += [gen_grid(a, b) for a in range(2, 5) for b in range(a, 6)]
    corpus += [gen_hypercube(d) for d in range(2, 6)]
    corpus += [gen_multipartite(p) for p in ([1, 3], [2, 2], [2, 3, 1], [1, 1, 4], [3, 3, 3])]
    corpus += [gen_tightness_family(k, r) for k in (2, 3, 4) for r in (0, 1, 2)]
    corpus += [gen_complete(n) for n in range(2, 8)]
    corpus += [gen_star(p) for p in range(1, 7)]
    corpus += [gen_cycle(n) for n in range(3, 12)]
    for g in corpus:
        seed, _ = _requirements(*_witness_masks(g))
        assert all(seed >> v & 1 for v in forced_vertices(g))


def test_solver_deterministic():
    g = random_connected(9, 14, 99)
    first = minimum_meg(g)
    for _ in range(3):
        again = minimum_meg(g)
        assert again.optimal_set == first.optimal_set
        assert again.nodes_explored == first.nodes_explored


def test_compose_bowtie():
    g = bowtie()
    composed = compose_via_cut_vertex(g, 0, [{0, 1, 2}, {0, 3, 4}])
    assert composed == frozenset({1, 2, 3, 4})
    assert is_meg_set(g, composed)
    assert minimum_meg(g).meg_number <= len(composed)


def test_compose_spider():
    g = spider()
    composed = compose_via_cut_vertex(g, 0, [{0, 2}, {0, 4}, {0, 6}])
    assert composed == frozenset({2, 4, 6})


def test_compose_path_split():
    g = gen_path(5)
    composed = compose_via_cut_vertex(g, 2, [{0, 2}, {2, 4}])
    assert composed == frozenset({0, 4})


def test_compose_errors():
    g = bowtie()
    with pytest.raises(ValueError, match="vertex 1 is not a cut vertex"):
        compose_via_cut_vertex(g, 1, [{0, 1, 2}, {0, 3, 4}])
    # a vertex outside the graph is a format error, like every vertex argument
    for v in (5, -1):
        with pytest.raises(GraphFormatError, match=rf"vertex {v} outside \[0,5\)"):
            compose_via_cut_vertex(g, v, [{0, 1, 2}, {0, 3, 4}])
    with pytest.raises(ValueError, match="not an MEG-set of its piece"):
        compose_via_cut_vertex(g, 0, [{0, 1}, {0, 3, 4}])


def _minimum_of_piece(g, piece):
    sub, remap = oracles.induced_subgraph(g, piece)
    back = sorted(remap)
    return {back[i] for i in minimum_meg(sub).optimal_set}


def _component_sets(g, v, rng: random.Random) -> list[set[int]]:
    """Per component of G - v a set that is a minimum MEG-set of the piece,
    the whole piece, a random subset of it, or a subset with a vertex from
    outside; now and then a set too many or too few."""
    sets = []
    for comp in oracles.induced_components(g, set(range(g.n)) - {v}):
        piece = sorted(comp | {v})
        r = rng.random()
        if r < 0.4:
            sets.append(_minimum_of_piece(g, piece))
        elif r < 0.5:
            sets.append(set(piece))
        else:
            cset = set(rng.sample(piece, rng.randint(0, len(piece))))
            if r > 0.9 and len(piece) < g.n:
                cset.add(rng.choice([w for w in range(g.n) if w not in comp and w != v]))
            sets.append(cset)
    if rng.random() < 0.06:
        sets = sets[1:] if rng.random() < 0.5 else sets + [{v}]
    return sets


def _outcome(compose, g, v, sets):
    try:
        return compose(g, v, sets)
    except ValueError as exc:
        return type(exc), str(exc)


def test_compose_matches_piece_oracle_on_block_graphs():
    # compose checks each piece on g's own rows; the oracle rebuilds the
    # piece as a graph of its own and checks it there
    rng = random.Random(97)
    kinds = {"ok": 0, "MEG-set": 0, "outside": 0, "cut vertex": 0, "component sets": 0}
    calls = 0
    while calls < 1000:
        g = oracles.random_block_graph(rng, rng.randint(2, 4))
        cuts = sorted(cut_vertices(g))
        for _ in range(3):
            v = rng.choice(cuts) if cuts and rng.random() < 0.8 else rng.randrange(g.n)
            sets = _component_sets(g, v, rng)
            expected = _outcome(oracles.compose_by_pieces, g, v, sets)
            assert _outcome(compose_via_cut_vertex, g, v, sets) == expected
            calls += 1
            if isinstance(expected, frozenset):
                assert is_meg_set(g, expected)
                kinds["ok"] += 1
            else:
                kinds[next(k for k in kinds if k in expected[1])] += 1
    assert min(kinds.values()) >= 20, kinds


def test_compose_runs_no_bfs_on_warm_rows(monkeypatch):
    # a 3x3 grid and a 6-cycle glued at grid corner 8
    edges = list(gen_grid(3, 3).edges) + [(8, 9), (9, 10), (10, 11), (11, 12), (12, 13), (8, 13)]
    g = build_graph(14, edges)
    sets = [_minimum_of_piece(g, range(9)), _minimum_of_piece(g, [8, 9, 10, 11, 12, 13])]
    g.geodesy(range(g.n))
    assert is_connected(g)

    def no_bfs(*args):
        raise AssertionError("compose ran a BFS")

    for module in (graph_module, monitoring):
        monkeypatch.setattr(module, "_bfs_with_counts", no_bfs)
    assert compose_via_cut_vertex(g, 8, sets) == frozenset(sets[0] | sets[1]) - {8}


def test_tree_solver_equals_leaves():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(2, 10)
        t = random_tree(n, rng.randrange(10**9))
        leaves = frozenset(v for v in range(n) if t.degree(v) == 1)
        assert all_minimum_megs(t) == [leaves]


def test_tree_solve_builds_rows_for_leaf_blocks_only(monkeypatch):
    # a tree's blocks are its edges, and only those at a leaf hold a non-cut
    # vertex; every row of a tree derives from the row of its core vertex 0
    built = []
    counting = graph_module._bfs_with_counts
    monkeypatch.setattr(graph_module, "_bfs_with_counts", lambda g, s: built.append(s) or counting(g, s))
    rng = random.Random(101)
    for n in range(3, 80, 4):
        t = random_tree(n, rng.randrange(10**9))
        built.clear()
        assert minimum_meg(t, cap=n).nodes_explored == 1
        leaves = {v for v in range(n) if t.degree(v) == 1}
        rows = {v for v, row in enumerate(t._geodesy_rows[0]) if row is not None}
        assert rows == leaves | {w for v in leaves for w in t.adj[v]} | {0}
        assert built == [0]


def _search_corpus():
    corpus = [random_connected(n, round(1.3 * n), s) for n in range(12, 23) for s in (1, 2, 3)]
    corpus += [gen_grid(a, b) for a, b in ((2, 3), (3, 3), (3, 4), (4, 4))]
    corpus += [random_tree(n, n) for n in (6, 11, 17)]
    corpus += [gen_tightness_family(k, r) for k, r in ((2, 0), (3, 1), (4, 2))]
    return corpus


def test_search_matches_combinations_sweep():
    for g in _search_corpus():
        hits = oracles.combinations_sweep(g)
        assert minimum_meg(g).optimal_set == hits[0]
        for limit in (1, 3, None):
            assert all_minimum_megs(g, limit) == hits[:limit]


def test_feasibility_check_matches_subset_sweep():
    # the check must never answer no while a cover exists: the search's
    # optimum size and its lexicographic pass both rest on it
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(8, 13)
        g = random_connected(n, rng.randint(n, 2 * n), rng.randrange(10**9))
        seed, reqs = _requirements(*_witness_masks(g))
        free = [v for v in range(n) if not seed >> v & 1]
        search = _CoverSearch(reqs, sum(1 << v for v in free))
        for _ in range(6):
            allowed = [v for v in free if rng.random() < 0.8]
            allowed_mask = sum(1 << v for v in allowed)
            for budget in range(5):
                want = any(
                    all(any(o & m == o for o in options) for options in reqs)
                    for size in range(min(budget, len(allowed)) + 1)
                    for m in (sum(1 << v for v in c) for c in combinations(allowed, size))
                )
                got = search.feasible(_trim(search.root, 0, allowed_mask), allowed_mask, budget)
                assert got == want


def test_feasibility_check_keeps_vertices_of_a_failed_pair():
    # {0,1} fails on the pair {2,3}, yet {2,3} plus vertex 0 covers all
    reqs = [(0b0011, 0b1100), (0b0001, 0b0010), (0b1100, 0b1000100)]
    search = _CoverSearch(reqs, 0b1001111)
    assert search.feasible(search.root, search.free, 3)
    assert not search.feasible(search.root, search.free, 2)


def test_seeded_solves_explore_one_node():
    graphs = [
        gen_grid(6, 6),
        gen_hypercube(5),
        gen_tightness_family(6, 1),
        gen_multipartite([3, 3, 3]),
        gen_multipartite([1, 12]),
    ]
    for g in graphs:
        assert minimum_meg(g, cap=g.n).nodes_explored == 1


def _milp_meg_number(g):
    """meg(G) as a 0-1 program: a variable per vertex and per pair, a pair
    at most each of its vertices, and per edge its monitoring pairs
    summing to at least 1."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    pairs = list(combinations(range(g.n), 2))
    width = g.n + len(pairs)
    link = np.zeros((2 * len(pairs), width))
    for i, pair in enumerate(pairs):
        for j, v in enumerate(pair):
            link[2 * i + j, g.n + i] = 1
            link[2 * i + j, v] = -1
    cover = np.zeros((g.m, width))
    for r, e in enumerate(g.edges):
        for i, (x, y) in enumerate(pairs):
            if oracles.monitors_by_enumeration(g, x, y, e):
                cover[r, g.n + i] = 1
    res = milp(
        np.concatenate([np.ones(g.n), np.zeros(len(pairs))]),
        constraints=[LinearConstraint(link, -np.inf, 0), LinearConstraint(cover, 1, np.inf)],
        integrality=np.ones(width),
        bounds=Bounds(0, 1),
    )
    assert res.success
    return round(res.fun)


def test_meg_number_matches_milp():
    pytest.importorskip("scipy")
    rng = random.Random(83)
    corpus = []
    for _ in range(30):
        n = rng.randint(3, 12)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
        corpus.append(random_connected(n, m, rng.randrange(10**9)))
    corpus += [gen_grid(3, b) for b in (3, 4, 5)] + [gen_hypercube(3)]
    corpus += [gen_tightness_family(2, 0), gen_tightness_family(3, 1)]
    for g in corpus:
        assert minimum_meg(g).meg_number == _milp_meg_number(g)
