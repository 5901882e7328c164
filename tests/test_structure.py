import random

import pytest

from megset import (
    SizeCapExceededError,
    base_graph,
    build_graph,
    core_decomposition,
    feedback_edge_number,
    fes_meg_construction,
    gen_complete,
    gen_cycle,
    gen_path,
    gen_tightness_family,
    is_meg_set,
    max_leaf_number,
    meg_cycle,
    minimum_meg,
    random_connected,
    random_tree,
    random_unicyclic,
)

import oracles


def theta():
    return build_graph(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])


def two_squares():
    # two 4-cycles sharing vertex 0
    return build_graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)])


def test_feedback_edge_number_examples():
    assert feedback_edge_number(random_tree(9, 3)) == 0
    assert feedback_edge_number(gen_cycle(9)) == 1
    assert feedback_edge_number(gen_complete(4)) == 3
    assert feedback_edge_number(build_graph(0, [])) == 0


def test_feedback_edge_number_matches_bruteforce():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, min(12, n * (n - 1) // 2))
        g = random_connected(n, m, rng.randrange(10**9))
        assert feedback_edge_number(g) == oracles.fes_bruteforce(g)


def test_base_graph_cycle_with_tail():
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (5, 6)])
    dec = base_graph(g)
    assert dec.base_vertices == frozenset(range(5))
    assert dec.base.m == 5
    assert dec.hanging_trees == [(0, frozenset({5, 6}))]


def test_base_graph_tree_is_all_hanging():
    t = random_tree(8, 5)
    dec = base_graph(t)
    assert dec.base_vertices == frozenset()
    assert dec.base.m == 0
    assert dec.hanging_trees == [(0, frozenset(range(8)))]


def test_core_decomposition_two_squares():
    dec = core_decomposition(two_squares())
    assert dec.core_vertices == frozenset({0})
    assert dec.proper_core_paths == []
    assert len(dec.core_cycles) == 2
    for walk in dec.core_cycles:
        assert walk[0] == walk[-1] == 0 and len(walk) == 5


def test_core_decomposition_theta():
    dec = core_decomposition(theta())
    assert dec.core_vertices == frozenset({0, 1})
    assert len(dec.proper_core_paths) == 3
    assert dec.core_cycles == []
    for path in dec.proper_core_paths:
        assert {path[0], path[-1]} == {0, 1} and len(path) == 3


def test_core_decomposition_k4():
    dec = core_decomposition(gen_complete(4))
    assert dec.core_vertices == frozenset(range(4))
    assert len(dec.proper_core_paths) == 6
    assert all(len(p) == 2 for p in dec.proper_core_paths)
    assert dec.core_cycles == []


def test_core_decomposition_single_cycle():
    dec = core_decomposition(gen_cycle(6))
    assert dec.core_vertices == frozenset()
    assert len(dec.core_cycles) == 1


def test_core_decomposition_rejects_forest():
    with pytest.raises(ValueError):
        core_decomposition(gen_path(5))


def _fes_corpus():
    """Random connected graphs with feedback edge number 1 to 6."""
    rng = random.Random(59)
    corpus = [random_unicyclic(n, k, n) for n, k in ((3, 3), (8, 4), (12, 5), (15, 9))]
    for k in range(1, 7):
        for _ in range(12):
            n = rng.randint(5, 16)
            corpus.append(random_connected(n, n - 1 + k, rng.randrange(10**9)))
    return corpus + [gen_tightness_family(k, r) for k, r in ((2, 0), (3, 2))]


def test_base_graph_matches_stripping_oracle():
    corpus = _fes_corpus() + [random_tree(n, n) for n in (1, 2, 7, 12)]
    for g in corpus:
        base, trees = oracles.base_by_stripping(g)
        dec = base_graph(g)
        assert dec.base_vertices == base
        assert dec.base.edges == tuple(e for e in g.edges if base.issuperset(e))
        assert dec.hanging_trees == trees
        if feedback_edge_number(g) >= 1:
            assert dec == core_decomposition(g)
        else:
            assert dec.core_vertices == frozenset()
            assert dec.proper_core_paths == dec.core_cycles == []


def test_core_decomposition_partitions_the_base():
    seen = set()
    for g in _fes_corpus():
        k = feedback_edge_number(g)
        seen.add(k)
        base, _ = oracles.base_by_stripping(g)
        base_degree = {v: sum(w in base for w in g.adj[v]) for v in base}
        dec = core_decomposition(g)
        assert dec.core_vertices == {v for v in base if base_degree[v] >= 3}
        walks = dec.proper_core_paths + dec.core_cycles
        walked = sorted((min(a, b), max(a, b)) for w in walks for a, b in zip(w, w[1:]))
        assert walked == [e for e in g.edges if base.issuperset(e)]
        for w in walks:
            assert all(base_degree[v] == 2 for v in w[1:-1])
        for p in dec.proper_core_paths:
            assert p[0] != p[-1] and {p[0], p[-1]} <= dec.core_vertices
        anchors = dec.core_vertices if k > 1 else {min(base)}
        for c in dec.core_cycles:
            assert c[0] == c[-1] and c[0] in anchors
    assert seen == set(range(1, 7))


def test_fes_construction_tree_is_exactly_leaves():
    t = random_tree(9, 21)
    built = fes_meg_construction(t)
    leaves = frozenset(v for v in range(9) if t.degree(v) == 1)
    assert built.meg_set == leaves
    assert built.k == 0 and built.budget == len(leaves)
    # the one-vertex tree has no edge to monitor
    with pytest.raises(ValueError):
        fes_meg_construction(build_graph(1, []))


def test_fes_construction_single_cycle_with_tail():
    g = build_graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(0, 7)])
    built = fes_meg_construction(g)
    assert built.k == 1
    assert len(built.meg_set) <= built.budget == 1 + 4
    assert is_meg_set(g, built.meg_set)


def test_fes_construction_lone_cycle_is_the_cycle_result():
    # a lone cycle's anchor is no core vertex; cycle_probes still takes it
    for n in range(3, 13):
        assert fes_meg_construction(gen_cycle(n)).meg_set == meg_cycle(n).witness


def test_fes_construction_theta():
    built = fes_meg_construction(theta())
    assert built.k == 2 and built.budget == 10
    assert is_meg_set(theta(), built.meg_set)
    assert len(built.meg_set) >= minimum_meg(theta()).meg_number


def test_fes_construction_random_graphs():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(6, 24)
        k = rng.randint(2, 5)
        m = n - 1 + k
        g = random_connected(n, m, rng.randrange(10**9))
        built = fes_meg_construction(g)
        assert built.k == k
        assert len(built.meg_set) <= built.budget
        assert is_meg_set(g, built.meg_set)
        dec = core_decomposition(g)
        assert len(dec.core_vertices) <= 2 * k - 2
        assert len(dec.proper_core_paths) + len(dec.core_cycles) <= 3 * k - 3
        assert len(dec.core_cycles) <= k


def test_max_leaf_number_examples():
    # the null graph counts as connected and has no spanning-tree leaf
    assert max_leaf_number(build_graph(0, [])) == 0
    assert max_leaf_number(gen_path(1)) == 0
    assert max_leaf_number(gen_cycle(5)) == 2
    assert max_leaf_number(gen_complete(4)) == 3
    assert max_leaf_number(gen_path(6)) == 2


def test_max_leaf_number_cap():
    with pytest.raises(SizeCapExceededError):
        max_leaf_number(gen_cycle(13))


def test_max_leaf_number_matches_spanning_tree_bruteforce():
    rng = random.Random(19)
    corpus = []
    for _ in range(12):
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        corpus.append(random_connected(n, m, rng.randrange(10**9)))
    # larger sparse graphs, whose connected dominating sets are large
    for n in (8, 9, 10):
        corpus += [random_tree(n, rng.randrange(10**9)), gen_cycle(n)]
        corpus += [random_connected(n, n + d, rng.randrange(10**9)) for d in (0, 1, 2)]
    for g in corpus:
        assert max_leaf_number(g) == oracles.max_leaf_spanning_tree_bruteforce(g)


def test_fes_at_most_quadratic_in_max_leaf_number():
    # fes <= MLN does NOT hold in general (see the K5 test below); the
    # true relation is quadratic: non-tree edges of a max-leaf spanning
    # tree run between its leaves, so fes <= MLN*(MLN-1)/2
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(3, 10)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected(n, m, rng.randrange(10**9))
        mln = max_leaf_number(g)
        assert feedback_edge_number(g) <= mln * (mln - 1) // 2


def test_fes_can_exceed_max_leaf_number():
    # counterexample to the linear claim, with equality in the quadratic one
    k5 = gen_complete(5)
    assert feedback_edge_number(k5) == 6
    assert max_leaf_number(k5) == 4


def test_tightness_family_shape():
    g = gen_tightness_family(2, 1)
    assert g.n == 8
    assert feedback_edge_number(g) == 2
    with pytest.raises(ValueError):
        gen_tightness_family(1, 0)


def test_tightness_family_optimum():
    assert minimum_meg(gen_tightness_family(2, 0)).meg_number == 6
    assert minimum_meg(gen_tightness_family(3, 2)).meg_number == 11
