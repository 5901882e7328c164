import random
import re

import pytest

from megset import (
    GraphFormatError,
    UnrecognizedClassError,
    build_graph,
    gen_complete,
    gen_cycle,
    gen_grid,
    gen_hypercube,
    gen_multipartite,
    gen_path,
    gen_star,
    gen_tightness_family,
    is_meg_set,
    meg_complete,
    meg_cycle,
    meg_grid,
    meg_hypercube,
    meg_multipartite,
    meg_tree,
    meg_unicyclic,
    minimum_meg,
    random_connected,
    random_tree,
    random_unicyclic,
    recognize_class,
    unicyclic_profile,
)
from megset import classes
from megset.classes import _is_complete_multipartite

import oracles


def pendant(base, attach_at, count=1):
    """Attach `count` fresh pendant vertices at each vertex in attach_at."""
    edges = list(base.edges)
    n = base.n
    for v in attach_at:
        for _ in range(count):
            edges.append((v, n))
            n += 1
    return build_graph(n, edges)


def test_generators_small():
    assert gen_cycle(3).edges == ((0, 1), (0, 2), (1, 2))
    assert gen_path(2).edges == ((0, 1),)
    assert gen_complete(4).m == 6
    assert gen_star(3).edges == gen_multipartite([1, 3]).edges
    c4 = gen_multipartite([2, 2])
    assert c4.m == 4 and all(c4.degree(v) == 2 for v in range(4))
    assert gen_multipartite([1, 1, 1]).edges == gen_complete(3).edges
    assert gen_hypercube(1).edges == ((0, 1),)
    q2 = gen_hypercube(2)
    assert q2.n == 4 and all(q2.degree(v) == 2 for v in range(4))
    assert gen_grid(1, 5).edges == gen_path(5).edges
    g22 = gen_grid(2, 2)
    assert g22.m == 4 and all(g22.degree(v) == 2 for v in range(4))


def test_generator_parameter_errors():
    with pytest.raises(ValueError):
        gen_cycle(2)
    with pytest.raises(ValueError):
        gen_path(0)
    with pytest.raises(ValueError):
        gen_multipartite([3])


def test_meg_tree_examples():
    res = meg_tree(gen_path(6))
    assert (res.meg_number, res.witness) == (2, frozenset({0, 5}))
    assert meg_tree(gen_star(7)).meg_number == 7
    spider = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    res = meg_tree(spider)
    assert res.witness == frozenset({2, 4, 6})
    assert minimum_meg(spider).meg_number == res.meg_number == 3
    with pytest.raises(ValueError):
        meg_tree(gen_cycle(4))


def test_meg_cycle_examples():
    assert meg_cycle(3).meg_number == 3
    assert meg_cycle(4).meg_number == 4
    res = meg_cycle(9)
    assert res.meg_number == 3 and res.witness == frozenset({0, 3, 6})
    with pytest.raises(ValueError):
        meg_cycle(2)


def test_unicyclic_profile_examples():
    g = pendant(gen_cycle(6), [0])
    prof = unicyclic_profile(g)
    assert (prof.k, prof.leaf_count, len(prof.core_on_cycle)) == (6, 1, 1)

    g = pendant(gen_cycle(6), [0, 1])
    assert unicyclic_profile(g).p == 1

    g = pendant(gen_cycle(6), [0, 2, 4])
    assert unicyclic_profile(g).p == 0


def test_unicyclic_profile_p_means_leaves_stop_sufficing():
    # with two or more attachment vertices, p = 0 must coincide exactly
    # with the leaf set already monitoring everything
    rng = random.Random(9)
    checked = 0
    while checked < 25:
        n = rng.randint(7, 11)
        k = rng.randint(5, n - 2)
        g = random_unicyclic(n, k, rng.randrange(10**9))
        prof = unicyclic_profile(g)
        if len(prof.core_on_cycle) < 2:
            continue
        leaves = frozenset(v for v in range(g.n) if g.degree(v) == 1)
        assert prof.p == (0 if is_meg_set(g, leaves) else 1)
        checked += 1


def test_unicyclic_profile_rejects_non_unicyclic():
    with pytest.raises(ValueError):
        unicyclic_profile(gen_path(4))
    with pytest.raises(ValueError):
        unicyclic_profile(gen_complete(4))


def test_meg_unicyclic_examples():
    g = pendant(gen_cycle(3), [0])
    assert meg_unicyclic(g).meg_number == 3

    g = pendant(gen_cycle(6), [0])
    assert meg_unicyclic(g).meg_number == 3

    # one long arc, a single extra probe on it suffices
    g = pendant(gen_cycle(6), [0, 2])
    assert meg_unicyclic(g).meg_number == 3

    g = pendant(gen_cycle(6), [0, 2, 4])
    assert meg_unicyclic(g).meg_number == 3


def test_meg_unicyclic_half_cycle_ties():
    # arcs spanning exactly half the cycle defeat the leaf pair (two
    # equally short routes), so each such arc needs its own probe
    g = pendant(gen_cycle(6), [0, 3])
    assert meg_unicyclic(g).meg_number == 4 == minimum_meg(g).meg_number

    g = pendant(gen_cycle(8), [0, 4])
    assert meg_unicyclic(g).meg_number == 4 == minimum_meg(g).meg_number

    # adjacent attachments on an even cycle leave a k-1 arc needing two
    g = pendant(gen_cycle(6), [0, 1])
    assert meg_unicyclic(g).meg_number == 4 == minimum_meg(g).meg_number


def test_meg_unicyclic_witness_verified_and_optimal():
    cases = [
        pendant(gen_cycle(3), [0]),
        pendant(gen_cycle(4), [0, 2]),
        gen_cycle(7),
        pendant(gen_cycle(5), [0]),
        pendant(gen_cycle(6), [0, 1]),
        pendant(gen_cycle(6), [0, 2, 4]),
        pendant(gen_cycle(7), [0, 3], count=2),
    ]
    for g in cases:
        res = meg_unicyclic(g)
        assert is_meg_set(g, res.witness)
        assert len(res.witness) == res.meg_number
        assert minimum_meg(g).meg_number == res.meg_number


def test_meg_complete_and_multipartite_examples():
    assert meg_complete(6).meg_number == 6
    r = meg_multipartite([1, 4])
    assert r.meg_number == 4 and r.witness == frozenset({1, 2, 3, 4})
    assert meg_multipartite([2, 3]).meg_number == 5
    assert meg_multipartite([1, 1, 2]).meg_number == 4
    assert meg_multipartite([1, 1]).meg_number == 2
    with pytest.raises(ValueError):
        meg_complete(1)


def test_meg_hypercube_examples():
    assert meg_hypercube(2).meg_number == 4
    assert meg_hypercube(3).meg_number == 8
    assert meg_hypercube(4).meg_number == 16
    with pytest.raises(ValueError):
        meg_hypercube(1)


def test_meg_grid_examples():
    assert meg_grid(2, 2).meg_number == 4
    assert meg_grid(3, 4).meg_number == 10
    assert meg_grid(5, 5).meg_number == 16
    # degenerate grids route to the tree result
    assert meg_grid(1, 5).meg_number == 2
    with pytest.raises(ValueError):
        meg_grid(1, 1)


def test_class_witnesses_pass_verification():
    cases = [
        (gen_path(7), meg_tree(gen_path(7))),
        (gen_cycle(8), meg_cycle(8)),
        (gen_complete(5), meg_complete(5)),
        (gen_multipartite([2, 3]), meg_multipartite([2, 3])),
        (gen_multipartite([1, 4]), meg_multipartite([1, 4])),
        (gen_hypercube(3), meg_hypercube(3)),
        (gen_grid(3, 4), meg_grid(3, 4)),
    ]
    for g, res in cases:
        assert is_meg_set(g, res.witness)
        assert len(res.witness) == res.meg_number
        if g.n <= 12:
            assert minimum_meg(g).meg_number == res.meg_number


def test_recognize_class_dispatch():
    assert recognize_class(gen_path(5)).theorem == "TREE"
    assert recognize_class(gen_star(4)).theorem == "TREE"
    assert recognize_class(gen_cycle(4)).theorem == "CYCLE"
    assert recognize_class(gen_complete(4)).theorem == "COMPLETE"
    assert recognize_class(gen_hypercube(3)).theorem == "HYPERCUBE"
    assert recognize_class(gen_grid(3, 4)).theorem == "GRID"
    assert recognize_class(gen_multipartite([2, 3])).theorem == "MULTIPARTITE"
    uni = pendant(gen_cycle(5), [0])
    assert recognize_class(uni).theorem == "UNICYCLIC"
    assert recognize_class(pendant(gen_cycle(3), [0])).theorem == "UNICYCLIC"
    # K3, Q2, the 2x2 grid and K2,2 (C4 in its other two labelings) have m = n:
    # they are cycles before they are complete, hypercube, grid or multipartite
    for g in (gen_cycle(3), gen_complete(3), gen_hypercube(2), gen_grid(2, 2), gen_multipartite([2, 2])):
        res = recognize_class(g)
        assert (res.theorem, res.meg_number, res.witness) == ("CYCLE", g.n, frozenset(range(g.n)))
    # the all-length-2 theta is K_{2,3}, hence multipartite
    assert recognize_class(build_graph(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])).theorem == "MULTIPARTITE"
    # a theta with unequal path lengths matches nothing
    lopsided = build_graph(6, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (4, 5), (1, 5)])
    with pytest.raises(UnrecognizedClassError):
        recognize_class(lopsided)


def test_recognize_class_builds_at_most_one_canonical_graph(monkeypatch):
    # 360 and 600 have many factorizations a*b; at most one grid may be built
    grids = {(a, b): gen_grid(a, b) for a in range(2, 9) for b in range(3, 13)}
    others = [random_connected(360, 400, s) for s in range(3)] + [
        random_unicyclic(600, 60, 600001),
        gen_hypercube(4),
        pendant(gen_grid(4, 6), [0]),
        # Q3's n and m, and vertex 0 placed as in the 2x4 grid
        build_graph(8, [*gen_grid(2, 4).edges, (1, 6), (2, 5)]),
    ]
    expected = [meg_grid(a, b) for a, b in grids] + [None] * 3 + [
        meg_unicyclic(others[3]),
        meg_hypercube(4),
        None,
        None,
    ]
    builds = []
    for name in ("gen_grid", "gen_hypercube"):
        make = getattr(classes, name)
        monkeypatch.setattr(classes, name, lambda *args, make=make: builds.append(args) or make(*args))
    for g, want in zip([*grids.values(), *others], expected):
        builds.clear()
        try:
            got = recognize_class(g)
        except UnrecognizedClassError:
            got = None
        assert got == want and len(builds) <= 1, builds


def test_multipartite_check_matches_pair_oracle():
    # relabelled multipartite graphs, and the same with one edge deleted
    rng = random.Random(53)
    corpus = oracles.random_corpus(60, 8, 53) + [build_graph(n, []) for n in range(4)]
    for parts in ([1, 1], [1, 2], [2, 2], [1, 1, 2], [2, 3], [3, 3], [1, 2, 3], [2, 2, 2, 2]):
        g = gen_multipartite(parts)
        names = list(range(g.n))
        rng.shuffle(names)
        h = build_graph(g.n, [(names[u], names[v]) for u, v in g.edges])
        cut = h.edges[rng.randrange(h.m)]
        corpus += [g, h, build_graph(h.n, [e for e in h.edges if e != cut])]
    found = 0
    for g in corpus:
        want = oracles.is_complete_multipartite_by_pairs(g)
        assert _is_complete_multipartite(g) == want
        found += want
    assert found >= 16


def test_recognize_class_relabeled_cycle():
    # same cycle, scrambled vertex names: witness must fit the labeling
    graphs = [build_graph(5, [(3, 1), (1, 4), (4, 0), (0, 2), (2, 3)])]
    rng = random.Random(29)
    for k in range(3, 30):
        names = list(range(k))
        rng.shuffle(names)
        graphs.append(build_graph(k, [(names[i], names[(i + 1) % k]) for i in range(k)]))
    for g in graphs:
        res = recognize_class(g)
        assert res.theorem == "CYCLE" and res.meg_number == meg_cycle(g.n).meg_number
        assert res.witness == meg_unicyclic(g).witness
        assert is_meg_set(g, res.witness)


def test_random_class_instances_match_solver():
    rng = random.Random(77)
    for _ in range(8):
        t = random_tree(rng.randint(2, 10), rng.randrange(10**9))
        assert minimum_meg(t).meg_number == meg_tree(t).meg_number
    for n in range(3, 9):
        assert minimum_meg(gen_cycle(n)).meg_number == meg_cycle(n).meg_number
    for parts in ([1, 2], [2, 2], [1, 1, 2], [2, 3], [1, 3]):
        g = gen_multipartite(parts)
        assert minimum_meg(g).meg_number == meg_multipartite(parts).meg_number


@pytest.mark.parametrize("make, args, error, message", [
    (gen_complete, (0,), ValueError, "complete graph needs at least 1 vertex"),
    (gen_star, (0,), ValueError, "star needs at least 1 leaf"),
    (gen_multipartite, ([2, 0],), ValueError, "every part needs at least 1 vertex"),
    (gen_hypercube, (0,), ValueError, "hypercube dimension must be at least 1"),
    (gen_grid, (0, 3), ValueError, "grid dimensions must be at least 1"),
    (meg_multipartite, ([1],), ValueError, "need at least 2 parts, each nonempty"),
    (meg_multipartite, ([2, 0],), ValueError, "need at least 2 parts, each nonempty"),
    (meg_grid, (0, 2), ValueError, "grid dimensions must be at least 1"),
    (build_graph, (-1, []), GraphFormatError, "vertex count must be nonnegative, got -1"),
    (random_tree, (0, 1), ValueError, "tree needs at least 1 vertex"),
    (random_connected, (0, 0, 1), ValueError, "need at least 1 vertex"),
    (gen_tightness_family, (2, -1), ValueError, "leaf count must be nonnegative"),
])
def test_generators_and_closed_forms_reject_empty_or_negative_sizes(make, args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make(*args)
