import random

import pytest

from megset import (
    Graph,
    SizeCapExceededError,
    build_graph,
    gen_complete,
    gen_cycle,
    gen_grid,
    gen_hypercube,
    gen_path,
    is_dem_set,
    is_edge_geodetic_set,
    is_geodetic_set,
    is_meg_set,
    is_strong_edge_geodetic_set,
    minimum_meg,
    random_connected,
)

import oracles


def test_is_geodetic_examples():
    assert is_geodetic_set(gen_path(5), {0, 4})
    assert is_geodetic_set(gen_cycle(6), {0, 3})
    assert not is_geodetic_set(gen_cycle(6), {0, 1})


def test_is_edge_geodetic_examples():
    assert is_edge_geodetic_set(gen_cycle(6), {0, 3})
    assert not is_edge_geodetic_set(gen_cycle(6), {0, 2})
    g = random_connected(7, 12, 3)
    assert is_edge_geodetic_set(g, range(g.n))


def test_is_strong_edge_geodetic_examples():
    assert is_strong_edge_geodetic_set(gen_cycle(6), {0, 2, 4})
    assert is_strong_edge_geodetic_set(gen_path(4), {0, 3})
    assert not is_strong_edge_geodetic_set(gen_cycle(4), {0, 2})
    # no edge, so nothing to cover
    assert is_strong_edge_geodetic_set(build_graph(1, []), [0])


def test_strong_edge_geodetic_deep_inputs():
    # a geodesic longer than the recursion limit, and more pairs than it
    assert is_strong_edge_geodetic_set(gen_path(1200), {0, 1199})
    assert is_strong_edge_geodetic_set(gen_complete(50), range(50))


def test_strong_edge_geodetic_cap():
    q3 = gen_hypercube(3)
    with pytest.raises(SizeCapExceededError):
        is_strong_edge_geodetic_set(q3, range(8), cap=1000)
    # generous cap lets the exact search answer
    assert is_strong_edge_geodetic_set(q3, range(8), cap=10**8)


def test_strong_edge_geodetic_matches_bruteforce():
    rng = random.Random(61)
    checked = 0
    while checked < 20:
        n = rng.randint(3, 7)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected(n, m, rng.randrange(10**9))
        s = rng.sample(range(n), rng.randint(2, n))
        try:
            got = is_strong_edge_geodetic_set(g, s, cap=10**5)
        except SizeCapExceededError:
            continue
        assert got == oracles.strong_eg_bruteforce(g, s)
        checked += 1


def test_is_dem_examples():
    assert is_dem_set(gen_path(5), {0})
    assert not is_dem_set(gen_cycle(4), {0})
    g = gen_grid(2, 3)
    assert is_dem_set(g, minimum_meg(g).optimal_set)


def test_chain_on_random_meg_sets():
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(3, 9)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected(n, m, rng.randrange(10**9))
        s = set(minimum_meg(g).optimal_set)
        assert is_meg_set(g, s)
        assert is_dem_set(g, s)
        try:
            assert is_strong_edge_geodetic_set(g, s)
        except SizeCapExceededError:
            pass
        assert is_edge_geodetic_set(g, s)
        assert is_geodetic_set(g, s)


def test_disconnected_rejected():
    from megset import DisconnectedGraphError

    g = build_graph(4, [(0, 1), (2, 3)])
    for fn in (is_geodetic_set, is_edge_geodetic_set, is_strong_edge_geodetic_set, is_dem_set):
        with pytest.raises(DisconnectedGraphError):
            fn(g, {0, 1})


def _probe_sets(g: Graph, rng: random.Random) -> list:
    """All of V, a random subset, one probe, and a list with duplicates."""
    some = rng.sample(range(g.n), rng.randint(2, g.n))
    return [range(g.n), some, [rng.randrange(g.n)], some + some[: len(some) // 2 + 1]]


def _geodetic_corpus() -> list[Graph]:
    return (oracles.random_corpus(60, 9, 83)
            + [gen_grid(a, b) for a, b in ((1, 4), (2, 3), (3, 3), (3, 4))]
            + [gen_hypercube(3), gen_hypercube(4)])


def test_is_geodetic_set_matches_enumeration():
    rng = random.Random(89)
    for g in _geodetic_corpus():
        for s in _probe_sets(g, rng):
            assert is_geodetic_set(g, s) == oracles.is_geodetic_by_enumeration(g, s), (g, s)


def test_is_edge_geodetic_set_matches_enumeration():
    rng = random.Random(97)
    for g in _geodetic_corpus():
        for s in _probe_sets(g, rng):
            assert is_edge_geodetic_set(g, s) == oracles.is_edge_geodetic_by_enumeration(g, s), (g, s)
