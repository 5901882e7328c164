import hashlib
import tracemalloc

import pytest

from megset import (
    feedback_edge_number,
    is_connected,
    random_connected,
    random_tree,
    random_unicyclic,
    unicyclic_profile,
)

import oracles


def test_random_tree_small():
    assert random_tree(1, 0).n == 1
    assert random_tree(2, 0).edges == ((0, 1),)


def test_random_tree_is_tree_and_deterministic():
    for seed in range(20):
        t = random_tree(8, seed)
        assert t.m == 7 and is_connected(t)
        assert t.edges == random_tree(8, seed).edges


def test_random_tree_varies_with_seed():
    assert len({random_tree(8, s).edges for s in range(10)}) > 1


def test_random_unicyclic():
    assert random_unicyclic(5, 5, 1).m == 5
    g = random_unicyclic(8, 4, 2)
    assert feedback_edge_number(g) == 1
    prof = unicyclic_profile(random_unicyclic(10, 5, 3))
    assert prof.k == 5
    with pytest.raises(ValueError):
        random_unicyclic(4, 2, 0)


def test_random_connected():
    t = random_connected(7, 6, 4)
    assert t.m == 6 and is_connected(t)
    k6 = random_connected(6, 15, 5)
    assert k6.m == 15
    g = random_connected(20, 25, 6)
    assert feedback_edge_number(g) == 6
    assert g.edges == random_connected(20, 25, 6).edges
    with pytest.raises(ValueError):
        random_connected(5, 3, 0)
    with pytest.raises(ValueError):
        random_connected(5, 11, 0)


@pytest.mark.parametrize("make, args, digest", [
    (random_connected, (40, 52, 7),
     "449a38f51e83bba2ab151bfc5aa11c3e58ddb257dfef409449850be90647b000"),
    (random_connected, (300, 390, 7),
     "1e74dff2db80b948802942582febfed3ddac0b1881bcda8fbac5e43ea14297f9"),
    (random_tree, (30, 3),
     "d1c4158dd9d5ddce7b41ac820c3fe9f22df5587d793a44d07ee1312e6b5785f3"),
], ids=["connected-40", "connected-300", "tree-30"])
def test_generated_edge_lists_are_pinned(make, args, digest):
    # the benchmark's pinned answers identify graphs by value, so a
    # generator must keep drawing the same numbers in the same order
    assert hashlib.sha256(repr(make(*args).edges).encode()).hexdigest() == digest


def test_random_connected_matches_list_based_generator():
    # the extra edges come from the same rng.sample indices as when every
    # non-tree pair was listed, so the graphs are identical
    for n in range(1, 13):
        top = n * (n - 1) // 2
        for m in sorted({n - 1, min(n, top), (n - 1 + top) // 2, top}):
            for seed in range(4):
                want = oracles.random_connected_by_list(n, m, seed)
                assert random_connected(n, m, seed).edges == want.edges, (n, m, seed)
    for n, m, seed in ((40, 52, 7), (60, 300, 2), (90, 117, 5)):
        assert random_connected(n, m, seed).edges == oracles.random_connected_by_list(n, m, seed).edges


def test_random_connected_allocation_is_not_quadratic():
    # listing the ~12.5 M non-tree pairs of n = 5000 peaked at over 1 GB
    tracemalloc.start()
    try:
        g = random_connected(5000, 6500, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == 6500 and is_connected(g)
    assert peak < 16 * 2**20
