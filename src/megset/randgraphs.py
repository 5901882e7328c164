"""Seeded random graph generators for the property-test corpus.

Every generator is a pure function of (parameters, seed): the same
inputs always produce the identical graph.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right

from .graph import Graph, build_graph


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a uniform random labeled tree on n >= 1 vertices, decoded
    from a random Prufer sequence; n <= 2 draws nothing from rng."""
    if n <= 2:
        return [(0, 1)] if n == 2 else []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        degree[leaf] -= 1
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = (x for x in range(n) if degree[x] == 1)
    edges.append((u, v))
    return edges


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n vertices (Prufer decoding)."""
    if n < 1:
        raise ValueError("tree needs at least 1 vertex")
    return build_graph(n, _random_tree_edges(n, random.Random(seed)))


def random_unicyclic(n: int, k: int, seed: int) -> Graph:
    """Cycle of length k on vertices 0..k-1 with a random forest attached."""
    if not 3 <= k <= n:
        raise ValueError("need 3 <= k <= n")
    rng = random.Random(seed)
    edges = [(i, (i + 1) % k) for i in range(k)]
    for v in range(k, n):
        edges.append((rng.randrange(v), v))
    return build_graph(n, edges)


def _free_pair(i: int, start: list[int], free_before: list[int]) -> tuple[int, int]:
    """The i-th pair (u, v), u < v, that is not a tree edge, in lexicographic
    order, found in O(log n) so that no list of all n^2/2 pairs is built."""
    j = i + bisect_right(free_before, i)
    u = bisect_right(start, j) - 1
    return u, u + 1 + j - start[u]


def random_connected(n: int, m: int, seed: int) -> Graph:
    """Random spanning tree plus m-(n-1) random extra edges; simple, connected."""
    if n < 1:
        raise ValueError("need at least 1 vertex")
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"edge count {m} outside [{n - 1}, {n * (n - 1) // 2}]")
    rng = random.Random(seed)
    tree_edges = _random_tree_edges(n, rng)
    # start[u]: the index of (u, u + 1) among all pairs in lexicographic order
    start = [u * (2 * n - u - 1) // 2 for u in range(n)]
    tree = sorted(start[u] + v - u - 1 for u, v in map(sorted, tree_edges))
    # free_before[k]: the non-tree pairs ahead of the k-th tree pair
    free_before = [t - k for k, t in enumerate(tree)]
    picks = rng.sample(range(n * (n - 1) // 2 - len(tree)), m - (n - 1))
    extra = [_free_pair(i, start, free_before) for i in picks]
    return build_graph(n, tree_edges + extra)
