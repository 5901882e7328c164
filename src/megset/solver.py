"""Exact minimum MEG-set search.

The search seeds with the vertices that provably belong to every MEG-set
(any vertex appearing in every monitoring pair of some edge, which
includes all simplicial vertices and twins) and then enumerates
supersets of the seed by increasing cardinality, in lexicographic order,
returning the first candidate that monitors every edge.  Superset
closure of the predicate makes the first hit a minimum, and the
enumeration order makes it the lexicographically smallest minimum, so
results are deterministic and independent of any pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import SizeCapExceededError
from .graph import (
    Graph,
    connected_components,
    cut_vertices,
    induced_subgraph,
    require_connected,
    simplicial_vertices,
    twin_vertices,
)
from .monitoring import _monitoring_pairs, is_meg_set

DEFAULT_VERTEX_CAP = 24


@dataclass(frozen=True)
class SolveResult:
    meg_number: int
    optimal_set: frozenset[int]
    forced: frozenset[int]
    nodes_explored: int


def forced_vertices(g: Graph) -> frozenset[int]:
    """Vertices forced into every MEG-set: simplicial vertices and twins."""
    require_connected(g)
    if g.m == 0:
        raise ValueError("forced vertices are undefined for an edgeless graph")
    return simplicial_vertices(g) | twin_vertices(g)


def _witness_masks(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Per edge, the bitmasks of all pairs that monitor it.

    Every list is nonempty: in a simple graph an edge is always
    monitored by its own endpoints.
    """
    rows = [(x, range(x + 1, g.n)) for x in range(g.n)]
    return tuple(
        tuple((1 << x) | (1 << y) for x, y in _monitoring_pairs(g, e, rows))
        for e in g.edges
    )


def _implied_seed(masks: tuple[tuple[int, ...], ...]) -> int:
    """Bitmask of all vertices known to lie in every MEG-set.

    A vertex common to all monitoring pairs of some edge is unavoidable:
    that edge cannot be covered without it.  The structurally forced
    vertices (simplicial vertices and twins) are among these: each lies
    in every monitoring pair of one of its own edges, because a
    simplicial vertex is never interior to a geodesic and a geodesic
    through a twin has a copy through the other twin.
    """
    seed = 0
    for pairs in masks:
        common = pairs[0]
        for pm in pairs[1:]:
            common &= pm
            if not common:
                break
        seed |= common
    return seed


def _coverage_requirements(masks: tuple[tuple[int, ...], ...], seed: int) -> list[tuple[int, ...]]:
    """Per still-uncovered edge, the free-vertex masks that would cover it.

    Each requirement is a monitoring pair minus the seed bits; an empty
    requirement means the seed already covers the edge, which drops it.
    Edges are ordered fewest-options-first so failing candidates die fast.
    """
    reqs = []
    for pairs in masks:
        opts = sorted({pm & ~seed for pm in pairs})
        if opts[0] == 0:
            continue
        reqs.append(tuple(opts))
    reqs.sort(key=len)
    return reqs


def _layered_search(g: Graph, *, cap: int, collect_all: bool, limit: int | None):
    require_connected(g)
    if g.m == 0:
        raise ValueError("minimum MEG-set search requires at least one edge")
    if g.n > cap:
        raise SizeCapExceededError(f"graph has {g.n} vertices, solver cap is {cap}")
    structural = forced_vertices(g)
    masks = _witness_masks(g)
    seed = _implied_seed(masks)
    seed_size = bin(seed).count("1")
    free = [v for v in range(g.n) if not (seed >> v) & 1]
    reqs = _coverage_requirements(masks, seed)
    bit = [1 << v for v in range(g.n)]
    explored = 0
    for size in range(seed_size, g.n + 1):
        hits: list[int] = []
        for combo in combinations(free, size - seed_size):
            explored += 1
            m = 0
            for c in combo:
                m |= bit[c]
            ok = True
            for options in reqs:
                for r in options:
                    if r & m == r:
                        break
                else:
                    ok = False
                    break
            if ok:
                hits.append(seed | m)
                if not collect_all:
                    break
                if limit is not None and len(hits) >= limit:
                    break
        if hits:
            return hits, structural, explored
    raise AssertionError("V(G) is always an MEG-set of a connected graph")


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def minimum_meg(g: Graph, *, cap: int = DEFAULT_VERTEX_CAP) -> SolveResult:
    """Minimum-cardinality MEG-set; ties broken lexicographically smallest."""
    hits, structural, explored = _layered_search(g, cap=cap, collect_all=False, limit=None)
    best = _mask_to_set(hits[0])
    return SolveResult(
        meg_number=len(best),
        optimal_set=best,
        forced=structural,
        nodes_explored=explored,
    )


def all_minimum_megs(g: Graph, limit: int | None = None, *, cap: int = DEFAULT_VERTEX_CAP) -> list[frozenset[int]]:
    """All minimum MEG-sets (up to limit), in lexicographic order."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    hits, _, _ = _layered_search(g, cap=cap, collect_all=True, limit=limit)
    return [_mask_to_set(h) for h in hits]


def compose_via_cut_vertex(g: Graph, v: int, component_sets: list) -> frozenset[int]:
    """Combine per-component MEG-sets across a cut vertex.

    component_sets[i] must be an MEG-set of the induced subgraph on
    C_i union {v}, where C_i is the i-th component of G - v ordered by
    smallest vertex.  The union minus v is then an MEG-set of g (not
    necessarily minimum).
    """
    require_connected(g)
    if v not in cut_vertices(g):
        raise ValueError(f"vertex {v} is not a cut vertex")
    rest, _ = induced_subgraph(g, [w for w in range(g.n) if w != v])
    # rest uses shifted labels; recover original ids for each component
    original = [w for w in range(g.n) if w != v]
    comps = [[original[w] for w in comp] for comp in connected_components(rest)]
    if len(component_sets) != len(comps):
        raise ValueError(f"expected {len(comps)} component sets, got {len(component_sets)}")
    union: set[int] = set()
    for comp, cset in zip(comps, component_sets):
        piece_vertices = sorted(set(comp) | {v})
        cset = set(cset)
        if not cset <= set(piece_vertices):
            raise ValueError("component set contains vertices outside its piece")
        piece, remap = induced_subgraph(g, piece_vertices)
        if not is_meg_set(piece, {remap[w] for w in cset}):
            raise ValueError("component set is not an MEG-set of its piece")
        union |= cset
    result = frozenset(union - {v})
    if not is_meg_set(g, result):
        raise RuntimeError("cut-vertex composition did not yield an MEG-set")
    return result
