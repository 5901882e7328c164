"""Exact minimum MEG-set search.

The table of monitoring pairs is built per block (biconnected
component): a block is geodesically convex and an outside vertex enters
it through one cut vertex, so an outside pair monitors an edge of the
block exactly when its two entry points do.  Every leaf block must hold
a non-cut probe, which stands in for its cut vertex, so no minimum
MEG-set holds a cut vertex, and a set T of non-cut vertices is an
MEG-set exactly when T and the cut vertices cover every edge by pairs
of its block.  So the cut vertices are seeded and dropped from every
result, and a block of cut vertices alone gets no table.  The seed also
takes every vertex common to the tabled monitoring pairs of some edge,
which includes all simplicial vertices and twins.  Every edge the seed
leaves uncovered is a coverage requirement: the free vertices that
would cover it, alone or in pairs.  A branch-and-bound feasibility
check asks whether at most r allowed free vertices meet every
requirement; it branches on the requirement with the fewest options,
one-vertex options first, and prunes with a packing bound.  The optimum
size k is the smallest r whose check succeeds.  A lexicographic pass
then takes the free vertices in increasing order and keeps each one
only if a check over the vertices after it can still complete a cover
of size k, so the result is the lexicographically smallest minimum and
``all_minimum_megs`` lists the minimums in lexicographic order:
deterministic and independent of the pruning.  Both searches run on
``graph._depth_first``, so no input runs into the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeCapExceededError
from .graph import (
    Graph,
    _blocks,
    _check_vertex,
    _components,
    _depth_first,
    require_connected,
    simplicial_vertices,
    twin_vertices,
)
from .monitoring import _monitoring_pairs, is_meg_set, monitored_edges

DEFAULT_VERTEX_CAP = 24

# per uncovered edge: the vertices that cover it alone, and the pairs that do
_Requirements = list[tuple[int, list[int]]]


@dataclass(frozen=True)
class SolveResult:
    """``nodes_explored`` counts the search states examined: the nodes of
    every feasibility check and the lexicographic-pass candidates.  It is
    1 when the seed alone monitors every edge."""

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


def _witness_masks(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The bitmask of the cut vertices, and per edge of each block with a
    non-cut vertex the bitmasks of the block's pairs that monitor it.
    Every list is nonempty: an edge's own endpoints monitor it."""
    blocks, cuts = _blocks(g)
    table = []
    for block, edges in blocks:
        if not cuts.issuperset(block):
            D, C = g.geodesy(block)
            table += (tuple((1 << x) | (1 << y) for x, y in _monitoring_pairs(D, C, e, block))
                      for e in edges)
    return sum(1 << v for v in cuts), tuple(table)


def _requirements(cuts: int, masks: tuple[tuple[int, ...], ...]) -> tuple[int, list[tuple[int, ...]]]:
    """The seed, and the coverage requirements it leaves.

    The seed is ``cuts`` joined with the vertices common to all pairs
    of some edge: that edge cannot be covered without them, so they lie
    in every MEG-set joined with ``cuts``.  The structurally forced vertices
    (simplicial vertices and twins) are among these: each lies in every
    monitoring pair of one of its own edges, because a simplicial vertex
    is never interior to a geodesic and a geodesic through a twin has a
    copy through the other twin.

    Per edge, a requirement lists the free-vertex masks that would cover
    it: its monitoring pairs minus the seed bits.  An edge with an empty
    option is covered by the seed and dropped.  Requirements are ordered
    fewest-options-first, the order in which the search's packing bound
    takes them.
    """
    seed = cuts
    for pairs in masks:
        common = pairs[0]
        for pm in pairs[1:]:
            common &= pm
            if not common:
                break
        seed |= common
    reqs = []
    for pairs in masks:
        opts = sorted({pm & ~seed for pm in pairs})
        if opts[0]:
            reqs.append(tuple(opts))
    reqs.sort(key=len)
    return seed, reqs


def _trim(reqs: _Requirements, add: int, allowed: int) -> _Requirements | None:
    """The requirements still uncovered once the vertices of ``add`` join.

    Each requirement is ``(ones, pairs)``: the bitmask of vertices that
    cover it alone, and the two-vertex options.  Every option is cut to
    the vertices it still needs and kept only while those are all in
    ``allowed``; a pair containing a one-vertex option of the same
    requirement is dropped.  Returns None when some requirement is left
    with no option.
    """
    out = []
    for ones, pairs in reqs:
        if ones & add:
            continue
        ones &= allowed
        kept = []
        for p in pairs:
            need = p & ~add
            if not need:
                break
            if need & allowed == need:
                if need & (need - 1):
                    kept.append(need)
                else:
                    ones |= need
        else:
            if ones:
                kept = [p for p in kept if not p & ones]
            elif not kept:
                return None
            out.append((ones, kept))
    return out


def _packing_bound(reqs: _Requirements) -> int:
    """Lower bound on the vertices still needed.

    Requirements whose option unions are pairwise disjoint each need
    their own vertices: one if a single vertex covers it, else two.
    """
    used = need = 0
    for ones, pairs in reqs:
        union = ones
        for p in pairs:
            union |= p
        if not union & used:
            used |= union
            need += 1 if ones else 2
    return need


def _option_count(req) -> int:
    return req[0].bit_count() + len(req[1])


def _branches(state):
    """The child states of a feasibility node, one per option of the
    requirement with the fewest options, one-vertex options first; None
    when no requirement is left or one has no option, when the budget is
    below 2 (budget 1 takes the one-vertex test) or below the packing bound.

    A vertex whose branch failed stays out of the later branches: every
    cover containing it was already searched.
    """
    reqs, allowed, budget = state
    if not reqs or budget < 2 or _packing_bound(reqs) > budget:
        return None

    def children(ones, pairs, allowed):
        while ones:
            b = ones & -ones
            ones ^= b
            allowed &= ~b
            yield _trim(reqs, b, allowed), allowed, budget - 1
        for p in pairs:
            rest = allowed & ~p
            yield _trim(reqs, p, rest), rest, budget - 2
    return children(*min(reqs, key=_option_count), allowed)


class _CoverSearch:
    """Branch-and-bound over the coverage requirements of the free vertices.

    ``nodes`` counts the states examined: every node of a feasibility
    check (its root included) and every lexicographic-pass candidate.
    """

    def __init__(self, reqs: list[tuple[int, ...]], free: int):
        self.free = free
        self.root = _trim([(0, options) for options in reqs], 0, free)
        self.nodes = 0

    def feasible(self, reqs: _Requirements, allowed: int, budget: int) -> bool:
        """Can at most ``budget`` vertices of ``allowed`` cover ``reqs``?"""
        for reqs, allowed, budget in _depth_first((reqs, allowed, budget), _branches):
            self.nodes += 1
            if reqs == []:
                return True
            if reqs and budget == 1:
                common = allowed
                for ones, _ in reqs:
                    common &= ones
                if common:
                    return True
        return False

    def minimum_size(self) -> int:
        """The smallest budget whose feasibility check succeeds from the root."""
        k = _packing_bound(self.root)
        while not self.feasible(self.root, self.free, k):
            if k >= self.free.bit_count():
                raise RuntimeError("V(G) is always an MEG-set of a connected graph")
            k += 1
        return k

    def covers(self, k: int, limit: int | None) -> list[int]:
        """Minimum covers in lexicographic order, up to ``limit``.

        ``k`` must be the optimum size, so every cover found has exactly
        ``k`` vertices.  A candidate vertex joins only if a feasibility
        check over the vertices after it can still complete the cover.
        """
        hits: list[int] = []
        root = (self.root, 0, self.free, k)
        for reqs, chosen, _, _ in _depth_first(root, lambda st: self._extensions(*st) if st[0] else None):
            if not reqs:
                hits.append(chosen)
                if len(hits) == limit:
                    break
        return hits

    def _extensions(self, reqs: _Requirements, chosen: int, allowed: int, budget: int):
        while allowed:
            b = allowed & -allowed
            allowed ^= b
            self.nodes += 1
            child = _trim(reqs, b, allowed)
            if child is not None and self.feasible(child, allowed, budget - 1):
                yield child, chosen | b, allowed, budget - 1


def _layered_search(g: Graph, *, cap: int, limit: int | None):
    require_connected(g)
    if g.m == 0:
        raise ValueError("minimum MEG-set search requires at least one edge")
    if g.n > cap:
        raise SizeCapExceededError(f"graph has {g.n} vertices, solver cap is {cap}")
    cuts, masks = _witness_masks(g)
    seed, reqs = _requirements(cuts, masks)
    search = _CoverSearch(reqs, ((1 << g.n) - 1) & ~seed)
    hits = search.covers(search.minimum_size(), limit)
    return [(seed | h) & ~cuts for h in hits], search.nodes


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def minimum_meg(g: Graph, *, cap: int = DEFAULT_VERTEX_CAP) -> SolveResult:
    """Minimum-cardinality MEG-set; ties broken lexicographically smallest."""
    hits, explored = _layered_search(g, cap=cap, limit=1)
    best = _mask_to_set(hits[0])
    return SolveResult(
        meg_number=len(best),
        optimal_set=best,
        forced=forced_vertices(g),
        nodes_explored=explored,
    )


def all_minimum_megs(g: Graph, limit: int | None = None, *, cap: int = DEFAULT_VERTEX_CAP) -> list[frozenset[int]]:
    """All minimum MEG-sets (up to limit), in lexicographic order."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    hits, _ = _layered_search(g, cap=cap, limit=limit)
    return [_mask_to_set(h) for h in hits]


def compose_via_cut_vertex(g: Graph, v: int, component_sets: list) -> frozenset[int]:
    """Combine per-component MEG-sets across a cut vertex.

    component_sets[i] must be an MEG-set of the induced subgraph on
    C_i union {v}, where C_i is the i-th component of G - v ordered by
    smallest vertex.  The union minus v is then an MEG-set of g (not
    necessarily minimum).  Each piece is checked on g itself: a piece is
    geodesically convex, so its monitoring is monitoring in g.
    """
    require_connected(g)
    _check_vertex(g, v)
    comps = _components(g, (w for w in range(g.n) if w != v))
    if len(comps) < 2:
        raise ValueError(f"vertex {v} is not a cut vertex")
    if len(component_sets) != len(comps):
        raise ValueError(f"expected {len(comps)} component sets, got {len(component_sets)}")
    union: set[int] = set()
    for comp, cset in zip(comps, component_sets):
        piece = set(comp) | {v}
        cset = set(cset)
        if not cset <= piece:
            raise ValueError("component set contains vertices outside its piece")
        # convex piece: a walk leaving it passes v twice, so g's rows decide it
        if not {e for e in g.edges if piece.issuperset(e)} <= monitored_edges(g, cset):
            raise ValueError("component set is not an MEG-set of its piece")
        union |= cset
    result = frozenset(union - {v})
    if not is_meg_set(g, result):
        raise RuntimeError("cut-vertex composition did not yield an MEG-set")
    return result
