"""Canonical graph generators and closed-form minimum MEG-sets per class.

Each meg_* operation returns the exact monitoring number together with
an explicit witness set achieving it.  Witnesses follow the published
constructions: leaves for trees, three spread vertices for cycles of
length other than four, the full vertex set for complete graphs,
complete multipartite graphs (stars excepted), hypercubes and C4, and
the boundary for grids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnrecognizedClassError
from .graph import Graph, build_graph, is_connected
from .structure import core_decomposition, cycle_probes, leaf_set

TREE = "TREE"
CYCLE = "CYCLE"
UNICYCLIC = "UNICYCLIC"
COMPLETE = "COMPLETE"
MULTIPARTITE = "MULTIPARTITE"
HYPERCUBE = "HYPERCUBE"
GRID = "GRID"


@dataclass(frozen=True)
class ClassResult:
    meg_number: int
    witness: frozenset[int]
    theorem: str


@dataclass(frozen=True)
class UnicyclicProfile:
    """Shape parameters of a connected graph with exactly one cycle.

    k is the cycle length and core_on_cycle holds the cycle vertices of
    degree at least 3.  p is 1 iff some run of degree-2 cycle vertices
    between attachment points spans at least half the cycle, which is
    exactly when a pair of leaves has two equally short routes around
    and the leaf set alone stops monitoring the cycle.
    """

    k: int
    leaf_count: int
    core_on_cycle: frozenset[int]
    p: int
    cycle_order: tuple[int, ...]


# ---------------------------------------------------------------------------
# generators

def gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def gen_star(p: int) -> Graph:
    """K_{1,p}: center 0 with p leaves."""
    if p < 1:
        raise ValueError("star needs at least 1 leaf")
    return build_graph(p + 1, [(0, i) for i in range(1, p + 1)])


def gen_multipartite(parts: list[int]) -> Graph:
    """Complete multipartite graph, vertices numbered part by part."""
    if len(parts) < 2:
        raise ValueError("need at least 2 parts")
    if any(p < 1 for p in parts):
        raise ValueError("every part needs at least 1 vertex")
    bounds = []
    start = 0
    for p in parts:
        bounds.append(range(start, start + p))
        start += p
    edges = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            edges.extend((u, v) for u in bounds[a] for v in bounds[b])
    return build_graph(start, edges)


def gen_hypercube(n: int) -> Graph:
    """Q_n: 2**n vertices, edges between labels at Hamming distance 1."""
    if n < 1:
        raise ValueError("hypercube dimension must be at least 1")
    size = 1 << n
    edges = [(v, v ^ (1 << b)) for v in range(size) for b in range(n) if v < v ^ (1 << b)]
    return build_graph(size, edges)


def gen_grid(m: int, n: int) -> Graph:
    """P_m box P_n with vertex (i,j) numbered i*n + j."""
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be at least 1")
    edges = []
    for i in range(m):
        for j in range(n):
            v = i * n + j
            if j + 1 < n:
                edges.append((v, v + 1))
            if i + 1 < m:
                edges.append((v, v + n))
    return build_graph(m * n, edges)


# ---------------------------------------------------------------------------
# closed forms

def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.m == g.n - 1


def meg_tree(g: Graph) -> ClassResult:
    """Trees: the leaf set is the unique minimum MEG-set."""
    if not is_tree(g) or g.m == 0:
        raise ValueError("expected a tree with at least one edge")
    leaves = leaf_set(g)
    return ClassResult(len(leaves), leaves, TREE)


def meg_cycle(n: int) -> ClassResult:
    """Cycles: 3 spread vertices suffice, except C4 needs all 4."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    witness = frozenset(cycle_probes((*range(n), 0)))
    return ClassResult(len(witness), witness, CYCLE)


def unicyclic_profile(g: Graph) -> UnicyclicProfile:
    """Locate the unique cycle and compute its attachment parameters."""
    if not is_connected(g) or g.m != g.n:
        raise ValueError("expected a connected unicyclic graph (m = n)")
    # the base of a unicyclic graph is its cycle, walked from the smallest
    # vertex toward its smaller neighbor
    order = core_decomposition(g).core_cycles[0][:-1]
    k = len(order)
    core = frozenset(v for v in order if g.degree(v) >= 3)
    leaf_count = len(leaf_set(g))
    span = _unique_span(k)
    if core:
        p = 1 if any(len(arc) + 1 > span for arc in _arcs(order, core)) else 0
    else:
        p = 1
    return UnicyclicProfile(k=k, leaf_count=leaf_count, core_on_cycle=core, p=p, cycle_order=order)


def _unique_span(k: int) -> int:
    """Longest stretch of a k-cycle that is still a unique shortest route.

    A path of s consecutive cycle edges is the only geodesic between its
    endpoints exactly when s < k - s, so anything up to ceil(k/2) - 1.
    """
    return (k + 1) // 2 - 1


def _arcs(order: tuple[int, ...], core: frozenset[int]) -> list[list[int]]:
    """Runs of consecutive non-core cycle vertices after each core vertex.

    With a single core vertex this is one run of k-1 vertices.  A run of
    r vertices sits on an arc of r+1 edges between its flanking cores.
    """
    k = len(order)
    starts = [i for i in range(k) if order[i] in core]
    arcs = []
    for s in starts:
        arc = []
        i = (s + 1) % k
        while order[i] not in core:
            arc.append(order[i])
            i = (i + 1) % k
        if arc:
            arcs.append(arc)
    return arcs


def meg_unicyclic(g: Graph) -> ClassResult:
    """Exact monitoring number of a unicyclic graph, with a witness.

    Leaves are always forced.  Every arc of t cycle edges between
    attachment vertices additionally needs ceil(t/s) - 1 probes, where
    s = ceil(k/2) - 1 is the longest uniquely-shortest stretch of the
    cycle: spacing probes at most s apart makes each stretch between
    consecutive probes (with leaves standing in for the attachment
    vertices) a unique geodesic, and a sparser set leaves some stretch
    with an equally short route the other way around, hence unmonitored.
    Pure cycles take the cycle construction, `cycle_probes`, along the cycle.
    """
    prof = unicyclic_profile(g)
    order = prof.cycle_order
    core = prof.core_on_cycle
    leaves = leaf_set(g)
    if not core:
        witness = frozenset(cycle_probes((*order, order[0])))
        return ClassResult(len(witness), witness, UNICYCLIC)
    span = _unique_span(prof.k)
    wit = set(leaves)
    extra = 0
    for arc in _arcs(order, core):
        t = len(arc) + 1
        picks = -(-t // span) - 1
        extra += picks
        for i in range(1, picks + 1):
            wit.add(arc[(i * t) // (picks + 1) - 1])
    return ClassResult(prof.leaf_count + extra, frozenset(wit), UNICYCLIC)


def meg_complete(n: int) -> ClassResult:
    """Complete graphs need every vertex."""
    if n < 2:
        raise ValueError("complete graph class result needs n >= 2")
    return ClassResult(n, frozenset(range(n)), COMPLETE)


def meg_multipartite(parts: list[int]) -> ClassResult:
    """Complete multipartite graphs need every vertex, except stars.

    K_{1,p} with p >= 2 is a star whose p leaves suffice.  K_{1,1} is
    the single edge K2 and needs both vertices.
    """
    if len(parts) < 2 or any(p < 1 for p in parts):
        raise ValueError("need at least 2 parts, each nonempty")
    total = sum(parts)
    if len(parts) == 2 and min(parts) == 1 and max(parts) >= 2:
        small_first = parts[0] == 1
        p = max(parts)
        side = frozenset(range(1, 1 + p)) if small_first else frozenset(range(p))
        return ClassResult(p, side, MULTIPARTITE)
    return ClassResult(total, frozenset(range(total)), MULTIPARTITE)


def meg_hypercube(n: int) -> ClassResult:
    """Hypercubes Q_n (n >= 2) need every vertex."""
    if n < 2:
        raise ValueError("hypercube class result needs dimension >= 2")
    return ClassResult(1 << n, frozenset(range(1 << n)), HYPERCUBE)


def meg_grid(m: int, n: int) -> ClassResult:
    """Grids need exactly their boundary, 2(m+n-2) vertices.

    Degenerate 1-by-n grids are paths and route to the tree result.
    """
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be at least 1")
    if m == 1 or n == 1:
        return meg_tree(gen_grid(m, n))
    boundary = frozenset(
        i * n + j
        for i in range(m)
        for j in range(n)
        if i in (0, m - 1) or j in (0, n - 1)
    )
    return ClassResult(2 * (m + n - 2), boundary, GRID)


# ---------------------------------------------------------------------------
# recognition (CLI `construct --method class`)

def recognize_class(g: Graph) -> ClassResult:
    """Match g against the known classes and return the closed-form result.

    Witnesses are mapped through the actual labeling where the class is
    recognized structurally (cycles, unicyclic, multipartite); hypercubes
    and grids are recognized only in canonical labeling.
    """
    if is_tree(g) and g.m >= 1:
        return meg_tree(g)
    # the only complete, hypercube, grid or multipartite graphs with m = n
    # are cycles (K3, Q2, the 2x2 grid, K2,2), so this branch decides them all
    if is_connected(g) and g.n >= 3 and g.m == g.n:
        res = meg_unicyclic(g)
        if all(g.degree(v) == 2 for v in range(g.n)):
            return ClassResult(res.meg_number, res.witness, CYCLE)
        return res
    if g.n >= 2 and g.m == g.n * (g.n - 1) // 2:
        return meg_complete(g.n)
    d = (g.n - 1).bit_length()
    if g.n >= 4 and g.n == 1 << d and g.m == d << (d - 1) and g.edges == gen_hypercube(d).edges:
        return meg_hypercube(d)
    # a canonical a-by-b grid with a, b >= 2 has N(0) = {1, b} and 2ab - a - b edges
    b = g.adj[0][-1] if g.n >= 4 and g.degree(0) == 2 else 0
    a = g.n // b if b and g.n % b == 0 else 0
    if a and g.m == 2 * g.n - a - b and g.edges == gen_grid(a, b).edges:
        return meg_grid(a, b)
    # stars K1,p are trees, so every multipartite graph here needs all of V
    if _is_complete_multipartite(g):
        return ClassResult(g.n, frozenset(range(g.n)), MULTIPARTITE)
    raise UnrecognizedClassError("graph matches no class with a closed-form MEG-set")


def _is_complete_multipartite(g: Graph) -> bool:
    """True iff g is complete multipartite with at least two parts.

    Vertices with equal open neighborhoods form a class, and no member of
    a class is adjacent to another.  So each class is a part joined to
    every other vertex exactly when its size plus its neighborhood's size
    is n.
    """
    sizes: dict[tuple[int, ...], int] = {}
    for nb in g.adj:
        sizes[nb] = sizes.get(nb, 0) + 1
    return len(sizes) >= 2 and all(len(nb) + size == g.n for nb, size in sizes.items())
