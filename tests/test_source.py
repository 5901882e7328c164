import ast
import sys
from pathlib import Path

import megset
from megset import graph as graph_module


def _package_trees():
    for path in sorted(Path(megset.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant must raise instead,
    # and it raises RuntimeError, the one kind of broken-invariant error
    offenders = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and _raises_assertion_error(node)
    ]
    assert offenders == []


def test_runtime_imports_only_the_standard_library():
    # the runtime keeps zero dependencies: numpy, scipy or networkx belong in tests
    imported = set()
    for _, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names


def _calls_by_name(fn, name: str) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                return True
    return False


def test_package_has_no_self_calls():
    # deep inputs must not hit the recursion limit, so searches keep explicit stacks
    offenders = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _calls_by_name(node, node.name)
    ]
    assert offenders == []


class _Scopes(ast.NodeVisitor):
    """The scopes (dotted class and function names) of the nodes that match."""

    def __init__(self, match):
        self.match = match
        self.scope: list[str] = []
        self.found: list[str] = []

    def visit(self, node):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()
            return
        if self.match(node):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def _scopes_where(match) -> list[str]:
    refs = []
    for module, tree in _package_trees():
        visitor = _Scopes(match)
        visitor.visit(tree)
        refs += [f"{module}:{scope}" for scope in visitor.found]
    return refs


def _scopes_referring_to(name: str) -> list[str]:
    return _scopes_where(lambda node: (isinstance(node, ast.Name) and node.id == name)
                         or (isinstance(node, ast.Attribute) and node.attr == name))


def _scopes_calling_with_first_argument(name: str, match) -> list[str]:
    return _scopes_where(lambda node: isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name) and node.func.id == name
                         and bool(node.args) and match(node.args[0]))


def test_counting_bfs_runs_only_in_the_geodesy_accessor():
    # the per-source geodesy rows are the one owner of geodesic counts on G;
    # every other caller of the counting BFS walks the adjacency of G-e
    assert _scopes_calling_with_first_argument(
        "_bfs_with_counts",
        lambda arg: isinstance(arg, ast.Attribute) and arg.attr == "adj") == ["graph.py:Graph.geodesy"]
    edge_removed = _scopes_referring_to("_adjacency_without")
    assert _scopes_referring_to("_bfs_with_counts") == ["graph.py:Graph.geodesy"] + edge_removed


def test_skip_edge_bfs_serves_only_the_skip_edge_callers():
    # the BFS of G-e walks the adjacency from _adjacency_without, and only
    # the two skip-edge callers build it; connectivity is a component
    # question, answered by graph._components
    assert _scopes_referring_to("_adjacency_without") == ["graph.py:distance_without_edge",
                                                          "monitoring.py:simulate_failure"]
    assert not hasattr(graph_module, "bfs_distances")


def test_lowlink_dfs_runs_only_for_cut_vertices_and_the_mask_table():
    # a solve takes its blocks and cut vertices from one _blocks call
    assert _scopes_referring_to("_blocks") == ["graph.py:cut_vertices", "solver.py:_witness_masks"]


def _lowers_a_neighbour_count(node) -> bool:
    """A loop over a vertex's neighbours that decrements a per-vertex table,
    as a peel of degree-1 vertices does."""
    adj = node.iter.value if isinstance(node, ast.For) and isinstance(node.iter, ast.Subscript) else None
    return ((isinstance(adj, ast.Name) and adj.id == "adj"
             or isinstance(adj, ast.Attribute) and adj.attr == "adj")
            and any(isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Sub)
                    and isinstance(n.target, ast.Subscript) for n in ast.walk(node)))


def test_one_scope_peels_degree_one_vertices():
    # a graph is peeled once, by the cached Graph._hanging; the base graph
    # reads that peel, with no component traversal of its own
    assert _scopes_where(_lowers_a_neighbour_count) == ["graph.py:Graph._hanging"]
    assert "structure.py:base_graph" in _scopes_referring_to("_hanging")
    assert "structure.py:base_graph" not in _scopes_referring_to("_components")


def _is_count_product(node) -> bool:
    """A product of two table lookups, such as C[x][u] * C[y][v]."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Subscript) and isinstance(node.right, ast.Subscript))


def test_count_product_is_the_one_monitoring_test():
    # a second monitoring route must not return to src: only the pair scan
    # multiplies geodesic counts to decide monitoring
    assert set(_scopes_where(_is_count_product)) == {"monitoring.py:_monitoring_pairs"}


def _is_stack_top(node) -> bool:
    """An expression ``<name>[-1]``."""
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and isinstance(node.slice, ast.UnaryOp) and isinstance(node.slice.op, ast.USub)
            and isinstance(node.slice.operand, ast.Constant) and node.slice.operand.value == 1)


def _advances_a_stack_top(node, scope: tuple, unpacked: dict) -> bool:
    """``next(<name>[-1], ...)``, a loop over ``<name>[-1]``, or a loop over
    a name that the same scope unpacked from a frame ``<name>[-1]``; frame
    names are recorded in ``unpacked`` as the scope's assignments pass."""
    if isinstance(node, ast.Assign) and _is_stack_top(node.value):
        unpacked.setdefault(scope, set()).update(
            n.id for n in ast.walk(node.targets[0]) if isinstance(n, ast.Name))
    if isinstance(node, ast.For):
        return _is_stack_top(node.iter) or (isinstance(node.iter, ast.Name)
                                            and node.iter.id in unpacked.get(scope, ()))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "next" and bool(node.args) and _is_stack_top(node.args[0]))


def _scopes_advancing_a_stack_top() -> list[str]:
    found = []
    for module, tree in _package_trees():
        unpacked: dict[tuple, set] = {}
        visitor = _Scopes(lambda node: _advances_a_stack_top(node, tuple(visitor.scope), unpacked))
        visitor.visit(tree)
        found += [f"{module}:{scope}" for scope in visitor.found]
    return found


def test_searches_run_on_the_one_depth_first_walk():
    # the walk owns the stack of iterators; lowlink needs no way back up,
    # since low is a minimum over a subtree and a reverse pre-order pass takes it
    assert sorted(set(_scopes_advancing_a_stack_top())) == ["graph.py:_depth_first"]
    assert _scopes_referring_to("_depth_first") == [
        "graph.py:Graph._hanging", "graph.py:_blocks",
        "hierarchy.py:is_strong_edge_geodetic_set", "hierarchy.py:_geodesic_edge_sets",
        "solver.py:_CoverSearch.feasible", "solver.py:_CoverSearch.covers"]


def test_probe_reports_list_pairs_through_the_one_lister():
    # a tree edge's sides come from one place, and the report and the
    # simulator take every edge's pairs from the lister
    assert _scopes_referring_to("_below") == ["monitoring.py:_coverage", "monitoring.py:_pair_lister.pairs"]
    assert _scopes_referring_to("_pair_lister") == ["monitoring.py:witness_report",
                                                    "monitoring.py:simulate_failure"]
    scans = set(_scopes_referring_to("_monitoring_pairs"))
    assert "monitoring.py:_pair_lister.pairs" in scans
    assert not scans & {"monitoring.py:witness_report", "monitoring.py:simulate_failure"}


def test_dem_test_is_written_once():
    # the lister's scan of a 2-core edge and the DEM check share one filter
    assert _scopes_referring_to("_dem") == ["hierarchy.py:is_dem_set", "monitoring.py:_pair_lister.pairs"]
