"""Command-line front end.

Graph files are plain text: comment lines start with '#', the first
data line is "n m", and the next m lines are "u v" with 0-indexed
endpoints.  Every graph command runs one pipeline: read the file (or
stdin for '-'), run the command on the graph, and print one JSON document
on stdout, or with --quiet just its headline value for shell pipelines.

Exit codes: 0 ok/detected, 1 undetected or failed verification,
2 input error, 3 disconnected graph, 4 size or search cap exceeded,
5 unrecognized graph class.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import classes, randgraphs, structure
from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    SizeCapExceededError,
    UnrecognizedClassError,
)
from .graph import INFINITE, Graph, build_graph, is_connected
from .monitoring import is_meg_set, simulate_failure, witness_report
from .solver import DEFAULT_VERTEX_CAP, all_minimum_megs, forced_vertices, minimum_meg

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_DISCONNECTED = 3
EXIT_CAP = 4
EXIT_UNRECOGNIZED = 5

# every other ValueError, GraphFormatError included, is an input error
EXIT_CODES = {
    DisconnectedGraphError: EXIT_DISCONNECTED,
    SizeCapExceededError: EXIT_CAP,
    UnrecognizedClassError: EXIT_UNRECOGNIZED,
}


def parse_graph_text(text: str) -> Graph:
    """Parse the "n m" / edge-list format, '#' comments ignored."""
    return build_graph(*_edge_list(text), strict=True)


def _edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and the edge lines of a graph file, before any check
    of the graph itself."""
    rows = []
    for line in text.splitlines():
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        rows.append(body.split())
    if not rows:
        raise GraphFormatError("empty graph file")
    header = rows[0]
    if len(header) != 2:
        raise GraphFormatError('header must be "n m"')
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header: {exc}") from None
    if len(rows) - 1 != m:
        raise GraphFormatError(f"header promises {m} edges, file has {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        if len(row) != 2:
            raise GraphFormatError(f"bad edge line: {' '.join(row)}")
        try:
            edges.append((int(row[0]), int(row[1])))
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line: {exc}") from None
    return n, edges


def format_graph_text(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"# {piece}" for piece in comment.splitlines())
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for (u, v) in g.edges)
    return "\n".join(lines) + "\n"


def _read_graph(path: str) -> Graph:
    """Read a graph file for a command that needs a connected graph.

    A disconnected graph raises DisconnectedGraphError.  A connected
    graph has n <= m + 1, so a larger header n is rejected before its
    adjacency lists are allocated.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise GraphFormatError(f"cannot read {path}: {exc}") from None
    n, edges = _edge_list(text)
    if n >= 2 and n > len(edges) + 1:
        raise DisconnectedGraphError(
            f"input graph is disconnected: {n} vertices need at least {n - 1} edges, got {len(edges)}"
        )
    g = build_graph(n, edges, strict=True)
    if not is_connected(g):
        raise DisconnectedGraphError("input graph is disconnected")
    return g


def _parse_vertex_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise GraphFormatError(f"bad vertex list: {text!r}") from None


def _parse_edge(text: str) -> tuple[int, int]:
    toks = text.replace("-", ",").split(",")
    if len(toks) != 2:
        raise GraphFormatError(f"bad edge: {text!r}")
    try:
        return int(toks[0]), int(toks[1])
    except ValueError:
        raise GraphFormatError(f"bad edge: {text!r}") from None


def _run_graph_command(args) -> int:
    """Read the graph, then run the command on it and emit its document:
    timed from before the read, input block computed after the command."""
    started = time.perf_counter()
    g = _read_graph(args.file)
    result, headline, ok = args.run(g, args)
    doc = {
        "command": args.command,
        "input": {
            "n": g.n,
            "m": g.m,
            "fes": structure.feedback_edge_number(g),
            "leaf_count": len(structure.leaf_set(g)),
        },
        "result": result,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    _emit(doc, args.quiet, headline)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _emit(doc: dict, quiet: bool, headline) -> None:
    if quiet:
        print(headline)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def _json_distance(d) -> int | None:
    return None if d == INFINITE else int(d)


def cmd_verify(g: Graph, args):
    probe_set = _parse_vertex_list(args.set)
    report = witness_report(g, probe_set, max_witnesses_per_edge=args.max_witnesses)
    ok = not report.uncovered
    result = {
        "set": sorted(set(probe_set)),
        "is_meg": ok,
        "uncovered": [list(e) for e in report.uncovered],
        "witnesses": [
            {"edge": list(e), "pairs": [list(p) for p in pairs]}
            for e, pairs in report.witnesses.items()
        ],
    }
    return result, str(ok).lower(), ok


def cmd_solve(g: Graph, args):
    res = minimum_meg(g, cap=args.cap)
    result = {
        "meg_number": res.meg_number,
        "optimal_set": sorted(res.optimal_set),
        "forced": sorted(res.forced),
        "nodes_explored": res.nodes_explored,
    }
    if args.all:
        result["all_optimal"] = [
            sorted(s) for s in all_minimum_megs(g, limit=args.limit, cap=args.cap)
        ]
    return result, res.meg_number, True


def cmd_construct(g: Graph, args):
    if args.method == "fes":
        built = structure.fes_meg_construction(g)
        result = {
            "method": "fes",
            "set": sorted(built.meg_set),
            "size": len(built.meg_set),
            "fes": built.k,
            "leaf_count": built.leaf_count,
            "budget": built.budget,
            "verified": True,
        }
    else:
        cls = classes.recognize_class(g)
        if not is_meg_set(g, cls.witness):
            raise RuntimeError("class construction failed verification")
        result = {
            "method": "class",
            "theorem": cls.theorem,
            "meg_number": cls.meg_number,
            "set": sorted(cls.witness),
            "size": len(cls.witness),
            "verified": True,
        }
    return result, result["size"], True


def cmd_simulate(g: Graph, args):
    probe_set = _parse_vertex_list(args.set)
    edge = _parse_edge(args.fail_edge)
    report = simulate_failure(g, probe_set, edge)
    result = {
        "failed_edge": list(report.failed_edge),
        "detected": report.detected,
        "observations": [
            {
                "pair": [obs.x, obs.y],
                "old_distance": _json_distance(obs.old_distance),
                "new_distance": _json_distance(obs.new_distance),
            }
            for obs in report.observations
        ],
    }
    return result, len(report.observations), report.detected


# family -> (parameter count, None for "two or more"; seeded; constructor).  A
# seeded family takes --seed as its last argument.
GENERATORS = {
    "path": (1, False, classes.gen_path),
    "cycle": (1, False, classes.gen_cycle),
    "complete": (1, False, classes.gen_complete),
    "star": (1, False, classes.gen_star),
    "multipartite": (None, False, lambda *parts: classes.gen_multipartite(list(parts))),
    "hypercube": (1, False, classes.gen_hypercube),
    "grid": (2, False, classes.gen_grid),
    "tree": (1, True, randgraphs.random_tree),
    "unicyclic": (2, True, randgraphs.random_unicyclic),
    "connected": (2, True, randgraphs.random_connected),
    "tightness": (2, False, structure.gen_tightness_family),
}


def cmd_generate(args) -> int:
    family = args.family
    params = args.params
    arity, seeded, make = GENERATORS[family]
    if arity is None and len(params) < 2:
        raise GraphFormatError("multipartite needs at least 2 part sizes")
    if arity is not None and len(params) != arity:
        raise GraphFormatError(f"family {family} takes {arity} parameter(s), got {len(params)}")
    comment = f"megset generate {family} " + " ".join(str(p) for p in params)
    if seeded:
        params = [*params, args.seed]
        comment += f" seed={args.seed}"
    try:
        g = make(*params)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    sys.stdout.write(format_graph_text(g, comment))
    return EXIT_OK


def cmd_invariants(g: Graph, args):
    bound = structure.fes_budget(structure.feedback_edge_number(g), len(structure.leaf_set(g)))
    result = {
        "forced_count": len(forced_vertices(g)) if g.m else 0,
        "upper_bound": bound,
        "meg_number": None,
    }
    if g.n <= args.cap and g.m >= 1:
        result["meg_number"] = minimum_meg(g, cap=args.cap).meg_number
    headline = result["meg_number"] if result["meg_number"] is not None else bound
    return result, headline, True


# ---------------------------------------------------------------------------
# JSON schemas for the ResultDocument of each subcommand (generate emits a
# graph file, not JSON).  Field names are stable.

_COUNT = {"type": "integer", "minimum": 0}
_BOOLEAN = {"type": "boolean"}
_STRING = {"type": "string"}
_NULLABLE_INT = {"type": ["integer", "null"]}


def _array(items: dict) -> dict:
    return {"type": "array", "items": items}


def _closed(required: dict, optional: dict | None = None) -> dict:
    """An object that must have the keys of `required` (listed in their
    order), may have those of `optional`, and has no other key."""
    return {
        "type": "object",
        "required": list(required),
        "additionalProperties": False,
        "properties": {**required, **(optional or {})},
    }


_VERTEX_ARRAY = _array(_COUNT)
_EDGE_ARRAY = {**_VERTEX_ARRAY, "minItems": 2, "maxItems": 2}


def _document_schema(result: dict) -> dict:
    return _closed({
        "command": _STRING,
        "input": _closed({"n": _COUNT, "m": _COUNT, "fes": {"type": "integer"}, "leaf_count": _COUNT}),
        "result": result,
        "wall_time_s": {"type": "number", "minimum": 0},
    })


RESULT_SCHEMAS = {
    "verify": _document_schema(_closed({
        "set": _VERTEX_ARRAY,
        "is_meg": _BOOLEAN,
        "uncovered": _array(_EDGE_ARRAY),
        "witnesses": _array(_closed({"edge": _EDGE_ARRAY, "pairs": _array(_EDGE_ARRAY)})),
    })),
    "solve": _document_schema(_closed(
        {
            "meg_number": _COUNT,
            "optimal_set": _VERTEX_ARRAY,
            "forced": _VERTEX_ARRAY,
            "nodes_explored": _COUNT,
        },
        {"all_optimal": _array(_VERTEX_ARRAY)},
    )),
    "construct": _document_schema(_closed(
        {"method": {"enum": ["fes", "class"]}, "set": _VERTEX_ARRAY, "size": _COUNT, "verified": _BOOLEAN},
        {"theorem": _STRING, "meg_number": _COUNT, "fes": _COUNT, "leaf_count": _COUNT, "budget": _COUNT},
    )),
    "simulate": _document_schema(_closed({
        "failed_edge": _EDGE_ARRAY,
        "detected": _BOOLEAN,
        "observations": _array(
            _closed({"pair": _EDGE_ARRAY, "old_distance": _NULLABLE_INT, "new_distance": _NULLABLE_INT})
        ),
    })),
    "invariants": _document_schema(
        _closed({"forced_count": _COUNT, "upper_bound": _COUNT, "meg_number": _NULLABLE_INT})
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="megset",
        description="Monitoring edge-geodetic sets: verify, solve, construct, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("file", help="graph file, or - for stdin")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=_run_graph_command, run=run)
        return p

    p = graph_command("verify", cmd_verify, "check whether a vertex set is an MEG-set")
    p.add_argument("--set", required=True, help="comma-separated vertex list")
    p.add_argument("--max-witnesses", type=int, default=3)

    p = graph_command("solve", cmd_solve, "exact minimum MEG-set")
    p.add_argument("--all", action="store_true", help="enumerate all optimal sets")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)

    p = graph_command("construct", cmd_construct, "constructive MEG-set (class formula or fes bound)")
    p.add_argument("--method", choices=("fes", "class"), required=True)

    p = graph_command("simulate", cmd_simulate, "simulate one edge failure against a probe set")
    p.add_argument("--set", required=True, help="comma-separated vertex list")
    p.add_argument("--fail-edge", required=True, help="edge as u,v or u-v")

    p = sub.add_parser("generate", help="emit a graph file for a named family")
    p.add_argument("family", choices=tuple(GENERATORS))
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = graph_command("invariants", cmd_invariants, "size parameters, bounds, and exact MEG when small")
    p.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
