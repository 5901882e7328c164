"""Record the expected answers that the workloads check on every operation.

The answers must come from a trusted commit: run this only on a commit
whose outputs are known to be right (it was run on the commit that
introduced the benchmark), never to make a failing commit pass.

    python3 perfbench/pin.py [solve_search|plan_large|query_warm ...]

It writes ``perfbench/pinned/<workload>.json``.  Node counts recorded for
``solve_search`` order its pool by difficulty; they are never compared.
"""

from __future__ import annotations

import json
import random
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import megset as M  # noqa: E402
from megset import cli, solver  # noqa: E402

import corpus as C  # noqa: E402

ABANDON_S = 8.0  # far beyond SEARCH_NODE_BUDGET at any plausible node rate


class _Abandoned(Exception):
    pass


def _alarm(*_):
    raise _Abandoned()


def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def pin_solve_search() -> dict:
    signal.signal(signal.SIGALRM, _alarm)
    entries = []
    dropped = 0
    for i in range(C.SEARCH_POOL_SIZE):
        g = C.search_graph(M, i)
        kind = C.search_kind(i)
        signal.setitimer(signal.ITIMER_REAL, ABANDON_S)
        try:
            if kind == "min":
                res = M.minimum_meg(g, cap=g.n)
                nodes, answer = res.nodes_explored, sorted(res.optimal_set)
                size = res.meg_number
            else:
                hits, _, nodes = solver._layered_search(
                    g, cap=g.n, collect_all=True, limit=C.SEARCH_ALL_LIMIT)
                answer = [_bits(h) for h in hits]
                size = len(answer[0])
        except _Abandoned:
            nodes = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if nodes is None or nodes > C.SEARCH_NODE_BUDGET:
            dropped += 1
            continue
        entries.append([i, kind, nodes, size, answer, C.fingerprint(g)])
    return {"node_budget": C.SEARCH_NODE_BUDGET, "all_limit": C.SEARCH_ALL_LIMIT,
            "probed": C.SEARCH_POOL_SIZE, "dropped": dropped,
            "fields": ["index", "kind", "nodes", "meg_number", "answer", "fingerprint"],
            "entries": entries}


def _json_cli(argv, text):
    code, out = C.run_cli(cli, argv, text)
    return code, json.loads(out)["result"]


def pin_plan_large() -> dict:
    random_graphs = {}
    unicyclic = {}
    for n in C.PLAN_SIZES:
        for s in range(C.PLAN_POOL_PER_SIZE):
            g = C.plan_graph(M, n, s)
            text = C.graph_text(g)
            _, fes = _json_cli(["construct", "-", "--method", "fes"], text)
            probes = fes["set"]
            verify_set = probes if s % 2 == 0 else [v for v in probes if v != probes[s % len(probes)]]
            _, ver = _json_cli(["verify", "-", "--set", ",".join(map(str, verify_set))], text)
            u, v = g.edges[(131 * s) % g.m]
            _, sim = _json_cli(["simulate", "-", "--set", ",".join(map(str, probes)),
                                "--fail-edge", f"{u}-{v}"], text)
            random_graphs[f"{n}:{s}"] = {
                "fingerprint": C.fingerprint(g),
                "set": C.list_to_mask(probes),
                "verify_set": C.list_to_mask(verify_set),
                "is_meg": ver["is_meg"],
                "uncovered": len(ver["uncovered"]),
                "witness_pairs": sum(len(w["pairs"]) for w in ver["witnesses"]),
                "fail_edge": [u, v],
                "detected": sim["detected"],
                "observations": len(sim["observations"]),
            }
            g = C.plan_unicyclic(M, n, s)
            _, cls = _json_cli(["construct", "-", "--method", "class"], C.graph_text(g))
            unicyclic[f"{n}:{s}"] = {
                "fingerprint": C.fingerprint(g),
                "theorem": cls["theorem"],
                "meg_number": cls["meg_number"],
                "size": cls["size"],
            }
        print(f"plan_large: n={n} pinned", file=sys.stderr)
    return {"random": random_graphs, "unicyclic": unicyclic}


def _pin_query_graph(key: str, g, probes: list[int], with_dem: bool) -> dict:
    rng = random.Random(key)
    sim = [len(M.simulate_failure(g, probes, e).observations) for e in g.edges]
    loss = [int(M.is_meg_set(g, [w for w in probes if w != v])) for v in probes]
    rep = M.witness_report(g, probes)
    pairs = []
    for k in range(C.QUERY_PAIR_CHECKS):
        pool = probes if k % 2 == 0 else range(g.n)
        x, y = rng.sample(list(pool), 2)
        j = rng.randrange(g.m)
        pairs.append([x, y, j, int(M.pair_monitors_edge(g, x, y, g.edges[j]))])
    return {
        "fingerprint": C.fingerprint(g),
        "set": C.list_to_mask(probes),
        "simulate_observations": sim,
        "probe_loss_is_meg": loss,
        "witness": [len(rep.uncovered), sum(len(p) for p in rep.witnesses.values())],
        "is_geodetic": M.is_geodetic_set(g, probes),
        "is_edge_geodetic": M.is_edge_geodetic_set(g, probes),
        "is_dem": M.is_dem_set(g, probes) if with_dem else None,
        "pairs": pairs,
    }


def pin_query_warm() -> dict:
    a, b = C.QUERY_GRID
    grid = M.gen_grid(a, b)
    out = {"grid": _pin_query_graph("grid", grid, sorted(M.meg_grid(a, b).witness), False)}
    print("query_warm: grid pinned", file=sys.stderr)
    for s in range(C.QUERY_POOL_SIZE):
        g = C.query_graph(M, s)
        probes = sorted(M.fes_meg_construction(g).meg_set)
        out[f"r{s}"] = _pin_query_graph(f"r{s}", g, probes, True)
        print(f"query_warm: r{s} pinned", file=sys.stderr)
    return out


PINNERS = {"solve_search": pin_solve_search, "plan_large": pin_plan_large,
           "query_warm": pin_query_warm}


def main(argv: list[str]) -> int:
    names = argv or list(PINNERS)
    for name in names:
        data = PINNERS[name]()
        path = HERE / "pinned" / f"{name}.json"
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
