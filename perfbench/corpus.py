"""Seeded graph corpora shared by the workloads and by ``pin.py``.

Every graph is a pure function of a pool index, so ``pin.py`` can record
its expected answers once and the workloads can regenerate it on any
commit.  ``M`` is always the imported ``megset`` package.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import zlib

# solve_search: random_connected(n, round(1.3 n), i) with n = 32..40.  Pool
# graphs whose solve at the pinning commit explored more than the node budget
# are left out: one of them alone (up to a minute) outlasts a whole run.
SEARCH_POOL_SIZE = 1200
SEARCH_NODE_BUDGET = 500_000
SEARCH_ALL_LIMIT = 3

# plan_large: sparse random graphs and unicyclic graphs at these sizes, plus
# canonical grids for the class recognizer (grids are recognized only in
# canonical labelling).
PLAN_SIZES = (300, 350, 400, 450, 500, 550, 600)
PLAN_POOL_PER_SIZE = 40
PLAN_GRIDS = tuple((a, b) for a in range(10, 21) for b in range(a, 41) if 120 <= a * b <= 400)

# query_warm: one of a few random n = 400 graphs, plus the 20 x 20 grid.
QUERY_POOL_SIZE = 6
QUERY_GRID = (20, 20)
QUERY_PAIR_CHECKS = 300


def search_n(i: int) -> int:
    return 32 + i % 9


def search_kind(i: int) -> str:
    """Every eighth pool graph is an all_minimum_megs operation."""
    return "all" if i % 8 == 7 else "min"


def search_graph(M, i: int):
    n = search_n(i)
    return M.random_connected(n, round(1.3 * n), i)


def plan_graph(M, n: int, s: int):
    return M.random_connected(n, round(1.1 * n), 1000 * n + s)


def plan_unicyclic(M, n: int, s: int):
    return M.random_unicyclic(n, n // 10, 1000 * n + s)


def query_graph(M, s: int):
    return M.random_connected(400, 440, 7000 + s)


def fingerprint(g) -> int:
    """Checksum of the edge list, to catch a generator that changed."""
    return zlib.crc32(repr((g.n, g.edges)).encode())


def graph_text(g) -> str:
    """The CLI's "n m" / edge-list file format."""
    return f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)


def mask_to_list(mask_hex: str) -> list[int]:
    mask = int(mask_hex, 16)
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def list_to_mask(vertices) -> str:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return format(mask, "x")


def relabel(M, g, rng: random.Random):
    """An isomorphic copy under a random permutation, and the permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return M.build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]), perm


def bit_reversal_order(count: int) -> list[int]:
    """0..count-1 in bit-reversed order: every prefix spreads evenly over the range.

    Strata are sorted by cost, so a run that stops anywhere has still drawn
    from cheap and expensive strata in proportion.
    """
    bits = max(1, (count - 1).bit_length())
    out = []
    for k in range(1 << bits):
        r = int(format(k, f"0{bits}b")[::-1], 2)
        if r < count:
            out.append(r)
    return out


def run_cli(cli, argv: list[str], text: str) -> tuple[int, str]:
    """Run ``megset`` in-process on a graph given as text on stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()
