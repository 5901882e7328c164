import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megset import (
    INFINITE,
    DisconnectedGraphError,
    GraphFormatError,
    build_graph,
    count_shortest_paths,
    distance_without_edge,
    gen_complete,
    gen_cycle,
    gen_grid,
    gen_hypercube,
    gen_multipartite,
    gen_path,
    is_connected,
    is_dem_set,
    is_edge_geodetic_set,
    is_geodetic_set,
    is_meg_set,
    minimum_meg,
    monitored_edges,
    pair_monitors_edge,
    random_connected,
    random_tree,
    random_unicyclic,
    simulate_failure,
    witness_report,
)
from megset import graph as graph_module
from megset import monitoring

import oracles


def test_pair_monitors_edge_examples():
    assert pair_monitors_edge(gen_path(3), 0, 2, (0, 1))
    assert not pair_monitors_edge(gen_cycle(4), 0, 2, (0, 1))
    assert pair_monitors_edge(gen_cycle(4), 0, 1, (0, 1))


def test_pair_monitors_edge_errors():
    with pytest.raises(ValueError):
        pair_monitors_edge(gen_path(3), 1, 1, (0, 1))
    with pytest.raises(ValueError):
        pair_monitors_edge(gen_path(3), 0, 2, (0, 2))
    with pytest.raises(DisconnectedGraphError):
        pair_monitors_edge(build_graph(4, [(0, 1), (2, 3)]), 0, 1, (0, 1))
    # y is checked before x
    for x, y, bad in ((5, 1, 5), (0, 7, 7), (5, 7, 7)):
        with pytest.raises(GraphFormatError, match=rf"vertex {bad} outside \[0,3\)"):
            pair_monitors_edge(gen_path(3), x, y, (0, 1))


def test_pair_monitors_edge_runs_no_bfs_once_rows_are_built(monkeypatch):
    g = random_connected(30, 40, 3)
    g.geodesy((4, 17))
    assert is_connected(g)
    calls = []

    def no_bfs(*args):
        calls.append(args)
        raise AssertionError("pair_monitors_edge ran a BFS on warm rows")

    for module in (graph_module, monitoring):
        monkeypatch.setattr(module, "_bfs_with_counts", no_bfs)
    verdicts = {pair_monitors_edge(g, x, y, e) for e in g.edges for x, y in ((4, 17), (17, 4))}
    assert verdicts == {False, True}
    assert calls == []


def test_probe_outside_graph_is_a_format_error():
    g = gen_cycle(5)
    for check in (is_meg_set, monitored_edges, witness_report, is_dem_set):
        with pytest.raises(GraphFormatError, match=r"vertex 9 outside \[0,5\)"):
            check(g, [0, 9])
    with pytest.raises(GraphFormatError, match=r"vertex -1 outside \[0,5\)"):
        simulate_failure(g, [-1, 2], (0, 1))


def test_monitored_edges_examples():
    c4 = gen_cycle(4)
    got = monitored_edges(c4, {0, 1, 2})
    assert (0, 3) not in got
    assert got == {(0, 1), (1, 2)}
    assert monitored_edges(gen_path(5), {0, 4}) == set(gen_path(5).edges)
    assert monitored_edges(c4, set()) == set()


def test_is_meg_set_examples():
    assert is_meg_set(gen_cycle(5), {0, 1, 3})
    assert not is_meg_set(gen_cycle(4), {0, 1, 2})
    for g in (gen_cycle(6), gen_complete(4), gen_path(2)):
        assert is_meg_set(g, range(g.n))


def test_witness_report_examples():
    rep = witness_report(gen_path(3), {0, 2})
    assert rep.witnesses[(0, 1)] == [(0, 2)]
    assert rep.uncovered == []

    rep = witness_report(gen_cycle(4), {0, 1, 2})
    assert (0, 3) in rep.uncovered

    rep = witness_report(gen_complete(3), {0, 1})
    assert rep.uncovered == [(0, 2), (1, 2)]
    assert rep.witnesses[(0, 1)] == [(0, 1)]


def test_witness_report_cap_and_order():
    p5 = gen_path(5)
    rep = witness_report(p5, {0, 1, 2, 3, 4}, max_witnesses_per_edge=2)
    # pairs come in lexicographic order and stop at the cap
    assert rep.witnesses[(0, 1)] == [(0, 1), (0, 2)]
    assert all(len(pairs) <= 2 for pairs in rep.witnesses.values())


def test_simulate_failure_examples():
    rep = simulate_failure(gen_path(3), {0, 2}, (0, 1))
    assert rep.detected
    assert rep.observations[0].old_distance == 2
    assert rep.observations[0].new_distance == INFINITE

    assert simulate_failure(gen_cycle(5), {0, 1, 3}, (0, 1)).detected
    assert not simulate_failure(gen_cycle(4), {0, 1, 2}, (0, 3)).detected


def test_monitoring_pairs_same_for_range_list_and_tuple():
    # the scan slices its members, so every sliceable sequence of the same
    # members gives the same pairs in the same order
    rng = random.Random(43)
    for g in oracles.random_corpus(30, 9, 43):
        D, C = g.geodesy(range(g.n))
        part = sorted(rng.sample(range(g.n), rng.randint(2, g.n)))
        for e in g.edges:
            pairs = list(monitoring._monitoring_pairs(D, C, e, range(g.n)))
            assert pairs == [(x, y) for x, y in combinations(range(g.n), 2)
                             if oracles.monitors_by_enumeration(g, x, y, e)]
            for members in (list(range(g.n)), tuple(range(g.n))):
                assert list(monitoring._monitoring_pairs(D, C, e, members)) == pairs
            assert (list(monitoring._monitoring_pairs(D, C, e, part))
                    == list(monitoring._monitoring_pairs(D, C, e, tuple(part)))
                    == [(x, y) for x, y in pairs if x in part and y in part])


def test_pair_monitors_edge_is_symmetric():
    # pair_monitors_edge(g, y, x, e) with x < y scans the pair (y, x): the
    # scan's x row is then the larger vertex's
    for g in oracles.random_corpus(30, 9, 47):
        for e in g.edges:
            for x, y in combinations(range(g.n), 2):
                assert pair_monitors_edge(g, x, y, e) == pair_monitors_edge(g, y, x, e)


def test_criterion_equivalence_three_routes():
    # enumeration oracle vs distance-increase vs count-product, all agree
    rng = random.Random(11)
    for g in oracles.random_corpus(40, 10, 11):
        for _ in range(5):
            e = g.edges[rng.randrange(g.m)]
            x, y = rng.sample(range(g.n), 2)
            by_enum = oracles.monitors_by_enumeration(g, x, y, e)
            by_distance = oracles.monitors_by_distance(g, x, y, e)
            by_counts = pair_monitors_edge(g, x, y, e)
            assert by_enum == by_distance == by_counts


def test_geodesic_counts_beyond_64_bits():
    # the ends 0 and 195 have 2**65 geodesics
    g = oracles.square_chain(65)
    assert count_shortest_paths(g, 0, 195) == 2**65
    verdicts = set()
    for x, y in ((0, 195), (0, 1), (1, 2), (1, 4), (2, 193), (97, 100)):
        for e in g.edges:
            got = pair_monitors_edge(g, x, y, e)
            assert got == oracles.monitors_by_distance(g, x, y, e)
            verdicts.add(got)
    assert verdicts == {False, True}


# Each consumer of the one monitoring-pair scan, pinned to the enumeration
# oracle over the pairs it scans.

def test_witness_report_uncapped_matches_enumeration():
    rng = random.Random(31)
    for g in oracles.random_corpus(25, 9, 31):
        s = rng.sample(range(g.n), rng.randint(1, g.n))
        rep = witness_report(g, s, max_witnesses_per_edge=len(s) ** 2)
        for e in g.edges:
            want = [
                (x, y)
                for x, y in combinations(sorted(s), 2)
                if oracles.monitors_by_enumeration(g, x, y, e)
            ]
            assert rep.witnesses[e] == want
        assert rep.uncovered == [e for e in g.edges if not rep.witnesses[e]]


def test_witness_masks_match_enumeration():
    for g in oracles.random_corpus(25, 9, 37):
        want = tuple(
            tuple(
                (1 << x) | (1 << y)
                for x, y in combinations(range(g.n), 2)
                if oracles.monitors_by_enumeration(g, x, y, e)
            )
            for e in g.edges
        )
        assert oracles.full_witness_masks(g) == want


def test_is_dem_set_matches_enumeration():
    rng = random.Random(41)
    families = [gen_cycle(k) for k in range(4, 8)] + [
        gen_hypercube(3), gen_grid(3, 4), gen_multipartite([2, 3]), gen_multipartite([3, 3, 2])]
    for g in oracles.random_corpus(25, 9, 41) + families:
        for size in (1, 2, rng.randint(1, g.n), g.n):
            s = rng.sample(range(g.n), min(size, g.n))
            assert is_dem_set(g, s) == oracles.is_dem_by_enumeration(g, s)


def test_is_dem_set_beyond_64_bits():
    # the series graph of test_geodesic_counts_beyond_64_bits: from 195 the
    # counts at 0 and 1 are 2**65 and 2**64, so no pair (195, y) monitors (0, 1)
    g = oracles.square_chain(65)

    def by_pairs(members, e):
        return any(oracles.monitors_by_distance(g, x, y, e)
                   for x in members for y in range(g.n) if y != x)

    assert not is_dem_set(g, [195])
    assert not by_pairs([195], (0, 1))
    # from both ends every edge is monitored
    assert is_dem_set(g, [0, 195])
    for e in random.Random(5).sample(g.edges, 4) + [(0, 1), (193, 195)]:
        assert by_pairs([0, 195], e)


def test_set_checks_run_one_bfs_per_probe_root(monkeypatch):
    # 9 hangs below 4, and 5 and 27 below 17: a hanging probe's rows derive
    # from its root's, so a check runs one BFS per distinct root, once
    sources = []
    bfs = graph_module._bfs_with_counts

    def counting_bfs(g, source):
        sources.append(source)
        return bfs(g, source)

    monkeypatch.setattr(graph_module, "_bfs_with_counts", counting_bfs)
    checks = (is_meg_set, monitored_edges, witness_report, is_geodetic_set, is_edge_geodetic_set,
              is_dem_set, lambda g, s: simulate_failure(g, s, g.edges[0]))
    probes = [4, 17, 4, 9, 28, 5, 27]
    base, trees = oracles.base_by_stripping(random_connected(30, 40, 3))
    roots = {v for v in probes if v in base} | {r for r, tree in trees if tree & set(probes)}
    assert roots == {4, 17, 28}
    for check in checks:
        g = random_connected(30, 40, 3)
        sources.clear()
        check(g, probes)
        assert sorted(sources) == sorted(roots)
        check(g, probes)
        assert sorted(sources) == sorted(roots)


def _probe_sets(g, rng):
    yield []
    yield [rng.randrange(g.n)]
    yield list(range(g.n))
    yield [v for v in range(g.n) if g.degree(v) <= 1]
    for _ in range(4):
        yield rng.choices(range(g.n), k=rng.randint(1, g.n + 2))


def test_set_checks_match_a_plain_scan_over_member_rows():
    # tree edges are decided by side and core edges over the probes' roots;
    # the reference scans every member pair over rows straight from the BFS.
    # The simulator's pairs come from the same lister as the uncapped report.
    # On grids, hypercubes, cycles and multipartite graphs the DEM test drops
    # members from a core edge's scan, which the random corpora rarely do
    rng = random.Random(71)
    for g in (oracles.forest_corpus(15, 14, 71) + oracles.random_corpus(10, 10, 71)
              + [gen_grid(4, 5), gen_grid(3, 6), gen_hypercube(4), gen_cycle(7),
                 gen_multipartite([2, 3, 3])]):
        rows = [graph_module._bfs_with_counts(g.adj, x) for x in range(g.n)]
        D, C = [r[0] for r in rows], [r[1] for r in rows]
        for s in _probe_sets(g, rng):
            members = sorted(set(s))
            pairs = {e: list(monitoring._monitoring_pairs(D, C, e, members)) for e in g.edges}
            covered = {e for e in g.edges if pairs[e]}
            assert monitored_edges(g, s) == covered
            assert is_meg_set(g, s) == (len(covered) == g.m)
            for cap in range(1, 6):
                rep = witness_report(g, s, cap)
                assert rep.witnesses == {e: found[:cap] for e, found in pairs.items()}
                assert rep.uncovered == [e for e in g.edges if e not in covered]
            every = witness_report(g, s, 10**9).witnesses
            for e in g.edges:
                observed = [(o.x, o.y) for o in simulate_failure(g, s, e).observations]
                assert observed == every[e] == pairs[e]


def test_set_checks_check_every_probe_before_any_bfs(monkeypatch):
    def no_bfs(*args):
        raise AssertionError("a row was built before every probe was checked")

    g = random_connected(20, 24, 5)
    monkeypatch.setattr(graph_module, "_bfs_with_counts", no_bfs)
    checks = (is_meg_set, monitored_edges, witness_report, is_geodetic_set, is_edge_geodetic_set,
              is_dem_set, lambda g, s: witness_report(g, s, 0),
              lambda g, s: simulate_failure(g, s, g.edges[0]))
    for check in checks:
        with pytest.raises(GraphFormatError, match=r"vertex 20 outside \[0,20\)"):
            check(g, [0, 1, 20])
    for x, y in ((20, 0), (0, 20)):
        with pytest.raises(GraphFormatError, match=r"vertex 20 outside \[0,20\)"):
            pair_monitors_edge(g, x, y, g.edges[0])
    assert g._geodesy_rows == ([None] * 20, [None] * 20)


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_superset_closure(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    m = rng.randint(n - 1, n * (n - 1) // 2)
    g = random_connected(n, m, seed)
    s = set(minimum_meg(g).optimal_set)
    extra = [v for v in range(n) if v not in s]
    rng.shuffle(extra)
    t = s | set(extra[: rng.randint(0, len(extra))])
    assert is_meg_set(g, s) and is_meg_set(g, t)


def test_edge_endpoints_monitor_iff_unique_geodesic():
    for g in oracles.random_corpus(25, 9, 23):
        for (u, v) in g.edges:
            assert pair_monitors_edge(g, u, v, (u, v)) == (
                distance_without_edge(g, (u, v), u, v) > 1
            )


def test_simulate_nonempty_iff_monitored():
    rng = random.Random(5)
    for g in oracles.random_corpus(25, 9, 5):
        members = rng.sample(range(g.n), rng.randint(0, g.n))
        covered = monitored_edges(g, members)
        for e in g.edges:
            assert simulate_failure(g, members, e).detected == (e in covered)


def test_simulate_failure_matches_distance_oracle():
    # a tree and a unicyclic graph put bridges (new distance INFINITE) in
    rng = random.Random(47)
    corpus = oracles.random_corpus(25, 9, 47) + [random_tree(9, 47), random_unicyclic(9, 4, 47)]
    for g in corpus:
        probe_sets = (
            range(g.n),
            rng.choices(range(g.n), k=g.n),
            [rng.randrange(g.n)] * 2,
            [],
        )
        for s in probe_sets:
            for u, v in g.edges:
                for e in ((u, v), (v, u)):
                    rep = simulate_failure(g, s, e)
                    assert rep.failed_edge == (u, v)
                    got = [(o.x, o.y, o.old_distance, o.new_distance) for o in rep.observations]
                    assert got == oracles.detections_by_levels(g, s, e)


def test_simulate_runs_one_bfs_per_detecting_probe(monkeypatch):
    sources = []
    bfs = monitoring._bfs_with_counts

    def counting_bfs(adj, source):
        sources.append(source)
        return bfs(adj, source)

    monkeypatch.setattr(monitoring, "_bfs_with_counts", counting_bfs)
    assert not simulate_failure(gen_cycle(4), {0, 1, 2}, (0, 3)).detected
    assert sources == []
    # on P3 the pairs (0, 1) and (0, 2) detect (0, 1); both are headed by 0
    assert len(simulate_failure(gen_path(3), {0, 1, 2}, (0, 1)).observations) == 2
    assert sources == [0]


def test_vacuous_meg_on_edgeless_graph():
    # no edges to monitor: the empty set qualifies by convention
    single = build_graph(1, [])
    assert is_meg_set(single, set())
