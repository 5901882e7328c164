import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import megset
from megset import build_graph, gen_complete, gen_cycle, gen_grid, is_connected, minimum_meg
from megset.cli import RESULT_SCHEMAS, format_graph_text, main, parse_graph_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, RESULT_SCHEMAS[doc["command"]])
    return code, doc


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_graph_text(g))
    return str(path)


def assert_input_error(capsys, argv, message):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and message in err, (argv, err)


def test_parse_round_trip():
    g = gen_grid(3, 4)
    assert parse_graph_text(format_graph_text(g, "fixture")) == g


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges)


# any text: a comment with line breaks is written as several comment lines
COMMENTS = st.none() | st.text(max_size=20)


@given(small_graphs(), COMMENTS)
@settings(max_examples=200, deadline=None)
def test_parse_round_trip_random(g, comment):
    assert parse_graph_text(format_graph_text(g, comment)) == g


TOKENS = st.sampled_from(["0", "1", "2", "3", "7", "-1", "12", "10**9", "x", "#", "1.5", "0x1", ""])


@st.composite
def garbage(draw):
    rows = draw(st.lists(st.lists(TOKENS, max_size=4).map(" ".join) | st.text(max_size=8), max_size=8))
    if draw(st.booleans()):
        # a header that promises as many edges as there are rows, so the rows are parsed
        rows.insert(0, f"{draw(st.integers(-1, 12))} {len(rows)}")
    return "\n".join(rows)


def run_stdin(argv, text):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@given(garbage())
@settings(max_examples=300, deadline=None)
def test_garbage_stdin_exits_two_or_three(text):
    try:
        g = parse_graph_text(text)
    except ValueError:
        g = None
    assume(g is None or not is_connected(g))
    for argv in (["verify", "-", "--set", "0,1"], ["construct", "-", "--method", "fes"]):
        code, out, err = run_stdin(argv, text)
        assert code in (2, 3) and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_parse_errors():
    with pytest.raises(Exception):
        parse_graph_text("")
    with pytest.raises(Exception):
        parse_graph_text("2 1\n0 1\n0 1\n")  # header promises 1 edge
    with pytest.raises(Exception):
        parse_graph_text("not a header\n")


def test_verify_c4_exit_one(tmp_path, capsys):
    path = write_graph(tmp_path, gen_cycle(4))
    code, doc = run_json(capsys, "verify", path, "--set", "0,1,2")
    assert code == 1
    assert doc["result"]["is_meg"] is False
    assert [0, 3] in doc["result"]["uncovered"]


def test_verify_p3_exit_zero(tmp_path, capsys):
    path = write_graph(tmp_path, parse_graph_text("3 2\n0 1\n1 2\n"))
    code, doc = run_json(capsys, "verify", path, "--set", "0,2")
    assert code == 0 and doc["result"]["is_meg"] is True


def test_verify_c5_construction(tmp_path, capsys):
    path = write_graph(tmp_path, gen_cycle(5))
    code, doc = run_json(capsys, "verify", path, "--set", "0,1,3")
    assert code == 0 and doc["result"]["is_meg"] is True


def test_solve_k4(tmp_path, capsys):
    path = write_graph(tmp_path, gen_complete(4))
    code, doc = run_json(capsys, "solve", path)
    assert code == 0
    assert doc["result"]["meg_number"] == 4
    assert doc["result"]["forced"] == [0, 1, 2, 3]


def test_solve_matches_library_bit_for_bit(tmp_path, capsys):
    g = gen_grid(3, 3)
    path = write_graph(tmp_path, g)
    code, doc = run_json(capsys, "solve", path, "--all")
    res = minimum_meg(g)
    assert doc["result"]["optimal_set"] == sorted(res.optimal_set)
    assert doc["result"]["meg_number"] == res.meg_number
    boundary = sorted(set(range(9)) - {4})
    assert doc["result"]["all_optimal"] == [boundary]


def test_solve_c7(tmp_path, capsys):
    path = write_graph(tmp_path, gen_cycle(7))
    code, doc = run_json(capsys, "solve", path)
    assert doc["result"]["meg_number"] == 3


def test_solve_cap_exit(tmp_path, capsys):
    path = write_graph(tmp_path, gen_cycle(8))
    code, _ = run_cli(capsys, "solve", path, "--cap", "5")
    assert code == 4


def test_construct_class_tree(tmp_path, capsys):
    path = write_graph(tmp_path, parse_graph_text("4 3\n0 1\n0 2\n0 3\n"))
    code, doc = run_json(capsys, "construct", path, "--method", "class")
    assert code == 0
    assert doc["result"]["theorem"] == "TREE"
    assert doc["result"]["set"] == [1, 2, 3]


def test_construct_class_c4(tmp_path, capsys):
    path = write_graph(tmp_path, gen_cycle(4))
    code, doc = run_json(capsys, "construct", path, "--method", "class")
    assert doc["result"]["set"] == [0, 1, 2, 3]


def test_construct_fes_theta(tmp_path, capsys):
    theta = parse_graph_text("5 6\n0 2\n1 2\n0 3\n1 3\n0 4\n1 4\n")
    path = write_graph(tmp_path, theta)
    code, doc = run_json(capsys, "construct", path, "--method", "fes")
    assert code == 0
    assert doc["result"]["size"] <= 10
    assert doc["result"]["verified"] is True


def test_construct_unrecognized_exit_five(tmp_path, capsys):
    # a lopsided theta graph, and the null graph
    for i, text in enumerate(("6 7\n0 2\n1 2\n0 3\n1 3\n0 4\n4 5\n1 5\n", "0 0\n")):
        path = write_graph(tmp_path, parse_graph_text(text), f"g{i}.txt")
        code, _ = run_cli(capsys, "construct", path, "--method", "class")
        assert code == 5


def test_simulate_detected(tmp_path, capsys):
    path = write_graph(tmp_path, parse_graph_text("3 2\n0 1\n1 2\n"))
    code, doc = run_json(capsys, "simulate", path, "--set", "0,2", "--fail-edge", "0-1")
    assert code == 0
    assert doc["result"]["detected"] is True
    obs = doc["result"]["observations"][0]
    assert obs["pair"] == [0, 2]
    assert obs["old_distance"] == 2 and obs["new_distance"] is None


def test_simulate_undetected_exit_one(tmp_path, capsys):
    path = write_graph(tmp_path, gen_cycle(4))
    code, doc = run_json(capsys, "simulate", path, "--set", "0,1,2", "--fail-edge", "0,3")
    assert code == 1 and doc["result"]["detected"] is False


def test_simulate_missing_edge_exit_two(tmp_path, capsys):
    path = write_graph(tmp_path, gen_cycle(4))
    # a non-edge, and edges that do not parse
    for edge, message in (("0,2", "not an edge"), ("0", "bad edge"), ("a-b", "bad edge")):
        assert_input_error(capsys, ("simulate", path, "--set", "0,1", "--fail-edge", edge), message)


def test_generate_round_trip(capsys):
    for argv, n, m in [
        (("generate", "cycle", "7"), 7, 7),
        (("generate", "path", "6"), 6, 5),
        (("generate", "star", "4"), 5, 4),
        (("generate", "complete", "5"), 5, 10),
        (("generate", "hypercube", "3"), 8, 12),
        (("generate", "grid", "3", "4"), 12, 17),
        (("generate", "tightness", "2", "1"), 8, 9),
        (("generate", "multipartite", "2", "3"), 5, 6),
        (("generate", "tree", "9", "--seed", "4"), 9, 8),
        (("generate", "unicyclic", "9", "5", "--seed", "4"), 9, 9),
        (("generate", "connected", "10", "14", "--seed", "4"), 10, 14),
    ]:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        g = parse_graph_text(out)
        assert (g.n, g.m) == (n, m)


def test_generate_deterministic(capsys):
    _, out1 = run_cli(capsys, "generate", "tree", "12", "--seed", "9")
    _, out2 = run_cli(capsys, "generate", "tree", "12", "--seed", "9")
    assert out1 == out2


def test_generate_bad_params_exit_two(capsys):
    code, _ = run_cli(capsys, "generate", "cycle", "2")
    assert code == 2
    code, _ = run_cli(capsys, "generate", "grid", "3")
    assert code == 2
    assert_input_error(capsys, ("generate", "multipartite", "3"), "at least 2 part sizes")


def test_invariants_tree(tmp_path, capsys):
    path = write_graph(tmp_path, parse_graph_text("4 3\n0 1\n0 2\n0 3\n"))
    code, doc = run_json(capsys, "invariants", path)
    assert code == 0
    r = doc["result"]
    assert doc["input"]["fes"] == 0
    assert r["upper_bound"] == 3 and r["meg_number"] == 3


def test_invariants_c6_pendant(tmp_path, capsys):
    g = parse_graph_text("7 7\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n0 6\n")
    path = write_graph(tmp_path, g)
    code, doc = run_json(capsys, "invariants", path)
    r = doc["result"]
    assert doc["input"]["fes"] == 1
    assert r["upper_bound"] == 5 and r["meg_number"] == 3


def test_invariants_null_graph(tmp_path, capsys):
    path = write_graph(tmp_path, parse_graph_text("0 0\n"))
    code, doc = run_json(capsys, "invariants", path)
    assert code == 0
    assert doc["input"]["fes"] == 0
    assert doc["result"] == {"forced_count": 0, "upper_bound": 0, "meg_number": None}


def test_invariants_theta(tmp_path, capsys):
    theta = parse_graph_text("5 6\n0 2\n1 2\n0 3\n1 3\n0 4\n1 4\n")
    path = write_graph(tmp_path, theta)
    code, doc = run_json(capsys, "invariants", path)
    r = doc["result"]
    assert r["upper_bound"] == 10
    assert r["meg_number"] == minimum_meg(theta).meg_number


def test_disconnected_exit_three(tmp_path, capsys):
    # too few edges for the header's n, and enough edges but two components
    for i, text in enumerate(("4 2\n0 1\n2 3\n", "5 4\n0 1\n1 2\n0 2\n3 4\n")):
        path = write_graph(tmp_path, parse_graph_text(text), f"g{i}.txt")
        for argv in (
            ("verify", path, "--set", "0,1"),
            # the graph is read before the command's own arguments are parsed
            ("verify", path, "--set", "a"),
            ("simulate", path, "--set", "a", "--fail-edge", "x"),
            ("solve", path),
            ("invariants", path),
            ("construct", path, "--method", "fes"),
            ("construct", path, "--method", "class"),
            ("simulate", path, "--set", "0,1", "--fail-edge", "0,1"),
        ):
            code, _ = run_cli(capsys, *argv)
            assert code == 3


def test_header_too_large_rejected_before_building(tmp_path, capsys, monkeypatch):
    # 10**12 vertices cannot be connected by 2 edges: exit 3 without allocating
    def no_build(*args, **kwargs):
        raise AssertionError("build_graph ran")

    monkeypatch.setattr("megset.cli.build_graph", no_build)
    path = tmp_path / "huge.txt"
    path.write_text("1000000000000 2\n0 1\n1 2\n")
    for argv in (("solve", str(path)), ("verify", str(path), "--set", "0,2")):
        code, _ = run_cli(capsys, *argv)
        assert code == 3


def test_parse_garbage_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 zebra\n")
    c5 = write_graph(tmp_path, gen_cycle(5))
    for argv, message in (
        (("solve", str(path)), "bad header"),
        (("solve", str(tmp_path / "missing.txt")), "cannot read"),
        # bad arguments on a valid graph are input errors too
        (("verify", c5, "--set", "0,99"), "outside"),
        (("verify", c5, "--set", "0,x"), "bad vertex list"),
        (("verify", c5, "--set", "0,1,3", "--max-witnesses", "0"), "must be positive"),
    ):
        assert_input_error(capsys, argv, message)


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(format_graph_text(gen_cycle(5))))
    code, doc = run_json(capsys, "solve", "-")
    assert code == 0 and doc["result"]["meg_number"] == 3


def test_quiet_headlines(tmp_path, capsys):
    path = write_graph(tmp_path, gen_complete(4))
    code, out = run_cli(capsys, "solve", path, "--quiet")
    assert out.strip() == "4"
    code, out = run_cli(capsys, "verify", path, "--set", "0,1,2,3", "--quiet")
    assert out.strip() == "true"


def test_generate_pipes_into_solve():
    # the module entry point, reading the graph from stdin
    path = [str(Path(megset.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def cli(*argv, stdin=None):
        run = subprocess.run([sys.executable, "-m", "megset.cli", *argv], input=stdin,
                             env=env, capture_output=True, text=True)
        return run.returncode, run.stdout

    code, graph = cli("generate", "grid", "3", "4")
    assert code == 0
    assert cli("solve", "-", "--quiet", stdin=graph) == (0, "10\n")


def json_objects(value):
    """Every dict in a JSON value, outermost first."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from json_objects(item)
    elif isinstance(value, list):
        for item in value:
            yield from json_objects(item)


def test_result_schemas_are_closed():
    objects = [
        node
        for schema in RESULT_SCHEMAS.values()
        for node in json_objects(schema)
        if node.get("type") == "object"
    ]
    assert len(objects) == 5 * 3 + 2  # document, input and result, plus two item objects
    for node in objects:
        assert node["additionalProperties"] is False
        assert set(node["required"]) <= set(node["properties"])


@pytest.mark.parametrize("argv", [
    ("verify", "c4", "--set", "0,1,2"),
    ("solve", "c4", "--all"),
    ("construct", "c4", "--method", "class"),
    ("construct", "c4", "--method", "fes"),
    ("simulate", "p3", "--set", "0,2", "--fail-edge", "0-1"),
    ("invariants", "c4"),
])
def test_unknown_key_fails_validation_at_every_level(tmp_path, capsys, argv):
    graphs = {"c4": gen_cycle(4), "p3": parse_graph_text("3 2\n0 1\n1 2\n")}
    command, graph, *rest = argv
    _, doc = run_json(capsys, command, write_graph(tmp_path, graphs[graph]), *rest)
    levels = len(list(json_objects(doc)))
    # the document, its input and result blocks, and any witness or observation
    assert levels >= 3 + (command in ("verify", "simulate"))
    for i in range(levels):
        bad = copy.deepcopy(doc)
        list(json_objects(bad))[i]["unexpected"] = 0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, RESULT_SCHEMAS[command])
