"""Smoke tests of the benchmark itself: tiny runs of every workload.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs for a fraction of a second in both modes; the test
checks that every metric BENCHMARK.json names is emitted with its unit,
that no answer was wrong, and that the traced run's counters repeat.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines[-2]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    details = json.loads(lines[-2])["details"]
    for key in ("python", "nproc", "platform", "fail_ratio"):
        assert key in details
    if trace:
        assert "trace.overhead_ratio" in result["metrics"]
    else:
        assert 0 < details["tail_percentile"] <= 100


@pytest.mark.parametrize("workload", ["solve_search", "plan_large"])
def test_traced_counters_repeat(workload):
    runs = [_run(workload, 1) for _ in range(2)]
    counts = [{k: v["value"] for k, v in json.loads(r.stdout.splitlines()[-1])["metrics"].items()
               if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seeded_closed_forms_match_the_library():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import megset as M
    import workloads as W

    forms = {"grid": lambda a, b: M.meg_grid(a, b), "hypercube": M.meg_hypercube,
             "multipartite": lambda *p: M.meg_multipartite(list(p))}
    for family, params in W.SEEDED_SHAPES:
        want = W.seeded_meg_number(family, params)
        if family == "tightness":
            g = M.gen_tightness_family(*params)
            assert M.minimum_meg(g, cap=g.n).meg_number == want
        else:
            assert forms[family](*params).meg_number == want
