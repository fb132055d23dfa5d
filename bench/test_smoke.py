"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that every output check of every workload runs, and that the benchmark
refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def workloads():
    run.load_package()
    import workloads

    return workloads


def test_workload_names_match_spec(workloads):
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_and_checks(workloads, name, trace):
    r = run.measure(name, 3, 0.01, bool(trace), workloads.TINY, 0.0)
    line = r["line"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(line["metrics"][m["name"]]["value"], (int, float))
    assert set(r["checks"]) >= set(workloads.WORKLOADS[name].CHECKS)
    assert line["attempted"] == sum(att for att, _, _ in r["checks"].values()) >= 1
    assert line["failed"] == sum(fail for _, fail, _ in r["checks"].values()) == 0
    assert line["correct"]
    assert json.loads(json.dumps(line)) == line
    if trace:
        assert r["spans"] and all(s[2] >= s[1] for s in r["spans"])


def test_refuses_without_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_poly", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
