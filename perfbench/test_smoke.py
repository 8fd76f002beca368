"""Smoke test of the benchmark at a tiny size (one-second runs).

    python3 -m pytest perfbench/test_smoke.py -q

Every workload must emit every metric that ``BENCHMARK.json`` names, with its
unit, and no op may fail on a correct commit.
"""

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


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(
                ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--results", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            runs[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, runs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_and_no_op_fails(results, workload, trace):
    result = results[1][workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_compare_accepts_identical_sets(results):
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(results[0]), str(results[0])],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "worse" not in proc.stdout and "digests differ" not in proc.stdout


def test_no_gain_counts_when_the_change_fails_more_ops():
    sys.path.insert(0, str(HERE))
    from compare import verdict

    parent, change = [10.0 + 0.1 * k for k in range(10)], [5.0 + 0.1 * k for k in range(10)]
    pairs = list(zip(parent, change))
    assert verdict(parent, change, pairs, "lower", 0.25)[0] == "improved"
    assert verdict(parent, change, pairs, "lower", 0.25, more_failures=True)[0] != "improved"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
