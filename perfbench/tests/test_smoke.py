"""Smoke tests of the benchmark at toy size (n=200, a 2-sweep budget).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 300


def _run(cwd, *args):
    command = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_prints_the_declared_metrics(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}


def test_without_the_library_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                "--seconds", "1", "--trace", "0", "--toy")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
