"""Tests of the benchmark itself.  They take a few minutes, so the repository's
test run does not collect them; run them with

    python3 -m pytest perfbench/selftest.py
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
WORKLOADS = ("sweep", "replay", "queries")
#: Per-layer metrics that are counts of work or outcomes, not times.
COUNT_UNITS = ("count", "checks/point")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("perturb", ("expected", "digest"))
def test_gate_rejects_a_perturbed_expectation(workload, perturb):
    code, result = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0", "--perturb", perturb)
    assert code == 1
    assert result["correct"] is False
    assert (result["failed"] >= 1) == (perturb == "expected")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_at_a_fixed_seed(workload):
    runs = [bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
            for _ in range(2)]
    counts = []
    for code, result in runs:
        assert code == 0 and result["correct"] is True
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if m["unit"] in COUNT_UNITS or name == "manipulation.leaf_yield"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, result = bench("--workload", "replay", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert code != 0 and result is None
