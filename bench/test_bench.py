"""Smoke check of the benchmark at toy size.

    python3 -m pytest bench/test_bench.py

Every workload runs untraced and traced on desk-size inputs; the test checks
that each metric is printed by name with its unit, that every reference
check passed, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, kappa_count_brute, kappa_count_path, path_edges  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed(table: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and unit in line.split() for line in table)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_metric(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], "\n".join(table)
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in {**END_TO_END, "fail_rate": "ratio"}.items():
        assert printed(table, name, unit), name
    if workload == "scale-qf":
        assert any(line.startswith("reach") for line in table)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"], "\n".join(table)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == PER_LAYER
    for name, unit in PER_LAYER.items():
        assert printed(table, name, unit), name
    for name in ("serialize.load_s", "states.reachable_s", "sdd.mapping_s", "obdd.reduce_s"):
        assert result["metrics"][name]["value"] > 0, name
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed7-trace1.json").read_text())
    assert record["spans"] and all(len(span) == 5 for span in record["spans"][0])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("scale-qf", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("n", range(2, 9))
def test_path_kappa_references_agree(n):
    assert kappa_count_path(n) == kappa_count_brute(n, path_edges(n))
