"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Run from the repository root.  For every workload it runs the untraced and
the traced mode once (and the traced mode a second time), then checks the
result line against ``BENCHMARK.json``, the output digests between the two
modes, and that the computed counts repeat exactly.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Units of values that depend on timing or thread scheduling; the rest are counts.
TIMED_UNITS = {"s", "frac", "GFLOP/s"}
SCHEDULED = {"cli.worker_threads"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    detail0, result0 = parse(run(workload, 0))
    check_result(result0, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result0["metrics"].values())

    detail1, result1 = parse(run(workload, 1))
    check_result(result1, SPEC["per_layer"])
    assert detail0["digests"] and detail0["digests"] == detail1["digests"] == detail1["traced_digests"]

    _, again = parse(run(workload, 1))
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] not in TIMED_UNITS and m["name"] not in SCHEDULED]
    assert {k: result1["metrics"][k] for k in counts} == {k: again["metrics"][k] for k in counts}


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
