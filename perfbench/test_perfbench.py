"""Tests of the benchmark itself, on its tiny sizes.

    python3 -m pytest perfbench -q

Each test runs the benchmark as a subprocess from the checkout root, the
way it is meant to be run, and reads the JSON result on its last line.
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


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def result(workload: str, trace: int, seed: int = 3) -> dict:
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_declared_metric_with_its_unit(workload, trace, section):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_repeat_exactly_for_the_same_seed(workload):
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")]
    first, second = result(workload, 1), result(workload, 1)
    assert first["attempted"] == second["attempted"]
    assert {k: first["metrics"][k]["value"] for k in exact} == {
        k: second["metrics"][k]["value"] for k in exact
    }


def test_other_seed_gives_other_inputs():
    counts = [result("linear-diagonal", 1, seed)["metrics"]["gf.mul.calls"]["value"] for seed in (3, 4)]
    assert counts[0] != counts[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
