"""Smoke test of the layer bench, `bench/layers.py`."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from streamfec import cauchy

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "layers.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("layers_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CASES = list(load_bench().CASES)


def run_quick(tmp_path, *args):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert json.loads(out.read_text()) == doc
    assert doc["quick"] is True
    assert [row["case"] for row in doc["results"]] == CASES
    return doc


def test_quick_run_times_every_case(tmp_path):
    for row in run_quick(tmp_path)["results"]:
        sides = ["list", "array"] if row["case"].startswith("tables") else ["src"]
        assert list(row["ms"]) == sides and all(ms > 0 for ms in row["ms"].values())


def test_quick_run_against_a_base_tree_runs_every_case_on_both_sides(tmp_path):
    # a mismatch of the two sides' outputs would exit 1
    shutil.copytree(ROOT / "src" / "streamfec", tmp_path / "streamfec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    doc = run_quick(tmp_path, "--base", str(tmp_path))
    assert doc["base"] == str(tmp_path)
    for row in doc["results"]:
        sides = ["list", "array"] if row["case"].startswith("tables") else ["base", "src"]
        assert list(row["ms"]) == sides and row["ratio"] > 0


def test_cases_a_base_tree_cannot_run_are_skipped():
    bench = load_bench()
    src = SimpleNamespace(cauchy=cauchy)

    class OldMatrix:
        def combine(self, pairs, cols): ...

    base = SimpleNamespace(cauchy=SimpleNamespace(CauchyMatrix=OldMatrix))
    combine = ("cauchy.CauchyMatrix.combine",)
    assert bench.skip_reason(combine, src, src) is None
    assert bench.skip_reason(combine, src, base) == (
        "cauchy.CauchyMatrix.combine takes (self, pairs, cols) in base, (self, terms, cols) in src"
    )
    assert bench.skip_reason(("cauchy.build_cauchy",), src, base) == "base has no cauchy.build_cauchy"


def test_committed_result_is_a_full_run():
    doc = json.loads((ROOT / "bench" / "BENCH_layers.json").read_text())
    assert doc["quick"] is False
    assert [row["case"] for row in doc["results"]] == CASES
