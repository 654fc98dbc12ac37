"""Smoke test of the burst-decode layer bench, `bench/decode_kernels.py --quick`."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = {"solve n=16", "solve n=48", "solve n=128", "window products", "burst decode"}


def test_quick_run_times_every_case_on_both_sides(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "bench/decode_kernels.py", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert json.loads(out.read_text()) == doc
    assert doc["quick"] is True
    assert {row["case"] for row in doc["results"]} == CASES
    for row in doc["results"]:
        assert row["before_ms"] > 0 and row["after_ms"] > 0 and row["after_over_before"] > 0


def test_committed_result_is_a_full_run():
    doc = json.loads((ROOT / "bench" / "BENCH_decode_kernels.json").read_text())
    assert doc["quick"] is False
    assert {row["case"] for row in doc["results"]} == CASES
