"""Smoke test of the start-up layer bench, `bench/startup.py --quick`."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = {"GF(8)", "GF(12)", "GF(16)", "packet_layout"}


def test_quick_run_times_every_case_on_both_sides(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "bench/startup.py", "--quick", "--out", str(out)],
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
    doc = json.loads((ROOT / "bench" / "BENCH_startup.json").read_text())
    assert doc["quick"] is False
    assert {row["case"] for row in doc["results"]} == CASES
