"""The start-up cases of `bench/layers.py` (table build and layout), timed
on two trees, and the committed record of the former start-up bench,
`bench/BENCH_startup.json`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = {"GF(8)", "GF(12)", "GF(16)", "packet_layout"}


def test_quick_run_times_every_case_on_both_sides(tmp_path):
    shutil.copytree(ROOT / "src" / "streamfec", tmp_path / "streamfec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "bench/layers.py", "--quick", "--out", str(out), "--base", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    rows = {row["case"]: row for row in doc["results"]}
    for case in ("field 2^16", "packet_layout"):
        assert list(rows[case]["ms"]) == ["base", "src"]
        assert all(ms > 0 for ms in rows[case]["ms"].values()) and rows[case]["ratio"] > 0


def test_committed_result_is_a_full_run():
    doc = json.loads((ROOT / "bench" / "BENCH_startup.json").read_text())
    assert doc["quick"] is False
    assert {row["case"] for row in doc["results"]} == CASES
