"""The field-table cases of `bench/layers.py` (list against array("H")
tables), and the committed record `bench/BENCH_gf_tables.json` that
`gf.COMPACT_TABLES_FROM_DEGREE` cites."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_run_times_every_kernel_on_both_containers(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "bench/layers.py", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    rows = [row for row in doc["results"] if row["case"].startswith("tables")]
    assert [row["case"] for row in rows] == ["tables 2^13", "tables 2^14", "tables 2^16"]
    for row in rows:
        assert list(row["ms"]) == ["list", "array"] and all(ms > 0 for ms in row["ms"].values())
        assert row["ratio"] > 0


def test_committed_result_is_a_full_run():
    doc = json.loads((ROOT / "bench" / "BENCH_gf_tables.json").read_text())
    assert doc["quick"] is False and len(doc["results"]) == 15
