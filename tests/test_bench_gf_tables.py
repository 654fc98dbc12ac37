"""Smoke test of the field-table layer bench, `bench/gf_tables.py --quick`."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_run_times_every_kernel_on_both_containers(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "bench/gf_tables.py", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert json.loads(out.read_text()) == doc
    assert doc["quick"] is True
    cells = {(row["degree"], row["kernel"]) for row in doc["results"]}
    assert cells == {(d, k) for d in (8, 12, 13, 14, 16) for k in ("mul", "combine", "solve")}
    for row in doc["results"]:
        assert row["list_us"] > 0 and row["array_us"] > 0 and row["array_over_list"] > 0


def test_committed_result_is_a_full_run():
    doc = json.loads((ROOT / "bench" / "BENCH_gf_tables.json").read_text())
    assert doc["quick"] is False and len(doc["results"]) == 15
