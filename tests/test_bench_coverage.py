"""Smoke test of the coverage record, `bench/coverage.py`."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "coverage.py"
MODULES = sorted(path.name for path in (ROOT / "src" / "streamfec").glob("*.py"))


def check_record(doc):
    assert list(doc["modules"]) == MODULES
    for m in doc["modules"].values():
        assert m["missed"] == sorted(set(m["missed"])) and len(m["missed"]) <= m["executable"]
    assert doc["executable"] == sum(m["executable"] for m in doc["modules"].values())
    assert doc["missed"] == sum(len(m["missed"]) for m in doc["modules"].values())
    assert doc["wall_s"] > 0


def test_run_on_one_test_file(tmp_path):
    out = tmp_path / "coverage.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "tests/test_model.py", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert json.loads(out.read_text()) == doc
    assert doc["paths"] == ["tests/test_model.py"] and doc["pytest_status"] == 0
    check_record(doc)
    # test_model.py never reaches the command line
    cli = doc["modules"]["cli.py"]
    assert cli["missed"] and len(cli["missed"]) == cli["executable"]
    assert 0 < doc["missed"] < doc["executable"]


def test_committed_record_is_a_full_run():
    # the run that wrote it ran this test on the record before it, so the
    # run's own pytest status is not asserted here
    doc = json.loads((ROOT / "bench" / "BENCH_coverage.json").read_text())
    assert doc["paths"] == ["tests"]
    check_record(doc)
