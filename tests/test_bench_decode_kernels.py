"""The committed record of the former burst-decode bench,
`bench/BENCH_decode_kernels.json`. Its cases now run in `bench/layers.py`."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = {"solve n=16", "solve n=48", "solve n=128", "window products", "burst decode"}


def test_committed_result_is_a_full_run():
    doc = json.loads((ROOT / "bench" / "BENCH_decode_kernels.json").read_text())
    assert doc["quick"] is False
    assert {row["case"] for row in doc["results"]} == CASES
