#!/usr/bin/env python3
"""Line coverage of streamfec under its tests, taken with sys.settrace.

    python3 bench/coverage.py                       # tests/; writes bench/BENCH_coverage.json
    python3 bench/coverage.py tests/test_model.py --out cov.json

Runs pytest in this process on the given paths (default `tests`), with a
trace function that records every line run in a module of src/streamfec.
A line is executable when the compiled module's code objects map some
bytecode to it (`dis.findlinestarts`, as the stdlib `trace` module counts);
docstrings, comments and blank lines are not. The result lists, for each
module, its executable lines that never ran, then the totals and the wall
time of the traced run. Code run in a subprocess is not traced, and
tracing makes the run several times slower. The last line of standard
output is the JSON result; the exit status is pytest's.
"""

from __future__ import annotations

import argparse
import dis
import json
import platform
import sys
import time
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "streamfec"
OUT = ROOT / "bench" / "BENCH_coverage.json"


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from `path` starts."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # 0: RESUME
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]], float]:
    """Run pytest under the tracer: (exit status, lines run by file, wall s)."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    start = time.perf_counter()
    sys.settrace(global_trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(status), ran, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="*", default=["tests"],
                    help="test files or directories to run (default: tests)")
    ap.add_argument("--out", type=Path, default=OUT,
                    help="where to write the JSON record (default: bench/BENCH_coverage.json)")
    args = ap.parse_args(argv)
    # the tests import streamfec from src/ once the tracer runs, so its
    # module-level lines are traced too
    sys.path.insert(0, str(PACKAGE.parent))
    status, ran, wall_s = traced_run([*args.paths, "-q", "-p", "no:cacheprovider"])
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        modules[path.name] = {"executable": len(lines), "missed": missed}
    doc = {
        "bench": "coverage",
        "paths": args.paths,
        "pytest_status": status,
        "python": platform.python_version(),
        "wall_s": round(wall_s, 2),
        "modules": modules,
        "executable": sum(m["executable"] for m in modules.values()),
        "missed": sum(len(m["missed"]) for m in modules.values()),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, m in modules.items():
        print(f"{name:16s} {len(m['missed']):4d} of {m['executable']:4d} missed: {m['missed']}")
    print(f"{'total':16s} {doc['missed']:4d} of {doc['executable']:4d}, {doc['wall_s']} s")
    print(json.dumps(doc))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
