"""Smoke test of the code-line count, `bench/code_lines.py`."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "code_lines.py"


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_every_module_and_their_sum():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    modules = sorted(path.name for path in (ROOT / "src" / "streamfec").glob("*.py"))
    assert list(doc["modules"]) == modules
    assert all(n > 0 for n in doc["modules"].values())
    assert doc["total"] == sum(doc["modules"].values())


def test_counts_no_blank_comment_or_docstring_line():
    source = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line
class A:
    """Class docstring."""

    x = (
        1,
    )

    def f(self):
        """Function docstring."""
        return "a string that is no docstring"
'''
    # import, class, the three lines of x, def and return
    assert load_script().code_lines(source) == 7
