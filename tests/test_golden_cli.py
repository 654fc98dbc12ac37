"""The README's five command line examples, pinned byte for byte.

Each example's exit code is listed here; its stdout and stderr are kept in
`tests/golden/<name>.stdout` and `tests/golden/<name>.stderr` and compared
as bytes (the CSV writer ends rows with CRLF). After a deliberate change to
the output, rewrite the files with `PYTHONPATH=src python
tests/test_golden_cli.py` and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from streamfec.cli import main

GOLDEN = Path(__file__).parent / "golden"

EXAMPLES = {
    "encode": ("encode --codec vgms --tau 4 --b 2 --sizes 3,2,1,2,1", 0),
    "simulate": ("simulate --codec vgms --tau 4 --b 2 --sizes 3,2,1,2,1 --pattern 2,3", 0),
    "verify": ("verify --codec vgms --tau 4 --b 2 --t 11 --seeds 20 --enumerate full", 0),
    "gap": ("gap --lemma conv1 --tau 5 --b 2 --d 2", 0),
    "sweep": ("sweep --tau-max 4 --seeds 5", 0),
}


def run_example(command: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_matches_golden(name):
    command, want_code = EXAMPLES[name]
    code, out, err = run_example(command)
    assert code == want_code
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert err.encode() == (GOLDEN / f"{name}.stderr").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (command, _) in EXAMPLES.items():
        _, out, err = run_example(command)
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode())
        (GOLDEN / f"{name}.stderr").write_bytes(err.encode())
