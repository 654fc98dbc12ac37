#!/usr/bin/env python3
"""Code lines of each streamfec module, and their total.

    python3 bench/code_lines.py          # the modules in src/streamfec
    python3 bench/code_lines.py DIR      # the modules in DIR, e.g. another
                                         # checkout's src/streamfec

A code line holds at least one token that is not a comment, and is not part
of a docstring: the string statement that opens a module, class or function,
found from the AST. Blank lines, comment lines and docstring lines do not
count; a statement split over several lines counts each of them. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "streamfec"

# tokens that mark no code on their line
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the Python source `text`."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def count(root: Path) -> dict[str, int]:
    """Code lines of each module directly in `root`, by file name."""
    return {path.name: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", type=Path, nargs="?", default=SRC,
                    help="directory of the modules (default: src/streamfec)")
    args = ap.parse_args(argv)
    modules = count(args.root)
    if not modules:
        raise SystemExit(f"error: no modules in {args.root}")
    total = sum(modules.values())
    for name, n in modules.items():
        print(f"{name:16s} {n:6d}")
    print(f"{'total':16s} {total:6d}")
    print(json.dumps({"bench": "code_lines", "root": str(args.root), "modules": modules,
                      "total": total}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
