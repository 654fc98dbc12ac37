"""The README's library example runs as written, and the package exports
exactly the names it imports from `streamfec`."""

import re
from pathlib import Path

import streamfec

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(streamfec.__file__).resolve().parent


def example_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(compile(example_code(), str(README), "exec"), {})


def test_package_exports_the_names_the_example_imports():
    names = re.search(r"from streamfec import \((.*?)\)", example_code(), re.S).group(1)
    assert sorted(n.strip() for n in names.split(",") if n.strip()) == sorted(streamfec.__all__)


def test_every_library_module_is_a_package_attribute():
    # `import streamfec` then `streamfec.oracle` works for each of them;
    # the command line (`cli`, `__main__`) is loaded only when run
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__", "cli"}
    assert modules and all(hasattr(streamfec, name) for name in modules)
