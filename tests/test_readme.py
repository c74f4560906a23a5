"""The README's Library example runs as printed, and the root package
exports exactly the names that section uses or lists."""

import inspect
from pathlib import Path

import techknee as tk

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_prints_its_years():
    block = library_section().split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    printed = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment.strip().isdigit():
            value = eval(code, namespace)
            assert value == int(comment)
            printed.append(value)
        else:
            exec(line, namespace)
    assert printed == [1998, 1999]


def test_root_exports_are_the_documented_ones():
    section = library_section()
    exported = {name for name, value in vars(tk).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    documented = {name for name in exported if f"tk.{name}" in section or f"`{name}`" in section}
    assert exported == documented
