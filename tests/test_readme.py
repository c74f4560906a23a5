"""The README's Library example runs as printed, and the root package
exports exactly the names that section uses or lists."""

import importlib
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
    # The root binds its exports on first use, so `vars(tk)` cannot list
    # them; `__all__` does, and each name must resolve.
    section = library_section()
    exported = set(tk.__all__)
    documented = {name for name in exported if f"tk.{name}" in section or f"`{name}`" in section}
    assert exported == documented
    assert len(tk.__all__) == len(exported) == 12
    for name in tk.__all__:
        value = getattr(tk, name)
        module = importlib.import_module(value.__module__)
        assert getattr(module, name) is value
    public = {name for name, value in vars(tk).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == exported
