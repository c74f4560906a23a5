"""The README's Library example runs as printed, the root package
exports exactly the names that section uses or lists, and the sweep
config example runs."""

import importlib
import inspect
import io
from contextlib import redirect_stdout
from pathlib import Path

import techknee as tk
from techknee.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_section() -> str:
    return section("Library")


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
    assert len(tk.__all__) == len(exported) == 11
    for name in tk.__all__:
        value = getattr(tk, name)
        module = importlib.import_module(value.__module__)
        assert getattr(module, name) is value
    public = {name for name, value in vars(tk).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == exported


def test_sweep_config_example_runs(tmp_path):
    config = section("Scenario sweeps").split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "sweep.json").write_text(config)
    # The series the example declares, resolved beside the config.
    (tmp_path / "drive.csv").write_text("year,value\n" + "".join(f"{year},0.9\n" for year in range(1983, 2016)))
    with redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "results.csv").read_text().splitlines()) == 1 + 2 * 2 * 3 * 2 * 2
