"""Source hygiene of the `techknee` package, checked on its syntax tree."""

import ast
import builtins
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "techknee"


def module_imports(tree: ast.Module):
    """(bound name, line) of each import run when the module loads: those
    in its body and in the `if`/`try` blocks there, not in functions."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            pending.extend(ast.iter_child_nodes(node))


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)  # a forward reference, such as -> "SweepConfig"
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in module_imports(tree) if name not in used]
    assert unused == []


# Each module's public names, the ones its callers may import: module-level
# `def`s, classes and assignments whose names do not start with "_". A type
# stays public when a public function takes or returns it. Adding or
# removing a public name means updating this table.
PUBLIC_NAMES = {
    "__init__.py": set(),
    "adoption.py": {"AnalogStorage", "DigitalStorage", "PhysicalMediaSpec", "UsageMetric", "adoption_share",
                    "analog_media_minutes", "digital_media_minutes", "extend_compression",
                    "internet_media_minutes", "internet_media_raw_bits", "physical_media_raw_bits",
                    "protocol_mix"},
    "cli.py": {"app", "main"},
    "costs.py": {"MAIL_TARGETS", "MediaSpec", "REFERENCE_BIT_RATES", "REFERENCE_MEDIA",
                 "internet_distribution_perf", "mail_distribution_perf", "one_minute_size_bits"},
    "datasets.py": {"DATASET_IDS", "Datasets", "data_dir", "export_bundled", "load_all"},
    "fitting.py": {"CrossoverResult", "ExpFit", "crossover_empirical", "crossover_fitted",
                   "fit_exponential", "knee", "tir"},
    "plots.py": {"write_case_svg", "write_tidy_csv"},
    "series.py": {"AnnualSeries", "RateSchedule", "UNIT_TAGS", "align", "annualize", "parse_series_csv"},
    "sweep.py": {"Cell", "Detection", "FitDiagnostics", "RangeCheck", "ReproductionReport", "Scenario",
                 "SweepConfig", "SweepResult", "adoption_series",
                 "enumerate_scenarios", "extend_datasets", "feasibility_range", "parse_scenario_id",
                 "replacement_performance", "reproduce_case_studies", "run_scenario", "run_sweep",
                 "sweep_tables", "target_performance"},
}


def public_names(tree: ast.Module) -> set[str]:
    """The module's public names. `TYPE_CHECKING`, the flag type checkers
    set, is not one."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_") and name != "TYPE_CHECKING"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_public_names_are_the_pinned_ones(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert public_names(tree) == PUBLIC_NAMES.get(path.name)


def test_every_module_is_pinned():
    assert sorted(path.name for path in PACKAGE.glob("*.py")) == sorted(PUBLIC_NAMES)


def is_bare_namedtuple_subclass(node: ast.ClassDef) -> bool:
    """A class whose only base is a `namedtuple(...)` call and whose body is
    only a docstring and `__slots__ = ()`: the named tuple itself, with a
    second class around it."""
    base = node.bases[0] if len(node.bases) == 1 else None
    if not (isinstance(base, ast.Call) and ast.unparse(base.func) == "namedtuple"):
        return False
    return all((isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant))
               or ast.unparse(statement) == "__slots__ = ()" for statement in node.body)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_a_record_without_behaviour_is_its_namedtuple(path):
    # A named tuple's class already has empty slots; its docstring is set
    # as `Record.__doc__ = ...`.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    wrapped = [f"{path.name}:{node.lineno}: {node.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and is_bare_namedtuple_subclass(node)]
    assert wrapped == []


def names_an_exception(base: ast.expr) -> bool:
    """A base class that is a builtin exception, or named as one is: a
    name ending in `Error` or `Exception`."""
    name = ast.unparse(base).split(".")[-1]
    builtin = getattr(builtins, name, None)
    return name.endswith(("Error", "Exception")) or (isinstance(builtin, type) and issubclass(builtin, BaseException))


# A refusal is a ValueError whose message names its input, so a caller
# needs one `except`; the package defines no exception class of its own.
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_defines_an_exception_class(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = [f"{path.name}:{node.lineno}: {node.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and any(map(names_an_exception, node.bases))]
    assert defined == []
