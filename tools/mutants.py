"""Mutation run over techknee's modules, by hand and outside the test suite:

    python3 tools/mutants.py src/techknee/costs.py src/techknee/adoption.py

Each mutant changes one site of one module: it swaps one comparison or
arithmetic operator, or nudges one numeric constant (an int +1, a float
x1.01, 0.0 to 1e-9). The tier-1 suite runs with -x against each mutant, in
two copies of the repository, one pytest process each. A mutant whose run
passes survives and is printed as `<file>:<line>: <old> -> <new>`.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.Pow: ast.Mult}


def sites(tree: ast.AST):
    """(node, field, index, replacement) of each one-site change, in walk order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            yield from ((node, "ops", i, SWAPS[type(op)]()) for i, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            yield node, "op", None, SWAPS[type(node.op)]()
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            value = node.value
            yield node, "value", None, value + 1 if type(value) is int else value * 1.01 if value else 1e-9


def mutants(path: Path):
    """(where, path, mutated source) of each mutant of one module."""
    source = path.read_text(encoding="utf-8")
    for i in range(sum(1 for _ in sites(ast.parse(source)))):
        tree = ast.parse(source)
        node, field, index, new = list(sites(tree))[i]
        if index is None:
            old = getattr(node, field)
            setattr(node, field, new)
        else:
            old, node.ops[index] = node.ops[index], new
        show = [x if isinstance(x, (int, float)) else type(x).__name__ for x in (old, new)]
        yield f"{path.relative_to(ROOT)}:{node.lineno}: {show[0]} -> {show[1]}", path, ast.unparse(tree)


def passes(copy: Path) -> bool:
    # No bytecode is written, so a mutant of the same size and mtime second
    # as the module it replaces is never read from a stale cache.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=600).returncode == 0
    except subprocess.TimeoutExpired:  # a mutant that loops forever is killed
        return False


def survivors(copy: Path, batch: list) -> list[str]:
    found = []
    for where, path, text in batch:
        target = copy / path.relative_to(ROOT)
        original = target.read_text(encoding="utf-8")
        target.write_text(text, encoding="utf-8")
        try:
            if passes(copy):
                found.append(where)
                print(f"survived {where}", flush=True)
        finally:
            target.write_text(original, encoding="utf-8")
    return found


def main(paths: list[str]) -> None:
    everything = [m for p in paths for m in mutants(Path(p).resolve())]
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".bench_work")
    with tempfile.TemporaryDirectory() as tmp:
        copies = [Path(shutil.copytree(ROOT, Path(tmp) / f"copy{n}", ignore=ignore)) for n in range(WORKERS)]
        # The unparsed modules, which lose their comments, must pass as they are.
        for path in map(Path, paths):
            (copies[0] / path.resolve().relative_to(ROOT)).write_text(ast.unparse(ast.parse(path.read_text())))
        if not passes(copies[0]):
            sys.exit("the suite fails on the unmutated, unparsed modules")
        with ThreadPoolExecutor(WORKERS) as pool:
            batches = [pool.submit(survivors, copy, everything[n::WORKERS]) for n, copy in enumerate(copies)]
            found = sorted((where for batch in batches for where in batch.result()),
                           key=lambda where: (where.split(":")[0], int(where.split(":")[1])))
    print(f"{len(everything)} mutants, {len(everything) - len(found)} killed, {len(found)} survived:")
    print("\n".join(found))


if __name__ == "__main__":
    main(sys.argv[1:])
