"""Every top-level function and class of the package is reachable: something
in `src/` or `bench/` names it, or `pyproject.toml` makes it an entry point.
A helper whose last caller is deleted fails here."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "eslrsim").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# names that only tests call
TEST_SUPPORT = {
    "grad_check": "the finite-difference gradient checker of the tape tests",
    "save_obj": "writes the garment OBJ files the tests build",
    "smoothed": "the trailing moving average of acceptance criterion 5 and "
                "tests/test_trainer.py",
}


def local_names(fn: ast.AST) -> set[str]:
    """The arguments of function `fn` and the names assigned in its body
    (nested functions included)."""
    a = fn.args
    names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
    names |= {arg.arg for arg in (a.vararg, a.kwarg) if arg is not None}
    names |= {n.id for n in ast.walk(fn)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return names


def referenced_names(node: ast.AST, bound: frozenset = frozenset()) -> set[str]:
    """Names, attributes, imported names and string constants under `node`
    (the benchmark's tracer wraps functions by name). A name bound inside
    the enclosing function (`bound`) is a local variable, not a reference."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        bound = bound | local_names(node)
    names = set()
    if isinstance(node, ast.Name):
        if node.id not in bound:
            names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    elif isinstance(node, ast.alias):
        names.add(node.name.rsplit(".", 1)[-1])
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names.add(node.value)
    for child in ast.iter_child_nodes(node):
        names |= referenced_names(child, bound)
    return names


def test_every_top_level_definition_is_referenced():
    defined = {}  # name -> module file
    used = set(re.findall(r'"eslrsim\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    for path in SOURCES + BENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            own = None
            if path in SOURCES and isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined[own] = path.name
            # a definition's own body (recursion) does not make it reachable
            used |= referenced_names(stmt) - {own}
    unreferenced = sorted(f"{file}: {name}" for name, file in defined.items()
                          if name not in used and name not in TEST_SUPPORT)
    assert not unreferenced, unreferenced
    assert all(name in defined and name not in used for name in TEST_SUPPORT), (
        "a test-support name is gone or now has a caller; update TEST_SUPPORT")
