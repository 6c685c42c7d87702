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
    "smoothed": "the Laplacian-smoothing reference of the LSDMP tests",
}


def referenced_names(node: ast.AST) -> set[str]:
    """Names, attributes, imported names and string constants under `node`
    (the benchmark's tracer wraps functions by name)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
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
