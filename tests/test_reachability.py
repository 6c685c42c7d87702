"""Every top-level function and class of the package is reachable: something
in `src/` or `bench/` names it, or `pyproject.toml` makes it an entry point.
A helper whose last caller is deleted fails here, and so does one that only
tests call: such helpers live in `tests/support.py`. Every parameter of every
function in `src/`, nested ones and lambdas included, is read by its body,
apart from the few an interface or a planned reader needs (`UNREAD`)."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "eslrsim").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


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
                          if name not in used)
    assert not unreferenced, unreferenced


# (module, function, parameter) -> why the parameter stays unread
UNREAD = {
    ("tensor.py", "_node", "op_name"):
        "the op's label, kept for a per-op counter to read (ROADMAP item 3)",
    ("tensor.py", "_consumed", "g"): "a vjp is called with the output gradient",
    ("tensor.py", "__exit__", "exc"): "the context-manager protocol passes it",
}


def unread_parameters(path: Path) -> set[tuple[str, str, str]]:
    """(module, function, parameter) for each parameter of a function in
    `path` that its body never loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
        params += [arg.arg for arg in (a.vararg, a.kwarg) if arg is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        found |= {(path.name, name, p) for p in params if p not in read}
    return found


def test_every_parameter_is_read():
    unread = set().union(*(unread_parameters(path) for path in SOURCES))
    assert sorted(unread - set(UNREAD)) == []
    # an exemption whose parameter is read again, or gone, goes too
    assert sorted(set(UNREAD) - unread) == []
