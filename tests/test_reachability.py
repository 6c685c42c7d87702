"""Every top-level function and class of the package is reachable: something
in `src/` or `bench/` names it, or `pyproject.toml` makes it an entry point.
A helper whose last caller is deleted fails here, and so does one that only
tests call: such helpers live in `tests/support.py`. The few that only
`bench/` names are listed, each with its reason (`BENCH_ONLY`). Every
parameter of every function in `src/`, nested ones and lambdas included, is
read by its body, apart from the few an interface or a planned reader needs
(`UNREAD`)."""

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


# top-level `src/` name -> why only `bench/` names it
BENCH_ONLY = {
    "segment_sum": "bench/tracer.py times it (TIMED_OPS); ROADMAP item 2 deletes it",
    "segment_mean": "bench/tracer.py times it (TIMED_OPS); ROADMAP item 2 deletes it",
    "matmul": "bench/tracer.py times it (TIMED_OPS) for tensor.matmul_ms; "
              "ROADMAP item 2 deletes it",
}


def definitions_and_references():
    """(top-level name -> module file, names referenced in `src/` and
    `pyproject.toml`, names referenced in `bench/`)."""
    defined = {}
    used = {"src": set(re.findall(r'"eslrsim\.\w+:(\w+)"',
                                  (ROOT / "pyproject.toml").read_text())), "bench": set()}
    for path in SOURCES + BENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            own = None
            if path in SOURCES and isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined[own] = path.name
            # a definition's own body (recursion) does not make it reachable
            used["src" if path in SOURCES else "bench"] |= referenced_names(stmt) - {own}
    return defined, used["src"], used["bench"]


def test_every_top_level_definition_is_referenced():
    defined, in_src, in_bench = definitions_and_references()
    unreferenced = sorted(f"{file}: {name}" for name, file in defined.items()
                          if name not in in_src | in_bench)
    assert not unreferenced, unreferenced


def test_bench_only_definitions_are_the_listed_ones():
    # an unlisted one fails, and so does a listed one that `src/` uses again
    # or `bench/` no longer names
    defined, in_src, in_bench = definitions_and_references()
    bench_only = {name for name in defined if name in in_bench - in_src}
    assert sorted(bench_only) == sorted(BENCH_ONLY)


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
