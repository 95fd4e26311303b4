"""Module interfaces: every name one rellich module takes from another is
in that module's ``__all__``, and every ``__all__`` name resolves."""

import ast
import importlib
import pathlib
import re
import sys

import pytest

import rellich

_SOURCES = sorted(pathlib.Path(rellich.__file__).parent.glob("*.py"))


def _module(stem: str):
    return importlib.import_module("rellich" if stem == "__init__" else f"rellich.{stem}")


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.stem)
def test_all_names_resolve(path):
    mod = _module(path.stem)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.stem)
def test_imported_names_are_exported(path):
    """Both ``from .m import name`` and ``from . import m as alias`` followed
    by ``alias.name``."""
    tree = ast.parse(path.read_text())
    used = []           # (module, name)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    aliases[a.asname or a.name] = a.name
                else:
                    used.append((node.module, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.append((aliases[node.value.id], node.attr))
    missing = sorted({(m, name) for m, name in used
                      if name not in _module(m).__all__})
    assert missing == []


@pytest.mark.parametrize("path", [p for p in _SOURCES if p.stem != "__init__"],
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    """Every name a module imports is read in it or listed in its __all__
    (``__init__`` is exempt: it imports to re-export)."""
    tree = ast.parse(path.read_text())
    imported = {}       # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in read and name not in getattr(_module(path.stem),
                                                                "__all__", ()))
    assert unused == []


def test_runtime_dependencies_are_the_imports():
    """The top-level imports of the package that are not in the standard
    library are the names of pyproject.toml's runtime dependencies, no more
    and no fewer (mpmath is a test extra: the tests' 50-digit reference)."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(rellich.__file__).parents[2] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("not a source checkout")
    imported = set()
    for path in _SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    declared = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
             for d in declared}
    assert imported - set(sys.stdlib_module_names) == names


# parameters that are unread on purpose: the scalar table's reject
# primitive fills the signature of a domain-check primitive, and an Expr
# refuses every attribute write whatever its arguments
_UNREAD_ON_PURPOSE = {("expr", "_reject_scalar", "bad"), ("expr", "__setattr__", "a")}


def test_no_unread_parameters():
    """Every parameter of every function in the package is read in its body
    (a method's self or cls excepted)."""
    unread = []
    for path in _SOURCES:
        tree = ast.parse(path.read_text())
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)
                   and not any(getattr(d, "id", None) == "staticmethod"
                               for d in f.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            if id(node) in methods:
                params = params[1:]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(path.stem, node.name, p.arg) for p in params
                       if p.arg not in read and (path.stem, node.name, p.arg)
                       not in _UNREAD_ON_PURPOSE]
    assert unread == []
