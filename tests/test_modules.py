"""Module interfaces: every name one rellich module takes from another is
in that module's ``__all__``, and every ``__all__`` name resolves."""

import ast
import importlib
import pathlib

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
