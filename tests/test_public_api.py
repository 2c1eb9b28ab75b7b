"""The package's exports stay in step with what it defines and imports.

A deleted name that is still listed in some `__all__`, or a name that
`walshtf/__init__.py` imports but does not export, fails here.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import walshtf


def _modules():
    yield walshtf
    for info in pkgutil.walk_packages(walshtf.__path__, "walshtf."):
        yield importlib.import_module(info.name)


def test_every_all_entry_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_every_public_name_the_package_imports_is_exported():
    tree = ast.parse(Path(walshtf.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(walshtf.__all__)) == []
    assert len(walshtf.__all__) == len(set(walshtf.__all__))
