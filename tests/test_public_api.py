"""The package's exports stay in step with what it defines and imports.

A deleted name that is still listed in some `__all__`, or a name that
`walshtf/__init__.py` imports but does not export, fails here, and so
does a README session that no longer runs against the exports.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
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


def test_the_readme_session_runs_and_prints_its_values(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {"__name__": "readme_session"})
    assert capsys.readouterr().out == "0.75\n2 8\n"
