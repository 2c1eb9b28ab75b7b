"""The package's exports stay in step with what it defines and imports.

A deleted name that is still listed in some `__all__`, or a name that
`walshtf/__init__.py` imports but does not export, fails here, and so
does a README session that no longer runs against the exports, or a
core module that imports a layer above its own.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
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


# The core modules from the bottom layer up; `experiments` sits on top.
_LAYERS = ("errors", "exact", "geometry", "kernels", "wavepacket", "variation", "operators", "trees")


def _runtime_imports(module) -> set[str]:
    """The walshtf modules a module imports when it runs, at any depth of
    its code; an `if TYPE_CHECKING:` block imports nothing at run time."""
    modules = {m.__name__ for m in _modules()} - {"walshtf"}
    found: set[str] = set()
    pending = list(ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body)
    while pending:
        node = pending.pop()
        test = getattr(node, "test", None)
        if isinstance(node, ast.If) and isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), module.__package__
            )
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
        pending.extend(ast.iter_child_nodes(node))
    return found & modules


def test_each_core_module_imports_only_the_layers_below_it():
    imports = {}
    for depth, layer in enumerate(_LAYERS):
        imports[layer] = _runtime_imports(importlib.import_module(f"walshtf.{layer}"))
        assert imports[layer] <= {f"walshtf.{name}" for name in _LAYERS[:depth]}, layer
    # The scan sees both forms, `from . import kernels` and
    # `from .wavepacket import ...`, so the checks above are not vacuous.
    assert {"walshtf.kernels", "walshtf.wavepacket"} <= imports["operators"]
