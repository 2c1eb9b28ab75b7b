"""The package's exports stay in step with what it defines and imports.

A deleted name that is still listed in some `__all__`, or a name that
`walshtf/__init__.py` imports but does not export, fails here, and so
does a README session that no longer runs against the exports, a core
module that imports a layer above its own, or a function, class or
method that no package code calls and no entry of `_NO_CALLER_KEPT`
explains.

That last scan matches names, not the objects they are read on: a
name that is also read as an attribute of some other object escapes
it, as a `Quartile.scale` would behind every interval's `.scale`.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import re
from collections import Counter
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


# Each function, class or method of the package that no package code
# names outside its own definition, with the reason it stays.
_NO_CALLER_KEPT = {
    "wavepacket.eval_wavepacket": "acceptance criterion 02 checks packets against it",
    "geometry.DyadicInterval.ancestor_at": "acceptance criterion 13 builds its members with it",
    "trees.restricted_trees": "acceptance criterion 14 calls it",
    "trees.SelectionResult.grabs_in_pass": "acceptance criterion 08 calls it",
    "geometry.DyadicInterval.contains_point": "the tests' endpoint oracle (README)",
    "variation.VariationCertificate.is_exact": "how the tests read which lane ran",
    "geometry.Quartile.grandchild_of": "the pinned-tree tests read a member's grandchild by it",
    "exact.QuadScalar.conjugate": "the tests build conjugated columns and norms with it",
    "operators.Linearization.trivial": "the tests pair with all weights one through it",
    "wavepacket.StepFunction.indicator": "the tests build indicator functions with it",
    "wavepacket.StepFunction.integral": "the tests check averages and restrictions with it",
    "wavepacket.StepFunction.integer_lift": "a perfbench span times it",
    "wavepacket.StepFunction.restrict": "a perfbench span times it",
    "wavepacket.inner_product": "the perfbench cross-lane checks call it",
    "kernels.WalshTables.coefficient": "a perfbench span counts its calls",
    "experiments.random_gen.dyadic_function": "perfbench and the selection goldens draw with it",
    "experiments.random_gen.tree_coefficients": "the perfbench checks draw with it",
}


def _loaded_names(node: ast.AST) -> list[str]:
    """Every name and attribute that node's code reads."""
    return [
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    ]


def test_every_name_without_a_caller_is_kept_for_a_stated_reason():
    # Exports and imports are not reads: an `__all__` entry is a string
    # and an import binds the name without calling it.
    root = Path(walshtf.__file__).parent
    modules = {
        ".".join(path.relative_to(root).with_suffix("").parts): ast.parse(
            path.read_text(encoding="utf-8")
        )
        for path in sorted(root.rglob("*.py"))
    }
    reads = Counter(name for tree in modules.values() for name in _loaded_names(tree))
    definitions = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    (f"{module}.{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                )
    uncalled = {
        qualified
        for qualified, node in definitions
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and reads[node.name] == _loaded_names(node).count(node.name)
    }
    assert sorted(uncalled - set(_NO_CALLER_KEPT)) == [], "a new name has no caller"
    assert sorted(set(_NO_CALLER_KEPT) - uncalled) == [], "a kept name has a caller now"
