"""Layer spans recorded from outside the package.

`Tracer` wraps the public functions of each walshtf layer, and a few
methods that do most of a layer's work, with a timing wrapper.  The
package itself is not edited: the wrappers are installed by
rebinding module and class attributes, and removed again on exit.

A function imported by name (``from .random_gen import
disjoint_collection``) is a separate binding in every importing
module.  Installing therefore rebinds every attribute of every loaded
``walshtf`` module that is the original function, not only the one in
the defining module; otherwise the callee's time would land unseen in
its caller.

`exact` and `geometry` get no spans: their functions run 10^5 to 10^6
times a call, so a wrapper would cost more than the work it times.
Their cost shows in the self time of the layers that call them.

Self time of a span is its duration minus the durations of the spans
it directly encloses.  Time inside the traced root call that no layer
span covers is reported as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

# Layer name -> defining module.  Layer names are the metric prefixes.
LAYERS = {
    "wavepacket": "walshtf.wavepacket",
    "kernels": "walshtf.kernels",
    "operators": "walshtf.operators",
    "variation": "walshtf.variation",
    "trees": "walshtf.trees",
    "random_gen": "walshtf.experiments.random_gen",
    "report": "walshtf.experiments.report",
    "cli": "walshtf.experiments.cli",
}

# Methods that carry a layer's work, spanned next to its functions.
METHODS = {
    "wavepacket": {
        "StepFunction": (
            "__init__",
            "__add__",
            "__sub__",
            "__mul__",
            "dot",
            "dilate",
            "restrict",
            "to_float_array",
            "integer_lift",
        ),
    },
    "kernels": {"WalshTables": ("coefficient",)},
    "report": {"ExperimentReport": ("to_csv",)},
}

# Public functions left unwrapped.  `cli.main` is the traced root
# itself; `format_value` runs once per report cell and is part of the
# cost of `ExperimentReport.to_csv`.  Generator functions are skipped
# too: their work runs as the caller consumes them, so it is the
# caller's time.
SKIP = {"cli.main", "report.format_value"}

# Spans named after their layer alone, as the report has one class.
SHORT_NAMES = {"report.ExperimentReport.to_csv": "report.to_csv"}


def _public_functions(layer: str, module) -> list[tuple[str, object]]:
    return [
        (name, fn)
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and not inspect.isgeneratorfunction(fn)
        and fn.__module__ == module.__name__
        and f"{layer}.{name}" not in SKIP
    ]


def targets() -> list[tuple[str, object, str, object]]:
    """Every spanned callable as (span name, owner, attribute, original)."""
    out = []
    for layer, module_name in LAYERS.items():
        module = importlib.import_module(module_name)
        for name, fn in _public_functions(layer, module):
            out.append((f"{layer}.{name}", module, name, fn))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                name = SHORT_NAMES.get(name, name)
                out.append((name, cls, meth, vars(cls)[meth]))
    return out


def _on_batch_inner_products(rec, parent, args, result) -> None:
    rec.counts["wavepacket.batch_inner_products.tiles"] += len(result)
    rec.counts["wavepacket.batch_inner_products.intervals"] += len(
        {tile.time for tile in result}
    )


def _on_walsh_tables(rec, parent, args, result) -> None:
    f = args[0]
    cells = len(f.values)
    rec.counts["kernels.walsh_tables.cells"] += cells
    rec.counts["kernels.walsh_tables.ops"] += (
        2 * (f.domain_exp + f.resolution_exp) * cells
    )


def _on_select_trees(rec, parent, args, result) -> None:
    taken = sum(len(grab.full.quartiles) for grab in result.grabs)
    rec.counts["trees.select_trees.quartiles"] += len(result.residual) + taken
    rec.counts["trees.select_trees.grabs"] += len(result.grabs)


def _on_random_quartile(rec, parent, args, result) -> None:
    if parent == "random_gen.disjoint_collection":
        rec.counts["random_gen.disjoint_collection.draws"] += 1


def _on_disjoint_collection(rec, parent, args, result) -> None:
    rec.counts["random_gen.disjoint_collection.accepted"] += len(result)


def _on_to_csv(rec, parent, args, result) -> None:
    rec.counts["report.bytes"] += len(result.encode("utf-8"))


# Work counters taken from a span's arguments and result.
HOOKS = {
    "wavepacket.batch_inner_products": _on_batch_inner_products,
    "kernels.walsh_tables": _on_walsh_tables,
    "trees.select_trees": _on_select_trees,
    "random_gen.random_quartile": _on_random_quartile,
    "random_gen.disjoint_collection": _on_disjoint_collection,
    "report.to_csv": _on_to_csv,
}

COUNTERS = (
    "wavepacket.batch_inner_products.tiles",
    "wavepacket.batch_inner_products.intervals",
    "kernels.walsh_tables.cells",
    "kernels.walsh_tables.ops",
    "trees.select_trees.quartiles",
    "trees.select_trees.grabs",
    "random_gen.disjoint_collection.draws",
    "random_gen.disjoint_collection.accepted",
    "report.bytes",
)


class Recorder:
    """Span totals and work counters of the calls traced so far."""

    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.covered_ns = 0  # time inside outermost spans
        self._stack: list[list] = []  # open spans as [name, child_ns]

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        frame = [name, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            took = perf_counter_ns() - start
            stack.pop()
            if stack:
                stack[-1][1] += took
            else:
                self.covered_ns += took
            entry = self.spans.get(name)
            if entry is None:
                entry = self.spans[name] = [0, 0, 0]
            entry[0] += 1
            entry[1] += took
            entry[2] += took - frame[1]
        hook = HOOKS.get(name)
        if hook is not None:
            hook(self, stack[-1][0] if stack else None, args, result)
        return result


class Tracer:
    """Context manager that installs the span wrappers into walshtf."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []
        self.targets = targets()

    def __enter__(self) -> "Tracer":
        replace: dict[int, object] = {}  # id of an original -> its wrapper
        for name, owner, attr, original in self.targets:
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._rebind(owner, attr, wrapper)
            else:
                replace[id(original)] = wrapper
        for module_name, module in list(sys.modules.items()):
            if module_name != "walshtf" and not module_name.startswith("walshtf."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._rebind(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, original):
        call = self.recorder.call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(name, original, args, kwargs)

        return wrapper

