"""The benchmark harness still finds every name it reaches into.

`perfbench/spans.py` wraps functions and methods of the package by
name, and `perfbench/checks.py` imports the exact and float lanes to
compare them.  A deleted or renamed name fails here, under pytest,
rather than only when the benchmark runs.  Only `perfbench/` is read.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_resolves():
    # targets() looks every function and method up by name.
    assert _load("spans").targets()


@pytest.mark.parametrize("seed", range(8))
def test_cross_lane_checks_pass(seed):
    assert _load("checks").cross_lane_checks(seed) == []
