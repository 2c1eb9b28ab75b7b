"""The benchmark harness still finds every name it reaches into.

`perfbench/spans.py` wraps functions and methods of the package by
name, and `perfbench/checks.py` imports the exact and float lanes to
compare them.  A deleted or renamed name fails here, under pytest,
rather than only when the benchmark runs.  Only `perfbench/` is read.

The harness also counts the candidates that `disjoint_collection` draws
as calls of the module attribute `random_gen.random_quartile`, which it
replaces by a wrapper; a draw that bypasses the attribute would zero
the per-layer `accept_ratio` without any error.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

import oracles
from walshtf.experiments import random_gen

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


def _counted(monkeypatch, module, name: str) -> list[int]:
    """Replace module.name by a wrapper that counts its calls."""
    calls = [0]
    inner = getattr(module, name)

    def wrapper(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("seed, args", [(3, (20, 3, 5)), (7, (64, 3, 5)), (11, (100, 5, 7))])
def test_every_disjoint_candidate_is_one_random_quartile_call(monkeypatch, seed, args):
    draws = _counted(monkeypatch, random_gen, "random_quartile")
    candidates = _counted(monkeypatch, oracles, "reference_random_quartile")
    assert random_gen.disjoint_collection(random.Random(seed), *args) == (
        oracles.naive_disjoint_collection(random.Random(seed), *args)
    )
    assert draws[0] == candidates[0] > args[0]
