"""The benchmark harness still finds every name it reaches into.

`perfbench/spans.py` wraps functions and methods of the package by
name, and `perfbench/checks.py` imports the exact and float lanes to
compare them.  A deleted or renamed name fails here, under pytest,
rather than only when the benchmark runs.  Only `perfbench/` is read.

The harness also counts the candidates that `disjoint_collection` draws
as calls of the module attribute `random_gen.random_quartile`, which it
replaces by a wrapper; a draw that bypasses the attribute would zero
the per-layer `accept_ratio` without any error.  Likewise the identity
suite's variation check must reach `variation.collapse_repeats` through
a binding the spans rebind, or the workload's `collapse_repeats` and
`variation` span metrics would read zero.
"""

from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path

import pytest

import oracles
from walshtf.experiments import random_gen
from walshtf.experiments.config import ExperimentConfig
from walshtf.experiments.suites import run_identity_suite

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


def test_the_identity_check_calls_collapse_repeats_under_the_spans():
    # The first input of the identities-exact workload, run through the
    # spans' own wrappers as a traced benchmark call is.
    spans, checks = _load("spans"), _load("checks")
    ref = json.loads((PERFBENCH / "refs" / "identities-exact.json").read_text(encoding="utf-8"))
    seed = ref["batches"][0][0]
    recorder = spans.Recorder()
    with spans.Tracer(recorder):
        report = run_identity_suite(ExperimentConfig(seed=seed, **ref["config"]))
    assert checks.digest(report.to_csv()) == ref["reports"][str(seed)]["sha256"]
    calls, _, self_ns = recorder.spans["variation.collapse_repeats"]
    assert calls > 0 and self_ns > 0
