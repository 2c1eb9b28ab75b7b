"""Boundary fuzz of every input the command line reads.

Each case starts from a valid document (a config, a select-trees
problem, a restricted-type request, a selection) and replaces, drops or
adds a few fields anywhere inside it.  A replacement comes from the
field's own strategy: small values a run may take, negative and huge
integers, NaN, infinities, 2.5, bools, strings, null, lists and objects.
No strategy draws an accepted value that would size a computation, so
every accepted case runs on a small grid with few trials.

`cli.main` runs in process on each case.  Bad input must exit 2 with one
`error:` line and nothing may exit 3; an accepted function, quartile,
config or selection must round-trip through its `to_json`.
"""

from __future__ import annotations

import copy
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cli_golden import FIXTURE as CLI_FIXTURE, RESTRICTED_INPUT
from walshtf import Quartile, SelectionResult, StepFunction
from walshtf.experiments.cli import main
from walshtf.experiments.config import ExperimentConfig

_NOT_INT = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([2.5, -0.5, math.nan, math.inf, -math.inf]),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
_HUGE = st.one_of(
    st.sampled_from([-(10**400), -(2**63), 2**63, 10**30, 10**400]),
    st.integers(min_value=40),
    st.integers(max_value=-40),
)


def _field(valid: st.SearchStrategy) -> st.SearchStrategy:
    """Valid values half the time, else negative or huge integers or non-integers."""
    return st.one_of(valid, valid, _HUGE, _NOT_INT)


def _int(lo: int, hi: int) -> st.SearchStrategy:
    return _field(st.integers(lo, hi))


def _choice(*valid: object) -> st.SearchStrategy:
    return _field(st.sampled_from(valid))


_INTERVAL = st.fixed_dictionaries({"n": st.one_of(st.integers(), _NOT_INT), "k": _int(-3, 3)})
_QUARTILE = st.one_of(st.fixed_dictionaries({"time": _INTERVAL, "freq": _INTERVAL}), _NOT_INT)
_SCALAR = _choice(
    "0/1+0/1*sqrt2", "1/1+0/1*sqrt2", "1/2+0/1*sqrt2", "0/1+1/1*sqrt2", "1/0+0/1*sqrt2"
)

# Field name -> the values a fuzzed case puts there; "name[]" is an
# entry of the list in field name.  Every accepted value is small:
# trials stays at most 2, a grid at J <= 3 and m <= 5, and a selection
# domain at 6.
_FIELDS = {
    # ExperimentConfig
    "r": _choice(2.5, 3, 4.0, math.inf),
    "p1": _choice(4, 4.0, 3),
    "p2": _choice(4, 4.0, 6),
    "q": _choice(2, 2.0, 2.4),
    "maximal_exp": _choice(1.25, 1.5),
    "epsilon": _choice(0.5, 0.25),
    "trials": st.one_of(st.integers(max_value=2), _NOT_INT),
    "seed": st.one_of(st.integers(), _NOT_INT),
    "grid_j": _int(0, 3),
    "grid_m": _int(2, 5),
    # StepFunction
    "J": _int(0, 2),
    "m": _int(-1, 3),
    "grid": st.one_of(st.lists(_int(-1, 3), min_size=1, max_size=3), _NOT_INT),
    "grid[]": _int(-1, 3),
    "cells": st.one_of(st.lists(_int(0, 40), max_size=5), _NOT_INT),
    "cells[]": _int(0, 40),
    "values": st.one_of(st.lists(_SCALAR, min_size=1, max_size=8), _NOT_INT),
    "values[]": st.one_of(_SCALAR, st.integers(0, 1)),
    # quartiles and intervals
    "collection": st.one_of(st.lists(_QUARTILE, max_size=3), _NOT_INT),
    "collection[]": _QUARTILE,
    "time": st.one_of(_INTERVAL, _NOT_INT),
    "freq": st.one_of(_INTERVAL, _NOT_INT),
    "n": st.one_of(st.integers(), _NOT_INT),
    "k": _int(-3, 3),
    # select-trees problems and selections
    "slot": _int(1, 4),
    "pass_slot": _int(1, 4),
    # An exponent literal past Python's digit limit for int-to-text.
    "alpha": st.one_of(
        _choice("25/64", "1/4", "25/64+0/1*sqrt2"), st.sampled_from(["1e-20000", "1e20000"])
    ),
    "domain_exp": _int(0, 6),
    "xi": _choice("1*2^-2", "3*2^-1", "0*2^0"),
    "top_interval": st.one_of(_INTERVAL, _NOT_INT),
    "initial_size_sq": _SCALAR,
    "residual_size_sq": st.one_of(st.none(), _SCALAR),
    "quartiles[]": _QUARTILE,
    "residual[]": _QUARTILE,
}
_KEYS = st.one_of(
    st.sampled_from(sorted(k for k in _FIELDS if not k.endswith("[]"))), st.text(max_size=6)
)
_ANY = st.one_of(_HUGE, _NOT_INT)


def _mutate(draw, doc: dict) -> None:
    """Replace, drop or add one entry somewhere inside doc."""
    node, name = doc, None
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        field = key if isinstance(node, dict) else f"{name}[]"
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.integers(0, 3)):
            node, name = child, field
            continue
        action = draw(st.sampled_from(["replace", "replace", "drop", "add"]))
        if action == "replace":
            node[key] = draw(_FIELDS.get(field, _ANY))
            return
        if action == "drop":
            del node[key]
            return
        break
    if isinstance(node, dict):
        new = draw(_KEYS)
        node[new] = draw(_FIELDS.get(new, _ANY))
    else:
        node.append(draw(_FIELDS.get(f"{name}[]", _ANY)))


@st.composite
def _fuzzed(draw, base: dict) -> dict:
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 2))):
        _mutate(draw, doc)
    return doc


_CONFIG = ExperimentConfig(trials=1, grid_j=2, grid_m=3).to_json()
_PROBLEM = {
    "f": {"J": 1, "m": 2, "values": ["1/1+0/1*sqrt2", "0/1+0/1*sqrt2"] * 4},
    "slot": 2,
    "alpha": "1/4",
    "domain_exp": 2,
    "collection": [
        {"time": {"n": 0, "k": 0}, "freq": {"n": 0, "k": 2}},
        {"time": {"n": 1, "k": 0}, "freq": {"n": 0, "k": 2}},
        {"time": {"n": 0, "k": 1}, "freq": {"n": 1, "k": 1}},
    ],
}
_GOLDEN = json.loads(CLI_FIXTURE.read_text(encoding="utf-8"))
_SELECTION = json.loads(_GOLDEN["select-trees"]["out"])
_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def _run(input_path, argv: list[str], data: dict) -> tuple[int, str]:
    """Exit status and stdout of main on data; a refusal is one error line."""
    input_path.write_text(json.dumps(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, str(input_path)])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), err.getvalue()
    return code, out.getvalue()


def _round_trips(function: object = None, quartiles: object = ()) -> None:
    if function is not None:
        f = StepFunction.from_json(function)
        assert StepFunction.from_json(f.to_json()) == f
    for item in quartiles:
        assert Quartile.from_json(item).to_json() == item


@_FUZZ
@given(data=_fuzzed(_CONFIG))
@example(data=_CONFIG)
def test_fuzzed_config(input_path, data):
    code, _ = _run(input_path, ["theorem1", "--trials", "1", "--config"], data)
    if code != 2:
        config = ExperimentConfig.from_json(data)
        assert ExperimentConfig.from_json(config.to_json()) == config


@_FUZZ
@given(data=_fuzzed(_PROBLEM))
@example(data=_PROBLEM)
def test_fuzzed_select_trees_problem(input_path, data):
    code, out = _run(input_path, ["select-trees", "--in"], data)
    if code != 2:
        assert set(data) <= set(_PROBLEM)
        _round_trips(data["f"], data["collection"])
        selection = json.loads(out)
        assert SelectionResult.from_json(selection).to_json() == selection


@_FUZZ
@given(data=_fuzzed(RESTRICTED_INPUT))
@example(data=RESTRICTED_INPUT)
def test_fuzzed_restricted_type_sets(input_path, data):
    code, _ = _run(input_path, ["restricted-type", "--trials", "1", "--in"], data)
    if code != 2:
        assert set(data) <= set(RESTRICTED_INPUT)
        for key in ("E1", "E2", "E3"):
            _round_trips(data[key])
        _round_trips(quartiles=data.get("collection", ()))


@_FUZZ
@given(data=_fuzzed(_SELECTION))
@example(data=_SELECTION)
def test_fuzzed_selection(input_path, data):
    code, _ = _run(input_path, ["render", "--in"], data)
    if code != 2:
        assert set(data) <= set(_SELECTION)
        selection = SelectionResult.from_json(data)
        assert SelectionResult.from_json(selection.to_json()) == selection
