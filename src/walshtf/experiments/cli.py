"""Command line front end for the experiment suites.

Subcommands mirror the library operations: identity checks, single
lemma experiments, the restricted-type pipeline, the strong-type
operator run, the counting cascade, one-off tree selection on JSON
input, and phase plane rendering.  Reports go to stdout as CSV unless
an output path is given.  The exit status is 0 when the run reports
no failures, 1 when it reports some, 2 on bad input and 3 when the
program itself fails, so scripted callers can gate on the identity
suite directly.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from ..errors import InvalidInput, WalshtfError
from ..exact import QuadScalar
from ..geometry import MAX_GRID_EXP, DyadicInterval, Quartile, _json_int, _json_object
from ..operators import slot_coefficients
from ..trees import SelectionResult, _past_digit_limit, select_trees
from ..wavepacket import StepFunction
from .config import ExperimentConfig
from .random_gen import dyadic_set
from .render import selection_svg
from .report import ExperimentReport
from .restricted import run_counting_experiment, run_restricted_type
from .suites import _LEMMA_DRIVERS, LEMMA_NAMES, run_identity_suite, run_lemma_experiment
from .theorem import run_theorem1

__all__ = ["main"]

# Config field -> the type of its flag and the flag's help.  Each
# subcommand registers the flags of the fields its driver reads, so a
# flag it would ignore is refused as bad input.
_CONFIG_FLAGS = {
    "r": (float, "variation exponent"),
    "p1": (float, "first input exponent"),
    "p2": (float, "second input exponent"),
    "q": (float, "target exponent"),
    "epsilon": (float, "frequency set growth exponent"),
    "maximal_exp": (float, "maximal function exponent"),
    "trials": (int, "number of randomized trials"),
    "seed": (int, "root seed of all random streams"),
    "grid_j": (int, "domain exponent of the grid box"),
    "grid_m": (int, "resolution exponent of the grid"),
}

# The `lemma` subcommand takes the flag of every field some lemma reads;
# `_cmd_lemma` refuses one that the named lemma does not read.
_LEMMA_FIELDS = [
    dest
    for dest in _CONFIG_FLAGS
    if any(dest in fields for _, fields in _LEMMA_DRIVERS.values())
]


def _add_config_arguments(parser: argparse.ArgumentParser, *fields: str) -> None:
    parser.add_argument(
        "--config", metavar="PATH", help="JSON file with configuration fields"
    )
    for dest in fields:
        kind, help_text = _CONFIG_FLAGS[dest]
        parser.add_argument(
            "--" + dest.replace("_", "-"), dest=dest, type=kind, default=None, help=help_text
        )


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    flags = {dest: getattr(args, dest, None) for dest in _CONFIG_FLAGS}
    return replace(config, **{k: v for k, v in flags.items() if v is not None})


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_report(report: ExperimentReport, out: str | None) -> int:
    _write(report.to_csv(), out)
    return 0 if int(float(report.summary_value("failures"))) == 0 else 1


def _load_json(path: str) -> object:
    """The JSON value in a file; one that is not UTF-8 JSON text, holds an
    integer past the digit limit or nests too deep is bad input."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise InvalidInput(f"{path} is not JSON text: {exc}") from exc


def _scalar_from_text(text: str) -> QuadScalar:
    """Q(sqrt2) text or a `Fraction` literal, whose parts Python can write
    out: an exponent such as 1e-20000 can make more digits than that."""
    try:
        value = QuadScalar.from_text(text)
    except ValueError:
        value = QuadScalar.coerce(Fraction(text))
    if _past_digit_limit(value):
        raise ValueError(f"a part has more than {sys.get_int_max_str_digits()} digits")
    return value


def _cmd_identities(args: argparse.Namespace) -> int:
    return _emit_report(run_identity_suite(_build_config(args)), args.out)


def _cmd_lemma(args: argparse.Namespace) -> int:
    _, fields = _LEMMA_DRIVERS[args.name]
    for dest in _LEMMA_FIELDS:
        if dest not in fields and getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            raise InvalidInput(f"lemma {args.name} does not read {flag}")
    return _emit_report(
        run_lemma_experiment(args.name, _build_config(args)), args.out
    )


def _cmd_restricted(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if args.input:
        sets, collection = _restricted_request(_load_json(args.input))
    else:
        rng = config.rng(131)
        sets = [
            dyadic_set(rng, config.grid_j, config.grid_m, density)
            for density in (0.8, 0.5, 0.35)
        ]
        collection = None
    report = run_restricted_type(sets[0], sets[1], sets[2], config, collection)
    return _emit_report(report, args.out)


def _cmd_theorem1(args: argparse.Namespace) -> int:
    return _emit_report(run_theorem1(_build_config(args)), args.out)


def _cmd_counting(args: argparse.Namespace) -> int:
    return _emit_report(run_counting_experiment(_build_config(args)), args.out)


# Bad input: a broken contract or an unreadable file.
_BAD_INPUT = (WalshtfError, OSError)

# What a reader raises on a malformed JSON field.
_PARSE_ERRORS = (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError)


def _parsed(read: Callable[..., Any], *args: Any, what: str = "") -> Any:
    """read(*args), with what a reader refuses raised as InvalidInput, led by what."""
    try:
        return read(*args)
    except _PARSE_ERRORS as exc:
        raise InvalidInput(f"{what}: {exc}" if what else str(exc)) from exc


def _function_field(data: dict, key: str) -> StepFunction:
    return _parsed(StepFunction.from_json, data[key], what=f'field "{key}" is not a step function')


def _collection_field(data: dict, f: StepFunction) -> list[Quartile]:
    """The quartiles of data["collection"], each inside the box of f and
    no finer than its cells resolve (time scale at least 2 - m)."""
    if not isinstance(data["collection"], list):
        raise InvalidInput('field "collection" must be a list of quartiles')
    box = DyadicInterval(0, f.domain_exp)
    finest = 2 - f.resolution_exp
    collection = []
    for i, item in enumerate(data["collection"]):
        q = _parsed(Quartile.from_json, item, what=f'field "collection"[{i}] is not a quartile')
        if not box.contains(q.time):
            raise InvalidInput(
                f'field "collection"[{i}] has time interval {q.time}, '
                f"outside the box {box} of the grid"
            )
        if q.time.scale < finest:
            raise InvalidInput(
                f'field "collection"[{i}] has time scale {q.time.scale}, finer than '
                f"the grid's cells allow: quartile scales start at 2 - m = {finest}"
            )
        collection.append(q)
    return collection


def _restricted_request(data: object) -> tuple[list[StepFunction], list[Quartile] | None]:
    """Indicator sets E1, E2, E3 on one grid and the optional collection
    inside its box.  An indicator has every value 0 or 1: integers over
    the denominator 1, with no sqrt2 part."""
    keys = ("E1", "E2", "E3")
    _parsed(_json_object, data, "restricted-type input", keys, ("collection",))
    sets = [_function_field(data, key) for key in keys]
    for key, e in zip(keys, sets):
        field = e.field
        if field.denominator != 1 or field.surd.any() or field.rat.min() < 0 or field.rat.max() > 1:
            raise InvalidInput(f'field "{key}" is not an indicator: a value is not 0 or 1')
    grids = [(e.domain_exp, e.resolution_exp) for e in sets]
    if len(set(grids)) > 1:
        raise InvalidInput(f'fields "E1", "E2", "E3" must share one grid, got {grids}')
    collection = _collection_field(data, sets[0]) if "collection" in data else None
    return sets, collection


def _selection_request(
    data: object,
) -> tuple[list[Quartile], StepFunction, int, QuadScalar, int]:
    """Collection, function, slot, allowance and domain of a selection file,
    each refused with an InvalidInput that names its field.  domain_exp
    defaults to the grid's J and runs from it, since a member coarser than
    the domain is never a candidate, to MAX_GRID_EXP - m, since a member
    has one candidate top per scale up to it.
    """
    required = ("collection", "f", "slot", "alpha")
    _parsed(_json_object, data, "select-trees input", required, ("domain_exp",))
    f = _function_field(data, "f")
    slot = _parsed(_json_int, data["slot"], "slot", 1, 4)
    alpha = _parsed(
        _scalar_from_text, str(data["alpha"]), what='field "alpha" is not an exact scalar'
    )
    collection = _collection_field(data, f)
    domain_exp = _parsed(
        _json_int, data.get("domain_exp", f.domain_exp), "domain_exp",
        f.domain_exp, MAX_GRID_EXP - f.resolution_exp,
    )
    return collection, f, slot, alpha, domain_exp


def _cmd_select_trees(args: argparse.Namespace) -> int:
    collection, f, slot, alpha, domain_exp = _selection_request(_load_json(args.input))
    coefficients = slot_coefficients(f, collection, slot)
    result = select_trees(collection, coefficients, slot, alpha, domain_exp)
    _write(json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    selection = _parsed(
        SelectionResult.from_json, _load_json(args.input), what="render input is not a selection"
    )
    _write(selection_svg(selection), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshtf",
        description="Randomized experiments for the quartile packet machinery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="run the exact identity suite")
    _add_config_arguments(p, "r", "trials", "seed", "grid_j", "grid_m")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(handler=_cmd_identities)

    p = sub.add_parser("lemma", help="run one lemma-level experiment")
    p.add_argument("name", choices=LEMMA_NAMES)
    _add_config_arguments(p, *_LEMMA_FIELDS)
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(handler=_cmd_lemma)

    p = sub.add_parser(
        "restricted-type", help="run the restricted-type decomposition"
    )
    _add_config_arguments(p, "r", "maximal_exp", "trials", "seed", "grid_j", "grid_m")
    p.add_argument(
        "--in", dest="input", default=None,
        help="JSON file with indicator sets E1, E2, E3 and an optional collection",
    )
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(handler=_cmd_restricted)

    p = sub.add_parser("theorem1", help="run the strong-type operator run")
    _add_config_arguments(p, "r", "p1", "p2", "q", "trials", "seed", "grid_j", "grid_m")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(handler=_cmd_theorem1)

    p = sub.add_parser("counting", help="run the tree counting cascade")
    _add_config_arguments(p, "trials", "seed", "grid_j")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(handler=_cmd_counting)

    p = sub.add_parser("select-trees", help="select trees from JSON input")
    p.add_argument(
        "--in", dest="input", required=True,
        help="JSON with collection, f, slot, alpha and an optional domain_exp",
    )
    p.add_argument("--out", default=None, help="JSON output path")
    p.set_defaults(handler=_cmd_select_trees)

    p = sub.add_parser("render", help="render a selection as an SVG")
    p.add_argument(
        "--in", dest="input", required=True, help="selection JSON file"
    )
    p.add_argument("--out", default=None, help="SVG output path")
    p.set_defaults(handler=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # A fault of the program, never to be read as a reported failure
        # or as bad input; a ValueError of no contract lands here too.
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
