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
from fractions import Fraction
from pathlib import Path

from ..errors import InvalidInput, WalshtfError
from ..exact import QuadScalar
from ..geometry import DyadicInterval, Quartile
from ..operators import slot_coefficients
from ..trees import SelectionResult, select_trees
from ..wavepacket import StepFunction
from .config import ExperimentConfig
from .random_gen import dyadic_set
from .render import render_phase_plane, selection_svg
from .report import ExperimentReport
from .restricted import run_counting_experiment, run_restricted_type
from .suites import LEMMA_NAMES, run_identity_suite, run_lemma_experiment
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
    config = (
        ExperimentConfig.from_file(args.config)
        if args.config
        else ExperimentConfig()
    )
    overrides = {}
    for dest in _CONFIG_FLAGS:
        value = getattr(args, dest, None)
        if value is not None:
            overrides[dest] = value
    return config.with_overrides(**overrides) if overrides else config


def _emit_report(report: ExperimentReport, out: str | None) -> int:
    text = report.to_csv()
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if int(float(report.summary_value("failures"))) == 0 else 1


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _scalar_from_text(text: str) -> QuadScalar:
    try:
        return QuadScalar.from_text(text)
    except ValueError:
        return QuadScalar.coerce(Fraction(text))


def _cmd_identities(args: argparse.Namespace) -> int:
    return _emit_report(run_identity_suite(_build_config(args)), args.out)


def _cmd_lemma(args: argparse.Namespace) -> int:
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


# Bad input: a broken contract, an unreadable file, or a file that is
# not JSON text.
_BAD_INPUT = (WalshtfError, json.JSONDecodeError, UnicodeDecodeError, OSError)

# What a reader raises on a malformed JSON field.
_PARSE_ERRORS = (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError)


def _function_field(data: dict, key: str) -> StepFunction:
    if key not in data:
        raise InvalidInput(f'input lacks the field "{key}"')
    try:
        return StepFunction.from_json(data[key])
    except _PARSE_ERRORS as exc:
        raise InvalidInput(f'field "{key}" is not a step function: {exc!r}') from exc


def _collection_field(data: dict, f: StepFunction) -> list[Quartile]:
    """The quartiles of data["collection"], each inside the box of f and
    no finer than its cells resolve (time scale at least 2 - m)."""
    if not isinstance(data["collection"], list):
        raise InvalidInput('field "collection" must be a list of quartiles')
    box = DyadicInterval(0, f.domain_exp)
    finest = 2 - f.resolution_exp
    collection = []
    for i, item in enumerate(data["collection"]):
        try:
            q = Quartile.from_json(item)
        except _PARSE_ERRORS as exc:
            raise InvalidInput(f'field "collection"[{i}] is not a quartile: {exc}') from exc
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
    """Sets E1, E2, E3 on one grid and the optional collection inside its box."""
    if not isinstance(data, dict):
        raise InvalidInput("restricted-type input must be a JSON object")
    sets = [_function_field(data, key) for key in ("E1", "E2", "E3")]
    grids = [(e.domain_exp, e.resolution_exp) for e in sets]
    if len(set(grids)) > 1:
        raise InvalidInput(f'fields "E1", "E2", "E3" must share one grid, got {grids}')
    collection = _collection_field(data, sets[0]) if "collection" in data else None
    return sets, collection


def _selection_request(
    data: object,
) -> tuple[list[Quartile], StepFunction, int, QuadScalar, int]:
    """Collection, function, slot, allowance and domain of a selection file.

    Every field is checked here, so a bad file is refused with an
    InvalidInput naming the field rather than failing deep inside.  The
    optional domain_exp defaults to the grid's J and may not be smaller:
    members coarser than the domain would never be candidates.
    """
    if not isinstance(data, dict):
        raise InvalidInput("select-trees input must be a JSON object")
    for key in ("collection", "f", "slot", "alpha"):
        if key not in data:
            raise InvalidInput(f'select-trees input lacks the field "{key}"')
    f = _function_field(data, "f")
    slot = data["slot"]
    if type(slot) is not int or slot not in (1, 2, 3, 4):
        raise InvalidInput(f'field "slot" must be the integer 1, 2, 3 or 4, got {slot!r}')
    try:
        alpha = _scalar_from_text(str(data["alpha"]))
    except _PARSE_ERRORS as exc:
        raise InvalidInput(f'field "alpha" is not an exact scalar: {exc}') from exc
    collection = _collection_field(data, f)
    domain_exp = data.get("domain_exp", f.domain_exp)
    if type(domain_exp) is not int or domain_exp < f.domain_exp:
        raise InvalidInput(
            f'field "domain_exp" must be an integer no smaller than the grid\'s '
            f"J = {f.domain_exp}, got {domain_exp!r}"
        )
    return collection, f, slot, alpha, domain_exp


def _cmd_select_trees(args: argparse.Namespace) -> int:
    collection, f, slot, alpha, domain_exp = _selection_request(_load_json(args.input))
    coefficients = slot_coefficients(f, collection, slot)
    result = select_trees(collection, coefficients, slot, alpha, domain_exp)
    text = json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    try:
        selection = SelectionResult.from_json(_load_json(args.input))
    except _PARSE_ERRORS as exc:
        raise InvalidInput(f"render input is not a selection: {exc!r}") from exc
    if args.out:
        render_phase_plane(selection, args.out)
    else:
        sys.stdout.write(selection_svg(selection))
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
    _add_config_arguments(p, "r", "epsilon", "trials", "seed", "grid_j", "grid_m")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(handler=_cmd_lemma)

    p = sub.add_parser(
        "restricted-type", help="run the restricted-type decomposition"
    )
    _add_config_arguments(p, "r", "maximal_exp", "trials", "seed", "grid_j", "grid_m")
    p.add_argument(
        "--in",
        dest="input",
        default=None,
        help="JSON file with sets E1, E2, E3 and an optional collection",
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
        "--in",
        dest="input",
        required=True,
        help="JSON with collection, f, slot and alpha",
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
