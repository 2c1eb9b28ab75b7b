"""Golden outputs of the report-writing CLI subcommands.

Each case runs one subcommand in process at a small fixed config and
keeps its exit status and the exact bytes it writes to `--out` (a CSV
report, the selection JSON of `select-trees`, the SVG of `render`), so
any change to an exact value, a float rendering, a row order or a
summary line shows up as a byte difference.  The cases cover
`identities`, every `lemma` name, `restricted-type` (drawn sets and a
`--in` file with a given collection), `theorem1`, `counting`, and
`select-trees` on a fixed file followed by `render` of its output.

    PYTHONPATH=src python tests/cli_golden.py

rewrites tests/fixtures/cli_golden.json.  Do that only at a commit
whose outputs are trusted; test_cli_golden.py compares against the
stored file.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from walshtf.experiments.cli import main
from walshtf.experiments.suites import LEMMA_NAMES

FIXTURE = Path(__file__).parent / "fixtures" / "cli_golden.json"

CASES = (
    ("identities", ["identities", "--trials", "6", "--seed", "3"]),
    *(
        (f"lemma/{name}", ["lemma", name, "--trials", "12", "--seed", "4"])
        for name in LEMMA_NAMES
    ),
    ("restricted-type/seed1", ["restricted-type", "--trials", "12", "--seed", "1"]),
    (
        "restricted-type/grid2x4",
        ["restricted-type", "--trials", "12", "--seed", "2", "--grid-j", "2", "--grid-m", "4"],
    ),
    (
        "theorem1",
        ["theorem1", "--trials", "8", "--grid-j", "4", "--grid-m", "6", "--seed", "5"],
    ),
    ("counting", ["counting", "--trials", "1", "--seed", "2"]),
)

# A restricted-type input file: three cell sets on a (2, 4) grid and
# a collection of quartiles inside the box.
RESTRICTED_INPUT = {
    "E1": {"grid": [2, 4], "cells": list(range(0, 64, 2))},
    "E2": {"grid": [2, 4], "cells": list(range(8, 56))},
    "E3": {"grid": [2, 4], "cells": [c for c in range(64) if c % 3]},
    "collection": [
        {"time": {"n": 0, "k": 0}, "freq": {"n": 1, "k": 2}},
        {"time": {"n": 1, "k": 1}, "freq": {"n": 5, "k": 1}},
        {"time": {"n": 3, "k": -1}, "freq": {"n": 1, "k": 3}},
        {"time": {"n": 2, "k": 0}, "freq": {"n": 3, "k": 2}},
        {"time": {"n": 0, "k": 2}, "freq": {"n": 9, "k": 0}},
    ],
}

# A select-trees input file: an indicator on a (2, 4) grid and 22
# overlapping quartiles, with an allowance at which one tree is grabbed.
SELECTION_INPUT = {
    "f": {"grid": [2, 4], "cells": [c for c in range(64) if c % 5 in (0, 1, 3)]},
    "slot": 1,
    "alpha": "25/64",
    "domain_exp": 2,
    "collection": [
        {"time": {"n": n, "k": k}, "freq": {"n": w, "k": 2 - k}}
        for k in (-1, 0, 1, 2)
        for n in range(0, 1 << (2 - k), 3)
        for w in range(4)
        if (w + 1) << (2 - k) <= 16
    ],
}


def _run(argv: list[str], out: Path) -> dict:
    status = main([*argv, "--out", str(out)])
    return {"status": status, "out": out.read_text(encoding="utf-8")}


def golden_cases() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.csv"
        for name, argv in CASES:
            out[name] = _run(argv, report)
        source = Path(tmp) / "restricted.json"
        source.write_text(json.dumps(RESTRICTED_INPUT), encoding="utf-8")
        out["restricted-type/in"] = _run(
            ["restricted-type", "--in", str(source), "--seed", "6"], report
        )
        source = Path(tmp) / "selection_in.json"
        source.write_text(json.dumps(SELECTION_INPUT), encoding="utf-8")
        selection = Path(tmp) / "selection.json"
        out["select-trees"] = _run(["select-trees", "--in", str(source)], selection)
        out["render"] = _run(["render", "--in", str(selection)], Path(tmp) / "plane.svg")
    return out


def golden_text() -> str:
    return json.dumps(golden_cases(), indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(golden_text(), encoding="utf-8")
    print(f"wrote {FIXTURE}")
