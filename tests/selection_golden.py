"""Golden outputs of size, tree selection and the John-Nirenberg quantities.

Every case is drawn from a fixed seed, so the JSON written here is a
byte-for-byte fingerprint of the exact results: size values with their
witness trees and overlap slots, whole selection results with grab
order and residuals, and both John-Nirenberg quantities with their
witnesses.  The cases cover every slot, coefficients read by
`slot_coefficients`, per tile from the tables and non-dyadic ones, the
slot-three linearization, verify=False, an empty collection and
non-positive allowances.

    PYTHONPATH=src python tests/selection_golden.py

rewrites tests/fixtures/selection_golden.json.  Do that only at a
commit whose outputs are trusted; test_selection_golden.py compares
against the stored file.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from walshtf import QuadScalar, jn_quantities, select_trees, size, slot_coefficients
from walshtf.errors import PreconditionViolated
from walshtf.experiments.random_gen import (
    disjoint_collection,
    dyadic_function,
    quartile_collection,
    sign_function,
)
from walshtf.kernels import walsh_tables
from walshtf.operators import model_terms, optimal_linearization
from walshtf.wavepacket import StepFunction

FIXTURE = Path(__file__).parent / "fixtures" / "selection_golden.json"


def _size_json(report) -> dict:
    return {
        "value_sq": report.value_sq.to_text(),
        "overlap_index": report.overlap_index,
        "tree": None if report.tree is None else report.tree.to_json(),
    }


def _select_json(*args, **kwargs) -> dict:
    try:
        return select_trees(*args, **kwargs).to_json()
    except PreconditionViolated as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _jn_json(report) -> dict:
    return {
        "a2_sq": report.a2_sq.to_text(),
        "a2_witness": None if report.a2_witness is None else report.a2_witness.to_json(),
        "weak": report.weak,
        "weak_witness": (
            None if report.weak_witness is None else report.weak_witness.to_json()
        ),
    }


def _slot_cases(label, coll, f, domain_exp, out) -> None:
    """Size and selection in every slot, at the size and at twice it."""
    for slot in (1, 2, 3, 4):
        coeffs = slot_coefficients(f, coll, slot)
        report = size(coll, coeffs, slot, domain_exp)
        out[f"{label}/size/slot{slot}"] = _size_json(report)
        alpha = report.value_sq
        out[f"{label}/select/slot{slot}/alpha=size"] = _select_json(
            coll, coeffs, slot, alpha, domain_exp
        )
        out[f"{label}/select/slot{slot}/alpha=2size"] = _select_json(
            coll, coeffs, slot, alpha * 2, domain_exp
        )


def golden_cases() -> dict:
    out: dict = {}

    # Overlapping collections on two grids, sign and dyadic functions.
    for seed, (count, j, m, maker) in enumerate(
        ((24, 3, 4, sign_function), (30, 3, 5, dyadic_function), (16, 2, 4, sign_function))
    ):
        rng = random.Random(7000 + seed)
        coll = quartile_collection(rng, count, j, m)
        f = maker(rng, j, m)
        _slot_cases(f"overlap{seed}", coll, f, j, out)

    # Disjoint collection, as the restricted-type driver draws them.
    rng = random.Random(7100)
    coll = disjoint_collection(rng, 12, 3, 5)
    f = sign_function(rng, 3, 5)
    _slot_cases("disjoint", coll, f, 3, out)

    # Precomputed coefficients with verify=False, as the counting
    # driver runs them, walking the allowance down by quarters.
    rng = random.Random(7200)
    coll = quartile_collection(rng, 40, 3, 4)
    f = dyadic_function(rng, 3, 4)
    tables = walsh_tables(f)
    residual = list(coll)
    for n in range(4):
        for slot in (1, 2, 3, 4):
            coeffs = {q: tables.coefficient(q.tile(slot)) for q in coll}
            alpha = QuadScalar(Fraction(1, 4**n))
            key = f"cached/stage{n}/slot{slot}"
            out[key + "/size"] = _size_json(size(residual, coeffs, slot, 3))
            result = select_trees(residual, coeffs, slot, alpha, 3, verify=False)
            out[key + "/select"] = result.to_json()
            residual = list(result.residual)

    # Supplied coefficients with non power-of-two denominators.
    rng = random.Random(7300)
    coll = quartile_collection(rng, 20, 3, 4)
    sign_function(rng, 3, 4)  # drawn only to keep the seeded stream of the fixture
    coeffs = {
        q: QuadScalar(
            Fraction(rng.randint(-9, 9), rng.choice((1, 3, 5, 7, 12))),
            Fraction(rng.randint(-9, 9), rng.choice((1, 3, 7, 9, 10))),
        )
        for q in coll
    }
    for slot in (1, 2, 3, 4):
        report = size(coll, coeffs, slot, 3)
        out[f"rational/size/slot{slot}"] = _size_json(report)
        out[f"rational/select/slot{slot}"] = _select_json(
            coll, coeffs, slot, report.value_sq, 3
        )

    # Slot three through a linearization.
    rng = random.Random(7400)
    coll = disjoint_collection(rng, 10, 3, 5)
    fs = [sign_function(rng, 3, 5) for _ in range(3)]
    lin = optimal_linearization(model_terms(fs[0], fs[1], coll), 3.0, 3, 5)
    coeffs = slot_coefficients(fs[2], coll, 3, lin)
    report = size(coll, coeffs, 3, 3)
    out["linearized/size"] = _size_json(report)
    out["linearized/select"] = _select_json(coll, coeffs, 3, report.value_sq, 3)

    # A domain exponent below some member scales leaves those members
    # without candidate tops.
    rng = random.Random(7500)
    coll = quartile_collection(rng, 16, 3, 4)
    f = sign_function(rng, 3, 4)
    for slot in (1, 4):
        coeffs = slot_coefficients(f, coll, slot)
        report = size(coll, coeffs, slot, 2)
        out[f"lowtop/size/slot{slot}"] = _size_json(report)
        out[f"lowtop/select/slot{slot}"] = _select_json(
            coll, coeffs, slot, report.value_sq, 2
        )

    # Degenerate inputs: no members, zero and negative allowances.
    f = sign_function(random.Random(7600), 2, 3)
    out["empty/size"] = _size_json(size([], {}, 2, 2))
    out["empty/select"] = _select_json([], {}, 2, 1, 2)
    coll = quartile_collection(random.Random(7601), 8, 2, 3)
    zero = slot_coefficients(StepFunction.zero(2, 3), coll, 1)
    out["zero_f/select/alpha=0"] = _select_json(coll, zero, 1, 0, 2)
    out["zero_f/select/alpha<0"] = _select_json(coll, zero, 1, Fraction(-1, 2), 2)
    signs = slot_coefficients(f, coll, 1)
    out["sign_f/select/alpha=0"] = _select_json(coll, signs, 1, 0, 2)

    # John-Nirenberg quantities, with repeated members whose weights add.
    for seed in range(4):
        rng = random.Random(7700 + seed)
        coll = quartile_collection(rng, 14, 3, 4)
        terms = [(q, Fraction(rng.randint(-8, 8), 8)) for q in coll]
        terms += [(q, Fraction(rng.randint(-4, 4), 4)) for q in coll[:3]]
        for slot in (1, 2, 3, 4):
            out[f"jn{seed}/slot{slot}"] = _jn_json(jn_quantities(terms, slot, 3, 4))
    out["jn/empty"] = _jn_json(jn_quantities([], 2, 3, 4))
    return out


def golden_text() -> str:
    return json.dumps(golden_cases(), indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(golden_text(), encoding="utf-8")
    print(f"wrote {FIXTURE}")
