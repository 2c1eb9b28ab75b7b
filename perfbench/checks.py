"""Output checks: reference reports and cross-lane agreement.

References live in `refs/<workload>.json`, one entry per driver seed,
recorded by `record_refs.py` at a commit whose outputs are trusted.  Exact
workloads must reproduce the SHA-256 of their report bytes.  The float
workload keeps its whole report: its exact fields must match as text,
its float fields within a relative 1e-9, and it must report
`failures = 0` and `unit_ratio = 1.0` exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
FLOAT_REL_TOL = 1e-9


def load_refs(workload: str) -> tuple[list[list[int]], dict[int, dict]]:
    """The workload's input batches and its reference per driver seed."""
    data = json.loads((REFS / f"{workload}.json").read_text(encoding="utf-8"))
    reports = {int(seed): entry for seed, entry in data["reports"].items()}
    return data["batches"], reports


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fields(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return not token.lstrip("-").isdigit()


def _close(got: str, want: str) -> bool:
    if got == want:
        return True
    if not (_is_float(got) and _is_float(want)):
        return False
    a, b = float(got), float(want)
    return math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)


def _summary(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            out[key] = value
    return out


def check_report(text: str, ref: dict, exact: bool) -> str | None:
    """None when the report is correct, else the reason it is not."""
    if exact:
        return None if digest(text) == ref["sha256"] else "report bytes differ"
    summary = _summary(text)
    if summary.get("failures") != "0":
        return f"failures = {summary.get('failures')}"
    if summary.get("unit_ratio") != "1.0":
        return f"unit_ratio = {summary.get('unit_ratio')}"
    got, want = _fields(text), _fields(ref["csv"])
    if len(got) != len(want):
        return "report has another number of lines"
    for line_no, (row, ref_row) in enumerate(zip(got, want), 1):
        if len(row) != len(ref_row) or not all(map(_close, row, ref_row)):
            return f"line {line_no} differs: {','.join(row)!r}"
    return None


def cross_lane_checks(seed: int) -> list[str]:
    """Agreement of the exact and float lanes on seeded inputs.

    Per-tile, grouped and table packet coefficients must be equal; the
    exact partial-sum field must match the rendered one, and the looped
    variation DP the batched one, within a relative 1e-9.  Returns the
    failed checks.
    """
    import numpy as np

    from walshtf.experiments.random_gen import (
        dyadic_function,
        quartile_collection,
        tree_coefficients,
    )
    from walshtf.kernels import batch_variation, render_partial_sum_field, walsh_tables
    from walshtf.operators import partial_sum_field
    from walshtf.variation import variation_norm
    from walshtf.wavepacket import batch_inner_products, inner_product

    grid_j, grid_m, count, r = 4, 6, 60, 3.0
    rng = random.Random(seed * 1_000_003 + 2026)
    f = dyadic_function(rng, grid_j, grid_m)
    collection = quartile_collection(rng, count, grid_j, grid_m)
    weights = tree_coefficients(rng, collection)
    failed = []

    tiles = [q.tile(slot) for q in collection for slot in (1, 2, 3, 4)]
    singles = {t: inner_product(f, t) for t in tiles}
    grouped = batch_inner_products(f, tiles)
    tables = walsh_tables(f)
    from_tables = {t: tables.coefficient(t) for t in tiles}
    if not singles == grouped == from_tables:
        failed.append("per-tile, grouped and table coefficients differ")

    exact_field = partial_sum_field(list(weights.items()), 3, grid_j, grid_m).to_array()
    rendered = render_partial_sum_field(
        [(q, float(c)) for q, c in weights.items()], 3, grid_j, grid_m
    )
    scale = max(1.0, float(np.max(np.abs(exact_field))))
    if rendered.shape != exact_field.shape or np.max(
        np.abs(exact_field - rendered)
    ) > FLOAT_REL_TOL * scale:
        failed.append("exact and rendered partial-sum fields differ")

    looped = np.array(
        [
            variation_norm(rendered[:, c], r, method="float").value
            for c in range(rendered.shape[1])
        ]
    )
    batched = batch_variation(rendered, r)
    scale = max(1.0, float(np.max(np.abs(looped))))
    if np.max(np.abs(looped - batched)) > FLOAT_REL_TOL * scale:
        failed.append("looped and batched variation differ")
    return failed
