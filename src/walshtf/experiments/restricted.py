"""Restricted-type decomposition pipeline and the tree counting run.

run_restricted_type drives the full argument on indicator data: it
normalises the first set by dilation, carves out an exceptional set
through the grand maximal function, restricts the collection to
quartiles whose time interval escapes that set, then peels trees off
stage by stage with geometrically shrinking size allowances.  Exact
additivity of the trilinear form across the removed trees is asserted
on every run; all other quantities are reported as observed ratios.

run_counting_experiment isolates the counting side: starting from the
trivial allowance it drives the size of a collection down through
powers of four and tracks the total top length of the removed trees
against the inverse three-halves power of the allowance.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..errors import ConfigError, EmptySet, GridMismatch
from ..exact import ZERO, QuadScalar
from ..geometry import DyadicInterval, Quartile, quartile_sort_key
from ..operators import lambda_form, maximal, model_terms, optimal_linearization, slot_coefficients
from ..trees import select_trees, size
from ..wavepacket import StepFunction
from .config import ExperimentConfig
from .random_gen import (
    disjoint_collection,
    dyadic_set,
    masked_signs,
    quartile_collection,
)
from .report import ExperimentReport, trend_slope

__all__ = ["run_restricted_type", "run_counting_experiment"]

_COLUMNS = ("kind", "stage", "slot", "value", "reference", "ratio", "ok")


def _support_measure(f: StepFunction) -> Fraction:
    return Fraction(len(f.support_cells()), 1 << f.resolution_exp)


def _normalising_shift(cells: int, resolution_exp: int) -> int:
    """Shift s with measure / 2^s in [1/2, 1) for a set of cells >= 1
    grid cells of width 2^-m: the s with 2^(m+s-1) <= cells < 2^(m+s)."""
    return cells.bit_length() - resolution_exp


def _dilate_quartile(q: Quartile, shift: int) -> Quartile:
    return Quartile(
        DyadicInterval(q.time.index, q.time.scale - shift),
        DyadicInterval(q.freq.index, q.freq.scale + shift),
    )


def _exceptional_mask(
    indicators: list[StepFunction], q_tilde: float
) -> tuple[np.ndarray, float, Fraction]:
    """Mask of the union of maximal super-level sets, constant doubled.

    The threshold constant starts at one and doubles until the union
    has measure at most a quarter; the returned mask flags cells inside
    the exceptional set.
    """
    resolution_exp = indicators[0].resolution_exp
    fields = [maximal(ind, q_tilde) for ind in indicators]
    measures = [_support_measure(ind) for ind in indicators]
    constant = 1.0
    while True:
        mask = np.zeros_like(fields[0], dtype=bool)
        for field, measure in zip(fields, measures):
            mask |= field > constant * float(measure) ** (1.0 / q_tilde)
        bad = Fraction(int(mask.sum()), 1 << resolution_exp)
        if bad <= Fraction(1, 4):
            return mask, constant, bad
        constant *= 2.0


def _interval_inside(mask: np.ndarray, interval: DyadicInterval, resolution_exp: int) -> bool:
    lo, hi = interval.cell_range(resolution_exp)
    return bool(mask[lo:hi].all())


def _dyadic_ceiling(x: float) -> QuadScalar:
    """x rounded up to a multiple of 2^-20."""
    return QuadScalar.from_ints(math.ceil(x * (1 << 20)), 0, 1 << 20)


def run_restricted_type(
    e1: StepFunction,
    e2: StepFunction,
    e3: StepFunction,
    config: ExperimentConfig,
    collection: list[Quartile] | None = None,
) -> ExperimentReport:
    """Run the full decomposition on three indicator sets.

    The inputs must be indicators on a common grid with positive
    measure; EmptySet is raised otherwise.  When no collection is
    given, one is drawn from the config seed.  The report carries one
    row per observed quantity; the only rows that can fail are the
    exact additivity of the trilinear form over the removed trees and
    the per-tree estimate against four times the size product.
    """
    for ind in (e2, e3):
        if (ind.domain_exp, ind.resolution_exp) != (e1.domain_exp, e1.resolution_exp):
            raise GridMismatch("the three sets must share one grid")
    for label, ind in (("E1", e1), ("E2", e2), ("E3", e3)):
        if _support_measure(ind) == 0:
            raise EmptySet(f"{label} has measure zero")

    rng = config.rng(97)
    domain_exp, resolution_exp = e1.domain_exp, e1.resolution_exp
    shift = _normalising_shift(len(e1.support_cells()), e1.resolution_exp)
    sets = [e.dilate(shift) for e in (e1, e2, e3)]
    domain_exp, resolution_exp = domain_exp - shift, resolution_exp + shift
    measures = [_support_measure(e) for e in sets]

    if collection is None:
        if e1.domain_exp + e1.resolution_exp < 4:
            raise ConfigError("restricted-type needs J + m >= 4 to draw its four quartiles")
        capacity = 1 << (e1.domain_exp + e1.resolution_exp - 2)
        count = max(4, min(config.trials, capacity // 2))
        collection = list(disjoint_collection(rng, count, e1.domain_exp, e1.resolution_exp))
    members = sorted({_dilate_quartile(q, shift) for q in collection}, key=quartile_sort_key)

    functions = {i + 1: masked_signs(rng, sets[i]) for i in range(3)}
    q_tilde = config.maximal_exp
    mask, constant, bad_measure = _exceptional_mask(sets, q_tilde)
    functions[1] = functions[1].mask_out(mask)
    kept = [
        q
        for q in members
        if not _interval_inside(mask, q.time, resolution_exp)
    ]

    rows: list[tuple] = [
        ("normalization", shift, "", float(measures[0]), "", "", True),
        ("exceptional", "", "", constant, float(bad_measure), "", True),
        ("collection", "", "", len(kept), len(members), "", True),
    ]

    model = model_terms(functions[1], functions[2], kept)
    linearization = optimal_linearization(model, config.r, domain_exp, resolution_exp)

    # Each slot's coefficients of the kept quartiles, read once for the
    # run: every size and selection below reads a subset of them.
    coefficients = {
        slot: slot_coefficients(functions[slot], kept, slot, linearization)
        for slot in (1, 2, 3)
    }

    def slot_size_sq(quartiles, slot: int) -> QuadScalar:
        return size(quartiles, coefficients[slot], slot, domain_exp).value_sq

    initial_sq = {i: slot_size_sq(kept, i) for i in (1, 2, 3)}
    for i in (1, 2, 3):
        cap = constant * float(measures[i - 1]) ** (1.0 / q_tilde)
        value = initial_sq[i].to_float() ** 0.5
        rows.append(("size_cap", "", i, value, cap, value / cap, True))

    targets = [
        math.log2(float(measures[i - 1])) - q_tilde * math.log2(initial_sq[i].to_float())
        for i in (1, 2, 3)
        if initial_sq[i] > ZERO
    ]
    # (stage, slot, grab, the grab's squared size in slots 1, 2 and 3)
    selected: list[tuple[int, int, object, tuple[QuadScalar, ...]]] = []
    residual = list(kept)
    stage = 0
    if targets and residual:
        n = math.floor(min(targets))
        allowances: dict[int, QuadScalar] = {}
        while residual and stage < 48:
            exhausted = True
            for i in (1, 2, 3):
                theta = 2.0 ** (-n / q_tilde) * float(measures[i - 1]) ** (1.0 / q_tilde)
                allowance = _dyadic_ceiling(theta)
                if i in allowances:
                    allowance = max(allowance, allowances[i] * Fraction(1, 4))
                else:
                    allowance = max(allowance, initial_sq[i])
                allowances[i] = allowance
                result = select_trees(residual, coefficients[i], i, allowance, domain_exp)
                residual = list(result.residual)
                if result.grabs:
                    top_len = float(result.top_length())
                    rows.append(
                        (
                            "stage_trees",
                            n,
                            i,
                            len(result.grabs),
                            top_len,
                            top_len / 2.0**n,
                            True,
                        )
                    )
                    grab_sizes = [
                        tuple(slot_size_sq(grab.full.quartiles, j) for j in (1, 2, 3))
                        for grab in result.grabs
                    ]
                    for grab, sizes in zip(result.grabs, grab_sizes):
                        selected.append((n, i, grab, sizes))
                    for j in (1, 2, 3):
                        theta_j = (
                            2.0 ** (-n / (2.0 * q_tilde))
                            * float(measures[j - 1]) ** (1.0 / (2.0 * q_tilde))
                        )
                        worst = max(sizes[j - 1].to_float() ** 0.5 for sizes in grab_sizes)
                        rows.append(
                            ("tree_size", n, j, worst, theta_j, worst / theta_j, True)
                        )
                if result.residual_size_sq is not None and result.residual_size_sq > ZERO:
                    exhausted = False
            stage += 1
            n += 1
            if exhausted:
                break

    # Each kept quartile's term of the form, from the coefficients read
    # above; the additivity row checks lambda_form over all of kept
    # against these terms summed tree by tree and over the residual.
    lam_terms = {q: c * coefficients[3][q] for q, c in model}

    def lam_part(quartiles) -> QuadScalar:
        return sum((lam_terms[q] for q in quartiles), ZERO)

    lam_total = lambda_form(kept, functions[1], functions[2], functions[3], linearization)
    recombined = ZERO
    estimate_ratios = []
    for n, i, grab, sizes in selected:
        part = lam_part(grab.full.quartiles)
        recombined = recombined + part
        length = grab.full.top_interval.length
        product_sq = QuadScalar.coerce(16 * length * length)
        for size_sq in sizes:
            product_sq = product_sq * size_sq
        ok = part.square() <= product_sq
        bound = product_sq.to_float() ** 0.5
        ratio = abs(part).to_float() / bound if bound > 0 else 0.0
        if bound == 0.0:
            ok = part == ZERO
        estimate_ratios.append(ratio)
        rows.append(("tree_estimate", n, i, abs(part).to_float(), bound, ratio, ok))
    recombined = recombined + lam_part(residual)
    rows.append(
        (
            "lambda_additivity",
            "",
            "",
            lam_total.to_text(),
            recombined.to_text(),
            "",
            recombined == lam_total,
        )
    )

    lam_abs = abs(lam_total).to_float()
    exponent_ratios = []
    sixteenth = 1.0 / 16.0
    for a2 in (0.5 - sixteenth, 0.5, 0.5 + sixteenth):
        for a3 in (1.0 - sixteenth, 1.0, 1.0 + sixteenth):
            a1 = 1.0 - a2 - a3
            denom = (
                float(measures[0]) ** a1
                * float(measures[1]) ** a2
                * float(measures[2]) ** a3
            )
            ratio = lam_abs / denom
            exponent_ratios.append(ratio)
            rows.append(("exponent_ratio", f"{a2:.4f}", f"{a3:.4f}", lam_abs, denom, ratio, True))

    failures = sum(1 for row in rows if not row[-1])
    summary = (
        ("lambda", lam_total.to_text()),
        ("stages", stage),
        ("trees", len(selected)),
        ("max_tree_estimate_ratio", max(estimate_ratios, default=0.0)),
        ("max_exponent_ratio", max(exponent_ratios, default=0.0)),
        ("failures", failures),
    )
    return ExperimentReport("restricted_type", _COLUMNS, tuple(rows), summary)


def run_counting_experiment(
    config: ExperimentConfig,
    box_levels: tuple[int, ...] = (6, 7, 8, 9),
) -> ExperimentReport:
    """Track removed top length against the allowance at constant density.

    Collection and box grow together: level b runs on a (J, b - J)
    grid with J = min(config.grid_j, b - 3) and draws half of the
    quartile pool, capped at 500, without replacement.  Boxes of
    equal combined exponent are dilates of one another, so every rung
    samples at the same density and the removed-length statistics are
    comparable across collection sizes; growth of the per-size maxima
    would mean the counting constant degrades as collections scale up.
    Each trial pairs such a collection with the indicator of a random
    cell set and walks the allowance down through 1, 1/4, ..., 4^-5,
    selecting over all four slots at every step.  The top length
    removed at each measured stage is scaled by the three-halves power
    of that stage's allowance over the measure of the set; the opening
    unit-allowance pass only establishes the precondition for the first
    measured stage.  The summary reports the worst ratio, the worst
    ratio per collection size, whether those maxima increase
    monotonically with size, and their trend slope against log size.
    """
    rng = config.rng(103)
    rungs: list[tuple[int, int, int]] = []
    for level in sorted(dict.fromkeys(box_levels)):
        domain_exp = min(config.grid_j, level - 3)
        pool = (level - 1) << (level - 2)
        count = min(pool // 2, 500)
        if not any(count == c for c, _, _ in rungs):
            rungs.append((count, domain_exp, level - domain_exp))
    trials_per = max(1, config.trials // len(rungs))
    rows = []
    maxima: dict[int, float] = {}
    for count, domain_exp, resolution_exp in rungs:
        for trial in range(trials_per):
            f = dyadic_set(rng, domain_exp, resolution_exp, density=0.5)
            measure = _support_measure(f)
            residual: list[Quartile] | tuple[Quartile, ...] = quartile_collection(
                rng, count, domain_exp, resolution_exp
            )
            by_slot = {
                slot: slot_coefficients(f, residual, slot) for slot in (1, 2, 3, 4)
            }
            for n in range(6):
                allowance = QuadScalar.from_ints(1, 0, 4**n)
                removed = Fraction(0)
                for slot in (1, 2, 3, 4):
                    result = select_trees(
                        residual, by_slot[slot], slot, allowance, domain_exp, verify=False
                    )
                    removed += result.top_length()
                    residual = list(result.residual)
                if n == 0:
                    continue
                ratio = float(removed) * 4.0 ** (-1.5 * n) / float(measure)
                maxima[count] = max(maxima.get(count, 0.0), ratio)
                rows.append(
                    (count, trial, n, ratio, float(removed), float(measure))
                )
    sizes_log = [math.log(c) for c, _, _ in rungs if c in maxima]
    peak_list = [maxima[c] for c, _, _ in rungs if c in maxima]
    monotone = all(a < b for a, b in zip(peak_list, peak_list[1:])) and len(peak_list) > 1
    summary = tuple(
        [("max_ratio", max(peak_list, default=0.0))]
        + [(f"max_ratio_{c}", maxima[c]) for c, _, _ in rungs if c in maxima]
        + [
            ("growth_slope", trend_slope(sizes_log, peak_list)),
            ("monotone_in_size", monotone),
            ("failures", 0),
        ]
    )
    return ExperimentReport(
        "counting",
        ("collection_size", "trial", "stage", "ratio", "top_length", "set_measure"),
        tuple(rows),
        summary,
    )
