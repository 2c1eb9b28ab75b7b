"""Strong-type experiment for the variational bilinear operator.

Each trial draws two sign functions and a disjoint quartile collection,
forms the model coefficients exactly through the packet transform
tables, renders the truncated sums as a float field, and measures the
r-variation and the maximal truncation in the target Lebesgue norm
against the product of the input norms.  A deterministic unit quartile
case rides along; its ratio is exactly one and is asserted, since every
quantity involved is a power of two.
"""

from __future__ import annotations

import math
from statistics import median

from ..errors import ConfigError
from ..exact import quad_to_float
from ..geometry import DyadicInterval, Quartile
from ..kernels import batch_sup, batch_variation, lp_norm, render_partial_sum_field
from ..operators import model_coefficients
from ..wavepacket import StepFunction, tree_sign_step, wavepacket_step
from .config import ExperimentConfig
from .random_gen import disjoint_collection, sign_function
from .report import ExperimentReport, trend_slope

__all__ = ["run_theorem1"]


def _operator_fields(
    f1: StepFunction,
    f2: StepFunction,
    quartiles,
    r: float,
    domain_exp: int,
    resolution_exp: int,
):
    """Variation and sup fields of the model operator on a collection.

    The terms keep the order of the quartiles, which fixes the float sums.
    """
    coefficients = [quad_to_float(*c) for c in model_coefficients(f1, f2, quartiles)]
    field = render_partial_sum_field(
        zip(quartiles, coefficients), 3, domain_exp, resolution_exp
    )
    return batch_variation(field, r), batch_sup(field)


def run_theorem1(config: ExperimentConfig) -> ExperimentReport:
    """Measure the operator norm ratio across collection sizes.

    Collections of 1, 10, 100 and 500 quartiles share the trial budget
    evenly.  Trials alternate between independent random signs and
    inputs aligned with one member of the collection; the aligned kind
    saturates the bound at every size, so the growth of the per-size
    maxima reflects the uniformity of the estimate rather than the
    thinness of random mass.  Trials whose input product norm vanishes
    are flagged and excluded from the maxima.  The summary carries the
    worst ratio per size, the slope of its logarithm against log size,
    and the unit quartile ratio, which must equal one.
    """
    domain_exp, resolution_exp = config.grid_j, config.grid_m
    if domain_exp + resolution_exp < 3:
        raise ConfigError("theorem1 needs grid_j + grid_m >= 3 to fit two disjoint quartiles")
    rng = config.rng(113)
    capacity = (1 << (domain_exp + resolution_exp - 2)) // 2
    sizes = tuple(
        dict.fromkeys(min(c, capacity) for c in (1, 10, 100, 500))
    )
    trials_per = max(1, config.trials // len(sizes))
    rows = []
    maxima: dict[int, float] = {}
    ratios = []

    unit = Quartile(DyadicInterval(0, 0), DyadicInterval(0, 2))
    f1 = wavepacket_step(unit.tile(1), domain_exp, resolution_exp)
    f2 = wavepacket_step(unit.tile(2), domain_exp, resolution_exp)
    var_field, star_field = _operator_fields(
        f1, f2, [unit], config.r, domain_exp, resolution_exp
    )
    denom = lp_norm(f1.to_float_array(), config.p1, resolution_exp) * lp_norm(
        f2.to_float_array(), config.p2, resolution_exp
    )
    unit_ratio = lp_norm(var_field, config.q, resolution_exp) / denom
    unit_star = lp_norm(star_field, config.q, resolution_exp) / denom
    rows.append(
        ("unit", 1, "exact", unit_ratio, unit_star, "" if unit_ratio == 1.0 else "off")
    )

    for count in sizes:
        for trial in range(trials_per):
            quartiles = disjoint_collection(
                rng, count, domain_exp, resolution_exp
            )
            if trial % 2 == 0:
                target = rng.choice(quartiles)
                f1 = tree_sign_step(target.tile(1), domain_exp, resolution_exp)
                f2 = tree_sign_step(target.tile(2), domain_exp, resolution_exp)
                kind = "aligned"
            else:
                f1 = sign_function(rng, domain_exp, resolution_exp)
                f2 = sign_function(rng, domain_exp, resolution_exp)
                kind = "random"
            denom = lp_norm(
                f1.to_float_array(), config.p1, resolution_exp
            ) * lp_norm(f2.to_float_array(), config.p2, resolution_exp)
            if denom == 0.0:
                rows.append((count, trial, kind, 0.0, 0.0, "zero-input"))
                continue
            var_field, star_field = _operator_fields(
                f1, f2, quartiles, config.r, domain_exp, resolution_exp
            )
            ratio = lp_norm(var_field, config.q, resolution_exp) / denom
            star = lp_norm(star_field, config.q, resolution_exp) / denom
            maxima[count] = max(maxima.get(count, 0.0), ratio)
            ratios.append(ratio)
            rows.append((count, trial, kind, ratio, star, ""))

    peaks_x = [math.log(c) for c in sizes if c in maxima]
    peaks_y = [math.log(max(maxima[c], 1e-300)) for c in sizes if c in maxima]
    summary = tuple(
        [("max_ratio", max(maxima.values(), default=0.0))]
        + [(f"max_ratio_{c}", maxima[c]) for c in sizes if c in maxima]
        + [
            ("median_ratio", median(ratios) if ratios else 0.0),
            ("growth_slope", trend_slope(peaks_x, peaks_y)),
            ("unit_ratio", unit_ratio),
            ("failures", sum(1 for row in rows if row[-1] == "off")),
        ]
    )
    return ExperimentReport(
        "theorem1",
        ("collection_size", "trial", "kind", "ratio", "star_ratio", "flag"),
        tuple(rows),
        summary,
    )
