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
import random

import numpy as np

from ..errors import ConfigError
from ..exact import quad_to_float
from ..geometry import DyadicInterval, Quartile
from ..kernels import batch_sup, batch_variation, lp_norm, render_partial_sum_field
from ..wavepacket import StepFunction, tree_sign_step, wavepacket_step
from .config import ExperimentConfig
from .random_gen import disjoint_collection, sign_function
from .report import ExperimentReport, median, trend_slope

__all__ = ["run_theorem1"]


def _model_coefficients(
    f1: StepFunction, f2: StepFunction, quartiles, resolution_exp: int
) -> list[float]:
    """|I_P|^(-1/2) <f1, phi_P1> <f2, phi_P2> of every quartile P, correctly rounded.

    The slot 1 and slot 2 entries come from the butterfly tables in
    whole arrays (`WalshTables.stage_entries`).  With
    (u_r + u_s sqrt2)(v_r + v_s sqrt2) = a + b sqrt2, the coefficient at
    time scale k is (a + b sqrt2) 2^(-(4m + 3k)/2) / (d1 d2): each read
    carries 2^(-(2m + k)/2) / d_i and the quartile 2^(-k/2).  It is
    rounded by `quad_to_float` on these integers, which gives the float
    of the exact coefficient whatever its representation.
    """
    count = len(quartiles)
    if not count:
        return []
    scales = np.fromiter((q.time.scale for q in quartiles), np.int64, count)
    indices = np.fromiter((q.time.index for q in quartiles), np.int64, count)
    freqs = 4 * np.fromiter((q.freq.index for q in quartiles), np.int64, count)
    ur, us = f1.packet_tables().stage_entries(scales, indices, freqs)
    vr, vs = f2.packet_tables().stage_entries(scales, indices, freqs + 1)
    big = max(int(np.abs(p).max()) for p in (ur, us, vr, vs))
    if 4 * big * big >= 1 << 63:
        ur, us, vr, vs = (p.astype(object) for p in (ur, us, vr, vs))
    a, b = ur * vr + 2 * us * vs, ur * vs + us * vr
    # 2^(-e/2) for odd e is 2^(-(e + 1)/2) sqrt2, and (a + b sqrt2) sqrt2 = 2b + a sqrt2.
    exps = 4 * resolution_exp + 3 * scales
    odd = (exps & 1).astype(bool)
    a, b = np.where(odd, 2 * b, a), np.where(odd, a, b)
    d = f1.field.denominator * f2.field.denominator
    # Quartile scales are at least 2 - m, so every exponent is positive.
    return [
        quad_to_float(r, s, d << h)
        for r, s, h in zip(a.tolist(), b.tolist(), ((exps + 1) >> 1).tolist())
    ]


def _operator_fields(
    f1: StepFunction,
    f2: StepFunction,
    quartiles,
    r: float,
    domain_exp: int,
    resolution_exp: int,
):
    """Variation and sup fields of the model operator on a collection."""
    coefficients = _model_coefficients(f1, f2, quartiles, resolution_exp)
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
    rng = random.Random(config.seed * 1_000_003 + 113)
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
    var_field, sup_field = _operator_fields(
        f1, f2, [unit], config.r, domain_exp, resolution_exp
    )
    denom = lp_norm(f1.to_float_array(), config.p1, resolution_exp) * lp_norm(
        f2.to_float_array(), config.p2, resolution_exp
    )
    unit_ratio = lp_norm(var_field, config.q, resolution_exp) / denom
    unit_star = lp_norm(sup_field, config.q, resolution_exp) / denom
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
            var_field, sup_field = _operator_fields(
                f1, f2, quartiles, config.r, domain_exp, resolution_exp
            )
            ratio = lp_norm(var_field, config.q, resolution_exp) / denom
            star = lp_norm(sup_field, config.q, resolution_exp) / denom
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
