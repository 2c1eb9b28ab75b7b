"""Identity checks and lemma-level experiment drivers.

The identity suite exercises the exact algebraic facts the rest of the
package leans on: orthonormality of wave packets, truncation of a tree
by averaging, variation invariance under that truncation, and the
delta-insertion identity for pinned families.  Every comparison here is
in exact arithmetic; a single discrepancy is a failure.

The lemma experiments are different in kind.  They measure observed
ratios against the bounds the inequalities promise and report the
worst case; nothing is asserted beyond bookkeeping, since the constants
are not pinned down by the statements.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from statistics import median

import numpy as np

from ..errors import ConfigError
from ..exact import ZERO, QuadScalar
from ..geometry import DyadicInterval, Quartile, Tile, quartile_sort_key, tiles_disjoint
from ..kernels import average_ladder, batch_variation, differing_columns, lp_norm, packet_sums
from ..operators import (
    FrequencySet,
    TruncationField,
    average,
    freq_projection,
    maximal,
    partial_sum_field,
    slot_coefficients,
)
from ..trees import jn_quantities, jump_times, size
from ..variation import collapse_repeats, variation_norm
from ..wavepacket import StepFunction, tree_sign_step, wavepacket_step
from .config import ExperimentConfig
from .random_gen import (
    disjoint_collection,
    frequency_set,
    pinned_forest,
    pinned_tree,
    sign_function,
)
from .report import ExperimentReport, trend_slope

__all__ = ["run_identity_suite", "run_lemma_experiment", "LEMMA_NAMES"]

# Fixed offsets keep the random streams of the different suites
# independent of one another while staying reproducible from one seed.
_STREAM_OFFSET = {
    "identities": 11,
    "lepingle": 23,
    "bourgain_delta": 31,
    "rademacher_menshov": 47,
    "john_nirenberg": 59,
    "size_bound": 73,
}


def _random_tile(rng: random.Random, domain_exp: int, resolution_exp: int) -> Tile:
    scale = rng.randint(-resolution_exp, domain_exp)
    time = DyadicInterval(rng.randrange(1 << (domain_exp - scale)), scale)
    freq = DyadicInterval(rng.randrange(1 << (resolution_exp + scale)), -scale)
    return Tile(time, freq)


def _nu(subtile: int, pin: int) -> int:
    pair = {subtile, pin}
    return 0 if pair in ({1, 2}, {3, 4}) else 1


def _nonzero_coefficients(
    rng: random.Random, members: tuple[Quartile, ...]
) -> dict[Quartile, Fraction]:
    return {
        q: Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), 8) for q in members
    }


def _from_scale(field: TruncationField, k: int) -> StepFunction:
    """The field's terms at time scales k and up: its row at k - 1, clamped."""
    return field.row_at(min(max(k - 1, field.scale_min), field.scale_max))


def _same_variation(a: list[StepFunction], b: list[StepFunction], r: int | float) -> bool:
    """Whether every cell's values down a and down b have one r-variation.

    Only the columns `differing_columns` keeps are decided, and a column
    whose collapsed sequences agree needs no variation at all.
    """
    columns, unit = differing_columns(a, b)
    for col_a, col_b in columns:
        seq_a = collapse_repeats(col_a)
        seq_b = collapse_repeats(col_b)
        if seq_a == seq_b:
            continue
        pa = variation_norm([QuadScalar.from_ints(x, y, unit) for x, y in seq_a], r).power_sum
        pb = variation_norm([QuadScalar.from_ints(x, y, unit) for x, y in seq_b], r).power_sum
        if pa != pb:
            return False
    return True


def run_identity_suite(config: ExperimentConfig) -> ExperimentReport:
    """Exercise the exact identities on randomized inputs.

    Four families of checks run back to back: wave packet
    orthonormality on random tile pairs, tree truncation against
    partial-sum rows for every admissible shift, exact equality of
    variation before and after truncation, and the delta-insertion
    identity on pinned families.  All arithmetic is exact; the report
    has one row per check and the failure count is the number of rows
    whose ok flag is cleared.
    """
    domain_exp, resolution_exp = config.grid_j, config.grid_m
    if resolution_exp < domain_exp + 2:
        # Top-frequency digits of weight 2^-j, grid_j < j <= grid_m, are
        # never pinned by a member, so two of them give pinned_forest
        # enough distinct trees to draw from.
        raise ConfigError("identities needs grid_m >= grid_j + 2 to draw distinct pinned trees")
    if not (config.r == math.inf or float(config.r).is_integer()):
        # The variation check runs in exact arithmetic, which takes these r only.
        raise ConfigError(f"identities needs an integer or infinite r, got {config.r}")
    rng = config.rng(_STREAM_OFFSET["identities"])
    columns = ("check", "trial", "detail", "ok")
    rows: list[tuple] = []

    # --- wave packet orthonormality -----------------------------------
    for trial in range(config.trials):
        a = _random_tile(rng, domain_exp, resolution_exp)
        b = _random_tile(rng, domain_exp, resolution_exp)
        fa = wavepacket_step(a, domain_exp, resolution_exp)
        fb = wavepacket_step(b, domain_exp, resolution_exp)
        ok = fa.dot(fa) == 1 and fb.dot(fb) == 1
        detail = "norms"
        if tiles_disjoint(a, b):
            ok = ok and fa.dot(fb) == ZERO
            detail = "norms+cross"
        rows.append(("orthonormality", trial, detail, ok))

    # --- tree truncation and variation invariance ---------------------
    exact_r = config.r if config.r == math.inf else int(config.r)
    for trial in range(config.trials):
        pin = 2 if trial == 0 else rng.choice((1, 2, 3, 4))
        tree = pinned_tree(
            rng,
            pin,
            domain_exp,
            resolution_exp,
            depth=rng.randint(2, 5),
            max_per_scale=2,
        )
        members = tuple(sorted(tree.quartiles, key=lambda q: q.time.scale))
        coeffs = _nonzero_coefficients(rng, members)
        sign = tree_sign_step(tree.top_tile, domain_exp, resolution_exp)
        zero = StepFunction.zero(domain_exp, resolution_exp)
        scales = {q.time.scale for q in members}
        for subtile in range(1, 5):
            if subtile == pin:
                continue
            shift = _nu(subtile, pin)
            field = partial_sum_field(
                list(coeffs.items()), subtile, domain_exp, resolution_exp
            )
            # No member is finer than 2^(2 - m), so row 0 holds every term.
            strict = list(field.rows)
            conjugated = []
            ok = True
            signed = sign * strict[0]
            for k in range(-resolution_exp, domain_exp + 1):
                rhs = sign * average(signed, k)
                conjugated.append(rhs)
                pos = k + shift + resolution_exp
                lhs = strict[pos] if pos < len(strict) else zero
                if lhs != rhs:
                    ok = False
            rows.append(
                ("trunctree", trial, f"subtile={subtile} shift={shift}", ok)
            )

            # The complementary shift must fail somewhere whenever the
            # tree carries at least two scales, otherwise the shift
            # table would be untestable on this sample.
            if len(scales) > 1:
                wrong = 1 - shift
                clean = True
                for k in range(-resolution_exp, domain_exp + 1):
                    pos = k + wrong + resolution_exp
                    lhs = strict[pos] if 0 <= pos < len(strict) else zero
                    if lhs != conjugated[k + resolution_exp]:
                        clean = False
                        break
                rows.append(
                    ("shift-table", trial, f"subtile={subtile}", not clean)
                )

            ok_var = _same_variation(strict, conjugated, exact_r)
            rows.append(
                ("vartrunc", trial, f"subtile={subtile} r={exact_r}", ok_var)
            )

    # --- delta insertion on pinned families ---------------------------
    families = max(1, config.trials // 2)
    for trial in range(families):
        pin = rng.choice((1, 2, 4))
        shift = 0 if pin == 4 else 1
        forest = pinned_forest(
            rng,
            pin,
            domain_exp,
            resolution_exp,
            count=rng.randint(2, 3),
            depth=rng.randint(2, 4),
        )
        members = sorted({q for tree in forest for q in tree.quartiles}, key=quartile_sort_key)
        f = sign_function(rng, domain_exp, resolution_exp)
        coeffs = slot_coefficients(f, members, 3)
        field = partial_sum_field(coeffs.items(), 3, domain_exp, resolution_exp)
        freqs = FrequencySet(tree.top_freq for tree in forest)
        times = jump_times(freqs)
        checked = 0
        ok = True
        for start, stop in zip(times, times[1:]):
            beyond = _from_scale(field, stop)
            window = _from_scale(field, start) - beyond
            k_lo = max(start, shift + 1 - resolution_exp)
            k_hi = min(stop, domain_exp + shift + 2)
            for k in range(k_lo, k_hi):
                truncated = _from_scale(field, k) - beyond
                recovered = freq_projection(window, freqs, k - shift - 1)
                checked += 1
                if recovered != truncated:
                    ok = False
        detail = f"pin={pin} windows={len(times) - 1} checks={checked}"
        rows.append(("insertdelta", trial, detail, ok))

    failures = sum(1 for row in rows if not row[-1])
    summary = (
        ("checks", len(rows)),
        ("failures", failures),
    )
    return ExperimentReport("identities", columns, tuple(rows), summary)


def _lepingle(config: ExperimentConfig) -> ExperimentReport:
    """Variation norm of the averaging family against the input norm.

    For each sample the full ladder of dyadic averages is materialised
    as a field, its r-variation taken cell by cell, and the L^t norm of
    that compared with the L^t norm of the sample, t fixed at 2.
    """
    rng = config.rng(_STREAM_OFFSET["lepingle"])
    domain_exp, resolution_exp = config.grid_j, config.grid_m
    t = 2.0
    rows = []
    ratios = []
    for trial in range(config.trials):
        f = sign_function(rng, domain_exp, resolution_exp)
        arr = f.to_float_array()
        lhs = lp_norm(batch_variation(average_ladder(arr), config.r), t, resolution_exp)
        rhs = lp_norm(arr, t, resolution_exp)
        if rhs == 0.0:
            rows.append((trial, 0.0, lhs, rhs, "zero-input"))
            continue
        ratio = lhs / rhs
        ratios.append(ratio)
        rows.append((trial, ratio, lhs, rhs, ""))
    summary = (
        ("max_ratio", max(ratios, default=0.0)),
        ("median_ratio", median(ratios) if ratios else 0.0),
        ("failures", 0),
    )
    return ExperimentReport(
        "lepingle", ("trial", "ratio", "lhs", "rhs", "flag"), tuple(rows), summary
    )


def _power(base: int, exponent: float) -> float:
    """base ** exponent, with inf where that overflows, as it is at inf."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _bourgain_delta(config: ExperimentConfig) -> ExperimentReport:
    """Variation of frequency projections against a power of the set size."""
    domain_exp, resolution_exp = config.grid_j, config.grid_m
    if resolution_exp < 3:
        raise ConfigError("bourgain_delta needs grid_m >= 3 to resolve its frequencies below 8")
    rng = config.rng(_STREAM_OFFSET["bourgain_delta"])
    pool = [n for n in (2, 3, 4, 6, 8, 12, 16, 24, 32) if n <= 1 << resolution_exp]
    rows = []
    ratios = []
    sizes = []
    for trial in range(config.trials):
        count = pool[trial % len(pool)]
        freqs = frequency_set(rng, count, resolution_exp)
        f = sign_function(rng, domain_exp, resolution_exp)
        levels = []
        for k in range(-resolution_exp, domain_exp + 1):
            levels.append(freq_projection(f, freqs, k).to_float_array())
        field = np.asarray(levels)
        lhs = lp_norm(batch_variation(field, config.r), 2.0, resolution_exp)
        rhs = _power(count, config.epsilon) * lp_norm(f.to_float_array(), 2.0, resolution_exp)
        if rhs == 0.0:
            rows.append((trial, count, 0.0, lhs, rhs, "zero-input"))
            continue
        ratio = lhs / rhs
        ratios.append(ratio)
        sizes.append(math.log(count))
        rows.append((trial, count, ratio, lhs, rhs, ""))
    summary = (
        ("max_ratio", max(ratios, default=0.0)),
        ("median_ratio", median(ratios) if ratios else 0.0),
        ("growth_slope", trend_slope(sizes, [math.log(max(r, 1e-300)) for r in ratios])),
        ("failures", 0),
    )
    return ExperimentReport(
        "bourgain_delta",
        ("trial", "set_size", "ratio", "lhs", "rhs", "flag"),
        tuple(rows),
        summary,
    )


def _rademacher_menshov(config: ExperimentConfig) -> ExperimentReport:
    """Square variation of Haar partial sums against (1 + log N) sqrt(N).

    The grid is fixed at [0, 1) with 512 cells so that every Haar
    function down to scale -8 still has resolvable halves.  Partial
    sums are anchored at zero; with a single summand the variation is
    the summand itself and the ratio stays at most one.  The Haar
    function of I is the packet of the tile I x [2/|I|, 4/|I|), and
    summand p goes to plane row n - 1 - p, so the rows read bottom up
    are the partial sums after 0, 1, ..., n summands.
    """
    rng = config.rng(_STREAM_OFFSET["rademacher_menshov"])
    domain_exp, resolution_exp = 0, 9
    population = [
        DyadicInterval(n, s)
        for s in range(-(resolution_exp - 1), 1)
        for n in range(1 << -s)
    ]
    counts = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    rows = []
    by_count: dict[int, list[float]] = {n: [] for n in counts}
    for trial in range(config.trials):
        n_funcs = counts[trial % len(counts)]
        haar = [Tile(i, DyadicInterval(1, -i.scale)) for i in rng.sample(population, n_funcs)]
        terms = [(n_funcs - 1 - p, t, rng.choice((-1.0, 1.0))) for p, t in enumerate(haar)]
        field = packet_sums(terms, n_funcs + 1, domain_exp, resolution_exp)[::-1]
        lhs = lp_norm(batch_variation(field, 2.0), 2.0, resolution_exp)
        rhs = (1.0 + math.log2(n_funcs)) * math.sqrt(n_funcs)
        ratio = lhs / rhs
        by_count[n_funcs].append(ratio)
        rows.append((trial, n_funcs, ratio, lhs, rhs, ""))
    peaks_x = []
    peaks_y = []
    for n_funcs in counts:
        if by_count[n_funcs]:
            peaks_x.append(math.log2(n_funcs))
            peaks_y.append(max(by_count[n_funcs]))
    summary = (
        ("max_ratio", max(peaks_y, default=0.0)),
        ("growth_slope", trend_slope(peaks_x, peaks_y)),
        ("failures", 0),
    )
    return ExperimentReport(
        "rademacher_menshov",
        ("trial", "n_functions", "ratio", "lhs", "rhs", "flag"),
        tuple(rows),
        summary,
    )


def _john_nirenberg(config: ExperimentConfig) -> ExperimentReport:
    """Square function mass against the weak threshold, slot by slot."""
    domain_exp, resolution_exp = config.grid_j, config.grid_m
    if domain_exp + resolution_exp < 3:
        raise ConfigError("john_nirenberg needs grid_j + grid_m >= 3 to fit one disjoint quartile")
    capacity = 1 << (domain_exp + resolution_exp - 3)  # half the box's quartiles
    rng = config.rng(_STREAM_OFFSET["john_nirenberg"])
    rows = []
    ratios = []
    for trial in range(config.trials):
        count = rng.randint(1, min(20, capacity))
        quartiles = disjoint_collection(rng, count, domain_exp, resolution_exp)
        weights = [
            QuadScalar.from_ints(rng.randint(-8, 8), 0, 8) for _ in quartiles
        ]
        slot = 1 + trial % 4
        terms = list(zip(quartiles, weights))
        quantities = jn_quantities(terms, slot, domain_exp, resolution_exp)
        if quantities.weak == 0.0:
            rows.append((trial, count, slot, 0.0, quantities.a2, quantities.weak, "zero-mass"))
            continue
        ratio = quantities.a2 / quantities.weak
        ratios.append(ratio)
        rows.append((trial, count, slot, ratio, quantities.a2, quantities.weak, ""))
    summary = (
        ("max_ratio", max(ratios, default=0.0)),
        ("median_ratio", median(ratios) if ratios else 0.0),
        ("failures", 0),
    )
    return ExperimentReport(
        "john_nirenberg",
        ("trial", "members", "slot", "ratio", "a2", "weak", "flag"),
        tuple(rows),
        summary,
    )


def _size_bound(config: ExperimentConfig) -> ExperimentReport:
    """Observed size of a maximal-function-restricted collection over lambda.

    Quartiles whose time interval sits entirely inside the super-level
    set of the grand maximal function at height lambda are discarded;
    the size of what remains, at its worst slot, is compared with
    lambda.  The spread of that ratio across grids is what the caller
    inspects for stability.
    """
    domain_exp, resolution_exp = config.grid_j, config.grid_m
    if domain_exp + resolution_exp < 6:
        raise ConfigError("size_bound needs grid_j + grid_m >= 6 to fit five disjoint quartiles")
    capacity = 1 << (domain_exp + resolution_exp - 3)  # half the box's quartiles
    rng = config.rng(_STREAM_OFFSET["size_bound"])
    thresholds = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1))
    rows = []
    ratios = []
    for trial in range(config.trials):
        f = sign_function(rng, domain_exp, resolution_exp)
        grand = maximal(f, 2.0)
        lam = thresholds[trial % len(thresholds)]
        masked = grand > float(lam)
        quartiles = disjoint_collection(
            rng, rng.randint(5, min(25, capacity)), domain_exp, resolution_exp
        )
        kept = []
        for q in quartiles:
            lo, hi = q.time.cell_range(resolution_exp)
            if not bool(masked[lo:hi].all()):
                kept.append(q)
        if not kept:
            rows.append((trial, str(lam), 0, 0.0, 0.0, "all-masked"))
            continue
        worst = max(
            size(kept, slot_coefficients(f, kept, slot), slot, domain_exp).value
            for slot in range(1, 5)
        )
        ratio = worst / float(lam)
        ratios.append(ratio)
        rows.append((trial, str(lam), len(kept), ratio, worst, ""))
    summary = (
        ("max_ratio", max(ratios, default=0.0)),
        ("median_ratio", median(ratios) if ratios else 0.0),
        ("failures", 0),
    )
    return ExperimentReport(
        "size_bound",
        ("trial", "lam", "kept", "ratio", "size_value", "flag"),
        tuple(rows),
        summary,
    )


# Each lemma's driver and the config fields it reads; the `lemma`
# subcommand takes the flags of these fields only.
_LEMMA_DRIVERS = {
    "lepingle": (_lepingle, ("r", "trials", "seed", "grid_j", "grid_m")),
    "bourgain_delta": (_bourgain_delta, ("r", "epsilon", "trials", "seed", "grid_j", "grid_m")),
    "rademacher_menshov": (_rademacher_menshov, ("trials", "seed")),
    "john_nirenberg": (_john_nirenberg, ("trials", "seed", "grid_j", "grid_m")),
    "size_bound": (_size_bound, ("trials", "seed", "grid_j", "grid_m")),
}

LEMMA_NAMES = tuple(_LEMMA_DRIVERS)


def run_lemma_experiment(which: str, config: ExperimentConfig) -> ExperimentReport:
    """Run one named lemma experiment and report observed ratios.

    The available names are listed in LEMMA_NAMES.  Ratios are
    observations, not assertions; the failure count of these reports is
    always zero unless the run itself breaks.
    """
    try:
        driver, _ = _LEMMA_DRIVERS[which]
    except KeyError:
        raise ConfigError(
            f"unknown lemma experiment {which!r}; pick one of {', '.join(LEMMA_NAMES)}"
        ) from None
    return driver(config)
