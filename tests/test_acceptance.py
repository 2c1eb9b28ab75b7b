"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints a single PASS or FAIL line on the real stdout so the
verdicts survive output capture, then asserts the same condition.  The
numbered order follows the project checklist; seeds are fixed so every
run sees the same draws.
"""

from __future__ import annotations

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from oracles import brute_size_sq, brute_variation_power, packet_value
from walshtf import (
    DyadicInterval,
    QuadScalar,
    Quartile,
    StepFunction,
    Tile,
    Tree,
    ZERO,
    eval_wavepacket,
    jump_times,
    lambda_form,
    linearize_weights,
    model_terms,
    optimal_linearization,
    restricted_trees,
    select_trees,
    size,
    tiles_disjoint,
    variation_norm,
    wavepacket_step,
)
from walshtf.experiments import (
    run_counting_experiment,
    run_identity_suite,
    run_lemma_experiment,
    run_theorem1,
)
from walshtf.experiments.config import ExperimentConfig
from walshtf.experiments.random_gen import (
    disjoint_collection,
    frequency_set,
    pinned_tree,
    sign_function,
)
from walshtf.kernels import walsh_tables
from walshtf.trees import counting_cells


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d} {label}: {status} ({detail})"
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def identity_report():
    cfg = ExperimentConfig(trials=100, seed=101, grid_j=3, grid_m=5)
    return run_identity_suite(cfg)


def _phase_tile(rng: random.Random) -> Tile:
    scale = rng.randint(-6, 6)
    time_iv = DyadicInterval(rng.randrange(1 << (6 - scale)), scale)
    freq_iv = DyadicInterval(rng.randrange(1 << (6 + scale)), -scale)
    return Tile(time_iv, freq_iv)


def test_criterion_01_packet_orthonormality():
    rng = random.Random(20260801)
    started = time.monotonic()
    pairs = 0
    crossed = 0
    failures = 0
    while pairs < 500:
        a, b = _phase_tile(rng), _phase_tile(rng)
        pairs += 1
        fa = wavepacket_step(a, 6, 6)
        fb = wavepacket_step(b, 6, 6)
        if fa.dot(fa) != QuadScalar(1) or fb.dot(fb) != QuadScalar(1):
            failures += 1
            continue
        if tiles_disjoint(a, b):
            crossed += 1
            if fa.dot(fb) != ZERO:
                failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed < 30.0
    _verdict(
        1,
        "packet orthonormality",
        ok,
        f"500 pairs, {crossed} disjoint, {failures} failures, {elapsed:.1f}s",
    )
    assert failures == 0
    assert elapsed < 30.0


def test_criterion_02_closed_form_evaluation():
    rng = random.Random(20260802)
    mismatches = 0
    for _ in range(10_000):
        tile = _phase_tile(rng)
        x = Fraction(rng.randrange(64 << 10), 1 << 10)
        if eval_wavepacket(tile, x) != packet_value(tile, x):
            mismatches += 1
    ok = mismatches == 0
    _verdict(2, "pointwise packet values", ok, f"10000 samples, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_03_tree_truncation_identities(identity_report):
    wanted = {"trunctree", "shift-table", "vartrunc"}
    rows = [row for row in identity_report.rows if row[0] in wanted]
    bad = [row for row in rows if not row[3]]
    trees = {row[1] for row in rows}
    ok = not bad and len(trees) >= 100 and rows
    _verdict(
        3,
        "truncation and variation identities",
        ok,
        f"{len(trees)} trees, {len(rows)} checks, {len(bad)} failures",
    )
    assert rows
    assert len(trees) >= 100
    assert not bad


def test_criterion_04_delta_insertion(identity_report):
    rows = [row for row in identity_report.rows if row[0] == "insertdelta"]
    bad = [row for row in rows if not row[3]]
    families = {row[1] for row in rows}
    windows = sum(
        int(part.split("=")[1])
        for row in rows
        for part in str(row[2]).split()
        if part.startswith("checks=")
    )
    ok = not bad and len(families) >= 50 and windows > 0
    _verdict(
        4,
        "delta insertion identity",
        ok,
        f"{len(families)} families, {windows} window checks, {len(bad)} failures",
    )
    assert len(families) >= 50
    assert windows > 0
    assert not bad


def test_criterion_05_variation_dp_against_enumeration():
    rng = random.Random(20260805)
    started = time.monotonic()
    failures = 0
    exact_trials = 0
    float_trials = 0
    for trial in range(1000):
        n = rng.randint(2, 12)
        values = [Fraction(rng.randint(-64, 64), 16) for _ in range(n)]
        if trial % 5 == 4:
            float_trials += 1
            r = 2.5
            got = variation_norm([float(v) for v in values], r, "float").power_sum
            want = brute_variation_power([float(v) for v in values], r)
            scale = max(1.0, abs(want))
            if abs(got - want) > 1e-12 * scale:
                failures += 1
        else:
            exact_trials += 1
            r = rng.randint(1, 4)
            got = variation_norm(values, r, "exact").power_sum
            if got != QuadScalar(brute_variation_power(values, r)):
                failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0
    _verdict(
        5,
        "variation dynamic programming",
        ok,
        f"{exact_trials} exact + {float_trials} float trials, "
        f"{failures} failures, {elapsed:.1f}s",
    )
    assert failures == 0


def test_criterion_06_linearization_attainment():
    rng = random.Random(20260806)
    failures = 0
    trials = 0
    while trials < 1000:
        n = rng.randint(3, 10)
        values = [rng.uniform(-2.0, 2.0) for _ in range(n)]
        if max(values) == min(values):
            continue
        trials += 1
        r = (2.5, 3.0, 4.0)[trials % 3]
        cert = variation_norm(values, r, "float")
        chain, weights = linearize_weights(values, r, "float")
        paired = sum(
            w * (values[b] - values[a])
            for w, (a, b) in zip(weights, zip(chain, chain[1:]))
        )
        conj = r / (r - 1.0)
        mass = sum(abs(w) ** conj for w in weights)
        if abs(paired - cert.value) > 1e-10 * max(1.0, cert.value):
            failures += 1
        if abs(mass - 1.0) > 1e-10:
            failures += 1
    ok = failures == 0
    _verdict(6, "variation dual weights", ok, f"1000 sequences, {failures} failures")
    assert failures == 0


def test_criterion_07_size_against_subset_enumeration():
    rng = random.Random(20260807)
    started = time.monotonic()
    failures = 0
    for trial in range(200):
        coll = disjoint_collection(rng, rng.randint(1, 6), 3, 4)
        f = sign_function(rng, 3, 4)
        slot = 1 + trial % 4
        if size(coll, f, slot, 3).value_sq != brute_size_sq(coll, f, slot, 3):
            failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0
    _verdict(
        7,
        "size versus subset enumeration",
        ok,
        f"200 collections, {failures} failures, {elapsed:.1f}s",
    )
    assert failures == 0


def test_criterion_08_selection_contract():
    rng = random.Random(20260808)
    started = time.monotonic()
    failures = 0
    trials = 0
    while trials < 200:
        coll = disjoint_collection(rng, rng.randint(4, 24), 3, 5)
        f = sign_function(rng, 3, 5)
        slot = 1 + trials % 4
        tables = walsh_tables(f)
        coeffs = {q: tables.coefficient(q.tile(slot)) for q in coll}
        alpha = size(coll, f, slot, 3, coefficients=coeffs).value_sq
        if alpha == ZERO:
            continue
        trials += 1
        alpha = alpha * (1, 1, 2, 4)[trials % 4]
        sel = select_trees(coll, f, slot, alpha, 3, coefficients=coeffs)
        grabbed: set[Quartile] = set()
        good = True
        for grab in sel.grabs:
            if grab.pass_slot == slot:
                good = False
            if set(grab.full.quartiles) & grabbed:
                good = False
            grabbed |= set(grab.full.quartiles)
        if grabbed | set(sel.residual) != set(coll) or grabbed & set(sel.residual):
            good = False
        for p in (1, 2, 3, 4):
            stamps = [
                q.tile(p)
                for grab in sel.grabs_in_pass(p)
                for q in grab.seed.quartiles
            ]
            for i in range(len(stamps)):
                for j in range(i + 1, len(stamps)):
                    if not tiles_disjoint(stamps[i], stamps[j]):
                        good = False
        if len(sel.residual):
            # Independent recheck: the plain pairing path, no cache.
            residual_sq = size(sel.residual, f, slot, 3).value_sq
            if not residual_sq <= alpha * Fraction(1, 4):
                good = False
        if not good:
            failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0
    _verdict(
        8,
        "tree selection contract",
        ok,
        f"200 selections, {failures} failures, {elapsed:.1f}s",
    )
    assert failures == 0


def test_criterion_09_counting_bound():
    started = time.monotonic()
    cfg = ExperimentConfig(trials=20, seed=109, grid_j=6, grid_m=8)
    rep = run_counting_experiment(cfg)
    elapsed = time.monotonic() - started
    max_ratio = rep.summary_value("max_ratio")
    slope = rep.summary_value("growth_slope")
    monotone = rep.summary_value("monotone_in_size")
    ok = (
        rep.summary_value("failures") == 0
        and math.isfinite(max_ratio)
        and not monotone
    )
    _verdict(
        9,
        "tree counting bound",
        ok,
        f"max ratio {max_ratio:.3e}, slope {slope:.3f}, "
        f"monotone {monotone}, {elapsed:.0f}s",
    )
    assert rep.summary_value("failures") == 0
    assert math.isfinite(max_ratio)
    assert not monotone


def test_criterion_10_single_tree_estimate():
    rng = random.Random(20260810)
    started = time.monotonic()
    violations = 0
    for trial in range(500):
        pin = 1 + trial % 4
        tree = pinned_tree(rng, pin, 3, 5, depth=rng.randint(2, 5))
        members = tree.sorted_quartiles()
        fs = [sign_function(rng, 3, 5) for _ in range(3)]
        if trial % 2:
            lin = optimal_linearization(
                model_terms(fs[0], fs[1], members), 3, 3.0, 3, 5
            )
        else:
            lin = None
        lam = lambda_form(members, fs[0], fs[1], fs[2], lin)
        bound = QuadScalar(16 * tree.top_interval.length ** 2)
        for i in (1, 2, 3):
            # The third slot pairs through the same linearization as the
            # form itself; its size has to as well.
            slot_lin = lin if i == 3 else None
            bound = bound * size(members, fs[i - 1], i, 3, linearization=slot_lin).value_sq
        if not lam.square() <= bound:
            violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0
    _verdict(
        10,
        "single tree estimate",
        ok,
        f"500 trees, {violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0


def test_criterion_11_maximal_size_bound_stability():
    started = time.monotonic()
    observed = {}
    failures = 0
    for m in (6, 8, 10):
        cfg = ExperimentConfig(trials=67, seed=111, grid_j=6, grid_m=m)
        rep = run_lemma_experiment("size_bound", cfg)
        observed[m] = rep.summary_value("max_ratio")
        failures += rep.summary_value("failures")
    elapsed = time.monotonic() - started
    values = list(observed.values())
    spread = max(values) / min(values) if min(values) > 0 else math.inf
    ok = failures == 0 and all(math.isfinite(v) and v > 0 for v in values) and spread <= 2.0
    detail = ", ".join(f"m={m}: {v:.3f}" for m, v in observed.items())
    _verdict(
        11,
        "maximal function size bound",
        ok,
        f"{detail}, spread {spread:.2f}, {elapsed:.0f}s",
    )
    assert failures == 0
    assert spread <= 2.0


def test_criterion_12_lemma_suites():
    started = time.monotonic()
    maxima = {}
    failures = 0
    runs = (
        ("lepingle", ExperimentConfig(trials=60, seed=112, grid_j=3, grid_m=5)),
        ("bourgain_delta", ExperimentConfig(trials=40, seed=112, grid_j=3, grid_m=5)),
        ("rademacher_menshov", ExperimentConfig(trials=120, seed=112, grid_j=3, grid_m=5)),
        ("john_nirenberg", ExperimentConfig(trials=40, seed=112, grid_j=3, grid_m=5)),
    )
    rm_slope = math.nan
    for name, cfg in runs:
        rep = run_lemma_experiment(name, cfg)
        maxima[name] = rep.summary_value("max_ratio")
        failures += rep.summary_value("failures")
        if name == "rademacher_menshov":
            rm_slope = rep.summary_value("growth_slope")
    elapsed = time.monotonic() - started
    ok = (
        failures == 0
        and all(math.isfinite(v) for v in maxima.values())
        and rm_slope <= 0.1
    )
    detail = ", ".join(f"{k} {v:.3f}" for k, v in maxima.items())
    _verdict(
        12,
        "lemma suites",
        ok,
        f"{detail}, rm slope {rm_slope:.3f}, {elapsed:.0f}s",
    )
    assert failures == 0
    assert rm_slope <= 0.1


def test_criterion_13_uniform_collection_bound():
    started = time.monotonic()
    cfg = ExperimentConfig(trials=500, seed=113, grid_j=6, grid_m=8)
    rep = run_theorem1(cfg)
    elapsed = time.monotonic() - started
    slope = rep.summary_value("growth_slope")
    unit = rep.summary_value("unit_ratio")
    max_ratio = rep.summary_value("max_ratio")
    sized_rows = sum(1 for row in rep.rows if row[0] != "unit")
    ok = (
        rep.summary_value("failures") == 0
        and sized_rows >= 500
        and slope <= 0.2
        and unit == 1.0
    )
    _verdict(
        13,
        "uniform collection bound",
        ok,
        f"{sized_rows} trials, max ratio {max_ratio:.3f}, slope {slope:.3f}, "
        f"unit {unit}, {elapsed:.0f}s",
    )
    assert sized_rows >= 500
    assert rep.summary_value("failures") == 0
    assert slope <= 0.2
    assert unit == 1.0


def _stacked_family(rng: random.Random, count: int) -> list[Tree]:
    trees = []
    for _ in range(count):
        scale = rng.randint(0, 3)
        top = DyadicInterval(rng.randrange(1 << (3 - scale)), scale)
        freq = DyadicInterval(rng.randrange(1 << (4 + scale)), -scale)
        member_time = top if scale == 0 else DyadicInterval(top.index << 1, scale - 1)
        member = Quartile(member_time, freq.ancestor_at(2 - member_time.scale))
        trees.append(Tree([member], top, freq.left))
    return trees


def test_criterion_14_jump_times_and_level_restriction():
    rng = random.Random(20260814)
    failures = 0
    for _ in range(500):
        count = rng.randint(0, 64)
        freqs = frequency_set(rng, count, 6)
        jumps = jump_times(freqs)
        if count >= 2 and len(jumps) > 8 * count:
            failures += 1
        if count < 2 and jumps != ():
            failures += 1
    family_checks = 0
    for trial in range(200):
        trees = _stacked_family(rng, rng.randint(1, 30))
        lam = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        level = trial % 4
        kept = restricted_trees(trees, lam, level, 3, 4)
        if not kept:
            continue
        family_checks += 1
        counts = counting_cells([t.top_interval for t in kept], 3, 4)
        if int(counts.max()) > (1 << (level + 1)) * lam:
            failures += 1
    ok = failures == 0 and family_checks > 0
    _verdict(
        14,
        "jump sparsity and counting cap",
        ok,
        f"500 frequency sets, {family_checks} tree families, {failures} failures",
    )
    assert family_checks > 0
    assert failures == 0
