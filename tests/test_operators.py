"""Averages, projections, truncation fields and the trilinear form."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshtf import (
    DyadicInterval,
    FrequencySet,
    Linearization,
    QuadScalar,
    Quartile,
    QuartileCollection,
    StepFunction,
    Tile,
    ZERO,
    average,
    freq_projection,
    h_star,
    inner_product,
    inv_sqrt_pow2,
    lambda_form,
    maximal,
    model_terms,
    optimal_linearization,
    partial_sum_field,
    slot_coefficients,
    synthesize,
    variation_norm,
    wavepacket_step,
)
from oracles import maximal_by_block, per_column_linearization, weight_field_by_cell
from walshtf.errors import GridMismatch, KernelUnsupported, ScaleTooCoarse, ScaleTooFine
from walshtf.kernels import batch_variation
from walshtf.operators import model_coefficients, tilde_coefficients
from walshtf.experiments.random_gen import (
    disjoint_collection,
    dyadic_set,
    masked_signs,
    sign_function,
)


def test_average_is_a_conditional_expectation(rng):
    f = sign_function(rng, 2, 3)
    for k in range(-3, 3):
        g = average(f, k)
        width = 1 << (k + 3)
        for start in range(0, len(f.values), width):
            block = f.values[start : start + width]
            mean = sum(block, ZERO) * Fraction(1, width)
            assert all(v == mean for v in g.values[start : start + width])
        assert average(g, k) == g
        assert g.integral() == f.integral()
    assert average(f, -3) == f


def test_average_scale_limits(rng):
    f = sign_function(rng, 2, 3)
    with pytest.raises(ScaleTooCoarse):
        average(f, 3)
    with pytest.raises(ScaleTooFine):
        average(f, -4)


def test_maximal_dominates_every_dyadic_average(rng):
    for q in (1.0, 2.0):
        f = sign_function(rng, 2, 3)
        M = maximal(f, q)
        cells = np.abs(np.array([float(v) for v in f.values])) ** q
        for cell in range(len(cells)):
            best = 0.0
            for k in range(-3, 3):
                width = 1 << (k + 3)
                start = (cell // width) * width
                best = max(best, cells[start : start + width].mean() ** (1.0 / q))
            assert M[cell] == pytest.approx(best, rel=1e-12, abs=1e-12)
        assert M.dtype == np.float64 and not M.flags.writeable


@settings(max_examples=80)
@given(
    st.integers(0, 3),
    st.integers(2, 5),
    st.sampled_from([0.5, 1.0, 1.25, 2.0, 3.7]),
    st.integers(0, 1 << 30),
)
def test_maximal_matches_the_running_maximum_over_block_sizes(domain_exp, resolution_exp, q, seed):
    rng = random.Random(seed)
    cells = 1 << (domain_exp + resolution_exp)
    values = [Fraction(rng.randint(-40, 40), rng.choice((1, 3, 8))) for _ in range(cells)]
    f = StepFunction(domain_exp, resolution_exp, values)
    want = maximal_by_block(f.to_float_array(), q)
    assert maximal(f, q).tobytes() == want.tobytes()


def test_maximal_grows_with_the_exponent(rng):
    f = sign_function(rng, 3, 4)
    lo, hi = maximal(f, 1.0), maximal(f, 2.0)
    assert (hi >= lo - 1e-12).all()


def test_freq_projection_keeps_and_kills_packets():
    tile = Tile(DyadicInterval(1, 0), DyadicInterval(5, 0))
    f = wavepacket_step(tile, 2, 3)
    inside = FrequencySet([Fraction(11, 2)])
    outside = FrequencySet([Fraction(3)])
    assert freq_projection(f, inside, 0) == f
    assert freq_projection(f, outside, 0) == StepFunction.zero(2, 3)
    doubled = FrequencySet([Fraction(11, 2), Fraction(21, 4)])
    assert freq_projection(f, doubled, 0) == f


def test_freq_projection_is_idempotent(rng):
    f = sign_function(rng, 2, 3)
    freqs = FrequencySet([Fraction(1, 2), Fraction(5), Fraction(13, 4)])
    for scale in (-2, 0, 1):
        once = freq_projection(f, freqs, scale)
        assert freq_projection(once, freqs, scale) == once


def test_frequency_set_bookkeeping():
    freqs = FrequencySet([Fraction(11, 2), Fraction(21, 4), Fraction(1)])
    assert freqs.count_at(0) == 2
    assert freqs.covering(0) == [DyadicInterval(1, 0), DyadicInterval(5, 0)]


def test_partial_sum_rows_accumulate_coarser_scales(rng):
    coll = disjoint_collection(rng, 6, 2, 3)
    f1, f2 = sign_function(rng, 2, 3), sign_function(rng, 2, 3)
    terms = model_terms(f1, f2, coll)
    field = partial_sum_field(terms, 3, 2, 3)
    for k in range(-3, 3):
        expected = synthesize(
            [(q.tile(3), c) for q, c in terms if q.time.scale > k], 2, 3
        )
        assert field.row_at(k) == expected
    assert field.row_at(field.scale_max) == StepFunction.zero(2, 3)


def test_model_terms_carry_the_packet_normalisation(rng):
    coll = disjoint_collection(rng, 5, 2, 3)
    f1, f2 = sign_function(rng, 2, 3), sign_function(rng, 2, 3)
    terms = model_terms(f1, f2, coll)
    assert [q for q, _ in terms] == list(QuartileCollection(coll))
    for q, c in terms:
        raw = inner_product(f1, q.tile(1)) * inner_product(f2, q.tile(2))
        assert c == inv_sqrt_pow2(q.time.scale) * raw


def test_model_coefficients_reject_mixed_grids(rng):
    coll = disjoint_collection(rng, 3, 2, 3)
    f1, f2 = sign_function(rng, 2, 3), sign_function(rng, 2, 4)
    with pytest.raises(GridMismatch):
        model_coefficients(f1, f2, coll)
    with pytest.raises(GridMismatch):
        model_terms(f1, f2, coll)


@pytest.mark.parametrize(
    "outside",
    [
        Quartile(DyadicInterval(4, 0), DyadicInterval(0, 2)),
        Quartile(DyadicInterval(0, 3), DyadicInterval(0, -1)),
        Quartile(DyadicInterval(1 << 70, 0), DyadicInterval(0, 2)),
        # 4 * 2^62 would wrap to frequency 0 in int64, a slot inside the tables.
        Quartile(DyadicInterval(0, 0), DyadicInterval(1 << 62, 2)),
    ],
    ids=["beside-the-box", "longer-than-the-box", "time-index-past-int64", "wrapping-frequency"],
)
def test_model_terms_refuse_a_quartile_outside_the_tables(rng, outside):
    f1, f2 = sign_function(rng, 2, 3), sign_function(rng, 2, 3)
    inside = Quartile(DyadicInterval(0, 0), DyadicInterval(0, 2))
    with pytest.raises(KernelUnsupported):
        model_terms(f1, f2, [inside, outside])


def test_h_operators_match_per_cell_recompute(rng):
    coll = disjoint_collection(rng, 6, 2, 3)
    f1, f2 = sign_function(rng, 2, 3), sign_function(rng, 2, 3)
    terms = model_terms(f1, f2, coll)
    field = partial_sum_field(terms, 3, 2, 3)
    star = h_star(terms, 3, 2, 3)
    var = batch_variation(field.to_array(), 3.0)
    rows = [field.row_at(k) for k in range(-3, field.scale_max + 1)]
    for cell in range(1 << 5):
        column = [row.values[cell] for row in rows]
        sups = max((abs(v) for v in column), default=ZERO)
        assert star.values[cell] == sups
        expected = variation_norm(column, 3, "exact").value
        assert var[cell] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_lambda_form_with_trivial_linearization(rng):
    coll = disjoint_collection(rng, 5, 2, 3)
    f1, f2, f3 = (sign_function(rng, 2, 3) for _ in range(3))
    direct = ZERO
    for q in coll:
        c = inv_sqrt_pow2(q.time.scale)
        for i, fi in ((1, f1), (2, f2), (3, f3)):
            c = c * inner_product(fi, q.tile(i))
        direct = direct + c
    assert lambda_form(coll, f1, f2, f3) == direct
    triv = Linearization.trivial(2, 3)
    assert lambda_form(coll, f1, f2, f3, triv) == direct


def test_lambda_form_threads_the_linearization(rng):
    coll = disjoint_collection(rng, 5, 2, 3)
    f1, f2, f3 = (sign_function(rng, 2, 3) for _ in range(3))
    L = optimal_linearization(model_terms(f1, f2, coll), 3.0, 2, 3)
    expected = ZERO
    for q in coll:
        c = (
            inv_sqrt_pow2(q.time.scale)
            * inner_product(f1, q.tile(1))
            * inner_product(f2, q.tile(2))
        )
        expected = expected + c * tilde_coefficients(f3, [q], L)[q]
    assert lambda_form(coll, f1, f2, f3, L) == expected
    # The one reader behind lambda_form, size and selection: slot 3 is
    # reweighted, the other slots ignore the linearization, and a
    # repeated quartile is read once.
    doubled = [*coll, *coll[::-1]]
    assert slot_coefficients(f3, doubled, 3, L) == tilde_coefficients(f3, coll, L)
    for slot in (1, 2, 4):
        plain = {q: inner_product(f3, q.tile(slot)) for q in coll}
        assert slot_coefficients(f3, doubled, slot, L) == plain


def test_tilde_pairing_reduces_to_plain_for_trivial_weights(rng):
    coll = disjoint_collection(rng, 4, 2, 3)
    f = sign_function(rng, 2, 3)
    triv = Linearization.trivial(2, 3)
    for q in coll:
        assert tilde_coefficients(f, [q], triv)[q] == inner_product(f, q.tile(3))


def test_optimal_linearization_has_admissible_weights(rng):
    for r in (3.0, 4.0):
        coll = disjoint_collection(rng, 6, 2, 3)
        f1, f2 = sign_function(rng, 2, 3), sign_function(rng, 2, 3)
        L = optimal_linearization(model_terms(f1, f2, coll), r, 2, 3)
        conj = r / (r - 1.0)
        for weights in L.cell_weights:
            assert sum(abs(w.to_float()) ** conj for w in weights) <= 1.0 + 1e-9


@pytest.mark.parametrize("r", [3.0, 2.5, 4.0])
def test_optimal_linearization_matches_the_per_column_loop(r):
    # Fields of the restricted-type shape: masked signs on a (3,5) grid
    # and a dozen disjoint quartiles, so columns repeat, next to each
    # other and far apart.  Keeping only the quartiles inside the left
    # half of the box also gives columns that never change.
    for seed in range(6):
        rng = random.Random(seed)
        support = dyadic_set(rng, 3, 5, density=0.5)
        f1, f2 = masked_signs(rng, support), sign_function(rng, 3, 5)
        terms = model_terms(f1, f2, disjoint_collection(rng, 12, 3, 5))
        left = [(q, c) for q, c in terms if q.time.cell_range(5)[1] <= 128]
        for chosen in (terms, left):
            rows = partial_sum_field(chosen, 3, 3, 5).to_array()
            columns = [col.tobytes() for col in np.ascontiguousarray(rows.T)]
            adjacent_runs = 1 + sum(a != b for a, b in zip(columns, columns[1:]))
            assert len(set(columns)) < adjacent_runs
            jumps, weights = per_column_linearization(rows, -5, r)
            if chosen is left:
                assert not any(weights[128:])
            lin = optimal_linearization(chosen, r, 3, 5)
            assert lin.cell_jumps == tuple(jumps)
            assert lin.cell_weights == tuple(weights)


def test_grid_refinement_leaves_the_form_unchanged(rng):
    # The same quartiles and functions on a finer grid give the same
    # exact trilinear value; every pairing is resolution independent.
    coll = disjoint_collection(rng, 4, 2, 3)
    fs = [sign_function(rng, 2, 3) for _ in range(3)]
    coarse = lambda_form(coll, *fs)
    refined = [
        StepFunction(2, 4, [v for v in f.values for _ in range(2)]) for f in fs
    ]
    assert lambda_form(coll, *refined) == coarse


_WEIGHT_KINDS = {
    "dyadic": lambda rng: QuadScalar(Fraction(rng.randint(-8, 8), 1 << 16)),
    "thirds": lambda rng: QuadScalar(Fraction(rng.randint(-6, 6), rng.choice((1, 3, 7)))),
    "sqrt2": lambda rng: QuadScalar(
        Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), rng.choice((1, 3)))
    ),
    # Parts past int64, so the painted planes hold Python ints.
    "huge": lambda rng: QuadScalar(rng.randint(-(1 << 70), 1 << 70), rng.randint(-1, 1)),
}


@pytest.mark.parametrize("kind", sorted(_WEIGHT_KINDS))
def test_weight_fields_match_the_weight_at_loop(rng, kind):
    for domain_exp, resolution_exp in ((2, 3), (0, 2), (3, 1)):
        cells = 1 << (domain_exp + resolution_exp)
        cell_jumps, cell_weights = [], []
        for _ in range(cells):
            windows = rng.randint(0, 3)
            jumps = sorted(rng.sample(range(-resolution_exp, domain_exp + 2), windows + 1))
            cell_jumps.append(tuple(jumps))
            cell_weights.append(tuple(_WEIGHT_KINDS[kind](rng) for _ in range(windows)))
        lin = Linearization(domain_exp, resolution_exp, cell_jumps, cell_weights)
        for scale in range(-resolution_exp - 1, domain_exp + 3):
            field = lin.weight_field(scale)
            expected = weight_field_by_cell(lin, scale)
            assert field == expected
            assert (field.rat.dtype, field.surd.dtype) == (expected.rat.dtype, expected.surd.dtype)
            assert lin.weight_field(scale) is field


def test_weight_fields_of_a_linearization_without_windows_are_zero():
    lin = Linearization(1, 2, [(-2,)] * 8, [()] * 8)
    for scale in (-2, 0, 1):
        assert lin.weight_field(scale) == weight_field_by_cell(lin, scale)
        assert not lin.weight_field(scale).rat.any()
