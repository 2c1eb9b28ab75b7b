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
    StepFunction,
    Tile,
    ZERO,
    average,
    freq_projection,
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
from oracles import (
    maximal_by_block,
    per_column_linearization,
    projection_by_packets,
    weight_field_by_cell,
)
from walshtf.errors import (
    GridMismatch, KernelUnsupported, NotDyadicError, ScaleTooCoarse, ScaleTooFine,
)
from walshtf.geometry import quartile_sort_key
from walshtf.kernels import batch_variation
from walshtf import operators
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
    # freq_projection refuses the same scales.  With no frequencies no
    # band is averaged, so only its own check can fire.
    for freqs in (FrequencySet([0, Fraction(1, 2)]), FrequencySet([])):
        with pytest.raises(ScaleTooCoarse):
            freq_projection(f, freqs, 3)
        with pytest.raises(ScaleTooFine):
            freq_projection(f, freqs, -4)
        assert freq_projection(f, freqs, 2).domain_exp == 2


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


def test_frequency_set_refuses_a_non_dyadic_or_negative_frequency():
    with pytest.raises(NotDyadicError):
        FrequencySet([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        FrequencySet([Fraction(-1, 2)])
    assert FrequencySet([3, Fraction(6, 4), Fraction(3, 2)]).points == (Fraction(3, 2), 3)


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


# Grids (J, m) the projection is checked on besides free ones: a negative
# J is a dilated function.
_PROJECTION_GRIDS = [
    (3, 5), (2, 6), (0, 9), (4, 4), (1, 1), (0, 2), (5, 3), (-1, 3), (-2, 4), (-3, 3),
]
# Cell value parts: small integers, non-dyadic fractions, past int64.
_PART = st.one_of(
    st.integers(-3, 3),
    st.fractions(-4, 4, max_denominator=12),
    st.sampled_from([2**63 + 1, -(3**45), Fraction(2**70, 3)]),
)
_CELL_VALUE = st.builds(QuadScalar, _PART, st.one_of(st.just(0), _PART))


@st.composite
def _projection_case(draw):
    """A function, a set of 0 to 6 frequencies and a scale from -m - 1 to J + 1."""
    free = st.integers(-3, 5).flatmap(
        lambda j: st.tuples(st.just(j), st.integers(max(-j, 0), 9 - j))
    )
    j, m = draw(st.one_of(st.sampled_from(_PROJECTION_GRIDS), free))
    palette = draw(st.lists(_CELL_VALUE, min_size=2, max_size=4))
    pick = draw(st.randoms(use_true_random=False))
    values = [pick.choice(palette) for _ in range(1 << (j + m))]
    f = StepFunction(0, j + m, values).dilate(-j) if j < 0 else StepFunction(j, m, values)
    # Most points lie below 2^m, where every band is resolved; the rest
    # reach 2^(J + m + 2), where some bands are finer than the cells.
    inside = st.builds(Fraction, st.integers(0, (64 << max(m, 0)) - 1), st.just(64))
    anywhere = st.builds(
        Fraction, st.integers(0, 1 << (j + m + 2)), st.sampled_from([1, 2, 4, 8, 16, 64])
    )
    point = st.one_of(inside, inside, inside, anywhere)
    freqs = FrequencySet(draw(st.lists(point, max_size=6)))
    return f, freqs, draw(st.one_of(st.integers(-m, j), st.integers(-m - 1, j + 1)))


def _projection_outcome(project, f, freqs, scale):
    try:
        return project(f, freqs, scale)
    except Exception as exc:  # the class and the message must agree
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(case=_projection_case())
def test_freq_projection_is_the_packet_sum(case):
    f, freqs, scale = case
    want = _projection_outcome(projection_by_packets, f, freqs, scale)
    assert _projection_outcome(freq_projection, f, freqs, scale) == want


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
    assert [q for q, _ in terms] == sorted(set(coll), key=quartile_sort_key)
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
    var = batch_variation(field.to_array(), 3.0)
    rows = [field.row_at(k) for k in range(-3, field.scale_max + 1)]
    for cell in range(1 << 5):
        column = [row.values[cell] for row in rows]
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


def test_lambda_form_counts_a_repeated_quartile_once():
    # It summed the repeat's term twice: 5/512 became 5/256.
    rng = random.Random(1)
    coll = disjoint_collection(rng, 4, 2, 3)
    fs = [sign_function(rng, 2, 3) for _ in range(3)]
    assert lambda_form(coll, *fs) == QuadScalar(Fraction(5, 512))
    assert lambda_form(coll + coll[:1], *fs) == lambda_form(coll, *fs)
    assert lambda_form([*coll, *coll[::-1]], *fs) == lambda_form(coll, *fs)


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
        for _, weights in L.windows:
            assert sum(abs(w.to_float()) ** conj for w in weights) <= 1.0 + 1e-9


@pytest.mark.parametrize("r", [3.0, 2.5, 4.0])
def test_optimal_linearization_matches_the_per_column_loop(r, monkeypatch):
    # Fields of the restricted-type shape: masked signs on a (3,5) grid
    # and a dozen disjoint quartiles, so columns repeat, next to each
    # other and far apart.  Keeping only the quartiles inside the left
    # half of the box also gives columns that never change.  Each
    # distinct column byte string is solved once, as one class.
    solved = []
    original = operators._column_windows

    def counting(column, r, scale_min):
        solved.append(column)
        return original(column, r, scale_min)

    monkeypatch.setattr(operators, "_column_windows", counting)
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
            del solved[:]
            lin = optimal_linearization(chosen, r, 3, 5)
            assert [lin.windows[t] for t in lin.cell_class] == list(zip(jumps, weights))
            assert not lin.cell_class.flags.writeable
            assert len(solved) == len(lin.windows) == len(set(columns))


_ONE_WINDOW = ((0, 2), (QuadScalar(Fraction(1, 2)),))


@pytest.mark.parametrize(
    "cell_class, windows, error",
    [
        (range(7), [_ONE_WINDOW] * 7, GridMismatch),
        (range(9), [_ONE_WINDOW] * 9, GridMismatch),
        ([0] * 7 + [-1], [_ONE_WINDOW], ValueError),
        ([0] * 7 + [1], [_ONE_WINDOW], ValueError),
        ([0.5] * 8, [_ONE_WINDOW], TypeError),
        ([0] * 8, [((0, 2), (ZERO, ZERO))], ValueError),
        ([0] * 8, [((1, 1, 2), (ZERO, ZERO))], ValueError),
        ([0] * 8, [((2, 1), (ZERO,))], ValueError),
    ],
    ids=["too-few-cells", "too-many-cells", "negative-class", "class-past-windows",
         "fractional-class", "jumps-as-many-as-weights", "repeated-jump", "falling-jumps"],
)
def test_linearization_refuses_malformed_classes_and_windows(cell_class, windows, error):
    with pytest.raises(error):
        Linearization(1, 2, cell_class, windows)


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
    # Parts past int64, so the weight planes hold Python ints.
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
        lin = Linearization(
            domain_exp, resolution_exp, range(cells), list(zip(cell_jumps, cell_weights))
        )
        for scale in range(-resolution_exp - 1, domain_exp + 3):
            field = lin.weight_field(scale)
            expected = weight_field_by_cell(lin, scale)
            assert field == expected
            assert (field.rat.dtype, field.surd.dtype) == (expected.rat.dtype, expected.surd.dtype)


def test_weight_fields_of_a_linearization_without_windows_are_zero():
    lin = Linearization(1, 2, range(8), [((-2,), ())] * 8)
    for scale in (-2, 0, 1):
        assert lin.weight_field(scale) == weight_field_by_cell(lin, scale)
        assert not lin.weight_field(scale).rat.any()
