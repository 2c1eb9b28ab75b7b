"""Array kernels against their exact counterparts."""

from __future__ import annotations

import math
from fractions import Fraction

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    dp_on_every_column,
    float_packet_sums_by_term,
    inner_product_brute,
    model_coefficients_by_tile,
    packet_step,
    sup_by_cell,
    walsh_pattern_by_doubling,
)
from walshtf import (
    DyadicInterval,
    Linearization,
    QuadScalar,
    Quartile,
    StepFunction,
    Tile,
    ZERO,
    batch_inner_products,
    inner_product,
    model_terms,
    partial_sum_field,
    variation_norm,
    wavepacket_step,
)
from walshtf import kernels
from walshtf.errors import KernelUnsupported, ResolutionTooCoarse, ScaleTooCoarse
from walshtf.exact import quad_to_float
from walshtf.experiments.random_gen import (
    disjoint_collection,
    quartile_collection,
    sign_function,
)
from walshtf.kernels import (
    batch_sup,
    batch_variation,
    packet_sums,
    render_partial_sum_field,
    walsh_tables,
)
from walshtf.experiments.suites import _same_variation
from walshtf.operators import model_coefficients, tilde_coefficients
from walshtf.wavepacket import tree_sign_step


def _random_tile(rng, domain_exp, resolution_exp):
    scale = rng.randint(-resolution_exp, domain_exp)
    time = DyadicInterval(rng.randrange(1 << (domain_exp - scale)), scale)
    freq = DyadicInterval(rng.randrange(1 << (resolution_exp + scale)), -scale)
    return Tile(time, freq)


def test_walsh_tables_agree_with_direct_pairings(rng):
    f = sign_function(rng, 3, 4)
    tables = walsh_tables(f)
    for _ in range(120):
        tile = _random_tile(rng, 3, 4)
        assert tables.coefficient(tile) == inner_product_brute(f, tile)


def _oracle_check(rng, f, count=40):
    """Table reads match the cell-by-cell oracle on random box tiles."""
    for _ in range(count):
        tile = _random_tile(rng, f.domain_exp, f.resolution_exp)
        assert inner_product(f, tile) == inner_product_brute(f, tile)


def test_pairings_of_non_dyadic_values(rng):
    values = [
        Fraction(rng.randint(-6, 6), rng.choice((1, 3, 5, 12))) for _ in range(64)
    ]
    f = StepFunction(2, 4, values)
    assert f.field.denominator == 60
    _oracle_check(rng, f)
    third = StepFunction(0, 2, [Fraction(1, 3)] * 4)
    box = Tile(DyadicInterval(0, 0), DyadicInterval(0, 0))
    assert inner_product(third, box) == QuadScalar(Fraction(1, 3))


def test_pairings_of_values_with_sqrt2_parts(rng):
    values = [
        QuadScalar(Fraction(rng.randint(-4, 4), 4), Fraction(rng.randint(-3, 3), 3))
        for _ in range(64)
    ]
    _oracle_check(rng, StepFunction(3, 3, values))
    # Cells two units wide: the packet amplitude outgrows the cell width.
    _oracle_check(rng, StepFunction(3, -1, values[:4]))


def test_pairings_beyond_int64_headroom(rng):
    # One part 1, the other 2^-80: the common denominator 2^80 pushes
    # the lifted planes past int64, so the butterfly runs on Python ints.
    tiny = Fraction(1, 1 << 80)
    values = [
        QuadScalar(rng.choice((-1, 0, 1)), rng.choice((-tiny, 0, tiny)))
        for _ in range(64)
    ]
    f = StepFunction(2, 4, values)
    field = f.field
    assert field.denominator == 1 << 80
    assert field.rat.dtype == object
    _oracle_check(rng, f)
    huge = StepFunction(2, 2, [rng.randint(-(1 << 70), 1 << 70) for _ in range(16)])
    assert huge.field.rat.dtype == object
    _oracle_check(rng, huge)


def test_tiles_off_the_box_pair_to_zero(rng):
    f = sign_function(rng, 2, 3)
    for _ in range(30):
        k = rng.randint(-3, 5)
        n = rng.randint(1 << max(2 - k, 0), (1 << max(2 - k, 0)) + 9)
        tile = Tile(DyadicInterval(n, k), DyadicInterval(rng.randrange(1 << (k + 3)), -k))
        assert inner_product(f, tile) == ZERO == inner_product_brute(f, tile)


def test_tiles_around_the_box_pair_with_its_clipped_packet(rng):
    values = [QuadScalar(rng.randint(-2, 2), Fraction(rng.randint(-2, 2), 3)) for _ in range(32)]
    f = StepFunction(2, 3, values)
    found = 0
    for _ in range(60):
        k = rng.randint(3, 6)
        tile = Tile(DyadicInterval(0, k), DyadicInterval(rng.randrange(1 << (k + 3)), -k))
        value = inner_product(f, tile)
        assert value == inner_product_brute(f, tile)
        found += bool(value)
    assert found > 10


def test_batch_pairings_match_the_oracle_on_mixed_tiles(rng):
    f = sign_function(rng, 2, 3)
    tiles = [_random_tile(rng, 2, 3) for _ in range(20)]
    tiles += [Tile(DyadicInterval(0, 4), DyadicInterval(b, -4)) for b in range(0, 128, 9)]
    tiles += [Tile(DyadicInterval(5, 0), DyadicInterval(1, 0))]
    # Indices past int64: a time index far off the box, and a tile 78
    # levels above the box whose frequency index shifts down to 0 there.
    tiles += [
        Tile(DyadicInterval(1 << 70, 0), DyadicInterval(1, 0)),
        Tile(DyadicInterval(0, 80), DyadicInterval(1 << 75, -80)),
    ]
    batch = batch_inner_products(f, tiles)
    assert set(batch) == set(tiles)
    for tile in tiles:
        assert batch[tile] == inner_product_brute(f, tile) == inner_product(f, tile)
    assert batch[tiles[-2]] == ZERO and batch[tiles[-1]] != ZERO
    # Finer than the cells: refused however it is read.
    fine = Tile(DyadicInterval(0, -4), DyadicInterval(3, 4))
    with pytest.raises(ResolutionTooCoarse):
        batch_inner_products(f, tiles + [fine])
    with pytest.raises(ResolutionTooCoarse):
        inner_product(f, fine)


def test_tables_are_built_once_per_function(rng, monkeypatch):
    builds = []
    original = kernels.walsh_tables

    def counting(f):
        builds.append(f)
        return original(f)

    monkeypatch.setattr(kernels, "walsh_tables", counting)
    f = sign_function(rng, 2, 3)
    tiles = [_random_tile(rng, 2, 3) for _ in range(10)]
    batch_inner_products(f, tiles)
    for tile in tiles:
        inner_product(f, tile)
    assert f.packet_tables() is f.packet_tables()
    assert builds == [f]


def _reweighted_oracle(f, q, lin):
    """Pairing with the packet reweighted cell by cell, in QuadScalar arithmetic."""
    k = q.time.scale
    weighted = StepFunction(
        f.domain_exp,
        f.resolution_exp,
        [v * oracles.weight_at(lin, cell, k) for cell, v in enumerate(f.values)],
    )
    return inner_product_brute(weighted, q.tile(3))


def _random_linearization(rng, domain_exp, resolution_exp, weight):
    cells = 1 << (domain_exp + resolution_exp)
    jumps, weights = [], []
    for _ in range(cells):
        cut = rng.randint(-resolution_exp + 1, domain_exp)
        jumps.append((-resolution_exp, cut, domain_exp + 1))
        weights.append((weight(), weight()))
    return Linearization(domain_exp, resolution_exp, range(cells), list(zip(jumps, weights)))


@pytest.mark.parametrize(
    "weight",
    [
        lambda rng: QuadScalar(Fraction(rng.randint(-5, 5), rng.choice((1, 3, 7)))),
        lambda rng: QuadScalar(Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), 5)),
        lambda rng: QuadScalar(rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 1 << 30)),
    ],
    ids=["non-dyadic", "sqrt2", "beyond-int64"],
)
def test_tilde_coefficients_match_per_cell_reweighting(rng, weight):
    domain_exp, resolution_exp = 2, 4
    lin = _random_linearization(rng, domain_exp, resolution_exp, lambda: weight(rng))
    # Both lifts fit in int64; with the 2^-30 weights their product does not.
    values = [
        QuadScalar(rng.randint(-2, 2), Fraction(rng.randint(-2, 2), 3 << 28)) for _ in range(64)
    ]
    f = StepFunction(domain_exp, resolution_exp, values)
    coll = quartile_collection(rng, 20, domain_exp, resolution_exp)
    got = tilde_coefficients(f, coll, lin)
    assert set(got) == set(coll)
    for q in coll:
        assert got[q] == _reweighted_oracle(f, q, lin)


def test_tilde_memo_matches_fresh_pairings(rng, monkeypatch):
    domain_exp, resolution_exp = 2, 4
    lin = _random_linearization(
        rng,
        domain_exp,
        resolution_exp,
        lambda: QuadScalar(Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), 5)),
    )
    f, g = sign_function(rng, 2, 4), sign_function(rng, 2, 4)
    assert f != g
    same_as_f = StepFunction(2, 4, f.values)
    coll = list(quartile_collection(rng, 30, domain_exp, resolution_exp))
    first, overlapping, disjoint = coll[:18], coll[10:25], coll[18:]
    builds = []
    original = kernels.field_product

    def counting(a, b):
        builds.append(b)
        return original(a, b)

    monkeypatch.setattr(kernels, "field_product", counting)
    requested = set()
    for fn, subset in [
        (f, first),
        (f, overlapping),
        (g, first),
        (f, disjoint),
        (same_as_f, coll),  # an equal function: every pairing is memoised
        (g, overlapping),
    ]:
        missing = {q for q in subset if (fn, q) not in requested}
        del builds[:]
        got = tilde_coefficients(fn, subset, lin)
        # A product table is built once per scale that has a missing quartile.
        assert len(builds) == len({q.time.scale for q in missing})
        requested |= {(fn, q) for q in subset}
        fresh = Linearization(domain_exp, resolution_exp, lin.cell_class, lin.windows)
        assert got == tilde_coefficients(fn, subset, fresh)
        assert list(got) == subset
        for q in subset:
            assert got[q] == _reweighted_oracle(fn, q, lin)


def test_walsh_tables_reject_out_of_range_tiles(rng):
    f = sign_function(rng, 2, 3)
    tables = walsh_tables(f)
    outside = Tile(DyadicInterval(4, 0), DyadicInterval(0, 0))
    with pytest.raises(KernelUnsupported):
        tables.coefficient(outside)
    too_wiggly = Tile(DyadicInterval(0, -4), DyadicInterval(1 << 5, 4))
    with pytest.raises((KernelUnsupported, ResolutionTooCoarse)):
        tables.coefficient(too_wiggly)


def test_float_packet_sums_match_exact_packet(rng):
    for _ in range(25):
        tile = _random_tile(rng, 3, 4)
        (row,) = packet_sums([(0, tile, 1.0)], 1, 3, 4)
        exact = wavepacket_step(tile, 3, 4)
        expected = np.array([float(v) for v in exact.values])
        assert np.allclose(row, expected, rtol=1e-12, atol=1e-12)


def _oracle_rows(terms, subtile_index, domain_exp, resolution_exp):
    """Truncation rows as plain sums of closed-form packets."""
    rows = []
    for k in range(-resolution_exp, domain_exp + 1):
        total = StepFunction.zero(domain_exp, resolution_exp)
        for q, c in terms:
            if q.time.scale > k:
                total = total + packet_step(q.tile(subtile_index), domain_exp, resolution_exp) * c
        rows.append(total)
    return rows


def _nested_quartiles(domain_exp, resolution_exp, count):
    """Quartiles over the left end of the box, at every usable scale."""
    out = []
    for scale in range(domain_exp, 1 - resolution_exp, -1):
        for n in range(min(count, 1 << (resolution_exp + scale - 2))):
            out.append(Quartile(DyadicInterval(0, scale), DyadicInterval(n, 2 - scale)))
    return out


def test_exact_truncation_rows_match_summed_oracle_packets():
    # sqrt2 multiples, non-dyadic values and parts near 2^70, on odd and
    # even scales: the lifted planes need the sqrt2 plane and Python ints.
    sqrt2 = QuadScalar(0, 1)
    pool = [
        QuadScalar(Fraction(1, 3)),
        QuadScalar(Fraction(-1, 5), Fraction(2, 3)),
        sqrt2 * 7,
        QuadScalar((1 << 70) + 1, -(1 << 69)),
        QuadScalar(Fraction(1, 5) - (1 << 70)),
    ]
    quartiles = _nested_quartiles(2, 4, 2)
    terms = [(q, pool[i % len(pool)]) for i, q in enumerate(quartiles)]
    field = partial_sum_field(terms, 3, 2, 4)
    assert list(field.rows) == _oracle_rows(terms, 3, 2, 4)


def test_exact_sums_leave_int64_when_only_the_total_outgrows_it():
    # Four packets of scale 0 share cell 0 with sign +1; each part fits
    # int64 by itself but their sum does not.
    c = QuadScalar((1 << 61) + 1)
    terms = [(Quartile(DyadicInterval(0, 0), DyadicInterval(n, 2)), c) for n in range(4)]
    field = partial_sum_field(terms, 3, 2, 4)
    assert field.row_at(-4).values[0] == QuadScalar(4 * ((1 << 61) + 1))
    assert list(field.rows) == _oracle_rows(terms, 3, 2, 4)


def test_both_lanes_refuse_a_quartile_above_the_box():
    coarse = Quartile(DyadicInterval(0, 3), DyadicInterval(0, -1))
    with pytest.raises(ScaleTooCoarse):
        partial_sum_field([(coarse, QuadScalar(1))], 3, 2, 3)
    with pytest.raises(ScaleTooCoarse):
        render_partial_sum_field([(coarse, 1.0)], 3, 2, 3)


def test_render_partial_sum_field_matches_exact_rows(rng):
    coll = disjoint_collection(rng, 8, 3, 4)
    f1, f2 = sign_function(rng, 3, 4), sign_function(rng, 3, 4)
    terms = model_terms(f1, f2, coll)
    exact = partial_sum_field(terms, 3, 3, 4).to_array()
    float_terms = [(q, float(c)) for q, c in terms]
    rendered = render_partial_sum_field(float_terms, 3, 3, 4)
    assert rendered.shape == exact.shape
    assert np.allclose(rendered, exact, rtol=1e-9, atol=1e-12)


def test_average_ladder_holds_the_mean_of_every_dyadic_block(rng):
    values = np.array([rng.uniform(-3, 3) for _ in range(16)])
    ladder = kernels.average_ladder(values)
    assert ladder.shape == (5, 16)
    assert ladder[0].tobytes() == values.tobytes()
    for j in range(5):
        width = 1 << j
        for cell in range(16):
            start = cell - cell % width
            assert ladder[j, cell] == pytest.approx(math.fsum(values[start : start + width]) / width)


def test_batch_variation_matches_per_cell_dp(rng):
    # Rows run over scales, columns over cells.
    field = np.array(
        [[rng.uniform(-2, 2) for _ in range(12)] for _ in range(6)]
    )
    for r in (2.5, 3.0):
        out = batch_variation(field, r)
        assert out.shape == (field.shape[1],)
        for cell in range(field.shape[1]):
            expected = variation_norm(field[:, cell], r, "float").value
            assert out[cell] == pytest.approx(expected, rel=1e-10, abs=1e-12)


def _fields_with_repeated_columns(rng):
    """Fields whose columns repeat next to each other and far apart."""
    gen = np.random.default_rng(rng.randrange(1 << 32))
    for rows, cells in ((1, 5), (2, 9), (6, 40), (9, 64)):
        pool = gen.uniform(-2, 2, size=(rows, 5))
        picks = gen.integers(0, 5, size=cells)
        runs = np.repeat(pool[:, picks], gen.integers(1, 4, size=cells), axis=1)
        yield runs
        yield np.asfortranarray(runs)
        yield np.round(runs)  # small integers: more equal differences
    zeros = np.zeros((4, 6))
    zeros[:, 1::2] = -0.0
    zeros[2] = [1.0, 1.0, -1.0, -1.0, 0.0, -0.0]
    yield zeros
    yield np.full((5, 7), 0.75)
    yield gen.uniform(-2, 2, size=(6, 30))
    yield np.zeros((3, 0))


@pytest.mark.parametrize("r", [2.0, 3.0, 2.5, math.inf])
def test_batch_variation_equals_the_dp_on_every_column(rng, r):
    for field in _fields_with_repeated_columns(rng):
        got, want = batch_variation(field, r), dp_on_every_column(field, r)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.all(got == want)
        assert got.tobytes() == want.tobytes()


def test_batch_variation_never_merges_nan_columns():
    field = np.array([[0.0, np.nan, np.nan, 1.0, 1.0], [2.0, 1.0, 1.0, np.nan, 3.0]])
    got = batch_variation(field, 3.0)
    assert got.tobytes() == dp_on_every_column(field, 3.0).tobytes()
    assert got[4] == 2.0


@st.composite
def repeating_fields(draw):
    """Fields of at most five values, with whole rows and whole columns
    repeated.  Values are +-0, NaN or between 1/64 and 2 in magnitude,
    so every span is at least 2^-58 and at most 4: far from where
    `batch_variation` rescales a column at the exponents tested."""
    magnitudes = st.floats(1 / 64, 2)
    pool = draw(
        st.lists(
            st.sampled_from([0.0, -0.0, math.nan]) | magnitudes | magnitudes.map(lambda v: -v),
            min_size=1,
            max_size=5,
        )
    )
    rows, cells = draw(st.integers(1, 6)), draw(st.integers(0, 10))
    size = rows * cells
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    base = np.array(pool)[np.array(picks, np.intp).reshape(rows, cells)]
    row_repeats = draw(st.lists(st.integers(1, 3), min_size=rows, max_size=rows))
    cell_repeats = draw(st.lists(st.integers(1, 3), min_size=cells, max_size=cells))
    return np.repeat(np.repeat(base, row_repeats, axis=0), cell_repeats, axis=1)


@settings(max_examples=300)
@given(repeating_fields(), st.sampled_from([1.0, 2.0, 2.5, 3.0, 7.0, math.inf]))
@example(np.zeros((3, 0)), 3.0)
@example(np.array([[1.0, math.nan, -0.0, 0.0]]), 2.5)  # one row: every chain is empty
@example(np.array([[0.0, 1.0], [1.0, 1.0], [1.0, -0.0], [0.0, 0.0]]), 3.0)
def test_batch_variation_is_the_dp_on_every_row_of_every_column(field, r):
    got, want = batch_variation(field, r), dp_on_every_column(field, r)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "column, r",
    [
        ([0, 2**-10, 0], 120),  # 2^-1200 underflows to 0
        ([0, 2**-10, 0, 2**-10, 2**-11], 120),
        ([2**-500, 0, 2**-499], 3),  # 2^-1500: below the smallest float
        ([0, 2**20, -(2**20)], 60),  # 2^1260 overflows
        ([1, -1, 1, 0, 1], 1025),
        ([3, -5, 2**-3, 7, -2], 400),
    ],
)
def test_batch_variation_rescales_a_column_whose_powers_leave_the_floats(column, r):
    # The exact lane's maximising power sum P, over the span's r-th
    # power, is a moderate number even where P is not.
    exact = variation_norm([Fraction(v) for v in column], r, "exact")
    span = max(map(Fraction, column)) - min(map(Fraction, column))
    want = float(exact.power_sum.rat / span**r) ** (1.0 / r) * float(span)
    field = np.array(column, float)[:, None].repeat(3, axis=1)
    field[:, 1] = 0.5  # a constant column beside them keeps its zero
    got = batch_variation(field, float(r))
    assert got[1] == 0.0 and got[0] == got[2]
    assert got[0] == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("r", [math.nan, 0.5, -math.inf])
def test_batch_variation_refuses_an_exponent_below_one(r):
    with pytest.raises(ValueError, match="at least 1"):
        batch_variation(np.zeros((3, 4)), r)


def test_batch_sup_is_the_columnwise_maximum(rng):
    field = np.array(
        [[rng.uniform(-2, 2) for _ in range(10)] for _ in range(5)]
    )
    out = batch_sup(field)
    assert np.allclose(out, np.abs(field).max(axis=0))


def test_h_operators_agree_with_rendered_field(rng):
    # The exact maximal and variational truncations and a float pipeline
    # through the rendered field tell the same story up to rounding.
    coll = disjoint_collection(rng, 8, 3, 4)
    f1, f2 = sign_function(rng, 3, 4), sign_function(rng, 3, 4)
    terms = model_terms(f1, f2, coll)
    field = partial_sum_field(terms, 3, 3, 4)
    star = sup_by_cell(field)
    var = batch_variation(field.to_array(), 3.0)
    float_terms = [(q, float(c)) for q, c in terms]
    rendered = render_partial_sum_field(float_terms, 3, 3, 4)
    assert np.allclose(
        batch_sup(rendered),
        np.array([float(v) for v in star.values]),
        rtol=1e-9,
        atol=1e-12,
    )
    assert np.allclose(
        batch_variation(rendered, 3.0),
        var,
        rtol=1e-9,
        atol=1e-12,
    )


# --- whole-array sign rule, packet sums and model coefficients -------


def test_the_sign_rule_matches_the_doubling_rule_for_every_index_below_2_to_12():
    # The tile at scale 0 on a grid of 2^s unit-interval cells, s the
    # bit length of b, has one cell per piece of its Walsh pattern.
    for b in range(1 << 12):
        tile = Tile(DyadicInterval(0, 0), DyadicInterval(b, 0))
        signs = tree_sign_step(tile, 0, b.bit_length()).field.rat
        assert signs.tolist() == walsh_pattern_by_doubling(b).tolist(), b


def test_sign_rows_match_the_doubling_pattern_clipped_to_the_box(rng):
    for _ in range(200):
        k = rng.randint(-3, 5)
        tile = Tile(
            DyadicInterval(rng.randrange((1 << max(2 - k, 0)) + 2), k),
            DyadicInterval(rng.randrange(1 << (k + 3)), -k),
        )
        field = tree_sign_step(tile, 2, 3).field
        lo, hi = tile.time.cell_range(3)
        a, b = lo, max(lo, min(hi, 32))
        assert field.denominator == 1 and not field.surd.any()
        assert not field.rat[:a].any() and not field.rat[b:].any()
        exp = tile.piece_exp(3)
        pattern = walsh_pattern_by_doubling(tile.freq_index)
        assert field.rat[a:b].tolist() == pattern[(np.arange(a, b) - lo) >> exp].tolist()


_SUM_GRIDS = [(0, 2), (1, 3), (2, 2), (3, 1), (2, 5)]
_FLOAT_COEFFS = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, -1.0, 0.1, -2.5, 1e-300, 7e10]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def _float_packet_terms(draw):
    """Terms on a small grid: tiles inside, around, longer than and
    outside the box, at every row and at row -1, with zero coefficients,
    and runs of terms sharing one time interval and one row."""
    domain_exp, resolution_exp = draw(st.sampled_from(_SUM_GRIDS))
    rows = domain_exp + resolution_exp + 1
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(-resolution_exp, domain_exp + 2))
        n = draw(st.integers(0, (1 << max(domain_exp - k, 0)) + 1))
        row = draw(st.integers(-1, rows - 1))
        for _ in range(draw(st.sampled_from([1, 1, 3, 4]))):
            b = draw(st.integers(0, (1 << (k + resolution_exp)) - 1))
            tile = Tile(DyadicInterval(n, k), DyadicInterval(b, -k))
            terms.append((row, tile, draw(_FLOAT_COEFFS)))
    return domain_exp, resolution_exp, rows, draw(st.permutations(terms))


@settings(max_examples=300)
@given(_float_packet_terms())
def test_float_packet_sums_match_the_per_term_loop_bit_for_bit(case):
    domain_exp, resolution_exp, rows, terms = case
    got = packet_sums(terms, rows, domain_exp, resolution_exp)
    want = float_packet_sums_by_term(terms, rows, domain_exp, resolution_exp)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_float_packet_sums_sum_shared_cells_in_term_order():
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit, so the
    # summation order of terms over one interval shows in the bytes.
    box = DyadicInterval(0, 0)
    tiles = [Tile(box, DyadicInterval(b, 0)) for b in range(3)]
    for coeffs in ([0.1, 0.2, 0.3], [0.3, 0.2, 0.1], [1e16, 1.0, -1e16]):
        terms = [(0, tile, c) for tile, c in zip(tiles, coeffs)]
        got = packet_sums(terms, 1, 0, 2)
        assert got.tobytes() == float_packet_sums_by_term(terms, 1, 0, 2).tobytes()


def test_float_packet_sums_refuse_unresolvable_terms_unless_zero():
    wiggly = Tile(DyadicInterval(0, 0), DyadicInterval(8, 0))
    assert not packet_sums([(0, wiggly, 0.0), (0, wiggly, 0.0)], 1, 1, 2).any()
    for row in (0, -1):
        with pytest.raises(ResolutionTooCoarse):
            packet_sums([(row, wiggly, 1.0)], 1, 1, 2)
        with pytest.raises(ResolutionTooCoarse):
            float_packet_sums_by_term([(row, wiggly, 1.0)], 1, 1, 2)


@settings(max_examples=100)
@given(
    st.sampled_from([(1, 2), (2, 3), (3, 4), (0, 5)]),
    st.integers(1, 40),
    st.integers(0, 1 << 30),
    st.sampled_from([1, 2, 3, 4]),
)
def test_rendered_truncation_rows_match_the_per_term_loop(grid, count, seed, subtile):
    domain_exp, resolution_exp = grid
    capacity = (domain_exp + resolution_exp - 1) << (domain_exp + resolution_exp - 2)
    rng = random.Random(seed)
    coll = quartile_collection(rng, min(count, capacity), domain_exp, resolution_exp)
    terms = [(q, rng.choice([0.0, rng.uniform(-3, 3)])) for q in coll]
    placed = [
        (q.time.scale + resolution_exp - 1, q.tile(subtile), c) for q, c in terms
    ]
    rows = domain_exp + resolution_exp + 1
    got = render_partial_sum_field(terms, subtile, domain_exp, resolution_exp)
    want = float_packet_sums_by_term(placed, rows, domain_exp, resolution_exp)
    assert got.tobytes() == want.tobytes()


_CELL_KINDS = {
    "signs": lambda rng: rng.choice((-1, 0, 1)),
    "thirds": lambda rng: Fraction(rng.randint(-6, 6), rng.choice((1, 3, 5, 12))),
    "sqrt2": lambda rng: QuadScalar(
        Fraction(rng.randint(-4, 4), 4), Fraction(rng.randint(-3, 3), 3)
    ),
    # Past int64: the tables hold Python ints in object arrays.
    "huge": lambda rng: QuadScalar(rng.randint(-(1 << 70), 1 << 70), rng.randint(-3, 3)),
    "tiny": lambda rng: QuadScalar(rng.choice((-1, 0, 1)), Fraction(rng.randint(-1, 1), 1 << 80)),
}


@settings(max_examples=120)
@given(
    st.sampled_from([(0, 2), (1, 3), (2, 3), (3, 2), (2, 4)]),
    st.sampled_from(sorted(_CELL_KINDS)),
    st.sampled_from(sorted(_CELL_KINDS)),
    st.integers(1, 30),
    st.integers(0, 1 << 30),
)
def test_gathered_model_coefficients_match_the_per_tile_path(grid, kind1, kind2, count, seed):
    domain_exp, resolution_exp = grid
    rng = random.Random(seed)
    cells = 1 << (domain_exp + resolution_exp)
    f1 = StepFunction(domain_exp, resolution_exp, [_CELL_KINDS[kind1](rng) for _ in range(cells)])
    f2 = StepFunction(domain_exp, resolution_exp, [_CELL_KINDS[kind2](rng) for _ in range(cells)])
    capacity = (domain_exp + resolution_exp - 1) << (domain_exp + resolution_exp - 2)
    coll = quartile_collection(rng, min(count, capacity), domain_exp, resolution_exp)
    _assert_model_coefficients_match_the_per_tile_path(f1, f2, coll)


def _assert_model_coefficients_match_the_per_tile_path(f1, f2, quartiles):
    # The exact lane: every triple is the per-tile product.  The float
    # lane: rounding the triple gives the bytes of the product's float.
    got = model_coefficients(f1, f2, quartiles)
    want = model_coefficients_by_tile(f1, f2, quartiles)
    assert [QuadScalar.from_ints(*c) for c in got] == want
    floats = np.array([quad_to_float(*c) for c in got])
    assert floats.tobytes() == np.array([w.to_float() for w in want]).tobytes()


def test_model_coefficients_see_tables_of_object_dtype_and_zero_planes(rng):
    huge = StepFunction(2, 3, [rng.randint(-(1 << 70), 1 << 70) for _ in range(32)])
    assert huge.packet_tables().rat_tables[0].dtype == object
    zero = StepFunction.zero(2, 3)
    coll = disjoint_collection(rng, 6, 2, 3)
    for f1, f2 in ((huge, huge), (huge, zero), (zero, huge)):
        _assert_model_coefficients_match_the_per_tile_path(f1, f2, coll)
    zeros = model_coefficients(zero, huge, coll)
    assert [QuadScalar.from_ints(*c) for c in zeros] == [ZERO] * 6
    assert [quad_to_float(*c) for c in zeros] == [0.0] * 6


def test_reads_refuse_unresolvable_tiles_and_coefficient_tiles_off_the_tables(rng):
    tables = walsh_tables(sign_function(rng, 2, 3))
    # read clips a tile off the box or above it, and refuses one finer
    # than the grid: a scale below -m, or a frequency past 2^(k + m).
    u_r, u_s, exps = tables.read([0, 3, 80], [4, 0, 0], [0, 0, 1 << 75])
    assert not u_r[0] and not u_s[0] and exps == [6, 9, 86]
    for scale, freq in ((-4, 0), (0, 8)):
        with pytest.raises(ResolutionTooCoarse):
            tables.read([scale], [0], [freq])
    # coefficient refuses every tile outside the tables, resolvable or not.
    for tile in (
        Tile(DyadicInterval(0, 3), DyadicInterval(0, -3)),
        Tile(DyadicInterval(4, 0), DyadicInterval(0, 0)),
        Tile(DyadicInterval(1 << 70, 0), DyadicInterval(0, 0)),
        Tile(DyadicInterval(0, -4), DyadicInterval(0, 4)),
    ):
        with pytest.raises(KernelUnsupported):
            tables.coefficient(tile)
    with pytest.raises(ResolutionTooCoarse):
        tables.coefficient(Tile(DyadicInterval(0, 0), DyadicInterval(8, 0)))


# Numerators at and past the int64 edge, and past the headroom of an
# 8-cell grid (2^59), so the lifted planes are sometimes Python ints.
_EDGE_NUMERATORS = [2**31, 2**59 - 1, 2**59, 2**62, 2**63 - 1, 2**63, 2**70]
_DENOMINATORS = [1, 2, 3, 5, 7, 12]


@st.composite
def _exact_values(draw):
    numerator = st.integers(-3, 3) | st.sampled_from(
        _EDGE_NUMERATORS + [-n for n in _EDGE_NUMERATORS]
    )
    rat = Fraction(draw(numerator), draw(st.sampled_from(_DENOMINATORS)))
    surd = Fraction(draw(numerator), draw(st.sampled_from(_DENOMINATORS)))
    return QuadScalar(rat, surd if draw(st.booleans()) else 0)


@st.composite
def _column_lists(draw):
    """Two lists of functions on an 8-cell grid, built from a few column
    templates laid out over the cells, so that runs of equal adjacent
    columns and repeated columns elsewhere both occur.  A template's
    column down b is its column down a (skipped by both), its
    conjugate (a difference in the sqrt2 parts alone), its negation
    plus a constant with repeats inserted (collapsed sequences that
    differ, with equal power sums), or fresh values (power sums that
    mostly differ)."""
    len_a = draw(st.integers(0, 4))
    len_b = draw(st.sampled_from([len_a, len_a, len_a + 1, draw(st.integers(0, 4))]))
    templates = []
    for _ in range(draw(st.integers(1, 3))):
        col_a = [draw(_exact_values()) for _ in range(len_a)]
        mode = draw(st.sampled_from(["same", "conjugate", "mirror", "fresh"]))
        if mode == "same" and len_b == len_a:
            col_b = list(col_a)
        elif mode == "conjugate" and len_b == len_a:
            col_b = [v.conjugate() for v in col_a]
        elif mode == "mirror" and 0 < len_a <= len_b:
            shift = draw(_exact_values())
            col_b = [shift - v for v in col_a]
            for _ in range(len_b - len_a):
                at = draw(st.integers(0, len(col_b) - 1))
                col_b.insert(at, col_b[at])
        else:
            col_b = [draw(_exact_values()) for _ in range(len_b)]
        templates.append((col_a, col_b))
    layout = draw(st.lists(st.integers(0, len(templates) - 1), min_size=8, max_size=8))

    def rows(side, count):
        return [
            StepFunction(0, 3, [templates[t][side][i] for t in layout]) for i in range(count)
        ]

    return rows(0, len_a), rows(1, len_b)


# Over the lcm 15, 1/3 and 1/5 lift to different numerators than their own.
_LCM_CASE = (
    [StepFunction(0, 3, [Fraction(1, 3)] * 4 + [Fraction(2, 5)] * 4)],
    [StepFunction(0, 3, [Fraction(1, 5)] * 4 + [Fraction(2, 5)] * 4)],
)
# The lift factor of the zero function, 3^40, is past int64 by itself.
_WIDE_FACTOR_CASE = (
    [StepFunction.zero(0, 3)],
    [StepFunction(0, 3, [Fraction(1, 3**40)] * 8)],
)
# 2^62 / 3 lifted over 15 is 5 2^62, past int64.
_WIDE_CASE = (
    [StepFunction(0, 3, [Fraction(2**62, 3)] * 8), StepFunction(0, 3, [Fraction(1, 5)] * 8)],
    [StepFunction(0, 3, [Fraction(1, 5)] * 8), StepFunction(0, 3, [Fraction(2**62, 3)] * 8)],
)


@settings(max_examples=300)
@given(_column_lists(), st.sampled_from([1, 2, 3, math.inf]))
@example(_LCM_CASE, 2)
@example(_WIDE_CASE, 3)
@example(_WIDE_FACTOR_CASE, 2)
@example(([], []), 2)
def test_differing_columns_match_the_per_cell_comparison(case, r):
    a, b = case
    columns, d = kernels.differing_columns(a, b)
    by_cell, unit = oracles.cell_columns(a + b)
    assert d == unit
    n = len(a)
    expected = []
    for i, column in enumerate(by_cell):
        halves = (column[:n], column[n:])
        first_of_run = i == 0 or by_cell[i - 1] != column
        if halves[0] != halves[1] and first_of_run and halves not in expected:
            expected.append(halves)
    assert columns == expected
    assert _same_variation(a, b, r) == oracles.same_variation_by_cell(a, b, r)


def test_differing_columns_give_a_recurring_column_once():
    # Eight cells alternate two columns, so no run of equal adjacent
    # columns is longer than one cell, yet only two columns are distinct.
    a = [StepFunction(0, 3, [1, 2] * 4)]
    b = [StepFunction.zero(0, 3)]
    columns, d = kernels.differing_columns(a, b)
    assert d == 1
    assert columns == [(((1, 0),), ((0, 0),)), (((2, 0),), ((0, 0),))]
