"""Walsh functions, wave packets and their pairings against oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import CellFunction, inner_product_brute, packet_step, packet_value, walsh_closed_form
from walshtf import (
    DyadicInterval,
    SQRT2,
    QuadScalar,
    StepFunction,
    Tile,
    ZERO,
    eval_wavepacket,
    inner_product,
    inv_sqrt_pow2,
    synthesize,
    tiles_disjoint,
    wavepacket_step,
)
from walshtf.errors import GridMismatch
from walshtf.exact import quad_to_float
from walshtf.experiments.random_gen import sign_function
from walshtf.operators import average
from walshtf.wavepacket import batch_inner_products, tree_sign_step


def _walsh_pattern(index: int, resolution_exp: int) -> np.ndarray:
    """The signs of the index-th Walsh function, one per cell of [0, 1)."""
    tile = Tile(DyadicInterval(0, 0), DyadicInterval(index, 0))
    return tree_sign_step(tile, 0, resolution_exp).field.rat


@given(st.integers(min_value=0, max_value=127), st.integers(min_value=0, max_value=127))
def test_walsh_multiplicativity(a, b):
    # Walsh indices combine by XOR: the sign rule's patterns multiply cell by cell.
    product = _walsh_pattern(a, 7) * _walsh_pattern(b, 7)
    assert product.tolist() == _walsh_pattern(a ^ b, 7).tolist()


@pytest.mark.parametrize("index", [-1, -6])
def test_walsh_pattern_refuses_a_negative_index(index):
    # A negative frequency index names no Walsh function; the interval
    # refuses it before the sign rule runs.
    with pytest.raises(ValueError, match="positive half-line"):
        _walsh_pattern(index, 3)


@given(st.integers(min_value=0, max_value=63))
def test_sign_pattern_samples_walsh(index):
    # One cell per piece: the tile at scale 0 on a (0, bit length) grid.
    pattern = _walsh_pattern(index, index.bit_length()).tolist()
    n = len(pattern)
    assert n & (n - 1) == 0
    for cell, sign in enumerate(pattern):
        assert sign in (-1, 1)
        assert sign == walsh_closed_form(index, Fraction(cell, n))


def _random_tile(rng: random.Random, domain_exp: int, resolution_exp: int) -> Tile:
    scale = rng.randint(-resolution_exp, domain_exp)
    time = DyadicInterval(rng.randrange(1 << (domain_exp - scale)), scale)
    freq = DyadicInterval(rng.randrange(1 << (resolution_exp + scale)), -scale)
    return Tile(time, freq)


def test_packet_values_match_closed_form(rng):
    width = Fraction(1, 1 << 5)
    for _ in range(300):
        tile = _random_tile(rng, 3, 5)
        cell = rng.randrange(1 << 8)
        x = cell * width
        assert eval_wavepacket(tile, x) == packet_value(tile, x)


def test_packet_step_matches_closed_form(rng):
    # The sign step is the packet without its amplitude 2^(-k/2).
    for _ in range(40):
        tile = _random_tile(rng, 3, 4)
        assert wavepacket_step(tile, 3, 4) == packet_step(tile, 3, 4)
        amp = inv_sqrt_pow2(-tile.time.scale)
        assert tree_sign_step(tile, 3, 4) == packet_step(tile, 3, 4) * amp
    # Tiles around the box and beside it are clipped to it.
    for time in (DyadicInterval(0, 4), DyadicInterval(0, 6), DyadicInterval(1, 4), DyadicInterval(9, 0)):
        for n in (0, 1, 5):
            tile = Tile(time, DyadicInterval(n, -time.scale))
            assert wavepacket_step(tile, 3, 4) == packet_step(tile, 3, 4)
            amp = inv_sqrt_pow2(-tile.time.scale)
            assert tree_sign_step(tile, 3, 4) == packet_step(tile, 3, 4) * amp


def test_packet_norm_is_one(rng):
    for _ in range(25):
        tile = _random_tile(rng, 3, 5)
        f = wavepacket_step(tile, 3, 5)
        assert f.dot(f) == QuadScalar(1)


def test_disjoint_packets_are_orthogonal(rng):
    found = 0
    while found < 25:
        a, b = _random_tile(rng, 3, 5), _random_tile(rng, 3, 5)
        if not tiles_disjoint(a, b):
            continue
        found += 1
        assert inner_product(wavepacket_step(a, 3, 5), b) == ZERO


def test_inner_product_matches_brute(rng):
    for _ in range(20):
        f = sign_function(rng, 3, 4)
        tile = _random_tile(rng, 3, 4)
        assert inner_product(f, tile) == inner_product_brute(f, tile)


def test_batch_inner_products_agree_with_single(rng):
    f = sign_function(rng, 3, 4)
    shared_time = DyadicInterval(0, 2)
    grouped = [
        Tile(shared_time, DyadicInterval(n, -2)) for n in range(1 << 6)
    ]
    mixed = [_random_tile(rng, 3, 4) for _ in range(30)]
    for tiles in (grouped, mixed, grouped + mixed):
        batch = batch_inner_products(f, tiles)
        for tile in tiles:
            assert batch[tile] == inner_product_brute(f, tile)


def test_scale_slice_packets_form_a_basis(rng):
    # At any fixed time scale the packets tile the whole phase box, so
    # resynthesizing from their pairings reproduces the function.
    domain_exp, resolution_exp = 2, 3
    f = sign_function(rng, domain_exp, resolution_exp)
    for scale in (-1, 0, 1):
        tiles = [
            Tile(
                DyadicInterval(i, scale),
                DyadicInterval(n, -scale),
            )
            for i in range(1 << (domain_exp - scale))
            for n in range(1 << (resolution_exp + scale))
        ]
        coeffs = batch_inner_products(f, tiles)
        rebuilt = synthesize(coeffs.items(), domain_exp, resolution_exp)
        assert rebuilt == f


def test_indicator_and_restriction():
    iv = DyadicInterval(1, 1)
    f = StepFunction.indicator(iv, 3, 4)
    assert f.integral() == QuadScalar(2)
    assert f.support_cells() == list(range(*iv.cell_range(4)))
    g = f.restrict(DyadicInterval(0, 2))
    assert g.integral() == QuadScalar(2)
    assert f.restrict(DyadicInterval(1, 2)).integral() == ZERO


def test_from_cells_validates_range():
    with pytest.raises(GridMismatch):
        StepFunction.from_cells(2, 2, [16])
    f = StepFunction.from_cells(2, 2, [0, 3, 3])
    assert f.support_cells() == [0, 3]


def test_dilate_rescales_the_grid(rng):
    f = sign_function(rng, 3, 4)
    g = f.dilate(1)
    assert (g.domain_exp, g.resolution_exp) == (2, 5)
    assert g.values == f.values
    assert g.dot(g) == f.dot(f) * Fraction(1, 2)
    assert g.dilate(-1) == f


def test_serialization_round_trips(rng):
    f = sign_function(rng, 2, 3)
    assert StepFunction.from_json(f.to_json()) == f


def test_json_writer_refuses_the_negative_j_the_reader_refuses():
    dilated = StepFunction(1, 3, [1] * 16).dilate(2)
    assert dilated.domain_exp == -1
    with pytest.raises(ValueError, match='"J"'):
        dilated.to_json()
    with pytest.raises(ValueError, match='"J"'):
        StepFunction.from_json({"J": -1, "m": 5, "values": [1] * 16})
    at_zero = StepFunction(1, 3, [1] * 16).dilate(1)
    assert StepFunction.from_json(at_zero.to_json()) == at_zero


def test_json_reads_a_grid_with_cells_and_numeric_values():
    indicator = StepFunction.from_json({"grid": [1, 2], "cells": [0, 5]})
    assert indicator == StepFunction.from_cells(1, 2, [0, 5])
    values = [0, 1, "1/2+0/1*sqrt2", 0, "0/1+1/1*sqrt2", -1, 0, 2]
    f = StepFunction.from_json({"J": 1, "m": 2, "values": values})
    assert f.values[2] == Fraction(1, 2) and f.values[4] == SQRT2 and f.values[7] == 2


def test_json_refuses_a_value_with_a_zero_denominator():
    # The literal reader raised ZeroDivisionError, not the error of a bad literal.
    values = [0, 1, "1/0+0/1*sqrt2", 0]
    with pytest.raises(ValueError, match="not a Q\\(sqrt2\\) literal"):
        StepFunction.from_json({"J": 1, "m": 1, "values": values})


def test_quadratic_scalars_scale_step_functions_from_either_side(rng):
    f = sign_function(rng, 2, 3)
    assert SQRT2 * f == f * SQRT2
    assert QuadScalar(1, 1) * f == f * QuadScalar(1, 1)
    with pytest.raises(TypeError):
        QuadScalar(1) + "x"


def test_a_grid_without_cells_is_refused():
    with pytest.raises(ValueError, match="at least one cell"):
        StepFunction(-2, 1, [])


def test_dot_pairs_with_cell_weight(rng):
    f = sign_function(rng, 2, 3)
    g = sign_function(rng, 2, 3)
    width = Fraction(1, 1 << 3)
    expected = ZERO
    for a, b in zip(f.values, g.values):
        expected = expected + a * b * width
    assert f.dot(g) == expected
    with pytest.raises(GridMismatch):
        f.dot(sign_function(rng, 2, 4))


def test_tree_sign_step_is_a_sign_on_the_top():
    tile = Tile(DyadicInterval(1, 1), DyadicInterval(3, -1))
    f = tree_sign_step(tile, 3, 4)
    lo, hi = tile.time.cell_range(4)
    for cell, value in enumerate(f.values):
        if lo <= cell < hi:
            assert value in (QuadScalar(1), QuadScalar(-1))
        else:
            assert value == ZERO
    # The sign pattern is the packet's own, so the pairing is positive.
    assert inner_product(f, tile).sign() == 1


# --- integer-plane storage against the per-cell oracle ----------------

_GRIDS = [(0, 0), (1, 1), (2, 2), (0, 3), (3, -1), (1, 3)]
_PARTS = {
    "dyadic": st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4, 8])),
    "thirds": st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 3, 5, 15])),
    # Stored in int64, but a product of two leaves the int64 headroom.
    "mid": st.integers(-3, 3).map(lambda n: n * ((1 << 29) + 7)),
    # Past int64 from the start: near 2^70, or over the denominator 2^70.
    "huge": st.integers(-3, 3).map(lambda n: n * (1 << 70) + 1),
    "tiny": st.integers(-3, 3).map(lambda n: Fraction(n, 1 << 70)),
}


@st.composite
def _cell_lists(draw, cells, kinds=tuple(_PARTS)):
    rat = _PARTS[draw(st.sampled_from(kinds))]
    surd = draw(st.sampled_from([st.just(0), rat, _PARTS["dyadic"]]))
    return draw(st.lists(st.builds(QuadScalar, rat, surd), min_size=cells, max_size=cells))


@st.composite
def _function_pairs(draw):
    domain_exp, resolution_exp = draw(st.sampled_from(_GRIDS))
    cells = 1 << (domain_exp + resolution_exp)
    xs, ys = draw(_cell_lists(cells)), draw(_cell_lists(cells))
    return CellFunction(domain_exp, resolution_exp, xs), CellFunction(domain_exp, resolution_exp, ys)


def _step(ref: CellFunction) -> StepFunction:
    return StepFunction(ref.domain_exp, ref.resolution_exp, ref.values)


def _assert_matches(f: StepFunction, ref: CellFunction) -> None:
    assert (f.domain_exp, f.resolution_exp) == (ref.domain_exp, ref.resolution_exp)
    assert f.values == tuple(ref.values)
    assert f.integer_lift() == ref.lift()
    assert f == _step(ref) and hash(f) == hash(_step(ref))
    assert f.to_float_array().view(np.int64).tolist() == (
        np.array(ref.floats()).view(np.int64).tolist()
    )


_SCALARS = st.sampled_from(
    [0, 3, Fraction(1, 3), Fraction(-5, 8), QuadScalar(0, 1), QuadScalar(Fraction(1, 5), -2),
     QuadScalar(1 << 70, 1), QuadScalar(Fraction(1, 1 << 70))]
)


@settings(max_examples=80)
@given(_function_pairs(), _SCALARS)
def test_plane_algebra_matches_the_cell_oracle(pair, c):
    a, b = pair
    f, g = _step(a), _step(b)
    _assert_matches(f, a)
    _assert_matches(f + g, a + b)
    _assert_matches(f - g, a - b)
    _assert_matches(-f, -a)
    _assert_matches(f * g, a * b)
    _assert_matches(f * c, a * c)
    if not isinstance(c, QuadScalar):
        _assert_matches(c * f, a * c)


@settings(max_examples=60)
@given(_function_pairs())
def test_plane_averages_and_pairings_match_the_cell_oracle(pair):
    a, b = pair
    f, g = _step(a), _step(b)
    for scale in range(-a.resolution_exp, a.domain_exp + 1):
        _assert_matches(average(f, scale), a.average(scale))
    assert f.dot(g) == a.dot(b)
    assert f.integral() == a.integral()
    assert f.dot(f) == a.dot(a)


@settings(max_examples=60)
@given(_function_pairs(), st.integers(-2, 2), st.data())
def test_plane_dilation_and_restriction_match_the_cell_oracle(pair, shift, data):
    a, _ = pair
    f = _step(a)
    _assert_matches(f.dilate(shift), a.dilate(shift))
    scale = data.draw(st.integers(-a.resolution_exp, a.domain_exp + 1))
    interval = DyadicInterval(data.draw(st.integers(0, 3)), scale)
    _assert_matches(f.restrict(interval), a.restrict(interval))


def test_equal_values_are_equal_whatever_the_route(rng):
    # Each route ends on the same values over a different intermediate
    # denominator or dtype; the stored planes must not remember it.
    f = sign_function(rng, 2, 2)
    routes = [
        f * Fraction(1, 3) * 3,
        (f * (1 << 70)) * Fraction(1, 1 << 70),
        f * QuadScalar(0, 1) * QuadScalar(0, Fraction(1, 2)),
        (f + f * Fraction(1, 5)) - f * Fraction(1, 5),
        average(f, -2),
    ]
    for g in routes:
        assert g == f and hash(g) == hash(f)
        assert g.field.denominator == 1 and g.field.rat.dtype == np.int64
    assert f * Fraction(1, 3) != f
    half = StepFunction(2, 2, [Fraction(1, 2)] * 16)
    assert half.field.denominator == 2
    assert half * 2 == StepFunction(2, 2, [1] * 16)


def test_sums_and_products_past_int64_headroom_move_to_python_ints():
    # Lifting the zero function to the denominator 2^70 scales its
    # planes by a factor that is itself past int64.
    tiny = StepFunction(2, 2, [Fraction(1, 1 << 70)] * 16)
    zero = StepFunction.zero(2, 2)
    assert zero + tiny == tiny and tiny - tiny == zero
    big = (1 << 40) + 3
    f = StepFunction(2, 2, [big, -big] * 8)
    assert f.field.rat.dtype == np.int64
    square = f * f
    assert square.field.rat.dtype == object
    assert square.values == tuple([QuadScalar(big * big)] * 16)
    assert (square - square).field.rat.dtype == np.int64
    surd = f * QuadScalar(0, big)
    assert surd.values[1] == QuadScalar(0, -big * big)


def test_distinct_pairs_whose_keys_leave_int64_keep_their_values():
    # Both planes fit int64, but their ranges multiply past 2^63, so
    # the packed (rat, surd) keys have to be Python ints.
    big = (1 << 40) + 3
    values = [QuadScalar(big, -big), QuadScalar(-big, big), QuadScalar(1, 1), QuadScalar(big, -big)]
    f = StepFunction(1, 1, values)
    assert f.field.rat.dtype == np.int64
    assert f.values == tuple(values)
    assert f.to_float_array().tolist() == [v.to_float() for v in values]


def _floats_per_distinct_value(f: StepFunction) -> np.ndarray:
    """One `quad_to_float` per distinct value of f, scattered to the cells."""
    field = f.field
    pairs, inverse = field.distinct()
    return np.array([quad_to_float(r, s, field.denominator) for r, s in pairs])[inverse]


_NEAR_2_53 = [(1 << 53) - 1, -(1 << 53) + 1, 1 << 53, -(1 << 53), (1 << 53) + 1, 1 << 70]
_FACTORS = st.one_of(
    st.just(1),
    st.fractions(min_value=-8, max_value=8, max_denominator=1 << 60),
    st.sampled_from(
        [Fraction(1, 1 << 53), Fraction(-3, 1 << 53), Fraction(1, (1 << 53) - 1),
         Fraction(5, (1 << 53) + 1), QuadScalar(0, 1), QuadScalar(Fraction(1, 3), -2)]
    ),
)


@st.composite
def _functions_for_floats(draw):
    """Sign planes, or wider integers up to past int64, times a factor
    that may hold a denominator near 2^53 or a sqrt2 part."""
    domain_exp, resolution_exp = draw(st.sampled_from(_GRIDS))
    entries = st.sampled_from([-1, 0, 1])
    if draw(st.booleans()):
        entries = st.one_of(
            entries, st.integers(-(1 << 54), 1 << 54), st.sampled_from(_NEAR_2_53)
        )
    cells = 1 << (domain_exp + resolution_exp)
    values = draw(st.lists(entries, min_size=cells, max_size=cells))
    return StepFunction(domain_exp, resolution_exp, values) * draw(_FACTORS)


@given(_functions_for_floats())
@example(StepFunction(1, 1, [1, -1, 0, 1]))
@example(StepFunction(0, 2, [(1 << 53) - 1, -(1 << 53) + 1, 3, 0]))
@example(StepFunction(0, 2, [(1 << 53) - 1, 1 << 53, 3, 0]))
# One float division rounds 2^53 + 1 before dividing: off by one ulp.
@example(StepFunction(0, 1, [(1 << 53) + 1, 0]) * Fraction(1, 7))
@example(StepFunction(0, 1, [1, 3]) * Fraction(1, (1 << 53) - 1))
@example(StepFunction(0, 1, [1, 3]) * Fraction(1, 1 << 53))
@example(StepFunction(0, 1, [1, 0]) * Fraction(1, (1 << 53) + 1))
@example(StepFunction(0, 1, [1, 1 << 70]))
@example(StepFunction(0, 12, [1 << 51] + [0] * 4095) * Fraction(1, 3))  # small, in an object plane
@example(StepFunction(0, 1, [1, 2]) * QuadScalar(1, 1))
def test_to_float_array_rounds_like_one_quad_to_float_per_distinct_value(f):
    assert f.to_float_array().tobytes() == _floats_per_distinct_value(f).tobytes()


def test_to_float_array_divides_a_sign_plane_without_finding_its_distinct_values(
    monkeypatch, rng
):
    f = sign_function(rng, 4, 5) * Fraction(3, 1 << 20)
    expected = _floats_per_distinct_value(f).tobytes()
    monkeypatch.setattr(type(f.field), "distinct", None)
    assert f.to_float_array().tobytes() == expected


def test_integer_arrays_are_taken_as_the_rational_plane():
    cells = np.array([3, -1, 0, 6], dtype=np.int32)
    f = StepFunction(1, 1, cells)
    assert f == StepFunction(1, 1, [3, -1, 0, 6])
    cells[0] = 5
    assert f.values[0] == QuadScalar(3)
    with pytest.raises(GridMismatch):
        StepFunction(1, 1, np.arange(3))


def test_mask_out_zeroes_the_masked_cells():
    f = StepFunction(1, 1, [Fraction(1, 3), QuadScalar(0, 1), 2, -1])
    g = f.mask_out(np.array([True, False, False, True]))
    assert g.values == (ZERO, QuadScalar(0, 1), QuadScalar(2), ZERO)
    assert g == StepFunction(1, 1, [0, QuadScalar(0, 1), 2, 0])


@pytest.mark.parametrize(
    "data, error, named",
    [
        ({"J": 17, "m": -1, "cells": [0]}, ValueError, '"J" must be an integer from 0 to 16'),
        ({"J": 2, "m": -3, "cells": [0]}, ValueError, '"m" must be an integer from -2 to 14'),
        ({"grid": [2, 15], "cells": [0]}, ValueError, '"grid" must be an integer from -2 to 14'),
        ({"grid": [2, 3], "J": 2, "m": 3, "cells": [0]}, ValueError, '"J", "m"'),
        ({"J": 2, "m": 3}, ValueError, 'lacks the field "values"'),
        ({"J": 2, "cells": [0]}, ValueError, 'lacks the field "m"'),
        ([2, 3], TypeError, "must be a JSON object"),
    ],
    ids=["J-past-cap", "m-below-minus-J", "m-past-cap", "two-grids", "no-cells", "no-m", "list"],
)
def test_json_reader_names_the_grid_field_it_refuses(data, error, named):
    with pytest.raises(error, match=named):
        StepFunction.from_json(data)


def test_json_reads_a_grid_at_each_end_of_its_bounds():
    assert StepFunction.from_json({"J": 16, "m": -16, "cells": [0]}).cell_count == 1
    assert StepFunction.from_json({"grid": [0, 4], "cells": [15]}).cell_count == 16
