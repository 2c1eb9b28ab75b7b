"""Walsh functions, wave packets and their pairings against oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import inner_product_brute, packet_step, packet_value, walsh_closed_form
from walshtf import (
    DyadicInterval,
    QuadScalar,
    StepFunction,
    Tile,
    ZERO,
    eval_walsh,
    eval_wavepacket,
    inner_product,
    synthesize,
    tiles_disjoint,
    walsh_sign_pattern,
    wavepacket_step,
)
from walshtf.errors import GridMismatch
from walshtf.experiments.random_gen import sign_function
from walshtf.wavepacket import batch_inner_products, tree_sign_step

unit_points = st.fractions(min_value=0, max_value=1, max_denominator=512).filter(
    lambda t: t < 1
)


@given(st.integers(min_value=0, max_value=127), unit_points)
def test_walsh_matches_digit_product(index, t):
    assert eval_walsh(index, t) == walsh_closed_form(index, t)


@given(st.integers(min_value=0, max_value=127), st.integers(min_value=0, max_value=127))
def test_walsh_multiplicativity(a, b):
    # Walsh indices combine by XOR wherever both factors are defined.
    t = Fraction(random.Random(a * 128 + b).randrange(1024), 1024)
    assert eval_walsh(a, t) * eval_walsh(b, t) == eval_walsh(a ^ b, t)


@given(st.integers(min_value=0, max_value=63))
def test_sign_pattern_samples_walsh(index):
    pattern = walsh_sign_pattern(index)
    n = len(pattern)
    assert n & (n - 1) == 0
    for cell, sign in enumerate(pattern):
        assert sign in (-1, 1)
        assert sign == eval_walsh(index, Fraction(cell, n))


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
    for _ in range(40):
        tile = _random_tile(rng, 3, 4)
        assert wavepacket_step(tile, 3, 4) == packet_step(tile, 3, 4)
    # Tiles around the box and beside it are clipped to it.
    for time in (DyadicInterval(0, 4), DyadicInterval(0, 6), DyadicInterval(1, 4), DyadicInterval(9, 0)):
        for n in (0, 1, 5):
            tile = Tile(time, DyadicInterval(n, -time.scale))
            assert wavepacket_step(tile, 3, 4) == packet_step(tile, 3, 4)


def test_packet_norm_is_one(rng):
    for _ in range(25):
        tile = _random_tile(rng, 3, 5)
        f = wavepacket_step(tile, 3, 5)
        assert f.l2_norm_sq() == QuadScalar(1)


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
    assert f.value_at(Fraction(0)) == QuadScalar(1)
    assert f.value_at(Fraction(3, 4)) == QuadScalar(1)
    assert f.value_at(Fraction(1, 4)) == ZERO


def test_dilate_rescales_the_grid(rng):
    f = sign_function(rng, 3, 4)
    g = f.dilate(1)
    assert (g.domain_exp, g.resolution_exp) == (2, 5)
    assert g.values == f.values
    assert g.l2_norm_sq() == f.l2_norm_sq() * Fraction(1, 2)
    assert g.dilate(-1) == f


def test_serialization_round_trips(rng):
    f = sign_function(rng, 2, 3)
    assert StepFunction.from_json_text(f.to_json_text()) == f
    assert StepFunction.from_json(f.to_json()) == f


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
