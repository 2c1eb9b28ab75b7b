"""Variation norms, dual weights and window splits."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import brute_variation_power
from walshtf import QuadScalar, linearize_weights, long_short_split, variation_norm
from walshtf.errors import UnsortedBreakpoints, ZeroVariation
from walshtf.variation import collapse_repeats

short_sequences = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=16),
    min_size=0,
    max_size=8,
)


@settings(max_examples=60)
@given(short_sequences, st.integers(min_value=1, max_value=4))
def test_exact_variation_matches_brute_enumeration(values, r):
    cert = variation_norm(values, r, "exact")
    assert cert.is_exact
    assert cert.power_sum == QuadScalar(brute_variation_power(values, r))


@settings(max_examples=40)
@given(short_sequences)
def test_float_variation_matches_brute_enumeration(values):
    r = 2.5
    cert = variation_norm([float(v) for v in values], r, "float")
    assert not cert.is_exact
    expected = brute_variation_power([float(v) for v in values], r)
    assert cert.power_sum == pytest.approx(expected, rel=1e-12, abs=1e-12)


# Multiples of 1/16 in [-4, 4]: every difference, its r-th power for
# r <= 4 and every chain sum is a float, so both lanes compute the same
# numbers and must pick the same chain.
exact_float_sequences = st.lists(
    st.integers(min_value=-64, max_value=64).map(lambda n: Fraction(n, 16)),
    min_size=1,
    max_size=8,
)


@given(exact_float_sequences, st.sampled_from([1, 2, 3, 4, math.inf]))
def test_exact_and_float_lanes_agree_where_floats_are_exact(values, r):
    exact = variation_norm(values, r)
    floats = variation_norm([float(v) for v in values], r)
    assert exact.is_exact and not floats.is_exact
    assert exact.indices == floats.indices
    assert float(exact.power_sum) == floats.power_sum


@given(short_sequences, st.integers(min_value=1, max_value=4))
def test_certificate_chain_attains_the_value(values, r):
    cert = variation_norm(values, r, "exact")
    assert list(cert.indices) == sorted(set(cert.indices))
    total = QuadScalar(0)
    for a, b in zip(cert.indices, cert.indices[1:]):
        total = total + abs(QuadScalar.coerce(values[b] - values[a])) ** r
    assert total == cert.power_sum


@given(short_sequences, st.fractions(min_value=-4, max_value=4, max_denominator=16))
def test_appending_never_decreases_variation(values, extra):
    before = variation_norm(values, 3, "exact").power_sum
    after = variation_norm(values + [extra], 3, "exact").power_sum
    assert after >= before


def test_auto_method_picks_exact_only_when_it_can():
    exact_in = [Fraction(1, 2), Fraction(-1, 3)]
    assert variation_norm(exact_in, 3).is_exact
    assert not variation_norm(exact_in, 2.5).is_exact
    assert not variation_norm([0.5, -0.25], 3).is_exact
    assert not variation_norm(exact_in, 3, "float").is_exact


def test_an_empty_sequence_follows_the_method_and_defaults_to_floats():
    assert not variation_norm([], 3).is_exact
    assert variation_norm([], 3).power_sum == 0.0
    assert variation_norm([], 3, "exact").is_exact
    assert not variation_norm([], 3, "float").is_exact


def test_exact_method_refuses_fractional_exponent():
    with pytest.raises(ValueError):
        variation_norm([Fraction(0), Fraction(1)], 2.5, "exact")


@pytest.mark.parametrize("r", [math.nan, 0.5, -math.inf])
def test_variation_refuses_an_exponent_below_one(r):
    with pytest.raises(ValueError, match="at least 1"):
        variation_norm([0.0, 1.0, -1.0], r)


def test_degenerate_sequences():
    for values in ([], [Fraction(7)], [Fraction(1)] * 5):
        cert = variation_norm(values, 3, "exact")
        assert cert.indices == ()
        assert cert.power_sum == QuadScalar(0)
        assert cert.value == 0.0


def test_sup_variation_is_largest_gap():
    values = [Fraction(0), Fraction(3), Fraction(-1), Fraction(2)]
    cert = variation_norm(values, math.inf, "exact")
    assert cert.power_sum == QuadScalar(4)
    assert cert.indices == (1, 2)


@given(short_sequences)
def test_collapse_repeats_preserves_variation(values):
    collapsed = collapse_repeats(values)
    for a, b in zip(collapsed, collapsed[1:]):
        assert a != b
    assert (
        variation_norm(collapsed, 3, "exact").power_sum
        == variation_norm(values, 3, "exact").power_sum
    )


@settings(max_examples=60)
@given(short_sequences, st.sampled_from([2.5, 3.0, 4.0]))
def test_dual_weights_certify_the_variation(values, r):
    floats = [float(v) for v in values]
    cert = variation_norm(floats, r, "float")
    if not cert.indices:
        with pytest.raises(ZeroVariation):
            linearize_weights(floats, r)
        return
    chain, weights = linearize_weights(floats, r)
    assert chain == cert.indices
    paired = sum(
        w * (floats[b] - floats[a])
        for w, (a, b) in zip(weights, zip(chain, chain[1:]))
    )
    assert paired == pytest.approx(cert.value, rel=1e-10, abs=1e-12)
    conj = r / (r - 1.0)
    assert sum(abs(w) ** conj for w in weights) == pytest.approx(1.0, rel=1e-10)


def test_dual_weights_at_sup_exponent_are_signs():
    values = [0.0, 2.0, -1.0]
    chain, weights = linearize_weights(values, math.inf)
    assert all(w in (-1.0, 1.0) for w in weights)
    paired = sum(
        w * (values[b] - values[a])
        for w, (a, b) in zip(weights, zip(chain, chain[1:]))
    )
    assert paired == variation_norm(values, math.inf, "float").value


@settings(max_examples=40)
@given(short_sequences, st.integers(min_value=1, max_value=3))
@example(values=[Fraction(0), Fraction(-1), Fraction(0), Fraction(1)], pieces=1)
def test_long_short_split_dominates_the_variation(values, pieces):
    if len(values) < 2:
        return
    step = max(1, len(values) // (pieces + 1))
    breakpoints = list(range(0, len(values), step))
    if breakpoints[-1] != len(values) - 1:
        breakpoints.append(len(values) - 1)
    r = 3.0
    split = long_short_split(values, r, breakpoints)
    full = variation_norm(values, r, "exact").value
    assert split.bound() >= full - 1e-9


def test_long_short_split_rejects_unsorted_breakpoints():
    with pytest.raises(UnsortedBreakpoints):
        long_short_split([1, 2, 3, 4], 3.0, [2, 0])


# Dyadic steps whose r-th powers leave the float range: 2^-10 at r = 120
# is 2^-1200, below the smallest subnormal, and 2^10 at r = 120 is
# 2^1200, past the largest float.
@pytest.mark.parametrize("unit", [Fraction(1, 1024), Fraction(1024)], ids=["tiny", "huge"])
@given(steps=st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=6))
def test_float_lane_at_large_r_matches_the_exact_lane(unit, steps):
    r = 120
    values = [unit * s for s in steps]
    exact = variation_norm(values, r, "exact")
    floats = variation_norm([float(v) for v in values], r, "float")
    span = max(values) - min(values)
    if span == 0:
        assert floats.value == 0.0 and exact.power_sum == QuadScalar(0)
        return
    # The exact power sum over span^r is a ratio of small integers.
    want = float(exact.power_sum.rat / span**r) ** (1.0 / r) * float(span)
    assert floats.value == pytest.approx(want, rel=1e-12)


def test_float_lane_reports_the_variation_where_powers_underflow_or_overflow():
    # 0.0 and an OverflowError before the lane rescaled.
    tiny = variation_norm([0.0, 1e-3, 0.0], 120.0)
    assert tiny.value == pytest.approx(2 ** (1 / 120) * 1e-3, rel=1e-12)
    huge = variation_norm([0.0, 1e3, 0.0], 120.5)
    assert huge.value == pytest.approx(2 ** (1 / 120.5) * 1e3, rel=1e-12)
    chain, weights = linearize_weights([0.0, 1e3, 0.0], 120.5)
    assert chain == (0, 1, 2)
    assert weights[0] * 1e3 - weights[1] * 1e3 == pytest.approx(huge.value, rel=1e-12)
    conj = 120.5 / 119.5
    assert sum(abs(w) ** conj for w in weights) == pytest.approx(1.0, rel=1e-12)
    split = long_short_split([0.0, 1e3, 0.0, 1e3], 120.5, [2])
    assert split.bound() >= variation_norm([0.0, 1e3, 0.0, 1e3], 120.5).value


@given(st.lists(st.floats(min_value=-8, max_value=8), min_size=1, max_size=8))
def test_float_lane_divides_by_nothing_where_the_powers_fit(values):
    # Keeps the bits every r = 3 caller (restricted-type) had before.
    span = max(values) - min(values)
    assume(span == 0 or span**3 >= 2.0**-969)
    cert = variation_norm(values, 3.0)
    assert cert.scale == 1.0
    total = sum(abs(values[b] - values[a]) ** 3.0 for a, b in zip(cert.indices, cert.indices[1:]))
    assert cert.power_sum == pytest.approx(total, rel=1e-12, abs=0.0)
