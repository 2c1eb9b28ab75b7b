"""Field arithmetic in Q(sqrt2) and the dyadic check on rationals."""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import FractionQuad
from walshtf import ONE, SQRT2, ZERO, QuadScalar, inv_sqrt_pow2, pow2_fraction
from walshtf.exact import dyadic, over_sqrt_pow2, quad_sign, quad_to_float
from walshtf.errors import NotDyadicError

small_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=64
)
scalars = st.builds(QuadScalar, small_fractions, small_fractions)
# Any denominators, and numerators well past 2^64.
wide_fractions = st.one_of(
    small_fractions,
    st.builds(Fraction, st.integers(-(1 << 90), 1 << 90), st.integers(1, 1 << 70)),
)
wide_scalars = st.builds(QuadScalar, wide_fractions, wide_fractions)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(wide_scalars, wide_scalars, st.integers(min_value=0, max_value=4))
def test_integer_form_matches_the_fraction_reference(a, b, n):
    ra, rb = FractionQuad.of(a), FractionQuad.of(b)
    assert a.d > 0 and gcd(a.r, a.s, a.d) == 1
    results = [
        (a + b, ra + rb),
        (a - b, ra - rb),
        (a * b, ra * rb),
        (a**n, ra**n),
        (a.square(), ra * ra),
    ]
    if not b.is_zero:
        results.append((a / b, ra / rb))
    for got, want in results:
        assert (got.rat, got.surd) == want.parts()
    assert a.sign() == ra.sign()
    order = (ra - rb).sign()
    assert (a < b, a <= b, a > b, a >= b, a == b) == (
        order < 0, order <= 0, order > 0, order >= 0, order == 0
    )
    assert a.to_float() == ra.to_float()
    assert a.to_text() == ra.to_text()
    assert QuadScalar.from_text(a.to_text()) == a


@given(wide_scalars, wide_scalars, st.integers(min_value=-(1 << 70), max_value=1 << 70))
def test_equal_values_hash_equal(a, b, k):
    if k:
        scaled = QuadScalar.from_ints(a.r * k, a.s * k, a.d * k)
        assert scaled == a and hash(scaled) == hash(a)
    again = (a + b) - b
    assert again == a and hash(again) == hash(a)
    if a.s == 0:
        assert a == a.rat and hash(a) == hash(a.rat)


@given(scalars)
def test_division_inverts_multiplication(a):
    if a.is_zero:
        return
    assert (ONE / a) * a == ONE
    assert (a * a) / a == a


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == QuadScalar(2)
    assert SQRT2.square() == QuadScalar(2)


@given(scalars)
def test_sqrt2_shifts_invert(a):
    assert (a * SQRT2).div_sqrt2() == a
    assert a.div_sqrt2() * SQRT2 == a


@given(scalars)
def test_conjugate_norm_is_rational(a):
    norm = a * a.conjugate()
    assert norm.s == 0
    assert norm.rat == a.rat**2 - 2 * a.surd**2


def test_sign_resolves_pell_neighbours():
    # 886731088897^2 - 2 * 627013566048^2 = 1, so the quotient exceeds
    # sqrt2 by roughly 1e-24; double arithmetic only sees cancellation
    # noise there, while the exact sign stays definitive.
    over = QuadScalar(Fraction(886731088897, 627013566048)) - SQRT2
    under = QuadScalar(Fraction(627013566048, 886731088897)) * 2 - SQRT2
    assert abs(float(over)) < 1e-12
    assert over.sign() == 1
    assert under.sign() == -1
    assert abs(over) == over
    assert abs(under) == -under


def _pell_pairs(count: int):
    """(p, q) with p^2 - 2 q^2 = +-1, so p / q approaches sqrt2."""
    p, q = 1, 1
    for _ in range(count):
        yield p, q
        p, q = p + 2 * q, p + q


@pytest.mark.parametrize("scale", [1, 3, 1 << 40, (1 << 200) + 7])
def test_rounding_on_integers_matches_to_float_on_pell_pairs(scale):
    # p - q sqrt2 = +-1 / (p + q sqrt2) lies ever closer to zero, so its
    # enclosure must tighten far past double precision; scaled triples
    # are the same value in another representation.
    for p, q in _pell_pairs(330):
        for r, s, d in ((p, -q, 1), (-p, q, 3), (p, q, 7), (2 * q, -p, 1 << 90)):
            value = QuadScalar.from_ints(r, s, d)
            expected = value.to_float()
            assert quad_to_float(r * scale, s * scale, d * scale) == expected
            assert expected == FractionQuad.of(value).to_float()


@given(wide_scalars, st.integers(1, 1 << 80))
def test_rounding_on_integers_ignores_the_representation(a, scale):
    assert quad_to_float(a.r * scale, a.s * scale, a.d * scale) == a.to_float()


# The least magnitude that rounds to an infinite float.
_LIMIT = (1 << 1024) - (1 << 970)
_ROOT = isqrt(2 << 400)  # 2^200 sqrt2, rounded down
huge_parts = st.one_of(
    st.integers(-(1 << 1100), 1 << 1100),
    st.integers(-(1 << 64), 1 << 64),
    st.sampled_from([0, _LIMIT - 1, _LIMIT, -_LIMIT, 10**400]),
)


@given(huge_parts, huge_parts, st.one_of(st.integers(1, 1 << 64), st.integers(1, 1 << 1100)))
@example(10**400, 0, 1)
@example(0, 10**400, 1)
@example(-(10**400), 1, 1)
@example(_LIMIT - 1, 0, 1)  # the largest float
@example(_LIMIT, 0, 1)  # halfway to 2^1024: a tie, rounded to the even inf
@example(3 * _LIMIT - 1, 0, 3)
@example(-3 * _LIMIT + 1, 0, 3)
@example(_LIMIT - 2, 1, 1)  # 0.59 below the limit
@example(_LIMIT - 1, 1, 1)  # 0.41 above it
# Within 1 of the limit, below and above, while the 2^64 enclosure of
# s sqrt2 is 2^136 wide: an end overflows before the value is decided.
@example(_LIMIT - 1 - _ROOT, 1 << 200, 1)
@example(_LIMIT - _ROOT, 1 << 200, 1)
@example(-_LIMIT + 1 + _ROOT, -(1 << 200), 1)
def test_rounding_on_integers_matches_fractions_past_the_float_range(r, s, d):
    got = quad_to_float(r, s, d)
    assert got == FractionQuad(Fraction(r, d), Fraction(s, d)).to_float()
    if not s and math.isfinite(got):
        assert got == r / d


def test_rounding_past_the_largest_float_gives_an_infinity():
    largest = 2.0**1023 * (2 - 2.0**-52)
    assert quad_to_float(10**400, 0, 1) == quad_to_float(0, 10**400, 1) == math.inf
    assert quad_to_float(-(10**400), 1, 1) == -math.inf
    assert quad_to_float(_LIMIT - 1, 0, 1) == largest
    assert quad_to_float(_LIMIT - 1 - _ROOT, 1 << 200, 1) == largest
    assert quad_to_float(_LIMIT, 0, 1) == quad_to_float(_LIMIT - _ROOT, 1 << 200, 1) == math.inf


@given(scalars, scalars)
def test_order_matches_subtraction_sign(a, b):
    diff = (a - b).sign()
    assert (a < b) == (diff < 0)
    assert (a == b) == (diff == 0)
    assert (a > b) == (diff > 0)


@given(scalars)
def test_float_conversion_tracks_components(a):
    expected = float(a.rat) + float(a.surd) * 2**0.5
    assert float(a) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(scalars)
def test_text_round_trip(a):
    assert QuadScalar.from_text(a.to_text()) == a


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        QuadScalar.from_text("garbage")
    with pytest.raises(ValueError):
        QuadScalar.from_text("1/4")
    # A zero denominator is a bad literal too, not a ZeroDivisionError.
    for text in ("1/0+0/1*sqrt2", "0/1+1/0*sqrt2", "0/0-0/0*sqrt2"):
        with pytest.raises(ValueError, match="not a Q\\(sqrt2\\) literal"):
            QuadScalar.from_text(text)


@given(scalars, st.integers(min_value=0, max_value=5))
def test_integer_powers(a, n):
    expected = ONE
    for _ in range(n):
        expected = expected * a
    assert a**n == expected


def test_negative_powers_refused():
    with pytest.raises(ValueError):
        QuadScalar(3) ** -1


@given(st.integers(min_value=-10, max_value=10))
def test_inv_sqrt_pow2_square(k):
    value = inv_sqrt_pow2(k)
    assert value.square() == QuadScalar(pow2_fraction(-k))
    assert value.sign() == 1
    if k % 2 == 0:
        assert value.s == 0
    else:
        assert value.rat == 0


wide_ints = st.integers(-(1 << 80), 1 << 80)


@given(wide_ints, wide_ints, st.integers(1, 1 << 70), st.integers(-90, 90))
@example(0, 0, 1, -3)
@example(1, 0, 1, 1)
@example(-(1 << 65), 1 << 64, 3, -1)
def test_over_sqrt_pow2_scales_by_the_half_power_of_two(r, s, d, e):
    # (r' + s' sqrt2) / d' = (r + s sqrt2) 2^(-e/2) / d: both sides are
    # squared with Fractions, and the signs compared on the integers.
    r2, s2, d2 = over_sqrt_pow2(r, s, d, e)
    assert d2 > 0
    scale = pow2_fraction(-e)
    assert Fraction(r2 * r2 + 2 * s2 * s2, d2 * d2) == Fraction(r * r + 2 * s * s, d * d) * scale
    assert Fraction(2 * r2 * s2, d2 * d2) == Fraction(2 * r * s, d * d) * scale
    assert quad_sign(r2, s2) == quad_sign(r, s)


def test_inv_sqrt_pow2_is_the_rule_on_one():
    for k in range(-70, 71):
        assert inv_sqrt_pow2(k) == QuadScalar.from_ints(*over_sqrt_pow2(1, 0, 1, k))


def test_pow2_fraction_both_directions():
    assert pow2_fraction(4) == 16
    assert pow2_fraction(0) == 1
    assert pow2_fraction(-3) == Fraction(1, 8)


def test_dyadic_check_refuses_odd_denominators():
    with pytest.raises(NotDyadicError):
        dyadic(Fraction(1, 3))
    with pytest.raises(NotDyadicError):
        dyadic(Fraction(-5, 12))
    assert dyadic(Fraction(6, 4)) == Fraction(3, 2)
    assert dyadic(-7) == Fraction(-7) and type(dyadic(-7)) is Fraction
    with pytest.raises(TypeError):
        dyadic(0.5)
