"""Exact arithmetic in the quadratic field Q(sqrt2).

Everything downstream reduces to field arithmetic on numbers a + b*sqrt2
with rational a, b: wave packet amplitudes contribute powers of sqrt2,
inner products and averages contribute dyadic rationals.  A rational is
an int or a `fractions.Fraction`; `dyadic` is the one check that it is
n / 2^k, as the frequencies of trees and frequency sets must be.  Values
are immutable and every operation is exact; square roots are never
taken in the exact domain.  Magnitude comparisons happen on signs and
squares, or after an explicit conversion to float with a proven error
bound.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, inf, isqrt, lcm
from typing import Sequence, Union

from .errors import NotDyadicError

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QuadScalar"]

_QUAD_RE = re.compile(r"^(-?\d+)/(\d+)([+-]\d+)/(\d+)\*sqrt2$")


def _parts(value: RationalLike) -> tuple[int, int]:
    """An exact rational as (numerator, positive denominator), reduced."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _as_fraction(value: RationalLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(*_parts(value))


def dyadic(value: RationalLike) -> Fraction:
    """value as a Fraction, refused unless its denominator is a power of two."""
    frac = _as_fraction(value)
    den = frac.denominator
    if den & (den - 1):
        raise NotDyadicError(f"{frac} has a non power-of-two denominator")
    return frac


def quad_sign(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt2 for integers of any size."""
    if not b:
        return (a > 0) - (a < 0)
    if not a or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    # Mixed signs: a^2 = 2 b^2 has no solution with b != 0.
    return 1 if (a * a > 2 * b * b) == (a > 0) else -1


# bits -> root with root / 2^bits < sqrt2 < (root + 1) / 2^bits.
_SQRT2_ROOTS = {bits: isqrt(2 << (2 * bits)) for bits in (64, 128, 256, 512)}

# The least magnitude that rounds to an infinite float: halfway between
# the largest float, 2^1024 - 2^971, and 2^1024, a tie that rounds to
# the even significand of 2^1024.
_FLOAT_LIMIT = (1 << 1024) - (1 << 970)


def _int_ratio(a: int, b: int) -> float:
    """The float nearest a / b for integers, b positive: ±inf from
    `_FLOAT_LIMIT` on, where int true division raises OverflowError."""
    # |a| / b < 2^(len a - len b + 1), so only long quotients can reach it.
    if a.bit_length() - b.bit_length() > 1021 and abs(a) >= _FLOAT_LIMIT * b:
        return inf if a > 0 else -inf
    return a / b


def quad_to_float(r: int, s: int, d: int) -> float:
    """The float nearest (r + s*sqrt2) / d for integers, d positive.

    Round to nearest, so a value of magnitude `_FLOAT_LIMIT` or more is
    ±inf.  sqrt2 is resolved adaptively: the enclosure is tightened
    until both interval ends round to the same float, so the result is
    the correctly rounded value whenever the loop converges (always in
    practice; the final fallback is off by at most one ulp).  Each end
    is one `_int_ratio`, which is correctly rounded and decides
    overflow on the integers before any true division.  Scaling
    r, s and d by one factor scales both ends alike, so the result does
    not depend on the representation: it is the same for any (r, s, d)
    of one value, canonical or not.
    """
    if not s:
        return _int_ratio(r, d)
    for bits, root in _SQRT2_ROOTS.items():
        # The ends are (r 2^bits + s root) and that plus s, over d 2^bits.
        a = (r << bits) + s * root
        den = d << bits
        fa, fb = _int_ratio(a, den), _int_ratio(a + s, den)
        if fa == fb:
            return fa
    return _int_ratio(2 * a + s, 2 * den)


class QuadScalar:
    """An element (r + s sqrt2) / d of Q(sqrt2), held as three integers.

    The form is canonical, so equal values have equal integers: d is
    positive, gcd(r, s, d) = 1 and zero is (0, 0, 1).  It is the form of
    one cell of a `kernels.IntegerField`.  `rat` and `surd` give the
    rational and sqrt2 parts as reduced fractions.
    """

    __slots__ = ("r", "s", "d")

    def __init__(self, rat: RationalLike = 0, surd: RationalLike = 0) -> None:
        (a, p), (b, q) = _parts(rat), _parts(surd)
        # Over the lcm of two reduced denominators no prime divides both
        # numerators and d, so the triple is already canonical.
        d = lcm(p, q)
        object.__setattr__(self, "r", a * (d // p))
        object.__setattr__(self, "s", b * (d // q))
        object.__setattr__(self, "d", d)

    @classmethod
    def from_ints(cls, r: int, s: int, d: int = 1) -> "QuadScalar":
        """The value (r + s sqrt2) / d of integers, d nonzero, in canonical form."""
        if d < 0:
            r, s, d = -r, -s, -d
        g = gcd(r, s, d)
        if g != 1:
            r, s, d = r // g, s // g, d // g
        value = cls.__new__(cls)
        object.__setattr__(value, "r", r)
        object.__setattr__(value, "s", s)
        object.__setattr__(value, "d", d)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadScalar is immutable")

    @classmethod
    def coerce(cls, value: ScalarLike) -> "QuadScalar":
        if isinstance(value, QuadScalar):
            return value
        num, den = _parts(value)
        return cls.from_ints(num, 0, den)

    @property
    def rat(self) -> Fraction:
        return Fraction(self.r, self.d)

    @property
    def surd(self) -> Fraction:
        return Fraction(self.s, self.d)

    @property
    def is_zero(self) -> bool:
        return not self.r and not self.s

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: ScalarLike) -> "QuadScalar":
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        o = QuadScalar.coerce(other)
        d = lcm(self.d, o.d)
        fa, fb = d // self.d, d // o.d
        return QuadScalar.from_ints(self.r * fa + o.r * fb, self.s * fa + o.s * fb, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadScalar":
        return QuadScalar.from_ints(-self.r, -self.s, self.d)

    def __sub__(self, other: ScalarLike) -> "QuadScalar":
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        return self + -QuadScalar.coerce(other)

    def __rsub__(self, other: ScalarLike) -> "QuadScalar":
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        return -self + other

    def __mul__(self, other: ScalarLike) -> "QuadScalar":
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        o = QuadScalar.coerce(other)
        return QuadScalar.from_ints(
            self.r * o.r + 2 * self.s * o.s, self.r * o.s + self.s * o.r, self.d * o.d
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadScalar":
        return QuadScalar.from_ints(self.r, -self.s, self.d)

    def __truediv__(self, other: ScalarLike) -> "QuadScalar":
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        o = QuadScalar.coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # 1/((a + b sqrt2)/e) = e (a - b sqrt2)/(a^2 - 2 b^2)
        return QuadScalar.from_ints(
            (self.r * o.r - 2 * self.s * o.s) * o.d,
            (self.s * o.r - self.r * o.s) * o.d,
            self.d * (o.r * o.r - 2 * o.s * o.s),
        )

    def __pow__(self, power: int) -> "QuadScalar":
        if not isinstance(power, int) or power < 0:
            raise ValueError("only nonnegative integer powers are exact")
        result = ONE
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def div_sqrt2(self) -> "QuadScalar":
        return QuadScalar.from_ints(2 * self.s, self.r, 2 * self.d)

    def square(self) -> "QuadScalar":
        r, s = self.r, self.s
        return QuadScalar.from_ints(r * r + 2 * s * s, 2 * r * s, self.d * self.d)

    def sign(self) -> int:
        return quad_sign(self.r, self.s)

    def __abs__(self) -> "QuadScalar":
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _SCALAR_TYPES):
            o = QuadScalar.coerce(other)
            return self.r == o.r and self.s == o.s and self.d == o.d
        return NotImplemented

    def _order(test):
        """A comparison that applies test to the sign of self - other."""

        def compare(self, other: ScalarLike) -> bool:
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            o = QuadScalar.coerce(other)
            return test(quad_sign(self.r * o.d - o.r * self.d, self.s * o.d - o.s * self.d))

        return compare

    __lt__ = _order(lambda sign: sign < 0)
    __le__ = _order(lambda sign: sign <= 0)
    __gt__ = _order(lambda sign: sign > 0)
    __ge__ = _order(lambda sign: sign >= 0)
    del _order

    def __hash__(self) -> int:
        # A rational value hashes as the equal Fraction or int.
        if not self.s:
            return hash(self.rat)
        return hash((self.r, self.s, self.d))

    def __float__(self) -> float:
        return self.to_float()

    def to_float(self) -> float:
        """The nearest float, by `quad_to_float`."""
        return quad_to_float(self.r, self.s, self.d)

    def to_text(self) -> str:
        rat, surd = self.rat, self.surd
        return (
            f"{rat.numerator}/{rat.denominator}"
            f"{surd.numerator:+d}/{surd.denominator}*sqrt2"
        )

    @classmethod
    def from_text(cls, text: str) -> "QuadScalar":
        if not isinstance(text, str):
            raise TypeError(f"a Q(sqrt2) literal must be text, got {type(text).__name__}")
        match = _QUAD_RE.match(text.strip())
        if match is None or not int(match.group(2)) or not int(match.group(4)):
            raise ValueError(f"not a Q(sqrt2) literal: {text!r}")
        return cls(
            Fraction(int(match.group(1)), int(match.group(2))),
            Fraction(int(match.group(3)), int(match.group(4))),
        )

    def __repr__(self) -> str:
        return f"QuadScalar({self.rat!r}, {self.surd!r})"

    def __str__(self) -> str:
        return self.to_text()


ZERO = QuadScalar(0)
ONE = QuadScalar(1)
SQRT2 = QuadScalar(0, 1)


# The operand types QuadScalar arithmetic accepts; any other operand gets
# NotImplemented, so its own reflected method can answer.
_SCALAR_TYPES = (int, Fraction, QuadScalar)


def common_lift(values: Sequence[QuadScalar]) -> tuple[list[int], list[int], int]:
    """Integers (rats, surds, d) with values[i] = (rats[i] + surds[i] sqrt2) / d.

    d is the lcm of the values' own denominators, which is the lcm of
    the denominators of every part.
    """
    d = lcm(*(v.d for v in values))
    return [v.r * (d // v.d) for v in values], [v.s * (d // v.d) for v in values], d


def over_sqrt_pow2(r: int, s: int, d: int, e: int) -> tuple[int, int, int]:
    """Integers (r', s', d') with (r' + s' sqrt2) / d' = (r + s sqrt2) 2^(-e/2) / d.

    For odd e, 2^(-e/2) is 2^(-(e + 1)/2) sqrt2, and (r + s sqrt2) sqrt2
    is 2s + r sqrt2.  The remaining power of two moves into d' when it
    divides and into r' and s' when it multiplies, so d' keeps the sign
    of d.  The triple is not reduced.
    """
    if e & 1:
        r, s, e = 2 * s, r, e + 1
    half = e >> 1
    if half >= 0:
        return r, s, d << half
    return r << -half, s << -half, d


_INV_SQRT_POW2: dict[int, QuadScalar] = {}


def inv_sqrt_pow2(k: int) -> QuadScalar:
    """The exact value 2^(-k/2): rational for even k, a sqrt2 multiple otherwise."""
    cached = _INV_SQRT_POW2.get(k)
    if cached is None:
        cached = _INV_SQRT_POW2[k] = QuadScalar.from_ints(*over_sqrt_pow2(1, 0, 1, k))
    return cached


def pow2_fraction(k: int) -> Fraction:
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)
