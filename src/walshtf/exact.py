"""Exact arithmetic over dyadic rationals and the quadratic field Q(sqrt2).

Everything downstream reduces to field arithmetic on numbers a + b*sqrt2
with rational a, b: wave packet amplitudes contribute powers of sqrt2,
inner products and averages contribute dyadic rationals.  Values are
immutable and every operation is exact; square roots are never taken in
the exact domain.  Magnitude comparisons happen on signs and squares, or
after an explicit conversion to float with a proven error bound.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence, Union

from .errors import NotDyadicError

RationalLike = Union[int, Fraction, "DyadicRational"]
ScalarLike = Union[int, Fraction, "DyadicRational", "QuadScalar"]

_DYADIC_RE = re.compile(r"^(-?\d+)\*2\^(-?\d+)$")
_QUAD_RE = re.compile(r"^(-?\d+)/(\d+)([+-]\d+)/(\d+)\*sqrt2$")


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, DyadicRational):
        return value.as_fraction()
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class DyadicRational:
    """A number n * 2^e in canonical form: odd n, or n = 0 with e = 0."""

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int = 0) -> None:
        if numerator == 0:
            exponent = 0
        else:
            shift = (numerator & -numerator).bit_length() - 1
            numerator >>= shift
            exponent += shift
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DyadicRational is immutable")

    @classmethod
    def from_fraction(cls, value: RationalLike) -> "DyadicRational":
        """value as a dyadic rational; a dyadic rational comes back as is."""
        if isinstance(value, DyadicRational):
            return value
        frac = _as_fraction(value)
        if not is_power_of_two(frac.denominator):
            raise NotDyadicError(f"{frac} has a non power-of-two denominator")
        return cls(frac.numerator, -(frac.denominator.bit_length() - 1))

    def as_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.numerator << self.exponent)
        return Fraction(self.numerator, 1 << -self.exponent)

    def __float__(self) -> float:
        return float(self.as_fraction())

    def to_text(self) -> str:
        return f"{self.numerator}*2^{self.exponent}"

    @classmethod
    def from_text(cls, text: str) -> "DyadicRational":
        match = _DYADIC_RE.match(text.strip())
        if match is None:
            raise ValueError(f"not a dyadic rational literal: {text!r}")
        return cls(int(match.group(1)), int(match.group(2)))

    def __add__(self, other: RationalLike) -> "DyadicRational":
        if isinstance(other, DyadicRational):
            lo = min(self.exponent, other.exponent)
            return DyadicRational(
                (self.numerator << (self.exponent - lo))
                + (other.numerator << (other.exponent - lo)),
                lo,
            )
        return DyadicRational.from_fraction(self.as_fraction() + _as_fraction(other))

    __radd__ = __add__

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.numerator, self.exponent)

    def __sub__(self, other: RationalLike) -> "DyadicRational":
        return self + (-other if isinstance(other, DyadicRational) else -_as_fraction(other))

    def __mul__(self, other: RationalLike) -> "DyadicRational":
        if isinstance(other, DyadicRational):
            return DyadicRational(
                self.numerator * other.numerator, self.exponent + other.exponent
            )
        return DyadicRational.from_fraction(self.as_fraction() * _as_fraction(other))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DyadicRational):
            return self.numerator == other.numerator and self.exponent == other.exponent
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other: RationalLike) -> bool:
        return self.as_fraction() < _as_fraction(other)

    def __le__(self, other: RationalLike) -> bool:
        return self.as_fraction() <= _as_fraction(other)

    def __gt__(self, other: RationalLike) -> bool:
        return self.as_fraction() > _as_fraction(other)

    def __ge__(self, other: RationalLike) -> bool:
        return self.as_fraction() >= _as_fraction(other)

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def __repr__(self) -> str:
        return f"DyadicRational({self.numerator}, {self.exponent})"

    def __str__(self) -> str:
        return self.to_text()


# sqrt2 enclosures at fixed precisions, keyed by bit count.
_SQRT2_BOUNDS: dict[int, tuple[Fraction, Fraction]] = {}


def _sqrt2_bounds(bits: int) -> tuple[Fraction, Fraction]:
    cached = _SQRT2_BOUNDS.get(bits)
    if cached is None:
        root = isqrt(2 << (2 * bits))
        denom = 1 << bits
        cached = (Fraction(root, denom), Fraction(root + 1, denom))
        _SQRT2_BOUNDS[bits] = cached
    return cached


class QuadScalar:
    """An element rat + surd * sqrt2 of Q(sqrt2) with exact rational parts."""

    __slots__ = ("rat", "surd")

    def __init__(self, rat: RationalLike = 0, surd: RationalLike = 0) -> None:
        object.__setattr__(self, "rat", _as_fraction(rat))
        object.__setattr__(self, "surd", _as_fraction(surd))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadScalar is immutable")

    @classmethod
    def coerce(cls, value: ScalarLike) -> "QuadScalar":
        if isinstance(value, QuadScalar):
            return value
        return cls(_as_fraction(value))

    @property
    def is_zero(self) -> bool:
        return not self.rat and not self.surd

    @property
    def is_rational(self) -> bool:
        return not self.surd

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: ScalarLike) -> "QuadScalar":
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        other = QuadScalar.coerce(other)
        return QuadScalar(self.rat + other.rat, self.surd + other.surd)

    __radd__ = __add__

    def __neg__(self) -> "QuadScalar":
        return QuadScalar(-self.rat, -self.surd)

    def __sub__(self, other: ScalarLike) -> "QuadScalar":
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        other = QuadScalar.coerce(other)
        return QuadScalar(self.rat - other.rat, self.surd - other.surd)

    def __rsub__(self, other: ScalarLike) -> "QuadScalar":
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        return QuadScalar.coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "QuadScalar":
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        if isinstance(other, QuadScalar):
            return QuadScalar(
                self.rat * other.rat + 2 * self.surd * other.surd,
                self.rat * other.surd + self.surd * other.rat,
            )
        factor = _as_fraction(other)
        return QuadScalar(self.rat * factor, self.surd * factor)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadScalar":
        return QuadScalar(self.rat, -self.surd)

    def __truediv__(self, other: ScalarLike) -> "QuadScalar":
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        if isinstance(other, QuadScalar):
            if other.is_zero:
                raise ZeroDivisionError("division by zero in Q(sqrt2)")
            # 1/(a + b sqrt2) = (a - b sqrt2)/(a^2 - 2 b^2)
            norm = other.rat * other.rat - 2 * other.surd * other.surd
            return QuadScalar(
                (self.rat * other.rat - 2 * self.surd * other.surd) / norm,
                (self.surd * other.rat - self.rat * other.surd) / norm,
            )
        factor = _as_fraction(other)
        return QuadScalar(self.rat / factor, self.surd / factor)

    def __pow__(self, power: int) -> "QuadScalar":
        if not isinstance(power, int) or power < 0:
            raise ValueError("only nonnegative integer powers are exact")
        result = QuadScalar(1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def mul_sqrt2(self) -> "QuadScalar":
        return QuadScalar(2 * self.surd, self.rat)

    def div_sqrt2(self) -> "QuadScalar":
        return QuadScalar(self.surd, self.rat / 2)

    def square(self) -> "QuadScalar":
        return QuadScalar(
            self.rat * self.rat + 2 * self.surd * self.surd, 2 * self.rat * self.surd
        )

    def sign(self) -> int:
        ra, su = self.rat, self.surd
        if not su:
            return (ra > 0) - (ra < 0)
        if not ra:
            return 1 if su > 0 else -1
        if ra > 0 and su > 0:
            return 1
        if ra < 0 and su < 0:
            return -1
        # Mixed signs: compare ra^2 against 2 su^2; equality cannot occur
        # for nonzero rationals since sqrt2 is irrational.
        ra_sq, two_su_sq = ra * ra, 2 * su * su
        if ra > 0:
            return 1 if ra_sq > two_su_sq else -1
        return -1 if ra_sq > two_su_sq else 1

    def __abs__(self) -> "QuadScalar":
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadScalar):
            return self.rat == other.rat and self.surd == other.surd
        if isinstance(other, (int, Fraction, DyadicRational)):
            return self.surd == 0 and self.rat == _as_fraction(other)
        return NotImplemented

    def __lt__(self, other: ScalarLike) -> bool:
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        return (self - QuadScalar.coerce(other)).sign() < 0

    def __le__(self, other: ScalarLike) -> bool:
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        return (self - QuadScalar.coerce(other)).sign() <= 0

    def __gt__(self, other: ScalarLike) -> bool:
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        return (self - QuadScalar.coerce(other)).sign() > 0

    def __ge__(self, other: ScalarLike) -> bool:
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        return (self - QuadScalar.coerce(other)).sign() >= 0

    def __hash__(self) -> int:
        return hash((self.rat, self.surd))

    def __float__(self) -> float:
        return self.to_float()

    def to_float(self) -> float:
        """Convert to the nearest float, resolving sqrt2 adaptively.

        The enclosure is tightened until both interval ends round to the
        same float, so the result is the correctly rounded value of
        rat + surd*sqrt2 whenever the loop converges (always in practice;
        the final fallback is off by at most one ulp).
        """
        if not self.surd:
            return float(self.rat)
        for bits in (64, 128, 256, 512):
            lo, hi = _sqrt2_bounds(bits)
            if self.surd > 0:
                a, b = self.rat + self.surd * lo, self.rat + self.surd * hi
            else:
                a, b = self.rat + self.surd * hi, self.rat + self.surd * lo
            fa, fb = float(a), float(b)
            if fa == fb:
                return fa
        return float((a + b) / 2)

    def to_text(self) -> str:
        return (
            f"{self.rat.numerator}/{self.rat.denominator}"
            f"{self.surd.numerator:+d}/{self.surd.denominator}*sqrt2"
        )

    @classmethod
    def from_text(cls, text: str) -> "QuadScalar":
        match = _QUAD_RE.match(text.strip())
        if match is None:
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
_SCALAR_TYPES = (int, Fraction, DyadicRational, QuadScalar)


def common_lift(values: Sequence[QuadScalar]) -> tuple[list[int], list[int], int]:
    """Integers (rats, surds, d) with values[i] = (rats[i] + surds[i] sqrt2) / d.

    d is the lcm of the denominators of every part, found on the
    integers: each numerator is scaled by d over its own denominator.
    """
    rats = [v.rat for v in values]
    surds = [v.surd for v in values]
    dens = {q.denominator for q in rats}
    dens.update(q.denominator for q in surds)
    d = lcm(*dens)
    factor = {e: d // e for e in dens}
    return (
        [q.numerator * factor[q.denominator] for q in rats],
        [q.numerator * factor[q.denominator] for q in surds],
        d,
    )


_INV_SQRT_POW2: dict[int, QuadScalar] = {}


def inv_sqrt_pow2(k: int) -> QuadScalar:
    """The exact value 2^(-k/2): rational for even k, a sqrt2 multiple otherwise."""
    cached = _INV_SQRT_POW2.get(k)
    if cached is None:
        if k % 2 == 0:
            half = -k // 2
            cached = QuadScalar(Fraction(1 << half) if half >= 0 else Fraction(1, 1 << -half))
        else:
            # 2^(-k/2) = 2^(-(k+1)/2) * sqrt2
            half = -(k + 1) // 2
            cached = QuadScalar(
                0, Fraction(1 << half) if half >= 0 else Fraction(1, 1 << -half)
            )
        _INV_SQRT_POW2[k] = cached
    return cached


def pow2_fraction(k: int) -> Fraction:
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)
