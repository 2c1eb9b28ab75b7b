"""Variation norms of finite sequences, with maximising certificates.

The r-variation of a sequence is the supremum of l^r norms of its
difference vectors along increasing chains of indices.  Everything here
works either exactly over quadratic scalars (integer r) or in floating
point, chosen per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import UnsortedBreakpoints, ZeroVariation
from .exact import ZERO, DyadicRational, QuadScalar, ScalarLike

__all__ = [
    "VariationCertificate",
    "variation_norm",
    "sup_norm",
    "linearize_weights",
    "LongShortSplit",
    "long_short_split",
    "ScaleSequence",
    "collapse_repeats",
]

SequenceLike = Union[Sequence[ScalarLike], Sequence[float], np.ndarray]


def _wants_exact(values: SequenceLike, r: float, method: str) -> bool:
    if method == "exact":
        return True
    if method == "float":
        return False
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if isinstance(values, np.ndarray):
        return False
    if not (r == math.inf or (float(r).is_integer() and r >= 1)):
        return False
    return all(
        isinstance(v, (QuadScalar, DyadicRational, Fraction, int)) for v in values
    )


@dataclass(frozen=True)
class VariationCertificate:
    """A maximising chain for the r-variation of a sequence.

    power_sum is the sum of |difference|^r along the chain (for finite
    r) or the single largest |difference| (for r infinite); it is a
    quadratic scalar when computed exactly and a float otherwise.
    """

    r: float
    indices: tuple[int, ...]
    power_sum: object

    @property
    def is_exact(self) -> bool:
        return isinstance(self.power_sum, QuadScalar)

    @property
    def value(self) -> float:
        p = (
            self.power_sum.to_float()
            if isinstance(self.power_sum, QuadScalar)
            else float(self.power_sum)
        )
        if self.r == math.inf or p == 0.0:
            return p
        return p ** (1.0 / self.r)


def _power_exact(d: QuadScalar, r: float) -> QuadScalar:
    return abs(d) ** int(r)


def _variation_exact(values: list[QuadScalar], r: float) -> VariationCertificate:
    n = len(values)
    if r == math.inf:
        best = ZERO
        pair: tuple[int, ...] = ()
        for i in range(n):
            for j in range(i + 1, n):
                d = abs(values[j] - values[i])
                if d > best:
                    best = d
                    pair = (i, j)
        return VariationCertificate(r, pair, best)
    suffix: list[QuadScalar] = [ZERO] * n
    succ: list[int | None] = [None] * n
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            cand = _power_exact(values[j] - values[i], r) + suffix[j]
            if cand > suffix[i]:
                suffix[i] = cand
                succ[i] = j
    total = ZERO
    start = None
    for i in range(n):
        if suffix[i] > total:
            total = suffix[i]
            start = i
    if start is None:
        return VariationCertificate(r, (), ZERO)
    chain = [start]
    while succ[chain[-1]] is not None:
        chain.append(succ[chain[-1]])  # type: ignore[arg-type]
    return VariationCertificate(r, tuple(chain), total)


def _variation_float(values: np.ndarray, r: float) -> VariationCertificate:
    n = len(values)
    if r == math.inf:
        best = 0.0
        pair: tuple[int, ...] = ()
        for i in range(n):
            for j in range(i + 1, n):
                d = abs(float(values[j]) - float(values[i]))
                if d > best:
                    best = d
                    pair = (i, j)
        return VariationCertificate(r, pair, best)
    suffix = [0.0] * n
    succ: list[int | None] = [None] * n
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            cand = abs(float(values[j]) - float(values[i])) ** r + suffix[j]
            if cand > suffix[i]:
                suffix[i] = cand
                succ[i] = j
    total = 0.0
    start = None
    for i in range(n):
        if suffix[i] > total:
            total = suffix[i]
            start = i
    if start is None:
        return VariationCertificate(r, (), 0.0)
    chain = [start]
    while succ[chain[-1]] is not None:
        chain.append(succ[chain[-1]])  # type: ignore[arg-type]
    return VariationCertificate(r, tuple(chain), total)


def variation_norm(
    values: SequenceLike, r: float, method: str = "auto"
) -> VariationCertificate:
    """r-variation of a finite sequence, with a maximising chain.

    The chain returned is the lexicographically smallest one attaining
    the supremum; a constant (or empty) sequence yields an empty chain
    and value zero.  Exact arithmetic is used when the method allows it,
    which requires integer or infinite r.
    """
    if r != math.inf and r < 1:
        raise ValueError("variation exponent must be at least 1")
    if _wants_exact(values, r, method):
        if r != math.inf and not float(r).is_integer():
            raise ValueError("exact variation needs an integer exponent")
        return _variation_exact([QuadScalar.coerce(v) for v in values], r)
    arr = np.asarray(
        [v.to_float() if isinstance(v, QuadScalar) else float(v) for v in values],
        dtype=np.float64,
    )
    return _variation_float(arr, r)


def sup_norm(values: SequenceLike, method: str = "auto") -> object:
    """Largest |value| in the sequence; exact when the inputs are."""
    if _wants_exact(values, math.inf, method):
        best = ZERO
        for v in values:
            a = abs(QuadScalar.coerce(v))
            if a > best:
                best = a
        return best
    floats = [
        v.to_float() if isinstance(v, QuadScalar) else float(v) for v in values
    ]
    return max((abs(v) for v in floats), default=0.0)


def linearize_weights(
    values: SequenceLike, r: float, method: str = "auto"
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Dual weights certifying the r-variation as a pairing.

    Returns (chain, weights) with one weight per chain step so that the
    weighted sum of chain differences equals the variation while the
    weights have unit l^{r'} norm, r' the conjugate exponent.  Raises
    ZeroVariation when the sequence has no variation to certify.
    """
    cert = variation_norm(values, r, method)
    if not cert.indices:
        raise ZeroVariation("constant sequences admit no dual weights")
    floats = [
        v.to_float() if isinstance(v, QuadScalar) else float(v) for v in values
    ]
    diffs = [
        floats[b] - floats[a] for a, b in zip(cert.indices, cert.indices[1:])
    ]
    if r == math.inf:
        return cert.indices, tuple(math.copysign(1.0, d) for d in diffs)
    power = (
        cert.power_sum.to_float()
        if isinstance(cert.power_sum, QuadScalar)
        else float(cert.power_sum)
    )
    denom = power ** (1.0 - 1.0 / r)
    weights = tuple(
        math.copysign(abs(d) ** (r - 1.0), d) / denom for d in diffs
    )
    return cert.indices, weights


@dataclass(frozen=True)
class LongShortSplit:
    """Coarse and fine variation of a sequence across windows.

    long_power and short_power are r-th powers; bound() gives
    3^{1/r'} (long + 2 short)^{1/r}, which dominates the full variation
    since a step across windows splits into short, long and short steps.
    """

    r: float
    long_power: object
    short_power: object

    def _to_float(self, p: object) -> float:
        return p.to_float() if isinstance(p, QuadScalar) else float(p)

    @property
    def long_value(self) -> float:
        return self._to_float(self.long_power) ** (1.0 / self.r)

    @property
    def short_value(self) -> float:
        return self._to_float(self.short_power) ** (1.0 / self.r)

    def bound(self) -> float:
        combined = self._to_float(self.long_power) + 2.0 * self._to_float(self.short_power)
        conj = self.r / (self.r - 1.0)
        return 3.0 ** (1.0 / conj) * combined ** (1.0 / self.r)


def long_short_split(
    values: SequenceLike,
    r: float,
    breakpoints: Sequence[int],
    method: str = "auto",
) -> LongShortSplit:
    """Split the r-variation into window-boundary and in-window parts.

    Windows are the half-open index ranges cut by the breakpoints, with
    the sequence ends always included as implicit boundaries.  The long
    part is the variation of the values at window starts; the short part
    collects the variation inside each window.
    """
    if r == math.inf or r <= 1:
        raise ValueError("the split needs a finite exponent above one")
    n = len(values)
    inner = sorted(b for b in breakpoints if 0 < b < n)
    if list(breakpoints) != sorted(breakpoints):
        raise UnsortedBreakpoints("breakpoints must be given in increasing order")
    bounds = [0] + inner + [n]
    bounds = sorted(set(bounds))
    coarse = [values[b] for b in bounds[:-1]]
    long_cert = variation_norm(coarse, r, method)
    short_power: object | None = None
    for a, b in zip(bounds, bounds[1:]):
        window_cert = variation_norm(list(values[a:b]), r, method)
        if short_power is None:
            short_power = window_cert.power_sum
        else:
            short_power = short_power + window_cert.power_sum  # type: ignore[operator]
    if short_power is None:
        short_power = long_cert.power_sum * 0  # type: ignore[operator]
    return LongShortSplit(r, long_cert.power_sum, short_power)


def collapse_repeats(values: Sequence[ScalarLike]) -> list:
    """Drop consecutive equal values; variation norms are unchanged."""
    out: list = []
    for v in values:
        if not out or out[-1] != v:
            out.append(v)
    return out


class ScaleSequence:
    """Values indexed by scale, constant beyond both stored ends.

    Used for running truncated sums: entry k holds the sum over scales
    above k, so the top entry is an empty sum pinned at zero and the
    bottom entry absorbs every term.
    """

    __slots__ = ("scale_min", "values")

    def __init__(self, scale_min: int, values: Sequence[ScalarLike]) -> None:
        if not values:
            raise ValueError("a scale sequence needs at least one entry")
        object.__setattr__(self, "scale_min", scale_min)
        object.__setattr__(
            self, "values", tuple(QuadScalar.coerce(v) for v in values)
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ScaleSequence is immutable")

    @property
    def scale_max(self) -> int:
        return self.scale_min + len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScaleSequence):
            return NotImplemented
        return self.scale_min == other.scale_min and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.scale_min, self.values))

    def value_at(self, k: int) -> QuadScalar:
        k = min(max(k, self.scale_min), self.scale_max)
        return self.values[k - self.scale_min]

    def variation(self, r: float, method: str = "auto") -> VariationCertificate:
        return variation_norm(self.values, r, method)

    def sup_abs(self) -> QuadScalar:
        return sup_norm(self.values, method="exact")  # type: ignore[return-value]

    def to_floats(self) -> np.ndarray:
        return np.array([v.to_float() for v in self.values], dtype=np.float64)

    def __repr__(self) -> str:
        return (
            f"ScaleSequence(k={self.scale_min}..{self.scale_max}, "
            f"{len(self.values)} entries)"
        )
