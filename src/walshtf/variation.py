"""Variation norms of finite sequences, with maximising certificates.

The r-variation of a sequence is the supremum of l^r norms of its
difference vectors along increasing chains of indices.  One dynamic
program computes it, exactly over quadratic scalars or in Python
floats.  This module alone picks the lane: exact when there are values,
every one an exact scalar, and r is an integer or infinite; floats
otherwise (an empty sequence, numpy arrays, float values or a
fractional r).  Callers pass the values they have; the `method`
option of `variation_norm` only forces a lane.
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
    "linearize_weights",
    "LongShortSplit",
    "long_short_split",
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
    if isinstance(values, np.ndarray) or not len(values):
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
        p = float(self.power_sum)
        if self.r == math.inf or p == 0.0:
            return p
        return p ** (1.0 / self.r)


def _lane(values: SequenceLike, r: float, method: str) -> tuple[list, object]:
    """The values as QuadScalars or as Python floats, with that lane's zero.

    This is the one place that decides between exact and float
    arithmetic; the floats are the correctly rounded values of exact
    inputs.
    """
    if _wants_exact(values, r, method):
        if r != math.inf and not float(r).is_integer():
            raise ValueError("exact variation needs an integer exponent")
        return [QuadScalar.coerce(v) for v in values], ZERO
    return [float(v) for v in values], 0.0


def _chain_dp(values: list, r: float, zero: object) -> VariationCertificate:
    """The maximising chain over QuadScalars or Python floats alike.

    Float powers use Python's float pow, not numpy's, so results are
    reproducible bit for bit; exact powers take the integer exponent.
    """
    n = len(values)
    if r == math.inf:
        best = zero
        pair: tuple[int, ...] = ()
        for i in range(n):
            for j in range(i + 1, n):
                d = abs(values[j] - values[i])
                if d > best:
                    best = d
                    pair = (i, j)
        return VariationCertificate(r, pair, best)
    power = r if isinstance(zero, float) else int(r)
    suffix = [zero] * n
    succ: list[int | None] = [None] * n
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            cand = abs(values[j] - values[i]) ** power + suffix[j]
            if cand > suffix[i]:
                suffix[i] = cand
                succ[i] = j
    total = zero
    start = None
    for i in range(n):
        if suffix[i] > total:
            total = suffix[i]
            start = i
    if start is None:
        return VariationCertificate(r, (), zero)
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
    if not r >= 1:
        raise ValueError(f"variation exponent must be at least 1, got {r}")
    lane, zero = _lane(values, r, method)
    return _chain_dp(lane, r, zero)


def linearize_weights(values: SequenceLike, r: float) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Dual weights certifying the r-variation as a pairing.

    Returns (chain, weights) with one weight per chain step so that the
    weighted sum of chain differences equals the variation while the
    weights have unit l^{r'} norm, r' the conjugate exponent.  Raises
    ZeroVariation when the sequence has no variation to certify.
    """
    cert = variation_norm(values, r)
    if not cert.indices:
        raise ZeroVariation("constant sequences admit no dual weights")
    floats = [float(v) for v in values]
    diffs = [
        floats[b] - floats[a] for a, b in zip(cert.indices, cert.indices[1:])
    ]
    if r == math.inf:
        return cert.indices, tuple(math.copysign(1.0, d) for d in diffs)
    denom = float(cert.power_sum) ** (1.0 - 1.0 / r)
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

    def bound(self) -> float:
        combined = float(self.long_power) + 2.0 * float(self.short_power)
        conj = self.r / (self.r - 1.0)
        return 3.0 ** (1.0 / conj) * combined ** (1.0 / self.r)


def long_short_split(
    values: SequenceLike,
    r: float,
    breakpoints: Sequence[int],
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
    long_cert = variation_norm(coarse, r)
    short_power: object | None = None
    for a, b in zip(bounds, bounds[1:]):
        window_cert = variation_norm(list(values[a:b]), r)
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

