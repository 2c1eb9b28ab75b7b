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

from .errors import ZeroVariation
from .exact import ZERO, DyadicRational, QuadScalar, ScalarLike

__all__ = [
    "VariationCertificate",
    "variation_norm",
    "linearize_weights",
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

    power_sum is the sum of |difference / scale|^r along the chain (for
    finite r) or the single largest |difference| (for r infinite); it
    is a quadratic scalar when computed exactly and a float otherwise.
    scale is 1 unless the float lane rescaled the sequence (see
    `_lane`), so the r-variation is scale * power_sum^(1/r).
    """

    r: float
    indices: tuple[int, ...]
    power_sum: object
    scale: float = 1.0

    @property
    def is_exact(self) -> bool:
        return isinstance(self.power_sum, QuadScalar)

    @property
    def value(self) -> float:
        p = float(self.power_sum)
        if self.r == math.inf or p == 0.0:
            return p
        return self.scale * p ** (1.0 / self.r)


def _lane(values: SequenceLike, r: float, method: str) -> tuple[list, object, float]:
    """The values as QuadScalars or as Python floats, with that lane's
    zero and the scale its differences are divided by.

    This is the one place that decides between exact and float
    arithmetic; the floats are the correctly rounded values of exact
    inputs.  The scale is 1 but for floats of finite nonzero span
    (largest minus smallest value) whose power span^r, alone or summed
    down the sequence, is below 2^-969 or overflows: there it is the
    span, as `kernels.batch_variation` rescales a column.
    """
    if _wants_exact(values, r, method):
        if r != math.inf and not float(r).is_integer():
            raise ValueError("exact variation needs an integer exponent")
        return [QuadScalar.coerce(v) for v in values], ZERO, 1.0
    floats = [float(v) for v in values]
    span = max(floats) - min(floats) if floats else 0.0
    try:
        largest = span**r
    except OverflowError:
        largest = math.inf
    fits = 2.0**-969 <= largest and largest * len(floats) < math.inf
    return floats, 0.0, span if r < math.inf and 0.0 < span < math.inf and not fits else 1.0


def _chain_dp(r: float, values: list, zero: object, scale: float) -> VariationCertificate:
    """The maximising chain over QuadScalars or Python floats alike.

    Float powers use Python's float pow, not numpy's, so results are
    reproducible bit for bit; exact powers take the integer exponent.
    A scale of 1 divides nothing, so an unscaled result keeps its bits.
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
            d = abs(values[j] - values[i])
            cand = (d if scale == 1 else d / scale) ** power + suffix[j]
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
        return VariationCertificate(r, (), zero, scale)
    chain = [start]
    while succ[chain[-1]] is not None:
        chain.append(succ[chain[-1]])  # type: ignore[arg-type]
    return VariationCertificate(r, tuple(chain), total, scale)


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
    return _chain_dp(r, *_lane(values, r, method))


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
        math.copysign((abs(d) / cert.scale) ** (r - 1.0), d) / denom for d in diffs
    )
    return cert.indices, weights


def collapse_repeats(values: Sequence[ScalarLike]) -> list:
    """Drop consecutive equal values; variation norms are unchanged."""
    out: list = []
    for v in values:
        if not out or out[-1] != v:
            out.append(v)
    return out

