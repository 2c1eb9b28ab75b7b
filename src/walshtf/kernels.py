"""Vectorised kernels backing the exact layer.

The integer lane runs the Walsh butterfly over integer planes (one for
the rational part, one for the sqrt2 part of each cell value, over one
common denominator) and reads packet coefficients back off exactly,
since the butterfly only ever adds and subtracts; it is the only way an
exact packet coefficient is computed.  `packet_sums` is the only way
packet terms are summed on the grid: exactly on integer planes, or in
floats when the coefficients are floats.  The float lane also batches
the variation recursion over all grid cells at once; it trades
exactness for speed and is meant for experiments, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import wavepacket
from .errors import KernelUnsupported, ScaleTooCoarse
from .exact import ZERO, QuadScalar, ScalarLike, common_lift, inv_sqrt_pow2
from .geometry import Quartile, Tile

if TYPE_CHECKING:
    from .wavepacket import StepFunction

__all__ = [
    "IntegerField",
    "integer_field",
    "field_product",
    "WalshTables",
    "walsh_tables",
    "packet_sums",
    "truncation_terms",
    "render_partial_sum_field",
    "batch_variation",
    "batch_sup",
    "lp_norm",
]

_INT64_GUARD = 62


@dataclass(frozen=True)
class IntegerField:
    """Cell values (rat + surd sqrt2) / denominator as two integer planes.

    The planes are int64 while J + m butterfly doublings of their
    largest entry fit in int64, and arrays of Python ints otherwise, so
    the butterfly stays exact whatever the values.
    """

    rat: np.ndarray
    surd: np.ndarray
    denominator: int
    domain_exp: int
    resolution_exp: int

    @classmethod
    def from_ints(
        cls, rat: list[int], surd: list[int], denominator: int,
        domain_exp: int, resolution_exp: int,
    ) -> "IntegerField":
        limit = 1 << (_INT64_GUARD - domain_exp - resolution_exp)
        planes = []
        for part in (rat, surd):
            wide = bool(part) and max(max(part), -min(part)) >= limit
            planes.append(np.array(part, dtype=object if wide else np.int64))
        return cls(planes[0], planes[1], denominator, domain_exp, resolution_exp)


def integer_field(f: StepFunction) -> IntegerField:
    """Lift a step function to integer planes over one common denominator."""
    return IntegerField.from_ints(*f.integer_lift(), f.domain_exp, f.resolution_exp)


def field_product(a: IntegerField, b: IntegerField) -> IntegerField:
    """Cell-wise product of two lifted fields on one grid, exactly.

    (R + S sqrt2)(r + s sqrt2) = (Rr + 2Ss) + (Rs + Sr) sqrt2 over the
    product of the denominators.  The planes move to Python ints when
    the product could outgrow the butterfly's int64 headroom.
    """
    ra, sa, rb, sb = a.rat, a.surd, b.rat, b.surd
    pr, ps, qr, qs = (int(np.abs(p).max()) for p in (ra, sa, rb, sb))
    limit = 1 << (_INT64_GUARD - a.domain_exp - a.resolution_exp)
    if max(pr * qr + 2 * ps * qs, pr * qs + ps * qr) >= limit:
        ra, sa, rb, sb = (p.astype(object) for p in (ra, sa, rb, sb))
    rat, surd = ra * rb + 2 * sa * sb, ra * sb + sa * rb
    return IntegerField(rat, surd, a.denominator * b.denominator, a.domain_exp, a.resolution_exp)


def _butterfly_levels(plane: np.ndarray, levels: int) -> list[np.ndarray]:
    """All butterfly stages of one integer plane, in the plane's dtype.

    Stage t lays out, for each time interval of 2^t cells, the
    unnormalised pairings with every packet over that interval: entry
    n 2^t + b belongs to interval n and frequency index b.  Sums go to
    even slots and differences to odd ones, matching the doubling rules
    for Walsh indices.  A zero plane stays zero at every stage.
    """
    if not plane.any():
        return [plane] * (levels + 1)
    tables = [plane.copy()]
    current = plane
    for t in range(levels):
        block = 1 << t
        pairs = current.reshape(-1, 2, block)
        nxt = np.empty((pairs.shape[0], 2 * block), dtype=plane.dtype)
        nxt[:, 0::2] = pairs[:, 0, :] + pairs[:, 1, :]
        nxt[:, 1::2] = pairs[:, 0, :] - pairs[:, 1, :]
        current = nxt.reshape(-1)
        tables.append(current)
    return tables


class WalshTables:
    """Exact packet coefficients of one step function, all at once."""

    __slots__ = ("field", "rat_tables", "surd_tables")

    def __init__(self, field: IntegerField) -> None:
        levels = field.domain_exp + field.resolution_exp
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rat_tables", _butterfly_levels(field.rat, levels))
        object.__setattr__(self, "surd_tables", _butterfly_levels(field.surd, levels))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("WalshTables is immutable")

    def coefficient(self, tile: Tile) -> QuadScalar:
        """One packet pairing of a tile inside the grid box, exactly."""
        field, k = self.field, tile.time.scale
        if not -field.resolution_exp <= k <= field.domain_exp:
            raise KernelUnsupported("tile time scale outside the table range")
        if tile.time.index >> (field.domain_exp - k):
            raise KernelUnsupported("tile sits outside the grid box")
        return self.pairing(tile)

    def pairing(self, tile: Tile) -> QuadScalar:
        """The pairing with any resolvable tile's packet, clipped to the box.

        A tile whose time interval misses the box [0, 2^J) pairs to
        zero.  One whose interval holds the box, K - J levels up, sees
        only the first 2^-(K-J) of its Walsh pattern there, which is the
        pattern of frequency index b >> (K-J) stretched: the pairing is
        the box tile's coefficient at that index times 2^(-(K-J)/2).
        """
        field = self.field
        scale, b = tile.time.scale, tile.freq_index
        tile.piece_exp(field.resolution_exp)
        lift = scale - field.domain_exp
        if lift > 0:
            if tile.time.index:
                return ZERO
            top = field.domain_exp + field.resolution_exp
            return self._read(0, top, b >> lift) * inv_sqrt_pow2(lift)
        if tile.time.index >> -lift:
            return ZERO
        return self._read(tile.time.index, scale + field.resolution_exp, b)

    def _read(self, index: int, t: int, b: int) -> QuadScalar:
        """Coefficient of frequency b over interval index at stage t.

        The stage entry u pairs the lifted cells with the unnormalised
        pattern, so the coefficient is u 2^(-(m + t)/2) / denominator:
        the cell width 2^-m times the amplitude 2^(-(t - m)/2).
        """
        field = self.field
        slot = (index << t) + b
        u_r = int(self.rat_tables[t][slot])
        u_s = int(self.surd_tables[t][slot])
        half = field.resolution_exp + t
        if half & 1:  # 2^(-half/2) = 2^(-(half+1)/2) sqrt2
            half += 1
            u_r, u_s = 2 * u_s, u_r
        shift = half >> 1
        d, up = field.denominator << max(shift, 0), 1 << max(-shift, 0)
        return QuadScalar(Fraction(u_r * up, d), Fraction(u_s * up, d))


def walsh_tables(f: StepFunction) -> WalshTables:
    """Build the packet tables of f; `StepFunction.packet_tables` keeps one."""
    return WalshTables(integer_field(f))


def packet_sums(
    terms: Iterable[tuple[int, Tile, float | ScalarLike]],
    rows: int,
    domain_exp: int,
    resolution_exp: int,
) -> np.ndarray | list[list[QuadScalar]]:
    """Sums of packet terms on the grid cells, one row per cut.

    A term (row, tile, c) adds c times the tile's packet, clipped to the
    box, to plane row `row`: its sign row times the weight c 2^(-k/2),
    k the tile's time scale.  Row j of the result sums plane rows j and
    up.  Zero terms are skipped; a term at a negative row is checked
    for resolvability but lands in no row.

    The coefficients pick the lane.  Python floats fill one float64
    plane, each row summed in term order, and the result is its array.
    Any other coefficients are exact: the weights are lifted over one
    common denominator into a rational and a sqrt2 integer plane, int64
    while the sum of the parts' sizes fits and Python ints past that,
    and the result is rows of QuadScalars, each distinct value built
    once.  An empty term list is the exact zero.
    """
    terms = list(terms)
    cells = 1 << (domain_exp + resolution_exp)
    if terms and all(isinstance(c, float) for _, _, c in terms):
        plane = np.zeros((rows, cells))
        for row, tile, c in terms:
            if c:
                a, b, signs = wavepacket.sign_row(tile, domain_exp, resolution_exp)
                if row >= 0:
                    plane[row, a:b] += signs * (c * 2.0 ** (-tile.time.scale / 2.0))
        return np.cumsum(plane[::-1], axis=0)[::-1]
    placed, weights = [], []
    for row, tile, c in terms:
        c = QuadScalar.coerce(c)
        if c:
            a, b, signs = wavepacket.sign_row(tile, domain_exp, resolution_exp)
            if row >= 0:
                placed.append((row, a, b, signs))
                weights.append(c * inv_sqrt_pow2(tile.time.scale))
    rats, surds, d = common_lift(weights)
    # No cell sum exceeds the sum of the parts' sizes.
    bound = max(sum(map(abs, rats)), sum(map(abs, surds)))
    dtype = object if bound >= 1 << _INT64_GUARD else np.int64
    planes = np.zeros((2, rows, cells), dtype=dtype)
    for (row, a, b, signs), r, s in zip(placed, rats, surds):
        signs = signs.astype(dtype, copy=False)
        planes[0, row, a:b] += r * signs
        planes[1, row, a:b] += s * signs
    rat, surd = np.cumsum(planes[:, ::-1], axis=1)[:, ::-1].tolist()
    keys = {key for r_row, s_row in zip(rat, surd) for key in zip(r_row, s_row)}
    quads = {(r, s): QuadScalar(Fraction(r, d), Fraction(s, d)) for r, s in keys}
    return [[quads[key] for key in zip(r_row, s_row)] for r_row, s_row in zip(rat, surd)]


def truncation_terms(
    terms: Iterable[tuple[Quartile, float | ScalarLike]],
    subtile_index: int,
    domain_exp: int,
    resolution_exp: int,
) -> list[tuple[int, Tile, float | ScalarLike]]:
    """Quartile terms placed for `packet_sums` as truncated sums.

    A term at time scale k goes to row k + m - 1, so that result row j
    sums the terms with time intervals strictly longer than 2^(j - m);
    the last row, j = J + m, is an empty sum.  A quartile longer than
    the box has no row and is refused.
    """
    placed = []
    for quartile, coeff in terms:
        scale = quartile.time.scale
        if scale > domain_exp:
            raise ScaleTooCoarse(f"quartile at scale {scale} above the box 2^{domain_exp}")
        placed.append((scale + resolution_exp - 1, quartile.tile(subtile_index), coeff))
    return placed


def render_partial_sum_field(
    terms: Iterable[tuple[Quartile, float]],
    subtile_index: int,
    domain_exp: int,
    resolution_exp: int,
) -> np.ndarray:
    """Truncated sums of packet terms in floats, one row per truncation scale.

    Row j holds the sum of all terms whose quartile time interval is
    strictly longer than 2^k, k = j - resolution_exp; the last row
    (k = domain_exp) is identically zero and anchors variation chains.
    """
    rows = domain_exp + resolution_exp + 1
    placed = truncation_terms(
        ((q, float(c)) for q, c in terms), subtile_index, domain_exp, resolution_exp
    )
    if not placed:
        return np.zeros((rows, 1 << (domain_exp + resolution_exp)))
    return packet_sums(placed, rows, domain_exp, resolution_exp)


def batch_variation(field: np.ndarray, r: float) -> np.ndarray:
    """r-variation down each column of a (scales, cells) field.

    The chain recursion runs vectorised over all cells; quadratic in
    the number of scales, which stays small on any usable grid.
    """
    t, _ = field.shape
    if r == math.inf:
        return np.max(field, axis=0) - np.min(field, axis=0)
    if r < 1:
        raise ValueError("variation exponent must be at least 1")
    suffix = np.zeros_like(field)
    for i in range(t - 2, -1, -1):
        gains = np.abs(field[i + 1 :] - field[i]) ** r + suffix[i + 1 :]
        suffix[i] = np.max(gains, axis=0)
    powers = np.max(suffix, axis=0)
    return powers ** (1.0 / r)


def batch_sup(field: np.ndarray) -> np.ndarray:
    """Largest |entry| down each column of a (scales, cells) field."""
    return np.max(np.abs(field), axis=0)


def lp_norm(values: np.ndarray, p: float, resolution_exp: int) -> float:
    """L^p norm of float cell values on cells 2^-resolution_exp wide."""
    if p == math.inf:
        return float(np.max(np.abs(values))) if values.size else 0.0
    return float(np.sum(np.abs(values) ** p) * 2.0 ** (-resolution_exp)) ** (1.0 / p)
