"""Vectorised kernels backing the exact layer.

Two lanes live here.  The integer lane runs the Walsh butterfly over
integer planes (one for the rational part, one for the sqrt2 part of
each cell value, over one common denominator) and reads packet
coefficients back off exactly, since the butterfly only ever adds and
subtracts; it is the only way an exact packet coefficient is computed.
The float lane assembles truncated partial-sum fields and batches the
variation recursion over all grid cells at once; it trades exactness
for speed and is meant for experiments, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import wavepacket
from .errors import KernelUnsupported, ResolutionTooCoarse
from .exact import ZERO, QuadScalar, inv_sqrt_pow2
from .geometry import Quartile, Tile

if TYPE_CHECKING:
    from .wavepacket import StepFunction

__all__ = [
    "IntegerField",
    "integer_field",
    "field_product",
    "WalshTables",
    "walsh_tables",
    "render_packet_row",
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
        if b.bit_length() > scale + field.resolution_exp:
            raise ResolutionTooCoarse(
                f"tile oscillates below cell width 2^-{field.resolution_exp}"
            )
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


def render_packet_row(
    tile: Tile, domain_exp: int, resolution_exp: int
) -> np.ndarray:
    """Float samples of a tile's packet on the grid cells."""
    s = tile.freq_index.bit_length()
    if s > tile.time.scale + resolution_exp:
        raise ResolutionTooCoarse("tile oscillates below the cell width")
    total = 1 << (domain_exp + resolution_exp)
    out = np.zeros(total, dtype=np.float64)
    pattern = np.array(
        wavepacket.walsh_sign_pattern(tile.freq_index), dtype=np.float64
    )
    width = 1 << (tile.time.scale + resolution_exp - s)
    lo, hi = tile.time.cell_range(resolution_exp)
    row = np.repeat(pattern, width) * 2.0 ** (-tile.time.scale / 2.0)
    a, b = max(lo, 0), min(hi, total)
    out[a:b] = row[a - lo : b - lo]
    return out


def render_partial_sum_field(
    terms: Iterable[tuple[Quartile, float]],
    subtile_index: int,
    domain_exp: int,
    resolution_exp: int,
) -> np.ndarray:
    """Truncated sums of packet terms, one row per truncation scale.

    Row j holds the sum of all terms whose quartile time interval is
    strictly longer than 2^k, k = j - resolution_exp; the last row
    (k = domain_exp) is identically zero and anchors variation chains.
    """
    n_scales = domain_exp + resolution_exp + 1
    total = 1 << (domain_exp + resolution_exp)
    per_scale = np.zeros((n_scales, total), dtype=np.float64)
    for quartile, coeff in terms:
        c = float(coeff)
        if c == 0.0:
            continue
        row = quartile.time.scale + resolution_exp
        per_scale[row] += c * render_packet_row(
            quartile.tile(subtile_index), domain_exp, resolution_exp
        )
    suffix = np.cumsum(per_scale[::-1], axis=0)[::-1]
    field = np.vstack([suffix[1:], np.zeros((1, total))])
    return field


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
