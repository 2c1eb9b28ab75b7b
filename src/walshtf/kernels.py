"""Vectorised kernels backing the exact layer.

Exact cell values live in integer planes (one for the rational part,
one for the sqrt2 part of each cell value, over one common
denominator): `IntegerField` is how a step function stores its values,
and the `field_*` functions are its grid algebra, each checking that
int64 cannot overflow before it uses int64.  The integer lane runs the
Walsh butterfly over these planes and reads packet coefficients back
off exactly, since the butterfly only ever adds and subtracts; one
read, `WalshTables.read`, clipped to the box and taking whole arrays of
tiles, is the only way an exact packet coefficient is computed.  One
summation, reached as `packet_sums` (terms named by tiles) or
`truncated_sums` (quartile terms cut by scale), is the only way packet
terms are summed on the grid: exactly on integer planes, or in floats
when the coefficients are floats.  Its sign rule, `_walsh_signs` placed
by `_packet_span`, is the one place that knows where a packet's signs
fall, so a single packet is a one-term sum.  The float lane also
batches the variation recursion over all grid cells at once; it trades
exactness for speed and is meant for experiments, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .errors import KernelUnsupported, ResolutionTooCoarse, ScaleTooCoarse
from .exact import QuadScalar, ScalarLike, common_lift, inv_sqrt_pow2, over_sqrt_pow2
from .geometry import Quartile, Tile, piece_exp

if TYPE_CHECKING:
    from .wavepacket import StepFunction

__all__ = [
    "IntegerField",
    "differing_columns",
    "field_sum",
    "field_product",
    "field_scale",
    "field_average",
    "WalshTables",
    "walsh_tables",
    "packet_sums",
    "truncated_sums",
    "render_partial_sum_field",
    "average_ladder",
    "batch_variation",
    "batch_sup",
    "lp_norm",
]

_INT64_GUARD = 62


def _headroom(domain_exp: int, resolution_exp: int) -> int:
    """Bound on int64 plane entries: J + m butterfly doublings stay in int64."""
    return 1 << (_INT64_GUARD - domain_exp - resolution_exp)


def _magnitude(plane: np.ndarray) -> int:
    """Largest |entry| of a plane as a Python int, 0 for an empty plane."""
    return int(np.abs(plane).max()) if plane.size else 0


def _as_plane(part: Sequence[int] | np.ndarray) -> np.ndarray:
    """Integers as an array, int64 where they fit and Python ints otherwise.

    A list is never handed to numpy's own dtype guess, which turns
    integers past int64 into floats.
    """
    if isinstance(part, np.ndarray):
        return part
    wide = bool(part) and max(max(part), -min(part)) >= 1 << 63
    return np.array(part, dtype=object if wide else np.int64)


def _widen(bound: int, domain_exp: int, resolution_exp: int, *planes: np.ndarray):
    """The planes, as Python ints when a result up to `bound` could leave
    the int64 headroom, so that no operation on them can wrap."""
    if bound < _headroom(domain_exp, resolution_exp):
        return planes
    return tuple(p.astype(object) for p in planes)


@dataclass(frozen=True, eq=False)
class IntegerField:
    """Cell values (rat + surd sqrt2) / denominator as two integer planes.

    This is how a `StepFunction` stores its values.  The form is
    canonical, so equal values give equal fields: the denominator is
    positive and shares no factor with every entry at once, which makes
    it the lcm of the denominators of all the parts (the form of one
    `exact.QuadScalar`, and of `exact.common_lift`); both planes are
    int64 while J + m butterfly doublings of their largest entry fit in
    int64, and arrays of Python ints otherwise.  The planes are
    read-only.
    """

    rat: np.ndarray
    surd: np.ndarray
    denominator: int
    domain_exp: int
    resolution_exp: int

    @classmethod
    def canonical(
        cls, rat: Sequence[int] | np.ndarray, surd: Sequence[int] | np.ndarray,
        denominator: int, domain_exp: int, resolution_exp: int,
    ) -> "IntegerField":
        """The field of (rat + surd sqrt2) / denominator, brought to canonical form."""
        rat, surd = _as_plane(rat), _as_plane(surd)
        if not (rat.any() or surd.any()):
            denominator = 1
        elif denominator != 1:
            g = math.gcd(denominator, int(np.gcd.reduce(rat)), int(np.gcd.reduce(surd)))
            if g != 1:
                rat, surd, denominator = rat // g, surd // g, denominator // g
        wide = max(_magnitude(rat), _magnitude(surd)) >= _headroom(domain_exp, resolution_exp)
        dtype = object if wide else np.int64
        rat, surd = rat.astype(dtype, copy=False), surd.astype(dtype, copy=False)
        for plane in (rat, surd):
            plane.flags.writeable = False
        return cls(rat, surd, denominator, domain_exp, resolution_exp)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerField):
            return NotImplemented
        return (
            self.denominator == other.denominator
            and self.domain_exp == other.domain_exp
            and self.resolution_exp == other.resolution_exp
            and np.array_equal(self.rat, other.rat)
            and np.array_equal(self.surd, other.surd)
        )

    def __hash__(self) -> int:
        planes = tuple(
            p.tobytes() if p.dtype != object else tuple(p.tolist())
            for p in (self.rat, self.surd)
        )
        return hash((self.denominator, self.domain_exp, self.resolution_exp, planes))

    def distinct(self) -> tuple[list[tuple[int, int]], np.ndarray]:
        """The distinct (rat, surd) pairs and, per cell, its pair's position.

        Each pair is packed into one integer key, so the pairs sort as
        numbers; the keys are Python ints when int64 cannot hold them.
        """
        rat, surd = self.rat, self.surd
        r0, s0 = int(rat.min()), int(surd.min())
        width = int(surd.max()) - s0 + 1
        if (int(rat.max()) - r0 + 1) * width >= 1 << 63:
            rat, surd = rat.astype(object), surd.astype(object)
        keys, inverse = np.unique((rat - r0) * width + (surd - s0), return_inverse=True)
        pairs = [(k // width + r0, k % width + s0) for k in keys.tolist()]
        return pairs, inverse.reshape(-1)

    def total(self) -> QuadScalar:
        """The sum of every cell value, exactly.

        An int64 plane has entries below 2^(62 - J - m) and 2^(J + m)
        of them, so its sum stays in int64.
        """
        return QuadScalar.from_ints(int(self.rat.sum()), int(self.surd.sum()), self.denominator)


def differing_columns(
    a: Sequence[StepFunction], b: Sequence[StepFunction]
) -> tuple[list[tuple[list[tuple[int, int]], list[tuple[int, int]]]], int]:
    """The cells whose values down a differ from their values down b.

    Both lists are lifted over d, the lcm of their denominators, and
    stacked into one rat and one surd plane with a row per function.
    A cell is kept when its column differs between the lists (every
    cell does when the lists differ in length) and, of a run of equal
    adjacent columns, only the first is kept, since the run repeats
    one column.  Returns each kept cell's two columns as integer pairs
    (r, s) over one denominator, worth `QuadScalar.from_ints(r, s, d)`,
    and that denominator d.
    """
    fields = [f.field for f in (*a, *b)]
    if not fields:
        return [], 1
    d = math.lcm(*(f.denominator for f in fields))
    scales = [d // f.denominator for f in fields]
    rat, surd = np.stack([f.rat for f in fields]), np.stack([f.surd for f in fields])
    magnitudes = np.maximum(np.abs(rat).max(axis=1), np.abs(surd).max(axis=1)).tolist()
    # The factors themselves must fit too, even over a zero plane.
    bound = max(max(m * c, c) for m, c in zip(magnitudes, scales))
    rat, surd = _widen(bound, fields[0].domain_exp, fields[0].resolution_exp, rat, surd)
    lift = np.array(scales, dtype=rat.dtype)[:, None]
    rat, surd = rat * lift, surd * lift
    n = len(a)
    if 2 * n == len(fields):
        differs = (rat[:n] != rat[n:]).any(axis=0) | (surd[:n] != surd[n:]).any(axis=0)
    else:
        differs = np.ones(rat.shape[1], dtype=bool)
    differs[1:] &= (rat[:, 1:] != rat[:, :-1]).any(axis=0) | (
        surd[:, 1:] != surd[:, :-1]
    ).any(axis=0)
    keep = np.flatnonzero(differs)
    columns = []
    for r, s in zip(rat[:, keep].T.tolist(), surd[:, keep].T.tolist()):
        pairs = list(zip(r, s))
        columns.append((pairs[:n], pairs[n:]))
    return columns, d


def field_sum(a: IntegerField, b: IntegerField, sign: int = 1) -> IntegerField:
    """a + sign * b cell-wise on one grid, over the lcm of the denominators."""
    d = math.lcm(a.denominator, b.denominator)
    fa, fb = d // a.denominator, d // b.denominator
    # The factors themselves must fit too, even over a zero plane.
    bound = max(
        _magnitude(a.rat) * fa + _magnitude(b.rat) * fb,
        _magnitude(a.surd) * fa + _magnitude(b.surd) * fb,
        fa,
        fb,
    )
    ra, sa, rb, sb = _widen(bound, a.domain_exp, a.resolution_exp, a.rat, a.surd, b.rat, b.surd)
    if sign < 0:
        rb, sb = -rb, -sb
    return IntegerField.canonical(
        ra * fa + rb * fb, sa * fa + sb * fb, d, a.domain_exp, a.resolution_exp
    )


def field_product(a: IntegerField, b: IntegerField) -> IntegerField:
    """Cell-wise product of two lifted fields on one grid, exactly.

    (R + S sqrt2)(r + s sqrt2) = (Rr + 2Ss) + (Rs + Sr) sqrt2 over the
    product of the denominators.  The planes move to Python ints when
    the product could outgrow the butterfly's int64 headroom.  A field
    of one cell scales every cell of the other.
    """
    pr, ps, qr, qs = (_magnitude(p) for p in (a.rat, a.surd, b.rat, b.surd))
    bound = max(pr * qr + 2 * ps * qs, pr * qs + ps * qr)
    ra, sa, rb, sb = _widen(bound, a.domain_exp, a.resolution_exp, a.rat, a.surd, b.rat, b.surd)
    rat, surd = ra * rb + 2 * sa * sb, ra * sb + sa * rb
    return IntegerField.canonical(
        rat, surd, a.denominator * b.denominator, a.domain_exp, a.resolution_exp
    )


def field_scale(a: IntegerField, c: ScalarLike) -> IntegerField:
    """Every cell of a times one exact scalar."""
    c = QuadScalar.coerce(c)
    scalar = IntegerField(_as_plane([c.r]), _as_plane([c.s]), c.d, a.domain_exp, a.resolution_exp)
    return field_product(a, scalar)


def field_average(a: IntegerField, block: int) -> IntegerField:
    """Each run of `block` cells replaced by its mean: a reshape-sum."""
    bound = block * max(_magnitude(a.rat), _magnitude(a.surd))
    planes = _widen(bound, a.domain_exp, a.resolution_exp, a.rat, a.surd)
    rat, surd = (np.repeat(p.reshape(-1, block).sum(axis=1), block) for p in planes)
    return IntegerField.canonical(
        rat, surd, a.denominator * block, a.domain_exp, a.resolution_exp
    )


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


def _require_in_tables(
    field: IntegerField, scales: Sequence[int], indices: Sequence[int], freqs: Sequence[int]
) -> None:
    """Refuse with KernelUnsupported a tile past the tables: they hold stages
    0 to J + m of 2^(J+m) entries, and tile (k, n, b) is entry
    n 2^(k+m) + b of stage k + m, so a tile in them lies inside the box."""
    top = field.domain_exp + field.resolution_exp
    for k, n, b in zip(scales, indices, freqs):
        t = k + field.resolution_exp
        if not 0 <= t <= top or ((n << t) + b) >> top:
            raise KernelUnsupported("tile lies outside the grid box or past the tables")


class WalshTables:
    """Exact packet coefficients of one step function: its planes' butterflies."""

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
        position = ([tile.time.scale], [tile.time.index], [tile.freq_index])
        _require_in_tables(self.field, *position)
        return self.pairings(*position)[0]

    def read(
        self, scales: Sequence[int], indices: Sequence[int], freqs: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The pairings of many tiles' packets with f, clipped to the box, on integers.

        Tile i has time scale k = scales[i], time index indices[i] and
        frequency index freqs[i], Python ints of any size.  Returns the
        butterfly entries u_r and u_s, in the tables' dtype, and the
        exponents e = 2m + k (the cell width 2^-m times the amplitude
        2^(-k/2)): the pairing is (u_r[i] + u_s[i] sqrt2) 2^(-e[i]/2) /
        denominator, which `exact.over_sqrt_pow2` puts on integers.

        A tile whose time interval misses the box [0, 2^J) pairs to
        zero.  One whose interval holds the box, lift = k - J levels up,
        sees only the first 2^-lift of its Walsh pattern there, the
        pattern of frequency index b >> lift stretched over the box, so
        it reads that box tile.  Stages and slots are worked out on
        Python ints, so an index of any size is read, and the tiles of
        one stage are gathered with one fancy index per plane.  A tile
        the grid cannot resolve is refused.
        """
        field = self.field
        domain_exp, resolution_exp = field.domain_exp, field.resolution_exp
        by_stage: dict[int, tuple[list[int], list[int]]] = {}
        for i, (k, n, b) in enumerate(zip(scales, indices, freqs)):
            t = k + resolution_exp
            if t < 0 or b >> t:
                raise ResolutionTooCoarse(f"tile oscillates below cell width 2^-{resolution_exp}")
            lift = k - domain_exp
            if lift > 0:
                if n:
                    continue
                t, slot = t - lift, b >> lift
            elif n >> -lift:
                continue
            else:
                slot = (n << t) + b
            group = by_stage.get(t)
            if group is None:
                group = by_stage[t] = ([], [])
            group[0].append(i)
            group[1].append(slot)
        u_r = np.zeros(len(scales), dtype=self.rat_tables[0].dtype)
        u_s = np.zeros(len(scales), dtype=self.surd_tables[0].dtype)
        for t, (at, slots) in by_stage.items():
            u_r[at] = self.rat_tables[t][slots]
            u_s[at] = self.surd_tables[t][slots]
        return u_r, u_s, [2 * resolution_exp + k for k in scales]

    def pairings(
        self, scales: Sequence[int], indices: Sequence[int], freqs: Sequence[int]
    ) -> list[QuadScalar]:
        """The `read` of many tiles as one exact scalar per tile."""
        u_r, u_s, exps = self.read(scales, indices, freqs)
        d = self.field.denominator
        return [
            QuadScalar.from_ints(*over_sqrt_pow2(r, s, d, e))
            for r, s, e in zip(u_r.tolist(), u_s.tolist(), exps)
        ]


def walsh_tables(f: StepFunction) -> WalshTables:
    """Build the packet tables of f; `StepFunction.packet_tables` keeps one."""
    return WalshTables(f.field)


def _reversed_bits(b: int) -> int:
    """The bit_length() bits of b >= 0 in reverse order; 0 for 0."""
    return int(bin(b)[:1:-1], 2)


@lru_cache(maxsize=64)
def _parity_signs(width: int) -> np.ndarray:
    """(-1)^popcount(v) for every v < 2^width, as a read-only int64 array.

    The bits of each v are folded in halves down to bit 0, which then
    holds the parity of v.
    """
    signs = np.arange(1 << width, dtype=np.int64)
    shift = 1
    while shift < width:
        shift <<= 1
    while shift > 1:
        shift >>= 1
        signs ^= signs >> shift
    signs = 1 - 2 * (signs & 1)
    signs.flags.writeable = False
    return signs


def _walsh_signs(mask: int | np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The Walsh sign rule: (-1)^popcount(mask & j) for each cell j, as int64 +-1.

    A packet of frequency index b, s its bit length, over 2^(k+m) cells
    is constant on its 2^s pieces of 2^e cells each, e = k + m - s, and
    its sign on piece p flips once for every set bit of b whose mirror
    bit of p is set: appending a one bit to b repeats the pattern
    negated, a zero bit repeats it.  With mask = rev_s(b) 2^e, the
    reversed bits of b moved up to the piece bits, that is the parity
    of mask & j for a cell j counted from any multiple of 2^(k+m).
    `mask` is one per cell or one for all; entries are nonnegative and
    fit in int64.
    """
    x = cells & mask
    return _parity_signs(int(x.max()).bit_length() if x.size else 0)[x]


def _packet_span(
    scale: int, index: int, freq_index: int, domain_exp: int, resolution_exp: int
) -> tuple[int, int, int]:
    """Where a packet's signs fall on the grid cells, clipped to the box.

    Returns (a, b, mask) for the tile at time scale k, time index n and
    frequency index f: cell j, a <= j < b, carries the sign
    `_walsh_signs(mask, j)` and every other cell is zero.  The packet
    starts at cell a = n 2^(k+m), a multiple of 2^(k+m); mask is f's
    reversed bits moved up to the bits of the piece index, cut to the
    J + m bits that a cell index in the box can have.  A packet the
    grid cannot resolve is refused.
    """
    exp = piece_exp(scale, freq_index, resolution_exp)
    cells = 1 << (domain_exp + resolution_exp)
    a = index << (scale + resolution_exp)
    b = max(a, min(a + (1 << (scale + resolution_exp)), cells))
    return a, b, (_reversed_bits(freq_index) << exp) & (cells - 1)


def _place(
    terms: Iterable[tuple[int, object, float | QuadScalar]],
    position: Callable[[object], tuple[int, int, int]],
    domain_exp: int,
    resolution_exp: int,
) -> dict[int, list[tuple[int, int, int, int, float | QuadScalar]]]:
    """The nonzero terms (row, tile, c) by row, in term order.

    `position(tile)` gives the tile's time scale k, time index n and
    frequency index f, read for nonzero terms only.  Each term becomes
    (a, b, mask, k, c), with a, b and mask as `_packet_span` places the
    tile.  A term whose packet the grid cannot resolve is refused; one
    at a negative row, or with no cell in the box, lands in no row.
    """
    rows: dict[int, list] = {}
    for row, tile, c in terms:
        if c:
            scale, index, freq = position(tile)
            a, b, mask = _packet_span(scale, index, freq, domain_exp, resolution_exp)
            if row >= 0 and a < b:
                rows.setdefault(row, []).append((a, b, mask, scale, c))
    return rows


# Covered cells per scatter: bounds the index arrays of one batch of terms.
_SCATTER_CELLS = 1 << 16


def _scatter(placed: list[tuple], weights: np.ndarray):
    """Every covered cell of placed float terms, in batches of whole terms.

    Yields, per batch of at most _SCATTER_CELLS cells (or one longer
    term), the cells and each one's term weight times the sign of the
    term's packet there; a term's cells are contiguous and the terms
    come in order.
    """
    start, size = 0, 0
    for stop, (a, b, *_) in enumerate(placed):
        if size and size + b - a > _SCATTER_CELLS:
            yield _batch(placed, weights, start, stop)
            start, size = stop, 0
        size += b - a
    yield _batch(placed, weights, start, len(placed))


def _batch(placed: list[tuple], weights: np.ndarray, start: int, stop: int):
    first, last, mask = (np.array(part, np.int64) for part in list(zip(*placed[start:stop]))[:3])
    lengths = last - first
    cells = np.arange(int(lengths.sum()))
    cells += np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
    values = np.repeat(weights[start:stop], lengths)
    values *= _walsh_signs(np.repeat(mask, lengths), cells)
    return cells, values


def _sum_rows(
    terms: Iterable[tuple[int, object, float | ScalarLike]],
    position: Callable[[object], tuple[int, int, int]],
    rows: int,
    domain_exp: int,
    resolution_exp: int,
) -> np.ndarray | list[IntegerField]:
    """`packet_sums` of terms (row, tile, c), each tile read by `position`."""
    terms = list(terms)
    cells = 1 << (domain_exp + resolution_exp)
    if terms and all(isinstance(c, float) for _, _, c in terms):
        plane = np.zeros((rows, cells))
        for row, placed in _place(terms, position, domain_exp, resolution_exp).items():
            weights = np.array([c * 2.0 ** (-scale / 2.0) for *_, scale, c in placed])
            # add.at adds in index order, so each cell sums in term order.
            for where, values in _scatter(placed, weights):
                np.add.at(plane[row], where, values)
        return np.cumsum(plane[::-1], axis=0)[::-1]
    by_row = _place(
        [(row, tile, QuadScalar.coerce(c)) for row, tile, c in terms],
        position,
        domain_exp,
        resolution_exp,
    )
    rats, surds, d = common_lift(
        [c * inv_sqrt_pow2(scale) for group in by_row.values() for *_, scale, c in group]
    )
    # No cell sum exceeds the sum of the parts' sizes.
    bound = max(sum(map(abs, rats)), sum(map(abs, surds)))
    dtype = object if bound >= 1 << _INT64_GUARD else np.int64
    planes = np.zeros((2, rows, cells), dtype=dtype)
    placed = ((row, term) for row, group in by_row.items() for term in group)
    # Integer sums do not depend on the order, and exact rows hold few
    # terms, so each term is added on its own slice.
    for (row, (a, b, mask, _, _)), r, s in zip(placed, rats, surds):
        signs = _walsh_signs(mask, np.arange(a, b, dtype=np.int64))
        signs = signs.astype(dtype, copy=False)
        planes[0, row, a:b] += r * signs
        planes[1, row, a:b] += s * signs
    rat, surd = np.cumsum(planes[:, ::-1], axis=1)[:, ::-1]
    return [
        IntegerField.canonical(r_row, s_row, d, domain_exp, resolution_exp)
        for r_row, s_row in zip(rat, surd)
    ]


def packet_sums(
    terms: Iterable[tuple[int, Tile, float | ScalarLike]],
    rows: int,
    domain_exp: int,
    resolution_exp: int,
) -> np.ndarray | list[IntegerField]:
    """Sums of packet terms on the grid cells, one row per cut.

    A term (row, tile, c) adds c times the tile's packet, clipped to the
    box, to plane row `row`: its sign row times the weight c 2^(-k/2),
    k the tile's time scale.  Row j of the result sums plane rows j and
    up.  Zero terms are skipped; a term at a negative row is checked
    for resolvability but lands in no row.

    The coefficients pick the lane.  Python floats fill one float64
    plane, and the result is its array: the signs of a row's cells come
    from one `_walsh_signs` call per batch of whole terms
    (`_SCATTER_CELLS` cells at most, so the index arrays stay small),
    and `np.add.at` adds them into the row in index order, that is term
    by term, as a running sum would.  Any other coefficients are exact:
    the weights are lifted over one common denominator into a rational
    and a sqrt2 integer plane, int64 while the sum of the parts' sizes
    fits and Python ints past that, each term is added on its own
    slice, and the result is one canonical `IntegerField` per row.  An
    empty term list is the exact zero.
    """
    return _sum_rows(terms, _tile_position, rows, domain_exp, resolution_exp)


def _tile_position(tile: Tile) -> tuple[int, int, int]:
    return tile.time.scale, tile.time.index, tile.freq.index


def truncated_sums(
    terms: Iterable[tuple[Quartile, float | ScalarLike]],
    subtile_index: int,
    domain_exp: int,
    resolution_exp: int,
) -> np.ndarray | list[IntegerField]:
    """`packet_sums` of quartile terms cut at every scale, J + m + 1 rows.

    A term at time scale k goes to row k + m - 1 with the quartile's
    `subtile_index` tile, so that result row j sums the terms with time
    intervals strictly longer than 2^(j - m); the last row, j = J + m,
    is an empty sum.  The tiles are read off the quartiles' integers,
    never built.  A quartile longer than the box has no row and is
    refused.
    """
    def placed():
        for quartile, coeff in terms:
            scale = quartile.time.scale
            if scale > domain_exp:
                raise ScaleTooCoarse(f"quartile at scale {scale} above the box 2^{domain_exp}")
            if subtile_index not in (1, 2, 3, 4):
                raise ValueError("subtile index must be 1, 2, 3 or 4")
            yield scale + resolution_exp - 1, quartile, coeff

    def position(quartile: Quartile) -> tuple[int, int, int]:
        time = quartile.time
        return time.scale, time.index, 4 * quartile.freq.index + subtile_index - 1

    return _sum_rows(
        placed(), position, domain_exp + resolution_exp + 1, domain_exp, resolution_exp
    )


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
    terms = [(q, float(c)) for q, c in terms]
    if not terms:
        return np.zeros((domain_exp + resolution_exp + 1, 1 << (domain_exp + resolution_exp)))
    return truncated_sums(terms, subtile_index, domain_exp, resolution_exp)


def average_ladder(values: np.ndarray) -> np.ndarray:
    """Means of float cell values over every dyadic block, one row per block size.

    Row j holds at each cell the mean over its block of 2^j cells, for
    j = 0 up to the block of all cells, whose count must be a power of
    two.  Row 0 is the values themselves: the mean of one cell is exact.
    """
    cells = len(values)
    ladder = np.empty((cells.bit_length(), cells))
    for j in range(cells.bit_length()):
        ladder[j] = np.repeat(values.reshape(-1, 1 << j).mean(axis=1), 1 << j)
    return ladder


def _distinct_rows(columns: np.ndarray) -> np.ndarray:
    """Each column's rows that differ from the row above, in order,
    padded with its last value to the depth of the deepest column."""
    repeat = np.zeros(columns.shape, bool)
    repeat[1:] = columns[1:] == columns[:-1]
    depth = len(columns) - np.sum(repeat, axis=0)
    rows = np.argsort(repeat, axis=0, kind="stable")[: depth.max(initial=1)]
    distinct = np.take_along_axis(columns, rows, axis=0)
    np.copyto(distinct, columns[-1:], where=np.arange(len(rows))[:, None] >= depth)
    return distinct


def batch_variation(field: np.ndarray, r: float) -> np.ndarray:
    """r-variation down each column of a (scales, cells) field.

    The chain recursion runs vectorised over cells; quadratic in the
    number of scales, which stays small on any usable grid.  A field
    built from packets is constant on blocks of cells and, down a
    column, repeats its value at every scale where no term starts, so
    the recursion runs once per run of equal adjacent columns, over
    that column's rows that differ from the row above, and each result
    is repeated over its run.  A chain through a repeated row adds the
    same powers plus exact zeros in the same order, so the output is
    that of the recursion on every row of every column, bit for bit.
    Values that compare equal may differ in the sign of a zero, which
    the recursion never sees: it reads only absolute differences.  A
    NaN never compares equal, so it is never merged.

    A column of finite nonzero span, its largest minus its smallest
    value, whose largest power span^r is below 2^-969 or overflows,
    alone or summed down the column, runs on its differences divided
    by its span, and its result is multiplied back by the span.  Every
    other column's result is unchanged.
    """
    _, cells = field.shape
    if r == math.inf:
        return np.max(field, axis=0) - np.min(field, axis=0)
    if not r >= 1:
        raise ValueError(f"variation exponent must be at least 1, got {r}")
    new_run = np.ones(cells, bool)
    new_run[1:] = np.any(field[:, 1:] != field[:, :-1], axis=0)
    starts = np.flatnonzero(new_run)
    levels = _distinct_rows(field[:, starts])
    span = np.max(levels, axis=0) - np.min(levels, axis=0)
    with np.errstate(over="ignore"):
        largest = span**r
        fits = (largest >= 2.0**-969) & (largest * len(levels) < math.inf)
    scale = np.where((span > 0) & (span < math.inf) & ~fits, span, 1.0)
    suffix = np.zeros_like(levels)
    for i in range(len(levels) - 2, -1, -1):
        gains = np.abs(levels[i + 1 :] - levels[i])
        gains /= scale
        gains **= r
        gains += suffix[i + 1 :]
        suffix[i] = np.max(gains, axis=0)
    powers = np.max(suffix, axis=0)
    return np.repeat(powers ** (1.0 / r) * scale, np.diff(starts, append=cells))


def batch_sup(field: np.ndarray) -> np.ndarray:
    """Largest |entry| down each column of a (scales, cells) field."""
    return np.max(np.abs(field), axis=0)


def lp_norm(values: np.ndarray, p: float, resolution_exp: int) -> float:
    """L^p norm of float cell values on cells 2^-resolution_exp wide."""
    if p == math.inf:
        return float(np.max(np.abs(values))) if values.size else 0.0
    return float(np.sum(np.abs(values) ** p) * 2.0 ** (-resolution_exp)) ** (1.0 / p)
