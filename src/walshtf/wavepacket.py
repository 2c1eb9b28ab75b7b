"""Walsh wave packets and exact step functions on a dyadic grid.

A grid is the box [0, 2^J) cut into cells of width 2^-m.  Step functions
carry one exact scalar per cell.  The wave packet of a tile I x omega is
|I|^{-1/2} times a Walsh sign pattern on I; it is representable on the
grid whenever the pattern is constant on cells.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from . import kernels
from .errors import GridMismatch
from .exact import (
    ONE,
    ZERO,
    QuadScalar,
    ScalarLike,
    _as_fraction,
    common_lift,
    inv_sqrt_pow2,
    pow2_fraction,
)
from .geometry import DyadicInterval, PointLike, Tile

__all__ = [
    "StepFunction",
    "walsh_sign_pattern",
    "sign_row",
    "eval_walsh",
    "eval_wavepacket",
    "wavepacket_step",
    "inner_product",
    "batch_inner_products",
    "synthesize",
    "tree_sign_step",
]


@lru_cache(maxsize=4096)
def walsh_sign_pattern(freq_index: int) -> tuple[int, ...]:
    """Sign pattern of the Walsh function with the given index.

    Returns 2^s signs (s the bit length of the index) giving the value
    on each piece of [0, 1) of width 2^-s.  Built by the doubling rules:
    appending a zero bit repeats the pattern, appending a one bit
    repeats it negated.
    """
    if freq_index < 0:
        raise ValueError("frequency index must be nonnegative")
    pattern = [1]
    for position in range(freq_index.bit_length() - 1, -1, -1):
        if (freq_index >> position) & 1:
            pattern = pattern + [-s for s in pattern]
        else:
            pattern = pattern + pattern
    return tuple(pattern)


def eval_walsh(freq_index: int, t: PointLike) -> int:
    """Walsh function value at t in [0, 1), as a product of square waves.

    The j-th square wave is +1 on dyadic intervals of length 2^-(j+1)
    with even index, -1 on the others; the factors used are those picked
    out by the binary digits of the index.
    """
    t = _as_fraction(t)
    if not 0 <= t < 1:
        raise ValueError("Walsh functions are evaluated on [0, 1)")
    sign = 1
    j = 0
    b = freq_index
    while b:
        if b & 1:
            if int(t * (1 << (j + 1))) & 1:
                sign = -sign
        b >>= 1
        j += 1
    return sign


def eval_wavepacket(tile: Tile, x: PointLike) -> QuadScalar:
    """Wave packet value at x, computed by the two-scale recursion.

    Splitting the frequency interval in half corresponds to averaging
    resp. differencing the packets over the two time halves, with a
    1/sqrt(2) to keep the L2 norm.  The recursion bottoms out at the
    lowest frequency over each time interval, a normalised indicator.
    """
    if not tile.time.contains_point(x):
        return ZERO
    b = tile.freq_index
    if b == 0:
        return inv_sqrt_pow2(tile.time.scale)
    coarse_freq = tile.freq.parent
    left = eval_wavepacket(Tile(tile.time.left_child, coarse_freq), x)
    right = eval_wavepacket(Tile(tile.time.right_child, coarse_freq), x)
    if b & 1:
        return (left - right).div_sqrt2()
    return (left + right).div_sqrt2()


def sign_row(
    tile: Tile, domain_exp: int, resolution_exp: int
) -> tuple[int, int, np.ndarray]:
    """The signs of a tile's packet on the grid cells, clipped to the box.

    Returns (a, b, signs): cell j, a <= j < b, carries the sign
    signs[j - a] = +-1 and every other cell zero.  The packet itself is
    2^(-k/2) times this row, k the time scale.
    """
    exp = tile.piece_exp(resolution_exp)
    lo, hi = tile.time.cell_range(resolution_exp)
    a = max(lo, 0)
    b = max(a, min(hi, 1 << (domain_exp + resolution_exp)))
    pattern = np.array(walsh_sign_pattern(tile.freq_index), dtype=np.int64)
    return a, b, pattern[(np.arange(a, b) - lo) >> exp]


class StepFunction:
    """An exact step function on the grid [0, 2^J) with cells 2^-m wide.

    Values are quadratic scalars, one per cell, stored left to right.
    Instances are immutable; all arithmetic returns new objects.  The
    packet tables of a function are built on first use and kept.
    """

    __slots__ = ("domain_exp", "resolution_exp", "values", "_tables")

    def __init__(
        self,
        domain_exp: int,
        resolution_exp: int,
        values: Sequence[ScalarLike],
    ) -> None:
        if domain_exp + resolution_exp < 0:
            raise ValueError("grid must contain at least one cell")
        cells = 1 << (domain_exp + resolution_exp)
        coerced = tuple(QuadScalar.coerce(v) for v in values)
        if len(coerced) != cells:
            raise GridMismatch(
                f"expected {cells} cell values, got {len(coerced)}"
            )
        object.__setattr__(self, "domain_exp", domain_exp)
        object.__setattr__(self, "resolution_exp", resolution_exp)
        object.__setattr__(self, "values", coerced)
        object.__setattr__(self, "_tables", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StepFunction is immutable")

    def packet_tables(self) -> kernels.WalshTables:
        """The exact packet coefficient tables of f, built once."""
        tables = self._tables
        if tables is None:
            tables = kernels.walsh_tables(self)
            object.__setattr__(self, "_tables", tables)
        return tables

    @classmethod
    def zero(cls, domain_exp: int, resolution_exp: int) -> "StepFunction":
        return cls(
            domain_exp, resolution_exp, [ZERO] * (1 << (domain_exp + resolution_exp))
        )

    @classmethod
    def indicator(
        cls, interval: DyadicInterval, domain_exp: int, resolution_exp: int
    ) -> "StepFunction":
        """Indicator of a dyadic interval, clipped to the grid box."""
        total = 1 << (domain_exp + resolution_exp)
        lo, hi = interval.cell_range(resolution_exp)
        values = [ZERO] * total
        for j in range(max(lo, 0), min(hi, total)):
            values[j] = ONE
        return cls(domain_exp, resolution_exp, values)

    @classmethod
    def from_cells(
        cls, domain_exp: int, resolution_exp: int, cells: Iterable[int]
    ) -> "StepFunction":
        """Indicator of a union of grid cells given by index."""
        total = 1 << (domain_exp + resolution_exp)
        values = [ZERO] * total
        for j in cells:
            if not 0 <= j < total:
                raise GridMismatch(f"cell {j} outside grid of {total} cells")
            values[j] = ONE
        return cls(domain_exp, resolution_exp, values)

    @classmethod
    def sample(
        cls,
        domain_exp: int,
        resolution_exp: int,
        func: Callable[[Fraction], ScalarLike],
    ) -> "StepFunction":
        """Build from a callable evaluated at each cell's left endpoint."""
        width = pow2_fraction(-resolution_exp)
        total = 1 << (domain_exp + resolution_exp)
        return cls(domain_exp, resolution_exp, [func(j * width) for j in range(total)])

    @property
    def cell_count(self) -> int:
        return len(self.values)

    @property
    def cell_width(self) -> Fraction:
        return pow2_fraction(-self.resolution_exp)

    def _require_same_grid(self, other: "StepFunction") -> None:
        if (
            self.domain_exp != other.domain_exp
            or self.resolution_exp != other.resolution_exp
        ):
            raise GridMismatch(
                f"grid ({self.domain_exp}, {self.resolution_exp}) vs "
                f"({other.domain_exp}, {other.resolution_exp})"
            )

    def __add__(self, other: "StepFunction") -> "StepFunction":
        self._require_same_grid(other)
        return StepFunction(
            self.domain_exp,
            self.resolution_exp,
            [a + b for a, b in zip(self.values, other.values)],
        )

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        self._require_same_grid(other)
        return StepFunction(
            self.domain_exp,
            self.resolution_exp,
            [a - b for a, b in zip(self.values, other.values)],
        )

    def __neg__(self) -> "StepFunction":
        return StepFunction(
            self.domain_exp, self.resolution_exp, [-a for a in self.values]
        )

    def __mul__(
        self, other: Union["StepFunction", ScalarLike]
    ) -> "StepFunction":
        if isinstance(other, StepFunction):
            self._require_same_grid(other)
            return StepFunction(
                self.domain_exp,
                self.resolution_exp,
                [a * b for a, b in zip(self.values, other.values)],
            )
        c = QuadScalar.coerce(other)
        return StepFunction(
            self.domain_exp, self.resolution_exp, [a * c for a in self.values]
        )

    def __rmul__(self, other: ScalarLike) -> "StepFunction":
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (
            self.domain_exp == other.domain_exp
            and self.resolution_exp == other.resolution_exp
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.domain_exp, self.resolution_exp, self.values))

    def value_at(self, x: PointLike) -> QuadScalar:
        x = _as_fraction(x)
        if not 0 <= x < (1 << self.domain_exp):
            return ZERO
        return self.values[int(x * (1 << self.resolution_exp))]

    def restrict(self, interval: DyadicInterval) -> "StepFunction":
        """Zero out everything outside the given interval."""
        total = self.cell_count
        lo, hi = interval.cell_range(self.resolution_exp)
        values = [
            v if max(lo, 0) <= j < min(hi, total) else ZERO
            for j, v in enumerate(self.values)
        ]
        return StepFunction(self.domain_exp, self.resolution_exp, values)

    def support_cells(self) -> list[int]:
        return [j for j, v in enumerate(self.values) if v]

    def integral(self) -> QuadScalar:
        total = ZERO
        for v in self.values:
            total = total + v
        return total * self.cell_width

    def dot(self, other: "StepFunction") -> QuadScalar:
        """The L2 pairing: sum of products weighted by cell width."""
        self._require_same_grid(other)
        total = ZERO
        for a, b in zip(self.values, other.values):
            if a and b:
                total = total + a * b
        return total * self.cell_width

    def l2_norm_sq(self) -> QuadScalar:
        total = ZERO
        for v in self.values:
            if v:
                total = total + v.square()
        return total * self.cell_width

    def dilate(self, shift: int) -> "StepFunction":
        """Precompose with x -> 2^shift x, keeping the same cell values.

        The box [0, 2^J) becomes [0, 2^(J-shift)) at resolution
        m+shift; cells map one to one so values are reused as is.
        """
        return StepFunction(
            self.domain_exp - shift, self.resolution_exp + shift, self.values
        )

    def to_float_array(self) -> np.ndarray:
        return np.array([v.to_float() for v in self.values], dtype=np.float64)

    def integer_lift(self) -> tuple[list[int], list[int], int]:
        """Cell values as integers over one common denominator.

        Returns (rational parts, sqrt2 parts, d) so that each value is
        (r + s sqrt2) / d, with d the lcm of every part's denominator.
        """
        return common_lift(self.values)

    def to_json(self) -> dict:
        return {
            "J": self.domain_exp,
            "m": self.resolution_exp,
            "values": [v.to_text() for v in self.values],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StepFunction":
        return cls(
            int(data["J"]),
            int(data["m"]),
            [QuadScalar.from_text(s) for s in data["values"]],
        )

    def to_json_text(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def from_json_text(cls, text: str) -> "StepFunction":
        return cls.from_json(json.loads(text))

    def __repr__(self) -> str:
        return (
            f"StepFunction(J={self.domain_exp}, m={self.resolution_exp}, "
            f"{self.cell_count} cells)"
        )


def _sign_step(
    tile: Tile, amp: QuadScalar, domain_exp: int, resolution_exp: int
) -> StepFunction:
    """amp times the tile's sign row, as a step function."""
    a, b, signs = sign_row(tile, domain_exp, resolution_exp)
    values = [ZERO] * (1 << (domain_exp + resolution_exp))
    neg = -amp
    values[a:b] = [amp if s > 0 else neg for s in signs.tolist()]
    return StepFunction(domain_exp, resolution_exp, values)


def wavepacket_step(
    tile: Tile, domain_exp: int, resolution_exp: int
) -> StepFunction:
    """Render a tile's wave packet on the grid, clipped to the box."""
    return _sign_step(tile, inv_sqrt_pow2(tile.time.scale), domain_exp, resolution_exp)


def inner_product(f: StepFunction, tile: Tile) -> QuadScalar:
    """Exact pairing of a step function with a tile's wave packet.

    A read from f's packet tables; the packet is clipped to the box.
    """
    return f.packet_tables().pairing(tile)


def batch_inner_products(
    f: StepFunction, tiles: Iterable[Tile]
) -> dict[Tile, QuadScalar]:
    """Pair f with many packets, each a read from f's packet tables."""
    return {tile: inner_product(f, tile) for tile in tiles}


def synthesize(
    terms: Iterable[tuple[Tile, ScalarLike]],
    domain_exp: int,
    resolution_exp: int,
) -> StepFunction:
    """Sum of coefficient times wave packet, rendered on the grid."""
    (row,) = kernels.packet_sums(
        ((0, tile, QuadScalar.coerce(c)) for tile, c in terms),
        1,
        domain_exp,
        resolution_exp,
    )
    return StepFunction(domain_exp, resolution_exp, row)


def tree_sign_step(
    top_tile: Tile, domain_exp: int, resolution_exp: int
) -> StepFunction:
    """The sign of a top tile's packet: +-1 on its time interval, else 0."""
    return _sign_step(top_tile, ONE, domain_exp, resolution_exp)
