"""Walsh wave packets and exact step functions on a dyadic grid.

A grid is the box [0, 2^J) cut into cells of width 2^-m.  Step functions
carry one exact scalar per cell, stored as integer planes.  The wave
packet of a tile I x omega is |I|^{-1/2} times a Walsh sign pattern on
I; it is representable on the grid whenever the pattern is constant on
cells.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from . import kernels
from .errors import GridMismatch
from .exact import (
    ONE,
    ZERO,
    QuadScalar,
    ScalarLike,
    common_lift,
    inv_sqrt_pow2,
    pow2_fraction,
    quad_to_float,
)
from .geometry import (
    MAX_GRID_EXP, DyadicInterval, PointLike, Tile, _json_int, _json_object, band_index,
)

__all__ = [
    "StepFunction",
    "eval_wavepacket",
    "wavepacket_step",
    "inner_product",
    "batch_inner_products",
    "synthesize",
    "tree_sign_step",
]


def eval_wavepacket(tile: Tile, x: PointLike) -> QuadScalar:
    """Wave packet value at x, computed by the two-scale recursion.

    Splitting the frequency interval in half corresponds to averaging
    resp. differencing the packets over the two time halves, with a
    1/sqrt(2) to keep the L2 norm.  The recursion bottoms out at the
    lowest frequency over each time interval, a normalised indicator.
    """
    if band_index(x, tile.time.scale) != tile.time.index:
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


class StepFunction:
    """An exact step function on the grid [0, 2^J) with cells 2^-m wide.

    The cell values, left to right, are stored as a canonical
    `kernels.IntegerField`: a rational and a sqrt2 integer plane over
    one denominator, so grid algebra runs on integer arrays and equal
    functions have equal planes.  `values` gives them as a tuple of
    quadratic scalars, built on first use.  Instances are immutable;
    all arithmetic returns new objects.  The packet tables of a
    function are built on first use and kept.

    The constructor takes any exact scalars; a numpy integer array is
    taken as the rational plane as it is, without a scalar per cell.
    """

    __slots__ = ("domain_exp", "resolution_exp", "field", "_values", "_tables")

    def __init__(
        self,
        domain_exp: int,
        resolution_exp: int,
        values: Iterable[ScalarLike],
    ) -> None:
        if domain_exp + resolution_exp < 0:
            raise ValueError("grid must contain at least one cell")
        cells = 1 << (domain_exp + resolution_exp)
        if isinstance(values, np.ndarray) and values.dtype.kind == "i" and values.ndim == 1:
            rats = values.astype(np.int64)
            surds, d = np.zeros_like(rats), 1
        else:
            rats, surds, d = common_lift([QuadScalar.coerce(v) for v in values])
        if len(rats) != cells:
            raise GridMismatch(f"expected {cells} cell values, got {len(rats)}")
        self._set(kernels.IntegerField.canonical(rats, surds, d, domain_exp, resolution_exp))

    def _set(self, field: kernels.IntegerField) -> None:
        object.__setattr__(self, "domain_exp", field.domain_exp)
        object.__setattr__(self, "resolution_exp", field.resolution_exp)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_values", None)
        object.__setattr__(self, "_tables", None)

    @classmethod
    def _from_field(cls, field: kernels.IntegerField) -> "StepFunction":
        """Wrap a canonical field as a step function, without a copy."""
        f = cls.__new__(cls)
        f._set(field)
        return f

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StepFunction is immutable")

    @property
    def values(self) -> tuple[QuadScalar, ...]:
        """The cell values as quadratic scalars, each distinct one built once."""
        values = self._values
        if values is None:
            field = self.field
            pairs, inverse = field.distinct()
            quads = [QuadScalar.from_ints(r, s, field.denominator) for r, s in pairs]
            values = tuple(map(quads.__getitem__, inverse.tolist()))
            object.__setattr__(self, "_values", values)
        return values

    def packet_tables(self) -> kernels.WalshTables:
        """The exact packet coefficient tables of f, built once."""
        tables = self._tables
        if tables is None:
            tables = kernels.walsh_tables(self)
            object.__setattr__(self, "_tables", tables)
        return tables

    @classmethod
    def zero(cls, domain_exp: int, resolution_exp: int) -> "StepFunction":
        return cls(domain_exp, resolution_exp, np.zeros(1 << (domain_exp + resolution_exp), np.int64))

    @classmethod
    def indicator(
        cls, interval: DyadicInterval, domain_exp: int, resolution_exp: int
    ) -> "StepFunction":
        """Indicator of a dyadic interval, clipped to the grid box."""
        rat = np.zeros(1 << (domain_exp + resolution_exp), np.int64)
        lo, hi = interval.cell_range(resolution_exp)
        rat[max(lo, 0) : max(hi, 0)] = 1
        return cls(domain_exp, resolution_exp, rat)

    @classmethod
    def from_cells(
        cls, domain_exp: int, resolution_exp: int, cells: Iterable[int]
    ) -> "StepFunction":
        """Indicator of a union of grid cells given by index."""
        total = 1 << (domain_exp + resolution_exp)
        rat = np.zeros(total, np.int64)
        for j in cells:
            if not 0 <= j < total:
                raise GridMismatch(f"cell {j} outside grid of {total} cells")
            rat[j] = 1
        return cls(domain_exp, resolution_exp, rat)

    @property
    def cell_count(self) -> int:
        return 1 << (self.domain_exp + self.resolution_exp)

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
        return StepFunction._from_field(kernels.field_sum(self.field, other.field))

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        self._require_same_grid(other)
        return StepFunction._from_field(kernels.field_sum(self.field, other.field, -1))

    def __neg__(self) -> "StepFunction":
        return StepFunction._from_field(kernels.field_scale(self.field, -1))

    def __mul__(
        self, other: Union["StepFunction", ScalarLike]
    ) -> "StepFunction":
        if isinstance(other, StepFunction):
            self._require_same_grid(other)
            return StepFunction._from_field(kernels.field_product(self.field, other.field))
        return StepFunction._from_field(kernels.field_scale(self.field, other))

    def __rmul__(self, other: ScalarLike) -> "StepFunction":
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self.field == other.field

    def __hash__(self) -> int:
        return hash(self.field)

    def restrict(self, interval: DyadicInterval) -> "StepFunction":
        """Zero out everything outside the given interval."""
        lo, hi = interval.cell_range(self.resolution_exp)
        outside = np.ones(self.cell_count, dtype=bool)
        outside[max(lo, 0) : max(hi, 0)] = False
        return self.mask_out(outside)

    def mask_out(self, mask: np.ndarray) -> "StepFunction":
        """Zero out the cells where the boolean mask is true."""
        field = self.field
        return StepFunction._from_field(
            kernels.IntegerField.canonical(
                np.where(mask, 0, field.rat),
                np.where(mask, 0, field.surd),
                field.denominator,
                self.domain_exp,
                self.resolution_exp,
            )
        )

    def support_cells(self) -> list[int]:
        field = self.field
        return np.flatnonzero((field.rat != 0) | (field.surd != 0)).tolist()

    def integral(self) -> QuadScalar:
        return self.field.total() * self.cell_width

    def dot(self, other: "StepFunction") -> QuadScalar:
        """The L2 pairing: sum of products weighted by cell width."""
        self._require_same_grid(other)
        return kernels.field_product(self.field, other.field).total() * self.cell_width

    def dilate(self, shift: int) -> "StepFunction":
        """Precompose with x -> 2^shift x, keeping the same cell values.

        The box [0, 2^J) becomes [0, 2^(J-shift)) at resolution
        m+shift; cells map one to one so the planes are reused as is.
        """
        field = self.field
        return StepFunction._from_field(
            kernels.IntegerField.canonical(
                field.rat, field.surd, field.denominator,
                self.domain_exp - shift, self.resolution_exp + shift,
            )
        )

    def to_float_array(self) -> np.ndarray:
        """The correctly rounded float of each cell value.

        A rational int64 plane whose entries and denominator are below
        2^53 in magnitude converts to floats exactly, so one float
        division per cell rounds correctly: it is `quad_to_float`'s
        r / d bit for bit.  Any other field takes one
        `exact.quad_to_float` per distinct value, scattered to the cells.
        """
        field = self.field
        rat, d = field.rat, field.denominator
        if (
            rat.dtype == np.int64
            and d < 1 << 53
            and not field.surd.any()
            and max(-int(rat.min()), int(rat.max())) < 1 << 53
        ):
            return rat / d
        pairs, inverse = field.distinct()
        return np.array([quad_to_float(r, s, d) for r, s in pairs])[inverse]

    def integer_lift(self) -> tuple[list[int], list[int], int]:
        """Cell values as integers over one common denominator.

        Returns (rational parts, sqrt2 parts, d) so that each value is
        (r + s sqrt2) / d, with d the lcm of every part's denominator.
        """
        field = self.field
        return field.rat.tolist(), field.surd.tolist(), field.denominator

    def to_json(self) -> dict:
        """The grid as "J" and "m" and the cells as "values" text, which
        `from_json` reads back.  A J that `from_json` refuses, which a
        dilation can leave, is refused with ValueError."""
        return {
            "J": _json_int(self.domain_exp, "J", 0, MAX_GRID_EXP),
            "m": self.resolution_exp,
            "values": [v.to_text() for v in self.values],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StepFunction":
        """Read the grid as "J" and "m" or as "grid": [J, m], and the cells
        as "values" (Q(sqrt2) text or integers) or as "cells", the indices
        where an indicator is one; the object holds one form of each.
        J runs from 0 to MAX_GRID_EXP and m from -J to MAX_GRID_EXP - J,
        the grid cap; every refusal comes before any cell is allocated
        and names its field."""
        given = data if isinstance(data, dict) else {}
        grid = ("grid",) if "grid" in given else ("J", "m")
        cells = "cells" if "cells" in given else "values"
        _json_object(data, "a step function", (*grid, cells))
        j, m = data["grid"] if grid == ("grid",) else (data["J"], data["m"])
        domain_exp = _json_int(j, grid[0], 0, MAX_GRID_EXP)
        resolution_exp = _json_int(m, grid[-1], -domain_exp, MAX_GRID_EXP - domain_exp)
        if cells == "cells":
            indices = [_json_int(c, "cells") for c in data["cells"]]
            return cls.from_cells(domain_exp, resolution_exp, indices)
        values = [
            QuadScalar.from_text(v) if isinstance(v, str) else _json_int(v, "values")
            for v in data["values"]
        ]
        return cls(domain_exp, resolution_exp, values)

    def __repr__(self) -> str:
        return (
            f"StepFunction(J={self.domain_exp}, m={self.resolution_exp}, "
            f"{self.cell_count} cells)"
        )


def wavepacket_step(
    tile: Tile, domain_exp: int, resolution_exp: int
) -> StepFunction:
    """Render a tile's wave packet on the grid, clipped to the box."""
    return synthesize([(tile, ONE)], domain_exp, resolution_exp)


def inner_product(f: StepFunction, tile: Tile) -> QuadScalar:
    """Exact pairing of a step function with a tile's wave packet.

    The one-tile case of `batch_inner_products`; the packet is clipped
    to the box.
    """
    return batch_inner_products(f, [tile])[tile]


def batch_inner_products(
    f: StepFunction, tiles: Iterable[Tile]
) -> dict[Tile, QuadScalar]:
    """Pair f with many packets, clipped to the box, in one read of f's packet tables."""
    tiles = list(tiles)
    values = f.packet_tables().pairings(
        [t.time.scale for t in tiles], [t.time.index for t in tiles], [t.freq.index for t in tiles]
    )
    return dict(zip(tiles, values))


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
    return StepFunction._from_field(row)


def tree_sign_step(
    top_tile: Tile, domain_exp: int, resolution_exp: int
) -> StepFunction:
    """The sign of a top tile's packet: +-1 on its time interval, else 0."""
    amp = inv_sqrt_pow2(-top_tile.time.scale)  # the packet is 2^(-k/2) times its signs
    return synthesize([(top_tile, amp)], domain_exp, resolution_exp)
