"""Dyadic intervals, tiles, quartiles and trees in the Walsh phase plane.

All intervals are half-open on the right, [n 2^k, (n+1) 2^k) with n >= 0.
A tile is a time-frequency rectangle of area one, a quartile has area
four; the four area-one subtiles of a quartile sit over the same time
interval and split the frequency interval into its dyadic grandchildren,
numbered 1 to 4 from left to right.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Collection, Iterable, Iterator, Union

from .errors import InvalidTree, ResolutionTooCoarse
from .exact import DyadicRational, _as_fraction, pow2_fraction

PointLike = Union[int, Fraction, DyadicRational]

# The largest J + m a grid may have in a config or a JSON file: the
# packet tables of a step function hold J + m + 1 stages of 2^(J+m)
# entries per plane, 17 x 65536 at the cap.
MAX_GRID_EXP = 16


@dataclass(frozen=True)
class DyadicInterval:
    """The interval [index * 2^scale, (index + 1) * 2^scale)."""

    index: int
    scale: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("dyadic intervals live on the positive half-line")

    @property
    def length(self) -> Fraction:
        return pow2_fraction(self.scale)

    @property
    def left(self) -> Fraction:
        return self.index * self.length

    @property
    def right(self) -> Fraction:
        return (self.index + 1) * self.length

    def contains_point(self, x: PointLike) -> bool:
        x = _as_fraction(x)
        return self.left <= x < self.right

    def contains(self, other: "DyadicInterval") -> bool:
        """Whether other lies inside self: other is no longer than self and
        its ancestor at self's scale is self."""
        shift = self.scale - other.scale
        return shift >= 0 and other.index >> shift == self.index

    def intersects(self, other: "DyadicInterval") -> bool:
        """Dyadic intervals are nested or disjoint, so they meet exactly
        when one contains the other."""
        return self.contains(other) or other.contains(self)

    @property
    def left_child(self) -> "DyadicInterval":
        return DyadicInterval(2 * self.index, self.scale - 1)

    @property
    def right_child(self) -> "DyadicInterval":
        return DyadicInterval(2 * self.index + 1, self.scale - 1)

    @property
    def parent(self) -> "DyadicInterval":
        return DyadicInterval(self.index >> 1, self.scale + 1)

    def ancestor_at(self, scale: int) -> "DyadicInterval":
        if scale < self.scale:
            raise ValueError("an ancestor cannot be finer than the interval")
        return DyadicInterval(self.index >> (scale - self.scale), scale)

    def cell_range(self, resolution_exp: int) -> tuple[int, int]:
        """Cell indices [lo, hi) covered at resolution 2^-resolution_exp."""
        shift = self.scale + resolution_exp
        if shift < 0:
            raise ValueError("interval is finer than the requested resolution")
        return self.index << shift, (self.index + 1) << shift

    def to_json(self) -> dict:
        return {"n": self.index, "k": self.scale}

    @classmethod
    def from_json(cls, data: dict) -> "DyadicInterval":
        """Read {"n": n, "k": k} with |k| <= C and (n + 1) 2^k <= 2^C, that
        is k <= C - bits(n), for C = 2 MAX_GRID_EXP.  Every interval the
        program writes meets this bound: J <= MAX_GRID_EXP and
        J + m <= MAX_GRID_EXP keep quartile scales in [-14, MAX_GRID_EXP - m],
        and a selection's domain_exp <= MAX_GRID_EXP - m keeps its tops
        inside [0, 2^C).  Past it a rendered end would overflow a float."""
        _json_object(data, "an interval", ("n", "k"))
        cap = 2 * MAX_GRID_EXP
        n = _json_int(data["n"], "n", 0, (1 << 2 * cap) - 1)
        return cls(n, _json_int(data["k"], "k", -cap, cap - n.bit_length()))

    def __str__(self) -> str:
        return f"[{self.left}, {self.right})"


def _json_int(value: object, field: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """The integer rule of every input reader: an Integral that is not a
    bool (else a TypeError) from lo to hi (else a ValueError)."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        error: type[Exception] = TypeError
    elif lo <= value <= hi:
        return int(value)
    else:
        error = ValueError
    raise error(f'"{field}" must be an integer from {lo} to {hi}, got {value!r}')


def _json_object(
    data: object, field: str, required: Collection[str], optional: Collection[str] = ()
) -> dict:
    """The key rule of every input reader: a dict (else a TypeError) with
    every required key and no other than the optional ones (else a ValueError)."""
    if not isinstance(data, dict):
        raise TypeError(f"{field} must be a JSON object, got {type(data).__name__}")
    for key in required:
        if key not in data:
            raise ValueError(f'{field} lacks the field "{key}"')
    extra = sorted(set(data).difference(required, optional))
    if extra:  # keys as JSON strings, so that the message is one line
        held, allowed = (", ".join(map(json.dumps, k)) for k in (extra, [*required, *optional]))
        raise ValueError(f"{field} holds {held}; only {allowed} may appear")
    return data


def containing_interval(x: PointLike, scale: int) -> DyadicInterval:
    """The dyadic interval of length 2^scale containing x >= 0 (it refuses x < 0)."""
    return DyadicInterval(band_index(x, scale), scale)


def band_index(x: PointLike, scale: int) -> int:
    """Index of the dyadic band of length 2^scale that holds x.

    This is floor(x / 2^scale), decided on integers: one shift for
    x = n 2^e, one floor division for an int or any Fraction.
    """
    if isinstance(x, DyadicRational):
        n, e = x.numerator, x.exponent
        return n << (e - scale) if e >= scale else n >> (scale - e)
    x = _as_fraction(x)
    n, d = x.numerator, x.denominator
    return (n << -scale) // d if scale < 0 else n // (d << scale)


@dataclass(frozen=True)
class _Rectangle:
    """A dyadic time-frequency rectangle, the shared shape of tiles and
    quartiles.  Two meet exactly when both their sides meet."""

    time: DyadicInterval
    freq: DyadicInterval

    def intersects(self, other: "_Rectangle") -> bool:
        return self.time.intersects(other.time) and self.freq.intersects(other.freq)

    def to_json(self) -> dict:
        return {"time": self.time.to_json(), "freq": self.freq.to_json()}

    @classmethod
    def from_json(cls, data: dict):
        _json_object(data, "a rectangle", ("time", "freq"))
        return cls(
            DyadicInterval.from_json(data["time"]), DyadicInterval.from_json(data["freq"])
        )


@dataclass(frozen=True)
class Tile(_Rectangle):
    """An area-one rectangle: time x freq with |time| * |freq| = 1."""

    def __post_init__(self) -> None:
        if self.time.scale + self.freq.scale != 0:
            raise ValueError("tile must have area one")

    @property
    def freq_index(self) -> int:
        """Frequency position in units of |freq| = 1/|time|."""
        return self.freq.index

    def piece_exp(self, resolution_exp: int) -> int:
        """log2 of the cell count of each constant piece of the packet."""
        return piece_exp(self.time.scale, self.freq.index, resolution_exp)


def piece_exp(scale: int, freq_index: int, resolution_exp: int) -> int:
    """log2 of the cell count of each constant piece of a packet.

    The packet of a tile at time scale k with frequency index b has 2^s
    sign pieces, s the bit length of b, over 2^(k + m) cells; a grid of
    cells 2^-m wide resolves it only if every piece spans whole cells.
    """
    exp = scale + resolution_exp - freq_index.bit_length()
    if exp < 0:
        raise ResolutionTooCoarse(f"tile oscillates below cell width 2^-{resolution_exp}")
    return exp


def tiles_disjoint(a: Tile, b: Tile) -> bool:
    return not a.intersects(b)


@dataclass(frozen=True)
class Quartile(_Rectangle):
    """An area-four rectangle whose four subtiles share the time interval."""

    def __post_init__(self) -> None:
        if self.time.scale + self.freq.scale != 2:
            raise ValueError("quartile must have area four")

    def tile(self, i: int) -> Tile:
        """The i-th subtile, i in {1, 2, 3, 4}, frequency increasing with i."""
        if i not in (1, 2, 3, 4):
            raise ValueError("subtile index must be 1, 2, 3 or 4")
        return Tile(
            self.time,
            DyadicInterval(4 * self.freq.index + (i - 1), self.freq.scale - 2),
        )

    def tiles(self) -> tuple[Tile, Tile, Tile, Tile]:
        return tuple(self.tile(i) for i in (1, 2, 3, 4))  # type: ignore[return-value]

    def grandchild_of(self, xi: PointLike) -> int:
        """Which subtile frequency interval contains xi (0 if none)."""
        offset = band_index(xi, self.freq.scale - 2) - 4 * self.freq.index
        return offset + 1 if 0 <= offset < 4 else 0


def quartile_sort_key(q: Quartile) -> tuple[int, int, int]:
    return (q.time.scale, q.time.index, q.freq.index)


def _in_tree(q: Quartile, top_interval: DyadicInterval, top_freq: DyadicRational) -> bool:
    """The tree membership rule: I_P inside I_T and xi_T in omega_P."""
    return (
        top_interval.contains(q.time) and band_index(top_freq, q.freq.scale) == q.freq.index
    )


class Tree:
    """A quartile set with top data (I_T, xi_T).

    Every member P satisfies I_P contained in I_T and xi_T in omega_P.
    """

    __slots__ = ("quartiles", "top_interval", "top_freq")

    def __init__(
        self,
        quartiles: Iterable[Quartile],
        top_interval: DyadicInterval,
        top_freq: DyadicRational | Fraction | int,
    ) -> None:
        top_freq = DyadicRational.from_fraction(top_freq)
        members = frozenset(quartiles)
        for member in members:
            if not _in_tree(member, top_interval, top_freq):
                raise InvalidTree(
                    f"{member.time} x {member.freq} lies outside the tree with top "
                    f"{top_interval} and xi = {top_freq.as_fraction()}"
                )
        self._fill(members, top_interval, top_freq)

    def _fill(
        self, members: frozenset[Quartile], top_interval: DyadicInterval, top_freq: DyadicRational
    ) -> None:
        object.__setattr__(self, "quartiles", members)
        object.__setattr__(self, "top_interval", top_interval)
        object.__setattr__(self, "top_freq", top_freq)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Tree is immutable")

    def __len__(self) -> int:
        return len(self.quartiles)

    def __iter__(self) -> Iterator[Quartile]:
        return iter(self.sorted_quartiles())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return (
            self.quartiles == other.quartiles
            and self.top_interval == other.top_interval
            and self.top_freq == other.top_freq
        )

    def __hash__(self) -> int:
        return hash((self.quartiles, self.top_interval, self.top_freq))

    def sorted_quartiles(self) -> list[Quartile]:
        return sorted(self.quartiles, key=quartile_sort_key)

    @property
    def omega_top(self) -> DyadicInterval:
        scale = -self.top_interval.scale
        return DyadicInterval(band_index(self.top_freq, scale), scale)

    @property
    def top_tile(self) -> Tile:
        return Tile(self.top_interval, self.omega_top)

    def to_json(self) -> dict:
        return {
            "quartiles": [q.to_json() for q in self.sorted_quartiles()],
            "top_interval": self.top_interval.to_json(),
            "xi": self.top_freq.to_text(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Tree":
        _json_object(data, "a tree", ("quartiles", "top_interval", "xi"))
        return cls(
            (Quartile.from_json(item) for item in data["quartiles"]),
            DyadicInterval.from_json(data["top_interval"]),
            DyadicRational.from_text(data["xi"]),
        )

    def __repr__(self) -> str:
        return (
            f"Tree({len(self.quartiles)} quartiles, top={self.top_interval}, "
            f"xi={self.top_freq})"
        )


def maximal_tree(
    quartiles: Iterable[Quartile],
    top_interval: DyadicInterval,
    top_freq: DyadicRational | Fraction | int,
) -> Tree:
    """The largest tree with the given top inside the collection.

    The members pass the membership rule here, so Tree.__init__, which
    would test each of them again, is skipped.
    """
    top_freq = DyadicRational.from_fraction(top_freq)
    tree = object.__new__(Tree)
    tree._fill(
        frozenset(q for q in quartiles if _in_tree(q, top_interval, top_freq)),
        top_interval,
        top_freq,
    )
    return tree
