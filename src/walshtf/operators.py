"""Averaging, projection and truncation operators on grid functions.

The truncation machinery is the heart: packet sums cut at a running
scale give one sequence per grid cell, whose supremum and r-variation
define the maximal and variational operators the experiments probe.
Linearizations turn those per-cell variation certificates back into
weights that can be paired exactly inside the trilinear form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from . import kernels
from .errors import GridMismatch, ScaleTooCoarse, ScaleTooFine, ZeroVariation
from .exact import ONE, ZERO, QuadScalar, ScalarLike, common_lift, dyadic, over_sqrt_pow2
from .geometry import DyadicInterval, Quartile, Tile, band_index, quartile_sort_key
from .variation import linearize_weights
from .wavepacket import StepFunction, batch_inner_products, tree_sign_step

__all__ = [
    "FrequencySet",
    "average",
    "maximal",
    "freq_projection",
    "TruncationField",
    "partial_sum_field",
    "Linearization",
    "optimal_linearization",
    "tilde_coefficients",
    "slot_coefficients",
    "lambda_form",
    "model_coefficients",
    "model_terms",
]

TermList = Iterable[tuple[Quartile, ScalarLike]]


class FrequencySet:
    """A finite set of dyadic frequencies, kept sorted and deduplicated."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable[Union[Fraction, int]]) -> None:
        coerced = {dyadic(p) for p in points}
        if any(p.numerator < 0 for p in coerced):
            raise ValueError("frequencies live on the positive half-line")
        object.__setattr__(self, "points", tuple(sorted(coerced)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FrequencySet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.points)

    def covering(self, scale: int) -> list[DyadicInterval]:
        """Distinct dyadic intervals of the given scale meeting the set."""
        return [
            DyadicInterval(index, scale)
            for index in sorted({band_index(p, scale) for p in self.points})
        ]

    def count_at(self, scale: int) -> int:
        return len(self.covering(scale))

    def __repr__(self) -> str:
        return f"FrequencySet({len(self.points)} points)"


def _require_grid_scale(f: StepFunction, scale: int) -> None:
    """Refuse a scale finer than f's cells or coarser than its box."""
    if scale < -f.resolution_exp:
        raise ScaleTooFine(f"no structure below cell width 2^-{f.resolution_exp}")
    if scale > f.domain_exp:
        raise ScaleTooCoarse(f"box only spans 2^{f.domain_exp}")


def average(f: StepFunction, scale: int) -> StepFunction:
    """Replace f by its mean on each dyadic interval of length 2^scale.

    Scales finer than the grid cells are meaningless here, and scales
    coarser than the box would average across a boundary the grid
    cannot see, so both are rejected.
    """
    _require_grid_scale(f, scale)
    block = 1 << (scale + f.resolution_exp)
    return StepFunction._from_field(kernels.field_average(f.field, block))


def maximal(f: StepFunction, q: float = 1.0) -> np.ndarray:
    """Dyadic maximal function of |f|^q, then the q-th root.

    At each point this is the largest average of |f|^q over a dyadic
    interval of the grid containing it, raised to 1/q.  The cell values
    come back as a read-only float64 array.
    """
    if q <= 0:
        raise ValueError("maximal exponent must be positive")
    ladder = kernels.average_ladder(np.abs(f.to_float_array()) ** q)
    best = ladder.max(axis=0) ** (1.0 / q)
    best.setflags(write=False)
    return best


def freq_projection(
    f: StepFunction, freqs: FrequencySet, scale: int
) -> StepFunction:
    """Project f onto packets at one time scale near the given frequencies.

    Each dyadic frequency interval of length 2^-scale that meets the set
    adds its packets over all time intervals of length 2^scale, each
    times its pairing with f: the modulated average w * E(w * f), E the
    average at that scale and w the +-1 signs of the box packet at
    frequency index omega 2^(J - scale), the band's pattern repeated on
    every such interval.  With the single frequency zero this is plain
    averaging; a band finer than the cells is refused.
    """
    _require_grid_scale(f, scale)
    domain_exp, resolution_exp = f.domain_exp, f.resolution_exp
    box = DyadicInterval(0, domain_exp)
    total = StepFunction.zero(domain_exp, resolution_exp)
    for omega in freqs.covering(-scale):
        top = Tile(box, DyadicInterval(omega.index << (domain_exp - scale), -domain_exp))
        w = tree_sign_step(top, domain_exp, resolution_exp)
        total = total + w * average(w * f, scale)
    return total


class TruncationField:
    """Partial packet sums cut at every scale, one row per cut.

    Row j is the sum of terms whose time interval is strictly longer
    than 2^k, k = scale_min + j; the top row is an empty sum, so every
    per-cell sequence starts life anchored at zero.
    """

    __slots__ = ("scale_min", "rows")

    def __init__(self, scale_min: int, rows: Sequence[StepFunction]) -> None:
        if not rows:
            raise ValueError("a truncation field needs at least one row")
        object.__setattr__(self, "scale_min", scale_min)
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncationField is immutable")

    @property
    def domain_exp(self) -> int:
        return self.rows[0].domain_exp

    @property
    def resolution_exp(self) -> int:
        return self.rows[0].resolution_exp

    @property
    def scale_max(self) -> int:
        return self.scale_min + len(self.rows) - 1

    def row_at(self, k: int) -> StepFunction:
        if not self.scale_min <= k <= self.scale_max:
            raise ScaleTooCoarse(f"no row at scale {k}")
        return self.rows[k - self.scale_min]

    def to_array(self) -> np.ndarray:
        return np.vstack([row.to_float_array() for row in self.rows])


def partial_sum_field(
    terms: TermList,
    subtile_index: int,
    domain_exp: int,
    resolution_exp: int,
) -> TruncationField:
    """Assemble the truncated sums of packet terms at every cut scale, exactly."""
    exact = ((q, QuadScalar.coerce(c)) for q, c in terms)
    rows = kernels.truncated_sums(exact, subtile_index, domain_exp, resolution_exp)
    return TruncationField(-resolution_exp, [StepFunction._from_field(row) for row in rows])


class Linearization:
    """Scale windows and weights standing in for a variation sup, per class of cells.

    Every cell belongs to one class (`cell_class`, a read-only int64
    array), and each class holds jump scales k_0 < ... < k_N and N
    weights (`windows`, one pair per class); a term at time scale k
    picks up the weight of the window [k_t, k_{t+1}) containing k, or
    zero outside all windows.  Cells that share their windows share a
    class, so the windows are held and checked once per class.

    Every weight-modified pairing `tilde_coefficients` has computed is
    memoised for the lifetime of the object, keyed on the function's
    value (its integer field) and the quartile.  The memo holds exact
    values and changes no result; it only saves recomputing one.
    """

    __slots__ = ("domain_exp", "resolution_exp", "cell_class", "windows", "_tilde")

    def __init__(
        self,
        domain_exp: int,
        resolution_exp: int,
        cell_class: Sequence[int] | np.ndarray,
        windows: Sequence[tuple[Sequence[int], Sequence[QuadScalar]]],
    ) -> None:
        classes = np.array(cell_class).astype(np.int64, casting="safe")
        if classes.shape != (1 << (domain_exp + resolution_exp),):
            raise GridMismatch("one class index per cell")
        windows = tuple((tuple(jumps), tuple(weights)) for jumps, weights in windows)
        # A negative index would wrap silently under numpy indexing.
        if classes.min() < 0 or classes.max() >= len(windows):
            raise ValueError("a class index names no window pair")
        for jumps, weights in windows:
            if len(jumps) != len(weights) + 1:
                raise ValueError("need exactly one more jump than weights")
            if any(a >= b for a, b in zip(jumps, jumps[1:])):
                raise ValueError("jump scales must increase strictly")
        classes.flags.writeable = False
        object.__setattr__(self, "domain_exp", domain_exp)
        object.__setattr__(self, "resolution_exp", resolution_exp)
        object.__setattr__(self, "cell_class", classes)
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "_tilde", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Linearization is immutable")

    def weight_field(self, scale: int) -> kernels.IntegerField:
        """The cell weights at one scale as integer planes.

        Each class's weight at the scale, zero where no window reaches
        it, is lifted once over one common denominator, and the cells
        take their class's integers by one index into the planes.
        """
        weights = [
            next((w for t, w in enumerate(ws) if js[t] <= scale < js[t + 1]), ZERO)
            for js, ws in self.windows
        ]
        rats, surds, d = common_lift(weights)
        return kernels.IntegerField.canonical(
            kernels._as_plane(rats)[self.cell_class],
            kernels._as_plane(surds)[self.cell_class],
            d,
            self.domain_exp,
            self.resolution_exp,
        )

    @classmethod
    def trivial(cls, domain_exp: int, resolution_exp: int) -> "Linearization":
        """One window covering every usable scale, with weight one."""
        cells = 1 << (domain_exp + resolution_exp)
        window = ((-resolution_exp, domain_exp + 1), (ONE,))
        return cls(domain_exp, resolution_exp, np.zeros(cells, np.int64), [window])

    def __repr__(self) -> str:
        windows = max(len(weights) for _, weights in self.windows)
        return (
            f"Linearization(J={self.domain_exp}, m={self.resolution_exp}, "
            f"{len(self.windows)} classes, max {windows} windows)"
        )


_WEIGHT_GRID_EXP = 16


def optimal_linearization(
    terms: TermList, r: float, domain_exp: int, resolution_exp: int
) -> Linearization:
    """Weights realising each cell's r-variation, snapped to a dyadic grid.

    The sums are those of the terms' slot-3 packets, the slot that
    `tilde_coefficients` reweights.  Per cell, the maximising chain of
    the truncated sums, in floats (the correctly rounded values of the
    exact sums), yields dual weights; bracketed window sums run against
    the scale direction, so the weights change sign, and each is then
    rounded toward zero to a multiple of 2^-_WEIGHT_GRID_EXP.  Rounding toward zero keeps the
    conjugate power of every cell's weights at most one.  A cell whose
    sums never change gets no window.

    The chain and the weights are solved once per distinct column of
    the float field, and every cell whose column has the same bytes
    shares that solve as its class: the solve is a function of those
    bytes alone, so columns are grouped by bytes, not by value.
    """
    field = partial_sum_field(terms, 3, domain_exp, resolution_exp)
    columns = np.ascontiguousarray(field.to_array().T)
    keys = columns.view(np.dtype((np.void, columns.itemsize * columns.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    windows = [_column_windows(columns[i].tolist(), r, field.scale_min) for i in first]
    return Linearization(domain_exp, resolution_exp, inverse, windows)


def _column_windows(
    column: list[float], r: float, scale_min: int
) -> tuple[tuple[int, ...], tuple[QuadScalar, ...]]:
    """The jump scales and snapped weights of one cell's truncated sums."""
    try:
        chain, weights = linearize_weights(column, r)
    except ZeroVariation:
        return (scale_min,), ()
    grid = 1 << _WEIGHT_GRID_EXP
    jumps = tuple(scale_min + idx + 1 for idx in chain)
    snapped = tuple(QuadScalar.from_ints(math.trunc(-w * grid), 0, grid) for w in weights)
    return jumps, snapped


def tilde_coefficients(
    f: StepFunction,
    quartiles: Iterable[Quartile],
    linearization: Linearization,
) -> dict[Quartile, QuadScalar]:
    """Pairings of f with weight-modified slot-3 packets, grouped per scale.

    The modified packet of a quartile is its third subtile's packet,
    the one the truncated form linearizes, times the cell-wise
    linearization weight at the quartile's scale; since that weight
    field is shared by all quartiles of one scale, f's integer planes
    are multiplied by it once per scale, and the quartiles of the scale
    are read from the tables of the product in one call.

    Every pairing is memoised on the linearization for its lifetime,
    keyed on f's value (its integer field, so an equal function hits
    the same entries) and the quartile.  A scale's product table is
    built only when a requested quartile of that scale has no entry
    yet, and dropped once those are read, so the memo holds one scalar
    per pairing asked for and no table.
    """
    lin = linearization
    if (f.domain_exp, f.resolution_exp) != (lin.domain_exp, lin.resolution_exp):
        raise GridMismatch("f and the linearization live on different grids")
    memo = lin._tilde.setdefault(f.field, {})
    quartiles = list(quartiles)
    missing: dict[int, list[Quartile]] = {}
    for q in quartiles:
        if q not in memo:
            missing.setdefault(q.time.scale, []).append(q)
    for k, group in missing.items():
        tables = kernels.WalshTables(
            kernels.field_product(f.field, lin.weight_field(k))
        )
        values = tables.pairings(
            [k] * len(group),
            [q.time.index for q in group],
            [4 * q.freq.index + 2 for q in group],
        )
        memo.update(zip(group, values))
    return {q: memo[q] for q in quartiles}


def slot_coefficients(
    f: StepFunction,
    quartiles: Iterable[Quartile],
    slot: int,
    linearization: Linearization | None = None,
) -> dict[Quartile, QuadScalar]:
    """<f, phi_{P_slot}> of every quartile P, exactly, keyed by quartile.

    These are the coefficients that size, tree selection and the
    trilinear form read.  A linearization reweights slot three, where
    the pairings are `tilde_coefficients`; the other slots ignore it and
    read every packet in one `batch_inner_products` call.  A repeated
    quartile is read once.
    """
    members = list(dict.fromkeys(quartiles))
    if slot == 3 and linearization is not None:
        return tilde_coefficients(f, members, linearization)
    # Distinct quartiles have distinct tiles in one slot, so the values
    # come back one per member, in order.
    paired = batch_inner_products(f, [q.tile(slot) for q in members])
    return dict(zip(members, paired.values()))


def lambda_form(
    quartiles: Iterable[Quartile],
    f1: StepFunction,
    f2: StepFunction,
    f3: StepFunction,
    linearization: Linearization | None = None,
) -> QuadScalar:
    """The trilinear packet form over a quartile collection.

    Each quartile contributes its model coefficient, |I|^{-1/2} times
    the pairings of f1 and f2 with its first and second subtile packets
    (`model_coefficients`), times its slot-3 coefficient of f3
    (`slot_coefficients`, weight-modified when a linearization is
    given).  Everything is exact, a quartile outside the box is refused
    as `model_coefficients` refuses it, and a repeated quartile counts
    once.
    """
    quartiles = list(dict.fromkeys(quartiles))
    thirds = slot_coefficients(f3, quartiles, 3, linearization)
    total = ZERO
    for q, (r, s, d) in zip(quartiles, model_coefficients(f1, f2, quartiles)):
        c = thirds[q]
        if (r or s) and c:
            total = total + QuadScalar.from_ints(r, s, d) * c
    return total


def model_coefficients(
    f1: StepFunction, f2: StepFunction, quartiles: Sequence[Quartile]
) -> list[tuple[int, int, int]]:
    """|I_P|^(-1/2) <f1, phi_P1> <f2, phi_P2> of every quartile P, exactly.

    Each coefficient comes back as the integers (r, s, d) of
    (r + s sqrt2) / d, not reduced, in the order the quartiles are
    given.  The slot 1 and slot 2 pairings are one whole-array read
    each (`WalshTables.read`), and a quartile whose entries lie outside
    the tables, outside the box or past the grid, is refused.  Each read
    carries 2^(-e/2) / d_i and the quartile 2^(-k/2), so with
    (u_r + u_s sqrt2)(v_r + v_s sqrt2) = a + b sqrt2 the coefficient is
    (a + b sqrt2) 2^(-(2e + k)/2) / (d1 d2), brought to integers by
    `exact.over_sqrt_pow2`.
    """
    f1._require_same_grid(f2)
    if not quartiles:
        return []
    scales = [q.time.scale for q in quartiles]
    indices = [q.time.index for q in quartiles]
    firsts = [4 * q.freq.index for q in quartiles]
    seconds = [b + 1 for b in firsts]
    kernels._require_in_tables(f1.field, scales, indices, seconds)
    ur, us, exps = f1.packet_tables().read(scales, indices, firsts)
    vr, vs, _ = f2.packet_tables().read(scales, indices, seconds)
    big = max(int(np.abs(p).max()) for p in (ur, us, vr, vs))
    if 4 * big * big >= 1 << 63:
        ur, us, vr, vs = (p.astype(object) for p in (ur, us, vr, vs))
    a, b = ur * vr + 2 * us * vs, ur * vs + us * vr
    d = f1.field.denominator * f2.field.denominator
    return [
        over_sqrt_pow2(r, s, d, 2 * e + k)
        for r, s, e, k in zip(a.tolist(), b.tolist(), exps, scales)
    ]


def model_terms(
    f1: StepFunction,
    f2: StepFunction,
    quartiles: Iterable[Quartile],
) -> list[tuple[Quartile, QuadScalar]]:
    """Each distinct quartile with its model coefficient, sorted by quartile.

    The coefficient carries the packet normalisation |I_P|^(-1/2), so
    the partial sums of these terms are the ones the trilinear form
    pairs against, and a linearization built on them is the one
    lambda_form expects.
    """
    members = sorted(set(quartiles), key=quartile_sort_key)
    coefficients = model_coefficients(f1, f2, members)
    return [(q, QuadScalar.from_ints(*c)) for q, c in zip(members, coefficients)]
