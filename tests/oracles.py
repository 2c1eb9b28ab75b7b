"""Independent reference computations used to pin down expected values.

Everything here is deliberately naive.  Wave packets are evaluated from
the closed digit-product formula, inner products by summing cells,
variation norms by enumerating all increasing index chains, sizes by
enumerating every subset of a collection that forms a pinned tree,
disjoint draws by testing every candidate against every accepted
quartile and distinct draws by a set of `Quartile`s, each drawn
through `randint` and `randrange`,
linearizations by solving every cell's column on its own, float
packet sums by adding one term's slice at a time, model coefficients
by one `QuadScalar` product of two cell-by-cell pairings per quartile,
the dyadic maximal function by a running maximum over one block size
at a time, the maximal truncated sum by a running maximum down each
cell's column, the identity suite's variation comparison by one tuple of
integer pairs per cell.  The only package imports are the primitive
containers and exact scalars, the one-column weight solver whose
per-cell results the linearization must reproduce, the packet pairing
and resummation that the frequency projection by packets goes through,
and the scalar variation decision that the per-cell comparison shares
with the suite; none of the machinery under test is reused.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm
from typing import Iterable, Sequence

import numpy as np

from walshtf import (
    DyadicInterval,
    Quartile,
    QuadScalar,
    StepFunction,
    Tile,
    ZERO,
    batch_inner_products,
    inv_sqrt_pow2,
    pow2_fraction,
    synthesize,
)
from walshtf.errors import ResolutionTooCoarse, ScaleTooCoarse, ScaleTooFine, ZeroVariation
from walshtf.variation import collapse_repeats, linearize_weights, variation_norm


class FractionQuad:
    """rat + surd*sqrt2 with two `Fraction` parts: the reference scalar.

    Plain rational arithmetic on the two parts, the sign decided on
    Fractions, and floats from a tightening sqrt2 enclosure evaluated
    through `nearest_float`.  `QuadScalar` holds the same values as
    integers over one denominator and must agree with it exactly.
    """

    def __init__(self, rat=0, surd=0) -> None:
        self.rat, self.surd = Fraction(rat), Fraction(surd)

    @classmethod
    def of(cls, value: QuadScalar) -> "FractionQuad":
        return cls(value.rat, value.surd)

    def parts(self) -> tuple[Fraction, Fraction]:
        return self.rat, self.surd

    def __add__(self, other: "FractionQuad") -> "FractionQuad":
        return FractionQuad(self.rat + other.rat, self.surd + other.surd)

    def __sub__(self, other: "FractionQuad") -> "FractionQuad":
        return FractionQuad(self.rat - other.rat, self.surd - other.surd)

    def __mul__(self, other: "FractionQuad") -> "FractionQuad":
        return FractionQuad(
            self.rat * other.rat + 2 * self.surd * other.surd,
            self.rat * other.surd + self.surd * other.rat,
        )

    def __truediv__(self, other: "FractionQuad") -> "FractionQuad":
        # 1/(a + b sqrt2) = (a - b sqrt2)/(a^2 - 2 b^2)
        norm = other.rat * other.rat - 2 * other.surd * other.surd
        return FractionQuad(
            (self.rat * other.rat - 2 * self.surd * other.surd) / norm,
            (self.surd * other.rat - self.rat * other.surd) / norm,
        )

    def __pow__(self, power: int) -> "FractionQuad":
        result = FractionQuad(1)
        for _ in range(power):
            result = result * self
        return result

    def sign(self) -> int:
        return fraction_quad_sign(self.rat, self.surd)

    def to_float(self) -> float:
        if not self.surd:
            return nearest_float(self.rat)
        for bits in (64, 128, 256, 512):
            root = isqrt(2 << (2 * bits))
            lo, hi = Fraction(root, 1 << bits), Fraction(root + 1, 1 << bits)
            if self.surd > 0:
                a, b = self.rat + self.surd * lo, self.rat + self.surd * hi
            else:
                a, b = self.rat + self.surd * hi, self.rat + self.surd * lo
            if nearest_float(a) == nearest_float(b):
                return nearest_float(a)
        return nearest_float((a + b) / 2)

    def to_text(self) -> str:
        return (
            f"{self.rat.numerator}/{self.rat.denominator}"
            f"{self.surd.numerator:+d}/{self.surd.denominator}*sqrt2"
        )


def nearest_float(x: Fraction) -> float:
    """The float nearest x, ±inf where `float(x)` raises OverflowError.

    From 2^1000 on, x is scaled by 2^-100 first.  Rounding to 53 bits
    commutes with a power-of-two scale, and the float product with
    2^100 is infinite exactly when the rounded value reaches 2^1024.
    """
    if abs(x) < 1 << 1000:
        return float(x)
    if abs(x) >= 1 << 1100:
        return math.inf if x > 0 else -math.inf
    return float(x / (1 << 100)) * 2.0**100


def fraction_quad_sign(rat: Fraction, surd: Fraction) -> int:
    """Sign of rat + surd*sqrt2 decided on the rational parts."""
    if not surd:
        return (rat > 0) - (rat < 0)
    if not rat:
        return 1 if surd > 0 else -1
    if rat > 0 and surd > 0:
        return 1
    if rat < 0 and surd < 0:
        return -1
    # Mixed signs: rat^2 = 2 surd^2 has no rational solution with surd != 0.
    if rat > 0:
        return 1 if rat * rat > 2 * surd * surd else -1
    return -1 if rat * rat > 2 * surd * surd else 1


def walsh_closed_form(index: int, t: Fraction) -> int:
    """Sign of the index-th Walsh function at t in [0, 1), Paley order.

    The sign flips once for every set bit of the index whose matching
    binary digit of t is one.
    """
    if not 0 <= t < 1:
        raise ValueError("argument must lie in [0, 1)")
    sign = 1
    s = 0
    n = index
    while n:
        if n & 1:
            digit = int(t * (1 << (s + 1))) & 1
            if digit:
                sign = -sign
        n >>= 1
        s += 1
    return sign


def packet_value(tile: Tile, x: Fraction) -> QuadScalar:
    """Closed-form wave packet of a tile at the point x."""
    if not tile.time.contains_point(x):
        return ZERO
    t = (Fraction(x) - tile.time.left) / tile.time.length
    sign = walsh_closed_form(tile.freq.index, t)
    value = inv_sqrt_pow2(tile.time.scale)
    return value if sign > 0 else -value


def packet_step(tile: Tile, domain_exp: int, resolution_exp: int) -> StepFunction:
    """Closed-form wave packet sampled on the grid, one value per cell."""
    width = pow2_fraction(-resolution_exp)
    values = [
        packet_value(tile, c * width)
        for c in range(1 << (domain_exp + resolution_exp))
    ]
    return StepFunction(domain_exp, resolution_exp, values)


class CellFunction:
    """A step function as a plain list of QuadScalars, one per cell.

    The reference for `StepFunction`'s grid algebra: every operation is
    a loop over cells in QuadScalar arithmetic, with no integer planes.
    """

    def __init__(self, domain_exp: int, resolution_exp: int, values: Sequence) -> None:
        self.domain_exp = domain_exp
        self.resolution_exp = resolution_exp
        self.values = [QuadScalar.coerce(v) for v in values]
        assert len(self.values) == 1 << (domain_exp + resolution_exp)

    def _like(self, values: Sequence) -> "CellFunction":
        return CellFunction(self.domain_exp, self.resolution_exp, values)

    def __add__(self, other: "CellFunction") -> "CellFunction":
        return self._like([a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "CellFunction") -> "CellFunction":
        return self._like([a - b for a, b in zip(self.values, other.values)])

    def __neg__(self) -> "CellFunction":
        return self._like([-a for a in self.values])

    def __mul__(self, other) -> "CellFunction":
        if isinstance(other, CellFunction):
            return self._like([a * b for a, b in zip(self.values, other.values)])
        c = QuadScalar.coerce(other)
        return self._like([a * c for a in self.values])

    def average(self, scale: int) -> "CellFunction":
        block = 1 << (scale + self.resolution_exp)
        out = []
        for start in range(0, len(self.values), block):
            total = ZERO
            for v in self.values[start : start + block]:
                total = total + v
            out.extend([total * Fraction(1, block)] * block)
        return self._like(out)

    def dot(self, other: "CellFunction") -> QuadScalar:
        total = ZERO
        for a, b in zip(self.values, other.values):
            total = total + a * b
        return total * pow2_fraction(-self.resolution_exp)

    def integral(self) -> QuadScalar:
        total = ZERO
        for v in self.values:
            total = total + v
        return total * pow2_fraction(-self.resolution_exp)

    def dilate(self, shift: int) -> "CellFunction":
        return CellFunction(self.domain_exp - shift, self.resolution_exp + shift, self.values)

    def restrict(self, interval: DyadicInterval) -> "CellFunction":
        lo, hi = interval.cell_range(self.resolution_exp)
        return self._like([v if lo <= j < hi else ZERO for j, v in enumerate(self.values)])

    def lift(self) -> tuple[list[int], list[int], int]:
        """(rats, surds, d): d the lcm of every part's denominator."""
        d = lcm(*(q.denominator for v in self.values for q in (v.rat, v.surd)))
        return (
            [int(v.rat * d) for v in self.values],
            [int(v.surd * d) for v in self.values],
            d,
        )

    def floats(self) -> list[float]:
        return [v.to_float() for v in self.values]


def inner_product_brute(f: StepFunction, tile: Tile) -> QuadScalar:
    """Pairing of a step function with a closed-form packet, cell by cell."""
    width = pow2_fraction(-f.resolution_exp)
    total = ZERO
    for c, v in enumerate(f.values):
        if not v:
            continue
        p = packet_value(tile, c * width)
        if p:
            total = total + v * p * width
    return total


def brute_variation_power(values: Sequence, r) -> Fraction | float:
    """Largest sum of r-th powers of increments over all index chains.

    With integer r the answer is exact: the values are read as exact
    rationals, the chains are enumerated on the integers D * v, where D
    is the values' common denominator, and the best sum is returned
    over D^r.  Otherwise floats are used.  Constant sequences give
    zero.
    """
    n = len(values)
    exact = isinstance(r, int) or (isinstance(r, Fraction) and r.denominator == 1)
    if exact:
        fractions = [Fraction(v) for v in values]
        scale = lcm(1, *(v.denominator for v in fractions))
        points = [v.numerator * (scale // v.denominator) for v in fractions]
        power = [[abs(b - a) ** int(r) for b in points] for a in points]
    else:
        power = [[abs(float(b - a)) ** float(r) for b in values] for a in values]
    best: int | float = 0 if exact else 0.0
    for mask in range(3, 1 << n):
        if mask & (mask - 1) == 0:
            continue
        chain = [i for i in range(n) if mask >> i & 1]
        total = sum(power[a][b] for a, b in zip(chain, chain[1:]))
        if total > best:
            best = total
    return Fraction(best, scale ** int(r)) if exact else best


def dp_on_every_column(field: np.ndarray, r: float) -> np.ndarray:
    """The variation recursion of `batch_variation` on every row of
    every column: no run of equal columns shares one recursion, no
    repeated row is dropped and no column is rescaled."""
    t, _ = field.shape
    if r == math.inf:
        return np.max(field, axis=0) - np.min(field, axis=0)
    suffix = np.zeros_like(field)
    for i in range(t - 2, -1, -1):
        gains = np.abs(field[i + 1 :] - field[i]) ** r + suffix[i + 1 :]
        suffix[i] = np.max(gains, axis=0)
    powers = np.max(suffix, axis=0)
    return powers ** (1.0 / r)


def sup_by_cell(field) -> StepFunction:
    """The maximal truncated sum of a `TruncationField`: the largest
    |row value| of each cell, by one exact comparison per row."""
    rows = field.rows
    out = []
    for cell in range(rows[0].cell_count):
        best = ZERO
        for row in rows:
            a = abs(row.values[cell])
            if a > best:
                best = a
        out.append(best)
    return StepFunction(field.domain_exp, field.resolution_exp, out)


def per_column_linearization(
    rows: np.ndarray, scale_min: int, r: float, grid_exp: int = 16
) -> tuple[list[tuple[int, ...]], list[tuple[QuadScalar, ...]]]:
    """Jump scales and snapped weights of every cell, one column at a time.

    rows is the float truncation field, one row per cut from scale_min
    up.  Each column is solved on its own, however many columns equal
    it, and each weight rounded toward zero to a multiple of
    2^-grid_exp; a column without variation gets no window.
    """
    grid = 1 << grid_exp
    cell_jumps, cell_weights = [], []
    for column in rows.T.tolist():
        try:
            chain, weights = linearize_weights(column, r)
        except ZeroVariation:
            cell_jumps.append((scale_min,))
            cell_weights.append(())
            continue
        cell_jumps.append(tuple(scale_min + idx + 1 for idx in chain))
        cell_weights.append(
            tuple(QuadScalar.from_ints(math.trunc(-w * grid), 0, grid) for w in weights)
        )
    return cell_jumps, cell_weights


def _common_ancestor(intervals: Sequence[DyadicInterval], domain_exp: int) -> DyadicInterval:
    """Smallest dyadic interval in the domain containing all the inputs."""
    first = intervals[0]
    for s in range(first.scale, domain_exp + 1):
        candidate = first.ancestor_at(s)
        if all(candidate.contains(iv) for iv in intervals):
            return candidate
    raise ValueError("intervals escape the domain")


def _nested_chain(bands: Sequence[DyadicInterval]) -> bool:
    """Whether every pair of bands is nested one way or the other."""
    for a, b in combinations(bands, 2):
        if not (a.contains(b) or b.contains(a)):
            return False
    return True


def brute_size_sq(
    quartiles: Iterable[Quartile],
    f: StepFunction,
    slot: int,
    domain_exp: int,
) -> QuadScalar:
    """Exhaustive square size: every subset that forms a pinned tree.

    A subset qualifies for pinning slot j when its j-th subtile bands
    form a nested chain; the common point of the chain serves as the
    top frequency, the smallest dyadic ancestor of the member times as
    the top interval.  The reported value is the largest slot square
    mass divided by that ancestor's length.  Growing the top interval
    only dilutes the mass, so ancestors beyond the smallest are not
    tried.
    """
    members = sorted(set(quartiles), key=lambda q: (q.time.scale, q.time.index, q.freq.index))
    coeff = {q: inner_product_brute(f, q.tile(slot)) for q in members}
    best = ZERO
    for count in range(1, len(members) + 1):
        for subset in combinations(members, count):
            eligible = False
            for j in (1, 2, 3, 4):
                if j == slot:
                    continue
                if _nested_chain([q.tile(j).freq for q in subset]):
                    eligible = True
                    break
            if not eligible:
                continue
            top = _common_ancestor([q.time for q in subset], domain_exp)
            mass = ZERO
            for q in subset:
                mass = mass + coeff[q].square()
            density = mass * (Fraction(1) / top.length)
            if density > best:
                best = density
    return best


def naive_disjoint_collection(
    rng: random.Random, count: int, domain_exp: int, resolution_exp: int
) -> list[Quartile]:
    """Pairwise disjoint quartiles, each candidate tested against every
    accepted one: the reference the indexed `disjoint_collection` must
    reproduce draw for draw."""
    out: list[Quartile] = []
    budget = 300 * count + 300
    area_exp = domain_exp + resolution_exp
    if area_exp >= 2 and count > 1 << (area_exp - 2):
        budget = 0
    while len(out) < count:
        if budget == 0:
            raise RuntimeError(
                f"could not place {count} disjoint quartiles "
                f"in a (J={domain_exp}, m={resolution_exp}) box"
            )
        budget -= 1
        q = reference_random_quartile(rng, domain_exp, resolution_exp)
        if not any(q.intersects(p) for p in out):
            out.append(q)
    return out


def naive_quartile_collection(
    rng: random.Random, count: int, domain_exp: int, resolution_exp: int
) -> list[Quartile]:
    """Distinct quartiles, each candidate looked up in a set of the
    `Quartile`s kept so far: the reference `quartile_collection` must
    reproduce draw for draw."""
    seen: set[Quartile] = set()
    out: list[Quartile] = []
    budget = 60 * count + 60
    area_exp = domain_exp + resolution_exp
    if area_exp >= 2 and count > (area_exp - 1) << (area_exp - 2):
        budget = 0
    while len(out) < count and budget:
        budget -= 1
        q = reference_random_quartile(rng, domain_exp, resolution_exp)
        if q not in seen:
            seen.add(q)
            out.append(q)
    if len(out) < count:
        raise RuntimeError(
            f"could not draw {count} distinct quartiles "
            f"in a (J={domain_exp}, m={resolution_exp}) box"
        )
    return out


def reference_random_quartile(
    rng: random.Random, domain_exp: int, resolution_exp: int
) -> Quartile:
    """A scale by `randint`, then a time and a frequency index by
    `randrange`: the stream `random_quartile` must reproduce."""
    lo, hi = 2 - resolution_exp, domain_exp
    if lo > hi:
        raise ValueError("a box with J + m < 2 holds no quartile")
    k = rng.randint(lo, hi)
    time = DyadicInterval(rng.randrange(1 << (domain_exp - k)), k)
    freq = DyadicInterval(rng.randrange(1 << (resolution_exp + k - 2)), 2 - k)
    return Quartile(time, freq)


def walsh_pattern_by_doubling(freq_index: int) -> np.ndarray:
    """The 2^s signs of a Walsh function, s the bit length of the index.

    Built by the doubling rules, most significant bit first: a one bit
    appends the pattern negated, a zero bit appends it again.
    """
    pattern = np.ones(1, np.int64)
    for position in range(freq_index.bit_length() - 1, -1, -1):
        tail = -pattern if (freq_index >> position) & 1 else pattern
        pattern = np.concatenate((pattern, tail))
    return pattern


def float_packet_sums_by_term(
    terms: Sequence[tuple[int, Tile, float]], rows: int, domain_exp: int, resolution_exp: int
) -> np.ndarray:
    """Float truncation rows adding one term's slice at a time.

    Each nonzero term is checked for resolvability, then its doubling
    pattern, clipped to the box and weighted by c 2^(-k/2), is added to
    its row with one `+=`; row j of the result sums rows j and up.
    """
    cells = 1 << (domain_exp + resolution_exp)
    plane = np.zeros((rows, cells))
    for row, tile, c in terms:
        if not c:
            continue
        k, b = tile.time.scale, tile.freq.index
        piece = k + resolution_exp - b.bit_length()
        if piece < 0:
            raise ResolutionTooCoarse(f"tile oscillates below cell width 2^-{resolution_exp}")
        lo, hi = tile.time.cell_range(resolution_exp)
        a, stop = lo, max(lo, min(hi, cells))
        if row >= 0:
            signs = walsh_pattern_by_doubling(b)[(np.arange(a, stop) - lo) >> piece]
            plane[row, a:stop] += signs * (c * 2.0 ** (-k / 2.0))
    return np.cumsum(plane[::-1], axis=0)[::-1]


def model_coefficients_by_tile(
    f1: StepFunction, f2: StepFunction, quartiles: Sequence[Quartile]
) -> list[QuadScalar]:
    """|I_P|^(-1/2) <f1, phi_P1> <f2, phi_P2> per quartile: two pairings
    cell by cell against the closed-form packets (`inner_product_brute`,
    no tables) and one `QuadScalar` product."""
    return [
        inner_product_brute(f1, q.tile(1))
        * inner_product_brute(f2, q.tile(2))
        * inv_sqrt_pow2(q.time.scale)
        for q in quartiles
    ]


def weight_at(lin, cell: int, scale: int) -> QuadScalar:
    """The weight of one cell at one scale: a scan of its class's windows."""
    jumps, weights = lin.windows[lin.cell_class[cell]]
    for t in range(len(weights)):
        if jumps[t] <= scale < jumps[t + 1]:
            return weights[t]
    return ZERO


def weight_field_by_cell(lin, scale: int):
    """A linearization's weights at one scale, one `weight_at` per cell."""
    cells = range(1 << (lin.domain_exp + lin.resolution_exp))
    weights = [weight_at(lin, c, scale) for c in cells]
    return StepFunction(lin.domain_exp, lin.resolution_exp, weights).field


def maximal_by_block(values: np.ndarray, q: float) -> np.ndarray:
    """The dyadic maximal function of |values|^q, then the q-th root:
    a running `np.maximum` over one reshape-mean per block size."""
    arr = np.abs(values) ** q
    best = arr.copy()
    block = 2
    while block <= len(arr):
        means = arr.reshape(-1, block).mean(axis=1)
        best = np.maximum(best, np.repeat(means, block))
        block *= 2
    return best ** (1.0 / q)


def projection_by_packets(f: StepFunction, freqs, scale: int) -> StepFunction:
    """The frequency projection as a packet sum: every tile at the time
    scale over a band of `freqs.covering(-scale)` paired with f in one
    `batch_inner_products` call, and the pairs resummed by `synthesize`."""
    if scale < -f.resolution_exp:
        raise ScaleTooFine(f"no structure below cell width 2^-{f.resolution_exp}")
    if scale > f.domain_exp:
        raise ScaleTooCoarse(f"box only spans 2^{f.domain_exp}")
    tiles = [
        Tile(DyadicInterval(n, scale), omega)
        for omega in freqs.covering(-scale)
        for n in range(1 << (f.domain_exp - scale))
    ]
    coeffs = batch_inner_products(f, tiles)
    return synthesize(coeffs.items(), f.domain_exp, f.resolution_exp)


def cell_columns(
    functions: Sequence[StepFunction],
) -> tuple[list[tuple[tuple[int, int], ...]], int]:
    """Each cell's values down the functions, as integer pairs over one denominator.

    Returns the columns and that denominator d, the lcm of the
    functions' own: equal pairs are equal values, and a pair (r, s)
    has the value `QuadScalar.from_ints(r, s, d)`.
    """
    d = math.lcm(*(f.field.denominator for f in functions))
    lifted = []
    for f in functions:
        field = f.field
        scale = d // field.denominator
        lifted.append(
            [(r * scale, s * scale) for r, s in zip(field.rat.tolist(), field.surd.tolist())]
        )
    return list(zip(*lifted)), d


def same_variation_by_cell(
    strict: list[StepFunction], conjugated: list[StepFunction], exact_r
) -> bool:
    """The identity suite's variation check, one column per cell: every
    cell whose column down strict differs from its column down
    conjugated compares the collapsed columns, then their exact r-th
    power sums."""
    ok_var = True
    by_cell, unit = cell_columns(strict + conjugated)
    for column in by_cell:
        col_a, col_b = column[: len(strict)], column[len(strict) :]
        if col_a == col_b:
            continue
        seq_a = collapse_repeats(col_a)
        seq_b = collapse_repeats(col_b)
        if seq_a == seq_b:
            continue
        pa = variation_norm([QuadScalar.from_ints(r, s, unit) for r, s in seq_a], exact_r).power_sum
        pb = variation_norm([QuadScalar.from_ints(r, s, unit) for r, s in seq_b], exact_r).power_sum
        if pa != pb:
            ok_var = False
            break
    return ok_var
