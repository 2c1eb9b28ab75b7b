"""Sizes of quartile collections and the greedy tree selection built on them.

The size of a collection in one packet slot is the largest square
coefficient mass per unit top length carried by any tree pinned through
one of the other slots.  Selection repeatedly strips the extremal tree
whose density still clears a quarter of the allowance, leaving a thin
residual.  The module also counts tree tops, extracts the level trees
of a counting function, and evaluates John-Nirenberg style quantities
of a weighted family.

Size, selection and the quadratic John-Nirenberg quantity decide on
exact integer masses of coefficient maps; size and selection take
theirs as `operators.slot_coefficients` reads them, and this module
reads no packet itself.  Every member's coefficient is lifted to
(a + b*sqrt2) / d over the lcm d of all coefficient denominators and
squared once on Python ints, so its mass is (r + s*sqrt2) / d^2
exactly for any rational coefficients, dyadic or not.
Candidate tops are keyed by integer time coordinates and integer
frequencies in units of one fixed power of two; totals are integer
sums, and densities and thresholds are compared after shifting both
sides to a common power of two, through `exact.quad_sign`, the exact
sign of a + b*sqrt2 on integers.  No decision goes through a float, and no
quantity is assumed to fit in 64 bits.
"""

from __future__ import annotations

import decimal
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import PreconditionViolated
from .exact import (
    ZERO, DyadicRational, QuadScalar, ScalarLike, common_lift, pow2_fraction, quad_sign,
)
from .geometry import (
    DyadicInterval,
    Quartile,
    Tree,
    _json_int,
    _json_object,
    maximal_tree,
    quartile_sort_key,
)
from .operators import FrequencySet

__all__ = [
    "SizeReport",
    "SelectedTree",
    "SelectionResult",
    "size",
    "select_trees",
    "counting_cells",
    "restricted_trees",
    "jump_times",
    "JNReport",
    "jn_quantities",
]


# A candidate top: ((time index, time scale), frequency position, pin).
Stamp = tuple[tuple[int, int], int, int]


@dataclass(frozen=True)
class SizeReport:
    """A size value together with a tree attaining it.

    value_sq is the exact square of the size.  tree is an attaining
    pinned tree and overlap_index the slot it is pinned through; both
    are None for an empty collection.
    """

    value_sq: QuadScalar
    overlap_index: int | None
    tree: Tree | None

    @property
    def value(self) -> float:
        return math.sqrt(self.value_sq.to_float())


def _pins(slot: int) -> list[int]:
    """The slots a candidate tree may be pinned through: all but slot."""
    if slot not in (1, 2, 3, 4):
        raise ValueError("packet slot must be 1, 2, 3 or 4")
    return [j for j in (1, 2, 3, 4) if j != slot]


def _compare(r: int, s: int, scale: int, ref: tuple[int, int, int]) -> int:
    """Sign of (r + s sqrt2) 2^-scale minus (r' + s' sqrt2) 2^-scale'.

    ref is (r', s', scale'); both sides are shifted to the finer of
    the two powers of two before the exact sign is taken.
    """
    ref_r, ref_s, ref_scale = ref
    shift = scale - ref_scale
    if shift >= 0:
        return quad_sign(r - (ref_r << shift), s - (ref_s << shift))
    return quad_sign((r << -shift) - ref_r, (s << -shift) - ref_s)


def _integer_masses(
    members: Sequence[Quartile], coeffs: Mapping[Quartile, QuadScalar]
) -> tuple[list[int], list[int], int]:
    """Squared coefficients as integer pairs over one common denominator.

    Each coefficient is lifted to (a + b sqrt2) / d, with d the lcm of
    all coefficient denominators, and squared once on the integers:
    member p carries the mass (rats[p] + surds[p] sqrt2) / d^2.  A
    member without a coefficient raises the KeyError of its quartile.
    """
    lifted_r, lifted_s, d = common_lift([coeffs[q] for q in members])
    rats = [a * a + 2 * b * b for a, b in zip(lifted_r, lifted_s)]
    surds = [2 * a * b for a, b in zip(lifted_r, lifted_s)]
    return rats, surds, d * d


def _freq_exp(members: Sequence[Quartile], domain_exp: int) -> int:
    """Exponent of the integer frequency unit.

    Fine enough for every pinned subtile band edge and for the band
    start of every candidate top, whose width is at least 2^-domain_exp.
    """
    return min([-domain_exp] + [q.freq.scale - 2 for q in members])


def _pin_band(q: Quartile, pin: int, freq_exp: int) -> tuple[int, int]:
    """The pinned subtile band [lo, hi) of q in units of 2^freq_exp."""
    shift = q.freq.scale - 2 - freq_exp
    lo = (4 * q.freq.index + pin - 1) << shift
    return lo, lo + (1 << shift)


def _candidate_freqs(
    members: Sequence[Quartile], pins: Sequence[int], freq_exp: int
) -> list[int]:
    """Sorted left endpoints of the pinned bands, in units of 2^freq_exp."""
    return sorted({_pin_band(q, j, freq_exp)[0] for q in members for j in pins})


def _pinned_incidence(
    members: Sequence[Quartile],
    pins: Sequence[int],
    domain_exp: int,
    freqs: Sequence[int],
    freq_exp: int,
) -> dict[Stamp, list[int]]:
    """Positions of the members grabbed by each candidate top.

    A candidate stamps a member when its interval contains the member
    time interval and its frequency falls in the member's pinned band.
    Scanning band endpoints loses nothing: bands of members under a
    fixed top nest, so every membership pattern already occurs at one
    of the endpoints.  Position lists are increasing, and stamps are
    inserted in member order, which fixes the tie-breaking of size.
    """
    incidence: dict[Stamp, list[int]] = {}
    for p, q in enumerate(members):
        index, scale = q.time.index, q.time.scale
        ancestors = [(index >> (s - scale), s) for s in range(scale, domain_exp + 1)]
        for j in pins:
            lo, hi = _pin_band(q, j, freq_exp)
            for idx in range(bisect_left(freqs, lo), bisect_left(freqs, hi)):
                for top in ancestors:
                    incidence.setdefault((top, idx, j), []).append(p)
    return incidence


class _Candidates:
    """Candidate tops of one member list with integer masses.

    A size call builds one; a selection call builds one shared by its
    precondition check and all of its passes, and one more for the
    residual recheck when a pass grabbed a tree.  Everything downstream
    reads member positions and integer keys, and only winning stamps
    are turned back into intervals, dyadic frequencies and trees.
    """

    def __init__(
        self,
        members: Sequence[Quartile],
        coeffs: Mapping[Quartile, QuadScalar],
        pins: Sequence[int],
        domain_exp: int,
    ) -> None:
        self.members = members
        self.freq_exp = _freq_exp(members, domain_exp)
        self.freqs = _candidate_freqs(members, pins, self.freq_exp)
        self.incidence = _pinned_incidence(
            members, pins, domain_exp, self.freqs, self.freq_exp
        )
        self.rats, self.surds, self.denominator = _integer_masses(members, coeffs)
        self.has_surd = any(self.surds)

    def total(self, positions: Sequence[int]) -> tuple[int, int]:
        """Integer mass numerators (r, s) summed over the positions."""
        r = sum(map(self.rats.__getitem__, positions))
        s = sum(map(self.surds.__getitem__, positions)) if self.has_surd else 0
        return r, s

    def tree(self, positions: Sequence[int], stamp: Stamp) -> Tree:
        top, idx, _ = stamp
        return Tree(
            [self.members[p] for p in positions],
            DyadicInterval(*top),
            DyadicRational(self.freqs[idx], self.freq_exp),
        )

    def densest(self) -> SizeReport:
        """The first stamp of strictly largest density, as a size report."""
        best = (0, 0, 0)
        best_stamp: Stamp | None = None
        for stamp, grabbed in self.incidence.items():
            r, s = self.total(grabbed)
            scale = stamp[0][1]
            if best_stamp is None or _compare(r, s, scale, best) > 0:
                best = (r, s, scale)
                best_stamp = stamp
        if best_stamp is None:
            return SizeReport(ZERO, None, None)
        r, s, scale = best
        value = QuadScalar.from_ints(r, s, self.denominator) * pow2_fraction(-scale)
        witness = self.tree(self.incidence[best_stamp], best_stamp)
        return SizeReport(value, best_stamp[2], witness)


def size(
    collection: Iterable[Quartile],
    coefficients: Mapping[Quartile, QuadScalar],
    slot: int,
    domain_exp: int,
) -> SizeReport:
    """Largest square slot mass per unit top length over pinned trees.

    coefficients maps every member to its slot coefficient, as
    `operators.slot_coefficients` reads them; any rational parts are
    allowed.  Candidate trees overlap uniformly in one of the three
    other slots, while the mass counted is always the square of the
    slot coefficients.  Tops range over ancestors of member times paired
    with member band endpoints, which realises the supremum.  An empty
    collection has size zero and no witness.  The maximum is taken on
    exact integer masses over one common denominator, in Python ints
    with no float in any comparison, and the first candidate of strictly
    largest density is the witness.
    """
    pins = _pins(slot)
    members = sorted(set(collection), key=quartile_sort_key)
    if not members:
        return SizeReport(ZERO, None, None)
    return _Candidates(members, coefficients, pins, domain_exp).densest()


@dataclass(frozen=True)
class SelectedTree:
    """One selection grab: a dense pinned tree inside its maximal closure.

    seed collects the members pinned through pass_slot whose mass
    cleared the density bar; full is the maximal tree with the same top
    data among the quartiles alive at grab time, and is what actually
    left the collection.  seed is always contained in full.
    """

    seed: Tree
    full: Tree
    pass_slot: int

    def to_json(self) -> dict:
        return {
            "seed": self.seed.to_json(),
            "full": self.full.to_json(),
            "pass_slot": self.pass_slot,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SelectedTree":
        _json_object(data, "a grab", cls.__dataclass_fields__)
        return cls(
            Tree.from_json(data["seed"]),
            Tree.from_json(data["full"]),
            _json_int(data["pass_slot"], "pass_slot", 1, 4),
        )


def _pass_order(
    stamps: Sequence[Stamp],
    freqs: Sequence[int],
    freq_exp: int,
    prefer_high: bool,
) -> list[Stamp]:
    """Deterministic processing order of one selection pass.

    The primary key is the left end of the dyadic band of reciprocal
    top length around the candidate frequency, extremal first; ties
    fall to the leftmost then largest top interval, then to the
    extremal raw frequency.  Frequencies are integers in units of
    2^freq_exp and left ends integers in units of the finest top, so
    the keys order exactly as the rational ones.
    """
    finest = min((top[1] for top, _, _ in stamps), default=0)

    def key(stamp: Stamp) -> tuple[int, int, int, int]:
        (index, scale), idx, _ = stamp
        x = freqs[idx]
        shift = -scale - freq_exp
        start = (x >> shift) << shift
        left = index << (scale - finest)
        if prefer_high:
            return (-start, left, -scale, -x)
        return (start, left, -scale, x)

    return sorted(stamps, key=key)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the greedy tree removal.

    Grabs appear in removal order; passes run through the pinning slots
    in increasing order.  The residual holds the quartiles left, in
    `quartile_sort_key` order, and is read back from JSON as a set.
    Size fields are exact squares, with residual_size_sq None when
    verification was skipped.
    """

    slot: int
    alpha: QuadScalar
    grabs: tuple[SelectedTree, ...]
    residual: tuple[Quartile, ...]
    initial_size_sq: QuadScalar
    residual_size_sq: QuadScalar | None

    def grabs_in_pass(self, pass_slot: int) -> list[SelectedTree]:
        return [g for g in self.grabs if g.pass_slot == pass_slot]

    def top_length(self) -> Fraction:
        return sum((g.full.top_interval.length for g in self.grabs), Fraction(0))

    def to_json(self) -> dict:
        """The selection as JSON data.  A scalar of it whose text has an
        integer past Python's digit limit is refused, since no selection
        file could hold it: a square size of the values' product
        denominators can outgrow that limit though each value fits."""
        for name in ("alpha", "initial_size_sq", "residual_size_sq"):
            value = getattr(self, name)
            if value is not None and _past_digit_limit(value):
                raise PreconditionViolated(
                    f"the selection's {name} {_short_text(value)} has an integer past the "
                    f"{sys.get_int_max_str_digits()}-digit limit: no selection file could hold it"
                )
        residual_sq = self.residual_size_sq
        return {
            "slot": self.slot,
            "alpha": self.alpha.to_text(),
            "grabs": [g.to_json() for g in self.grabs],
            "residual": [q.to_json() for q in self.residual],
            "initial_size_sq": self.initial_size_sq.to_text(),
            "residual_size_sq": None if residual_sq is None else residual_sq.to_text(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SelectionResult":
        _json_object(data, "a selection", cls.__dataclass_fields__)
        residual_sq = data["residual_size_sq"]
        return cls(
            _json_int(data["slot"], "slot", 1, 4),
            QuadScalar.from_text(data["alpha"]),
            tuple(SelectedTree.from_json(item) for item in data["grabs"]),
            tuple(
                sorted({Quartile.from_json(q) for q in data["residual"]}, key=quartile_sort_key)
            ),
            QuadScalar.from_text(data["initial_size_sq"]),
            None if residual_sq is None else QuadScalar.from_text(residual_sq),
        )


def _digit_count(n: int) -> int:
    """The decimal digits of |n|, counted without writing n out."""
    n = abs(n)
    # n >= 2^(b-1) >= 10^(0.3 (b-1)) for a b-bit n, so this never overshoots.
    count = max(n.bit_length() - 1, 0) * 3 // 10 + 1
    while n >= 10**count:
        count += 1
    return count


def _six_digits(x: QuadScalar) -> str:
    """Nonzero x to six significant digits, at any size.

    The digits come from a decimal evaluation of (r + s sqrt2) / d to
    2D + 12 digits, D the digits of the longest of r and s: a nonzero
    r + s sqrt2 exceeds 1 / (3 10^D), since its product with
    r - s sqrt2 is a nonzero integer, so six digits survive any
    cancellation.
    """
    ctx = decimal.Context(
        prec=2 * max(_digit_count(x.r), _digit_count(x.s)) + 12,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
    )
    value = ctx.divide(ctx.fma(x.s, ctx.sqrt(2), x.r), x.d)
    ctx.prec = 6
    return f"{ctx.normalize(value):g}"


def _past_digit_limit(value: QuadScalar) -> bool:
    """Whether an integer of value's text has more digits than Python
    writes out."""
    limit = sys.get_int_max_str_digits()
    parts = (n for part in (value.rat, value.surd) for n in part.as_integer_ratio())
    return bool(limit) and max(map(abs, parts)) >= 10**limit


def _short_text(x: QuadScalar) -> str:
    """x's exact text when that is at most 80 characters, else six digits
    of its value and the digit counts of the four integers of that text."""
    parts = [n for part in (x.rat, x.surd) for n in part.as_integer_ratio()]
    if max(abs(n) for n in parts).bit_length() <= 256:
        text = x.to_text()
        if len(text) <= 80:
            return text
    digits = ", ".join(str(_digit_count(n)) for n in parts)
    return f"~{_six_digits(x)} (exact text of integers with {digits} digits)"


def select_trees(
    collection: Iterable[Quartile],
    coefficients: Mapping[Quartile, QuadScalar],
    slot: int,
    alpha: ScalarLike | QuadScalar,
    domain_exp: int,
    verify: bool = True,
) -> SelectionResult:
    """Strip pinned trees of square slot density at least a quarter of alpha.

    One pass runs per pinning slot, in increasing slot order.  Within a
    pass the qualifying candidate top whose frequency band sits extremal
    wins, highest first when the pinning slot lies below the measured
    one and lowest first when above; the maximal tree under the winning
    top is removed and recorded next to its pinned seed.  Masses only
    shrink as quartiles leave, so walking the candidates once in that
    order reproduces repeated extremal extraction.

    coefficients maps every member to its slot coefficient, as for
    `size`.  The candidate tops of all pinning slots are built once per
    call; each pass reads those whose frequency is an endpoint of its
    own pinned bands.  Alive totals are integer sums of the exact masses
    described in the module docstring, and the quarter-allowance bar
    is tested by an exact integer sign, so any rational coefficients
    and allowances are handled without a float in any decision.

    Requires the square size of the input to be at most alpha, which
    is checked even when verify is False.  The residual square size is
    then at most a quarter of alpha, rechecked exactly unless verify is
    False.
    """
    pins = _pins(slot)
    members = sorted(set(collection), key=quartile_sort_key)
    alpha = QuadScalar.coerce(alpha)
    quarter = alpha * Fraction(1, 4)
    cands = _Candidates(members, coefficients, pins, domain_exp)
    initial = cands.densest()
    if initial.value_sq > alpha:
        raise PreconditionViolated(
            f"square size {_short_text(initial.value_sq)} exceeds the allowance "
            f"{_short_text(alpha)}"
        )
    alive = [True] * len(members)
    grabs: list[SelectedTree] = []
    if alpha.sign() > 0:
        # A stamp qualifies when its mass (r + s sqrt2) / denominator is at
        # least quarter 2^scale; both sides are scaled by the quarter's
        # own denominator to stay integral.
        unit = quarter.d
        bar = (quarter.r * cands.denominator, quarter.s * cands.denominator, 0)
        position = {q: p for p, q in enumerate(members)}
        for j in pins:
            ends = {_pin_band(q, j, cands.freq_exp)[0] for q in members}
            stamps = [
                st
                for st in cands.incidence
                if st[2] == j and cands.freqs[st[1]] in ends
            ]
            for stamp in _pass_order(stamps, cands.freqs, cands.freq_exp, j < slot):
                live = [p for p in cands.incidence[stamp] if alive[p]]
                r, s = cands.total(live)
                if _compare(r * unit, s * unit, stamp[0][1], bar) < 0:
                    continue
                seed = cands.tree(live, stamp)
                full = maximal_tree(
                    [q for q, a in zip(members, alive) if a],
                    seed.top_interval,
                    seed.top_freq,
                )
                grabs.append(SelectedTree(seed, full, j))
                for q in full.quartiles:
                    alive[position[q]] = False
    left = [q for q, a in zip(members, alive) if a]
    residual_size_sq: QuadScalar | None = None
    if verify:
        # With nothing grabbed the residual is the input, already measured.
        recheck = initial
        if grabs:
            recheck = _Candidates(left, coefficients, pins, domain_exp).densest()
        residual_size_sq = recheck.value_sq
        if residual_size_sq > quarter:
            raise RuntimeError(
                "selection left a residual above a quarter of the allowance; "
                "this is a bug"
            )
    return SelectionResult(
        slot,
        alpha,
        tuple(grabs),
        tuple(left),
        initial.value_sq,
        residual_size_sq,
    )


def counting_cells(
    intervals: Iterable[DyadicInterval], domain_exp: int, resolution_exp: int
) -> np.ndarray:
    """How many of the intervals cover each grid cell."""
    total = 1 << (domain_exp + resolution_exp)
    counts = np.zeros(total, dtype=np.int64)
    for iv in intervals:
        lo, hi = iv.cell_range(resolution_exp)
        counts[max(lo, 0) : min(hi, total)] += 1
    return counts


def restricted_trees(
    trees: Sequence[Tree],
    lam: Fraction | int,
    level: int,
    domain_exp: int,
    resolution_exp: int,
) -> list[Tree]:
    """Drop trees whose top sits inside the deep part of the counting pile.

    A tree survives unless its whole top interval lies where more than
    2^(level+1) * lam tops already stack; the survivors' own counting
    function then respects that very bound.
    """
    counts = counting_cells([t.top_interval for t in trees], domain_exp, resolution_exp)
    threshold = Fraction(lam) * (1 << (level + 1))
    kept: list[Tree] = []
    for tree in trees:
        lo, hi = tree.top_interval.cell_range(resolution_exp)
        lo, hi = max(lo, 0), min(hi, len(counts))
        inside = all(
            Fraction(int(counts[c])) > threshold for c in range(lo, hi)
        )
        if not inside:
            kept.append(tree)
    return kept


def jump_times(freqs: FrequencySet) -> tuple[int, ...]:
    """Scales where the frequency set resolves into strictly more clumps.

    A scale k is a jump time when the set meets more dyadic intervals
    of length 2^-(k+4) than of length 2^-(k-4).  There are at most 8
    jumps per frequency beyond the first, so no more than 8 * |set|.
    """
    if len(freqs) < 2:
        return ()
    # 2^-start is the least power of two, at least one, above the largest
    # point n 2^e: its exponent is the bit length of n plus e.
    top = freqs.points[-1]
    start = -max(0, top.numerator.bit_length() + top.exponent)
    k = start
    while freqs.count_at(-k) < len(freqs):
        k += 1
    stop = k
    pad = 4  # how many scales to look on each side of k
    out = []
    for k in range(start - pad, stop + pad + 1):
        if freqs.count_at(-(k + pad)) > freqs.count_at(-(k - pad)):
            out.append(k)
    return tuple(out)


@dataclass(frozen=True)
class JNReport:
    """Mean square versus weak mean packet mass over pinned trees.

    a2_sq is the exact square of the mean quadratic quantity; the weak
    quantity is evaluated in floating point from the level sets of the
    local square function.  Witnesses name the top interval of the tree
    attaining each quantity.
    """

    a2_sq: QuadScalar
    a2_witness: DyadicInterval | None
    weak: float
    weak_witness: DyadicInterval | None

    @property
    def a2(self) -> float:
        return self.a2_sq.to_float() ** 0.5


def jn_quantities(
    terms: Iterable[tuple[Quartile, ScalarLike]],
    slot: int,
    domain_exp: int,
    resolution_exp: int,
) -> JNReport:
    """Evaluate both John-Nirenberg style quantities of a weighted family.

    Candidate trees are pinned through any slot other than the given
    one, with tops enumerated exactly as for size.  The members of each
    candidate induce a local square function on its top interval; the
    quadratic quantity averages its square, the weak one takes the best
    level of its distribution, both normalised by the top length.
    """
    pins = _pins(slot)
    weighted = [(q, QuadScalar.coerce(c)) for q, c in terms]
    if not weighted:
        return JNReport(ZERO, None, 0.0, None)
    weight: dict[Quartile, QuadScalar] = {}
    for q, c in weighted:
        weight[q] = weight.get(q, ZERO) + c
    members = sorted(weight, key=quartile_sort_key)
    cands = _Candidates(members, weight, pins, domain_exp)
    best = (0, 0, 0)
    best_sq_top: tuple[int, int] | None = None
    best_weak = 0.0
    best_weak_witness: DyadicInterval | None = None
    cell_width = pow2_fraction(-resolution_exp)
    cells = [q.time.cell_range(resolution_exp) for q in members]
    spread = [
        weight[q].square().to_float() * float(2 ** -q.time.scale) for q in members
    ]
    seen: set[tuple[tuple[int, int], tuple[int, ...]]] = set()
    for stamp in sorted(cands.incidence, key=lambda s: (s[0][1], s[0][0], s[2], s[1])):
        top = stamp[0]
        inside = cands.incidence[stamp]
        marker = (top, tuple(inside))
        if marker in seen:
            continue
        seen.add(marker)
        r, s = cands.total(inside)
        if _compare(r, s, top[1], best) > 0:
            best = (r, s, top[1])
            best_sq_top = top
        interval = DyadicInterval(*top)
        lo, hi = interval.cell_range(resolution_exp)
        square = np.zeros(hi - lo, dtype=np.float64)
        for p in inside:
            qlo, qhi = cells[p]
            square[qlo - lo : qhi - lo] += spread[p]
        levels = np.sqrt(square)
        length = float(interval.length)
        for v in np.unique(levels):
            if v <= 0.0:
                continue
            measure = float(np.count_nonzero(levels >= v)) * float(cell_width)
            weak = float(v) * measure / length
            if weak > best_weak:
                best_weak = weak
                best_weak_witness = interval
    if best_sq_top is None:
        return JNReport(ZERO, None, best_weak, best_weak_witness)
    r, s, scale = best
    best_sq = QuadScalar.from_ints(r, s, cands.denominator) * pow2_fraction(-scale)
    return JNReport(best_sq, DyadicInterval(*best_sq_top), best_weak, best_weak_witness)
