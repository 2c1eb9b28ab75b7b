"""Seeded generators for functions, sets, collections and pinned trees.

Every generator takes an explicit random.Random so drivers can derive
independent deterministic streams from one configured seed.  Quartiles
are always emitted valid for the grid box: scales in [2 - m, J] and
frequencies resolvable at cell width 2^-m.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..exact import pow2_fraction
from ..geometry import DyadicInterval, Quartile, Tree, containing_interval
from ..operators import FrequencySet
from ..wavepacket import MAX_GRID_EXP, StepFunction


def _draw_below(rng: random.Random, n: int, count: int) -> np.ndarray:
    """The indices that `count` calls of `rng.choice` on n items pick.

    The values, and the state `rng` is left in, are those of the scalar
    loop.  This rests on three facts about CPython's `random.Random`
    (3.10 to 3.13):

    - `choice(seq)` is `seq[_randbelow(len(seq))]`, and `_randbelow(n)`
      calls `getrandbits(k)` with k = n.bit_length() until the result
      is below n;
    - `getrandbits(k)` for k <= 32 is the top k bits of the next 32-bit
      output of the Mersenne Twister;
    - `getrandbits(32 * w)` is the next w outputs as the little-endian
      32-bit words of one integer, the first output lowest.

    So the loop reads whole outputs one at a time and keeps the top k
    bits of those below n.  This draws a batch of outputs, decodes it
    the same way, then rewinds with `setstate` and consumes exactly the
    outputs it used with one `getrandbits`.  `rng` must not override
    `random` or `getrandbits`.
    """
    if count == 0:
        return np.empty(0, np.int64)
    k = n.bit_length()
    state = rng.getstate()
    tops = np.empty(0, np.uint32)
    hits = np.empty(0, np.intp)
    while hits.size < count:
        # Each value takes 2^k / n outputs on average; draw 1/8 more.
        batch = ((count - hits.size) << k) // n * 9 // 8 + 32
        raw = rng.getrandbits(32 * batch).to_bytes(4 * batch, "little")
        tops = np.concatenate((tops, np.frombuffer(raw, "<u4") >> (32 - k)))
        hits = np.flatnonzero(tops < n)
    rng.setstate(state)
    rng.getrandbits(32 * int(hits[count - 1] + 1))
    return tops[hits[:count]].astype(np.int64)


def sign_function(
    rng: random.Random, domain_exp: int, resolution_exp: int
) -> StepFunction:
    """Cell values drawn uniformly from {-1, 0, 1}.

    The stream is that of `rng.choice((-1, 0, 1))` once per cell.
    """
    values = _draw_below(rng, 3, 1 << (domain_exp + resolution_exp)) - 1
    return StepFunction(domain_exp, resolution_exp, values)


def dyadic_function(
    rng: random.Random, domain_exp: int, resolution_exp: int
) -> StepFunction:
    """Cell values on the dyadic grid of step 1/8 inside [-1, 1]."""
    numerators = [rng.randint(-8, 8) for _ in range(1 << (domain_exp + resolution_exp))]
    return StepFunction(domain_exp, resolution_exp, np.array(numerators, np.int64)) * Fraction(
        1, 8
    )


def dyadic_set(
    rng: random.Random,
    domain_exp: int,
    resolution_exp: int,
    density: float = 0.5,
) -> StepFunction:
    """Indicator of a random union of grid cells, never empty."""
    total = 1 << (domain_exp + resolution_exp)
    rat = np.array([rng.random() < density for _ in range(total)], np.int64)
    if not rat.any():
        rat[rng.randrange(total)] = 1
    return StepFunction(domain_exp, resolution_exp, rat)


def masked_signs(rng: random.Random, mask: StepFunction) -> StepFunction:
    """Random signs on the support of mask, zero elsewhere.

    The stream is that of `rng.choice((-1, 1))` once per support cell.
    """
    support = mask.support_cells()
    rat = np.zeros(mask.cell_count, np.int64)
    rat[support] = 2 * _draw_below(rng, 2, len(support)) - 1
    return StepFunction(mask.domain_exp, mask.resolution_exp, rat)


def random_quartile(
    rng: random.Random, domain_exp: int, resolution_exp: int
) -> tuple[int, int, int]:
    """One quartile of the box as the integers (k, n, f) of its time scale,
    time index and frequency index: the quartile with time (n, k) and
    frequency (f, 2 - k).  The callers build a `Quartile` only for a draw
    they keep.

    The values, and the state `rng` is left in, are those of
    `k = rng.randint(2 - m, J)`, `rng.randrange(2^(J - k))` and
    `rng.randrange(2^(m + k - 2))`, drawn here by their own rejection
    loops.  This rests on two facts about CPython's `random.Random`
    (3.10 to 3.13):

    - `randint(a, b)` is `randrange(a, b + 1)`, and `randrange(a, b)`
      and `randrange(b)` with b > a are a + `_randbelow(b - a)` and
      `_randbelow(b)`;
    - `_randbelow(n)` calls `getrandbits(n.bit_length())` until the
      result is below n; for n = 2^s that is `getrandbits(s + 1)` until
      the result's bit s is clear.

    `rng` must not override `random` or `getrandbits`.  A box with
    J + m < 2 holds no quartile and is refused with ValueError.
    """
    width = domain_exp + resolution_exp - 1
    if width < 1:
        raise ValueError("a box with J + m < 2 holds no quartile")
    getrandbits = rng.getrandbits
    bits = width.bit_length()
    k = getrandbits(bits)
    while k >= width:
        k = getrandbits(bits)
    k += 2 - resolution_exp
    span = domain_exp - k
    n = getrandbits(span + 1)
    while n >> span:
        n = getrandbits(span + 1)
    span = resolution_exp + k - 2
    f = getrandbits(span + 1)
    while f >> span:
        f = getrandbits(span + 1)
    return k, n, f


def _quartile(k: int, n: int, f: int) -> Quartile:
    """The quartile of a `random_quartile` draw."""
    return Quartile(DyadicInterval(n, k), DyadicInterval(f, 2 - k))


def quartile_collection(
    rng: random.Random, count: int, domain_exp: int, resolution_exp: int
) -> list[Quartile]:
    """Distinct quartiles sampled without replacement; overlaps allowed.

    Every time scale carries the same number of grid quartiles, so the
    scale-then-position draw of random_quartile is uniform over the
    whole box and rejection only has to dodge exact repeats, which it
    finds among the drawn (k, n, f) triples.  Each scale holds
    2^(J+m-2) quartiles, so a count above that times the number of
    scales is refused before any draw.
    """
    seen: set[tuple[int, int, int]] = set()
    out: list[Quartile] = []
    budget = 60 * count + 60
    area_exp = domain_exp + resolution_exp
    if area_exp >= 2 and count > (area_exp - 1) << (area_exp - 2):
        budget = 0
    while len(out) < count and budget:
        budget -= 1
        draw = random_quartile(rng, domain_exp, resolution_exp)
        if draw not in seen:
            seen.add(draw)
            out.append(_quartile(*draw))
    if len(out) < count:
        raise RuntimeError(
            f"could not draw {count} distinct quartiles "
            f"in a (J={domain_exp}, m={resolution_exp}) box"
        )
    return out


def disjoint_collection(
    rng: random.Random, count: int, domain_exp: int, resolution_exp: int
) -> list[Quartile]:
    """Pairwise disjoint quartiles by rejection sampling.

    A candidate with time (n, k) and frequency (f, 2 - k) meets an
    accepted quartile (n', k', f') exactly when their times are nested
    and their frequencies are nested the other way: for k' <= k when
    n' >> (k - k') == n and f >> (k - k') == f', for k' > k when
    n >> (k' - k) == n' and f' >> (k' - k) == f.  One byte per
    candidate of the box, scale s after scale s - 1 and (n, f) at
    n << (m + s - 2) | f within a scale, records whether it meets a
    quartile accepted so far.  Accepting (n', k', f') sets, at each
    scale s, the bytes of the candidates it meets: 2^(k' - s) rows
    n' << (k' - s) onwards at column f' >> (k' - s) for s <= k', and
    row n' >> (s - k'), columns f' << (s - k') onwards for s > k'.  A
    candidate is then checked with one byte read, whatever the number
    accepted, and its `Quartile` is built only once it is accepted.
    The draws, and which candidates are accepted or rejected and in
    what order, are those of testing every candidate against every
    accepted quartile, so the output and the `rng` state it leaves are
    exactly the same.

    A box with J + m above `MAX_GRID_EXP` is refused with ValueError
    before any draw, which keeps the bytes at 15 * 2^14 at most.
    Quartiles have area four, so a count above 2^(J+m-2) is refused
    with RuntimeError before any draw.  The same error is raised when
    300 * count + 300 draws do not place the request.  At or below
    capacity that has not been seen on any box with 3 <= J + m <= 8,
    even filling it exactly; the tests reach it only through a `Random`
    that repeats one draw.
    """
    area_exp = domain_exp + resolution_exp
    if area_exp > MAX_GRID_EXP:
        raise ValueError(
            f"a (J={domain_exp}, m={resolution_exp}) box has J + m above {MAX_GRID_EXP}"
        )
    out: list[Quartile] = []
    budget = 300 * count + 300
    if area_exp >= 2 and count > 1 << (area_exp - 2):
        budget = 0
    lo, hi = 2 - resolution_exp, domain_exp
    width = 1 << max(area_exp - 2, 0)
    met = bytearray(max(area_exp - 1, 0) * width)
    ones = [b"\x01" * (1 << gap) for gap in range(max(area_exp - 1, 0))]
    while len(out) < count:
        if budget == 0:
            raise RuntimeError(
                f"could not place {count} disjoint quartiles "
                f"in a (J={domain_exp}, m={resolution_exp}) box"
            )
        budget -= 1
        k, n, f = random_quartile(rng, domain_exp, resolution_exp)
        if met[(k - lo) * width + (n << (resolution_exp + k - 2) | f)]:
            continue
        # At s <= k, 2^(k - s) rows of 2^(m + s - 2) bytes: one span for every s.
        span = 1 << (resolution_exp + k - 2)
        for s in range(lo, k + 1):
            row_exp, gap = resolution_exp + s - 2, k - s
            start = (s - lo) * width + ((n << gap) << row_exp | f >> gap)
            met[start : start + span : 1 << row_exp] = ones[gap]
        for s in range(k + 1, hi + 1):
            gap = s - k
            start = (s - lo) * width + ((n >> gap) << (resolution_exp + s - 2) | f << gap)
            met[start : start + (1 << gap)] = ones[gap]
        out.append(_quartile(k, n, f))
    return out


def pinned_tree(
    rng: random.Random,
    pin: int,
    domain_exp: int,
    resolution_exp: int,
    depth: int = 3,
    max_per_scale: int = 3,
) -> Tree:
    """A uniformly pin-overlapping tree inside the grid box.

    The top frequency is assembled digit by digit: a member at time
    scale k forces the two digits of weight 2^(1-k) and 2^-k to spell
    the pin.  When those two digits differ, consecutive member scales
    would contradict each other, so the drawn scales are thinned to
    leave gaps of at least two.  Unconstrained digits are sprinkled at
    random, which keeps distinct trees at distinct top frequencies.
    """
    if pin not in (1, 2, 3, 4):
        raise ValueError("pin must be 1, 2, 3 or 4")
    hi, lo = divmod(pin - 1, 2)
    k_min = 2 - resolution_exp
    avail = list(range(k_min, domain_exp + 1))
    drawn = sorted(rng.sample(avail, min(max(depth, 1), len(avail))))
    if hi != lo:
        scales = []
        for k in drawn:
            if not scales or k - scales[-1] >= 2:
                scales.append(k)
    else:
        scales = drawn
    digits: dict[int, int] = {}
    for k in scales:
        digits[k - 1] = hi
        digits[k] = lo
    for j in range(k_min - 1, resolution_exp + 1):
        if j not in digits and rng.random() < 0.25:
            digits[j] = 1
    xi = sum((pow2_fraction(-j) for j, d in digits.items() if d), Fraction(0))
    top_scale = rng.randint(scales[-1], domain_exp)
    top = DyadicInterval(rng.randrange(1 << (domain_exp - top_scale)), top_scale)
    members: list[Quartile] = []
    for k in scales:
        room = 1 << (top_scale - k)
        base = top.index * room
        for off in rng.sample(range(room), min(rng.randint(1, max_per_scale), room)):
            members.append(
                Quartile(DyadicInterval(base + off, k), containing_interval(xi, 2 - k))
            )
    return Tree(members, top, xi)


def pinned_forest(
    rng: random.Random,
    pin: int,
    domain_exp: int,
    resolution_exp: int,
    count: int,
    depth: int = 3,
) -> list[Tree]:
    """Several pin-overlapping trees with pairwise distinct top frequencies."""
    trees: list[Tree] = []
    seen: set[Fraction] = set()
    attempts = 50 * count + 50
    while len(trees) < count and attempts:
        attempts -= 1
        tree = pinned_tree(rng, pin, domain_exp, resolution_exp, depth)
        if tree.top_freq in seen:
            continue
        seen.add(tree.top_freq)
        trees.append(tree)
    if len(trees) < count:
        raise RuntimeError("could not draw enough distinct top frequencies")
    return trees


def tree_coefficients(
    rng: random.Random, members: Sequence[Quartile]
) -> dict[Quartile, Fraction]:
    """Random weights in [-1, 1] at step 1/8, one per member."""
    return {q: Fraction(rng.randint(-8, 8), 8) for q in members}


def frequency_set(rng: random.Random, count: int, resolution_exp: int) -> FrequencySet:
    """Distinct dyadic frequencies in [0, 8) at step 2^-resolution_exp."""
    total = 1 << (resolution_exp + 3)
    picks = rng.sample(range(total), min(count, total))
    return FrequencySet(n * pow2_fraction(-resolution_exp) for n in picks)
