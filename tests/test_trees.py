"""Sizes, tree selection, counting functions and jump times."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_size_sq
from walshtf import (
    DyadicInterval,
    FrequencySet,
    QuadScalar,
    Quartile,
    SelectionResult,
    StepFunction,
    Tree,
    ZERO,
    inner_product,
    jn_quantities,
    jump_times,
    pow2_fraction,
    restricted_trees,
    select_trees,
    size,
    slot_coefficients,
    tiles_disjoint,
)
from walshtf import trees
from walshtf.errors import PreconditionViolated
from walshtf.geometry import quartile_sort_key
from walshtf.experiments.random_gen import (
    disjoint_collection,
    frequency_set,
    sign_function,
)
from walshtf.kernels import walsh_tables


def test_singleton_size_worked_example():
    # One quartile over [0,1) with full frequency band [0,4); pairing an
    # indicator against the flat first packet gives coefficient one, so
    # the size in slot one is one, witnessed through the second band.
    q = Quartile(DyadicInterval(0, 0), DyadicInterval(0, 2))
    f = StepFunction.indicator(DyadicInterval(0, 0), 2, 3)
    report = size([q], slot_coefficients(f, [q], 1), 1, 2)
    assert report.value_sq == QuadScalar(1)
    assert report.value == 1.0
    assert report.overlap_index != 1
    assert set(report.tree.quartiles) == {q}
    # The third packet oscillates inside [0,1), so the indicator does
    # not see it at all.
    assert size([q], slot_coefficients(f, [q], 3), 3, 2).value_sq == ZERO


def test_size_matches_subset_enumeration(rng):
    for trial in range(30):
        coll = disjoint_collection(rng, rng.randint(1, 5), 2, 3)
        f = sign_function(rng, 2, 3)
        slot = 1 + trial % 4
        report = size(coll, slot_coefficients(f, coll, slot), slot, 2)
        assert report.value_sq == brute_size_sq(coll, f, slot, 2)


def test_size_is_monotone_in_the_collection(rng):
    coll = disjoint_collection(rng, 6, 3, 4)
    f = sign_function(rng, 3, 4)
    part = coll[:3]
    for slot in (1, 2, 3, 4):
        coeffs = slot_coefficients(f, coll, slot)
        assert size(part, coeffs, slot, 3).value_sq <= size(coll, coeffs, slot, 3).value_sq


def test_size_witness_is_a_pinned_subtree(rng):
    for trial in range(10):
        coll = disjoint_collection(rng, 8, 3, 4)
        f = sign_function(rng, 3, 4)
        slot = 1 + trial % 4
        report = size(coll, slot_coefficients(f, coll, slot), slot, 3)
        if report.value_sq == ZERO:
            continue
        tree = report.tree
        assert set(tree.quartiles) <= set(coll)
        assert report.overlap_index != slot
        xi = tree.top_freq
        mass = ZERO
        for q in tree.quartiles:
            assert q.grandchild_of(xi) == report.overlap_index
            mass = mass + inner_product(f, q.tile(slot)).square()
        assert mass * (Fraction(1) / tree.top_interval.length) == report.value_sq


def test_size_accepts_precomputed_coefficients(rng):
    # The one reader against per-tile table reads; a repeated quartile
    # is read once and keeps its own coefficient.
    coll = disjoint_collection(rng, 8, 3, 4)
    f = sign_function(rng, 3, 4)
    tables = walsh_tables(f)
    for slot in (1, 2, 3, 4):
        read = slot_coefficients(f, coll, slot)
        coeffs = {q: tables.coefficient(q.tile(slot)) for q in coll}
        assert read == coeffs
        assert slot_coefficients(f, [coll[0], *coll, coll[3]], slot) == read
        direct = size(coll, read, slot, 3)
        cached = size(coll, coeffs, slot, 3)
        assert cached.value_sq == direct.value_sq
        assert cached.overlap_index == direct.overlap_index
    with pytest.raises(KeyError) as missing:
        size(coll, {coll[0]: QuadScalar(1)}, 1, 3)
    assert missing.value.args[0] in coll[1:]


def test_size_of_an_empty_collection_is_degenerate():
    report = size([], {}, 1, 2)
    assert report.value_sq == ZERO
    assert report.overlap_index is None
    assert report.tree is None


def _check_selection_contract(coll, coeffs, slot, alpha, domain_exp):
    sel = select_trees(coll, coeffs, slot, alpha, domain_exp)
    grabbed = set()
    for grab in sel.grabs:
        assert grab.pass_slot != slot
        assert set(grab.seed.quartiles) <= set(grab.full.quartiles)
        assert set(grab.full.quartiles) <= set(coll)
        assert not (set(grab.full.quartiles) & grabbed)
        grabbed |= set(grab.full.quartiles)
    assert sel.residual == tuple(sorted(set(coll) - grabbed, key=quartile_sort_key))
    assert not (grabbed & set(sel.residual))
    # Residual smallness re-checked through an independent size call.
    if len(sel.residual):
        assert size(sel.residual, coeffs, slot, domain_exp).value_sq <= alpha * Fraction(1, 4)
    # Seed trees from one pass stamp disjoint tiles in the pass slot.
    for p in (1, 2, 3, 4):
        stamps = []
        for grab in sel.grabs_in_pass(p):
            stamps.extend(q.tile(p) for q in grab.seed.quartiles)
        for i in range(len(stamps)):
            for j in range(i + 1, len(stamps)):
                assert tiles_disjoint(stamps[i], stamps[j])
    return sel


def test_selection_contract_small_grid(rng):
    for trial in range(12):
        coll = disjoint_collection(rng, rng.randint(2, 8), 3, 4)
        f = sign_function(rng, 3, 4)
        slot = 1 + trial % 4
        coeffs = slot_coefficients(f, coll, slot)
        alpha = size(coll, coeffs, slot, 3).value_sq
        if alpha == ZERO:
            continue
        _check_selection_contract(coll, coeffs, slot, alpha, 3)


def test_selection_with_cached_coefficients_is_identical(rng):
    coll = disjoint_collection(rng, 8, 3, 4)
    f = sign_function(rng, 3, 4)
    tables = walsh_tables(f)
    read = slot_coefficients(f, coll, 2)
    alpha = size(coll, read, 2, 3).value_sq
    if alpha == ZERO:
        pytest.skip("degenerate draw")
    coeffs = {q: tables.coefficient(q.tile(2)) for q in coll}
    assert read == coeffs
    a = select_trees(coll, read, 2, alpha, 3)
    b = select_trees(coll, coeffs, 2, alpha, 3)
    assert a.to_json() == b.to_json()


def test_selection_requires_the_size_bound(rng):
    coll = disjoint_collection(rng, 6, 3, 4)
    f = sign_function(rng, 3, 4)
    coeffs = slot_coefficients(f, coll, 1)
    alpha = size(coll, coeffs, 1, 3).value_sq
    if alpha == ZERO:
        pytest.skip("degenerate draw")
    with pytest.raises(PreconditionViolated):
        select_trees(coll, coeffs, 1, alpha * Fraction(1, 64), 3)


def _counted_candidates(monkeypatch) -> list:
    """Replace trees._Candidates by a subclass that records each build."""
    built = []

    class Counted(trees._Candidates):
        def __init__(self, members, *args):
            built.append(tuple(members))
            super().__init__(members, *args)

    monkeypatch.setattr(trees, "_Candidates", Counted)
    return built


@pytest.mark.parametrize("alpha, grabs", [(64, 0), (1, 1)])
def test_selection_rebuilds_candidates_for_the_residual_only_after_a_grab(
    monkeypatch, alpha, grabs
):
    # The worked example's one quartile has square size one: an allowance
    # of 64 grabs nothing, one of 1 grabs it.
    q = Quartile(DyadicInterval(0, 0), DyadicInterval(0, 2))
    coeffs = slot_coefficients(StepFunction.indicator(DyadicInterval(0, 0), 2, 3), [q], 1)
    built = _counted_candidates(monkeypatch)
    sel = select_trees([q], coeffs, 1, alpha, 2)
    assert len(sel.grabs) == grabs
    assert built == [(q,)] + [()] * grabs
    assert sel.residual_size_sq == size(sel.residual, coeffs, 1, 2).value_sq
    # Without verify only the input's candidates are built.
    built.clear()
    assert select_trees([q], coeffs, 1, alpha, 2, verify=False).residual_size_sq is None
    assert built == [(q,)]


def test_selection_without_a_grab_still_checks_the_residual(monkeypatch):
    # A pass that skipped a qualifying top would leave the input as the
    # residual; its size, taken from the initial measurement, is refused.
    q = Quartile(DyadicInterval(0, 0), DyadicInterval(0, 2))
    coeffs = slot_coefficients(StepFunction.indicator(DyadicInterval(0, 0), 2, 3), [q], 1)
    built = _counted_candidates(monkeypatch)
    monkeypatch.setattr(trees, "_pass_order", lambda *args: [])
    with pytest.raises(RuntimeError, match="this is a bug"):
        select_trees([q], coeffs, 1, 1, 2)
    assert built == [(q,)]


def _pell(digits: int) -> tuple[int, int]:
    """The first P + Q sqrt2 = (3 + 2 sqrt2)^n with P past 10^digits;
    P^2 - 2 Q^2 = 1, so P - Q sqrt2 = 1 / (P + Q sqrt2)."""
    p, q = 1, 0
    while p < 10**digits:
        p, q = 3 * p + 4 * q, 2 * p + 3 * q
    return p, q


def _six_digits_by_isqrt(r: int, s: int, d: int) -> Decimal:
    """(r + s sqrt2) / d to six significant digits, from integers only."""
    k = 3 * max(len(str(abs(r))), len(str(abs(s))), len(str(d))) + 30
    root = math.isqrt(2 * s * s * 10 ** (2 * k))
    scaled = round(Fraction(r * 10**k + (root if s >= 0 else -root), d))
    digits = str(abs(scaled))
    lead = round(Fraction(abs(scaled), 10 ** (len(digits) - 6)))
    return Decimal(f"{'-' if scaled < 0 else ''}{lead}e{len(digits) - 6 - k}")


@pytest.mark.parametrize("which", ["P-Q", "-P+Q over 7", "P sqrt2-2Q", "P-Q in range", "P+Q over 3"])
def test_short_text_keeps_six_digits_through_cancellation(which):
    # r + s sqrt2 with |r| close to |s| sqrt2 cancels some 400 digits
    # (100 for the case inside the float range).
    p, q = _pell(100 if which == "P-Q in range" else 400)
    r, s, d = {
        "P-Q": (p, -q, 1),
        "-P+Q over 7": (-p, q, 7),
        "P sqrt2-2Q": (-2 * q, p, 1),
        "P-Q in range": (p, -q, 1),
        "P+Q over 3": (p, q, 3),
    }[which]
    text = trees._short_text(QuadScalar.from_ints(r, s, d))
    assert text.startswith("~") and " (exact text of integers with " in text
    estimate = text[1:].split(" ")[0]
    assert Decimal(estimate) == _six_digits_by_isqrt(r, s, d)
    assert len(estimate.split("e")[0].strip("-").replace(".", "")) <= 6


def test_selection_top_length_and_json_round_trip(rng):
    coll = disjoint_collection(rng, 8, 3, 4)
    f = sign_function(rng, 3, 4)
    coeffs = slot_coefficients(f, coll, 3)
    alpha = size(coll, coeffs, 3, 3).value_sq
    if alpha == ZERO:
        pytest.skip("degenerate draw")
    sel = select_trees(coll, coeffs, 3, alpha, 3)
    expected = sum((g.full.top_interval.length for g in sel.grabs), Fraction(0))
    assert sel.top_length() == expected
    again = SelectionResult.from_json(sel.to_json())
    assert again.slot == sel.slot
    assert again.alpha == sel.alpha
    assert again.residual == sel.residual
    assert [g.full for g in again.grabs] == [g.full for g in sel.grabs]
    assert again.to_json() == sel.to_json()
    # A written residual is read back as a set: out of order and with a
    # repeat, it comes back as the sorted tuple.
    shuffled = [q.to_json() for q in sel.residual[::-1] + sel.residual[:1]]
    again = SelectionResult.from_json({**sel.to_json(), "residual": shuffled})
    assert again.residual == sel.residual


def test_selection_json_refuses_a_square_size_past_the_digit_limit():
    # Each value's 2201-digit denominator fits, but the square size's
    # 4401-digit one does not: to_json names the field, not the
    # interpreter's bare ValueError.
    q = Quartile(DyadicInterval(0, 0), DyadicInterval(0, 2))
    f = StepFunction(1, 3, [Fraction(1, 10**2200)] * 16)
    sel = select_trees([q], slot_coefficients(f, [q], 1), 1, 1, 1)
    with pytest.raises(PreconditionViolated, match="the selection's initial_size_sq ~1e-4400 "):
        sel.to_json()
    # The allowance is checked too.
    with pytest.raises(PreconditionViolated, match="the selection's alpha ~1e-4400 "):
        select_trees([q], {q: ZERO}, 1, Fraction(1, 10**4400), 1).to_json()


def test_john_nirenberg_quantities_on_a_singleton():
    q = Quartile(DyadicInterval(0, 0), DyadicInterval(0, 2))
    w = QuadScalar(Fraction(3, 4))
    rep = jn_quantities([(q, w)], 3, 2, 3)
    assert rep.a2_sq == w.square()
    assert rep.weak == pytest.approx(0.75)
    assert rep.a2_witness == DyadicInterval(0, 0)


def test_jump_times_are_sparse(rng):
    for _ in range(40):
        count = rng.randint(0, 24)
        freqs = frequency_set(rng, count, 5)
        jumps = jump_times(freqs)
        if count < 2:
            assert jumps == ()
            continue
        assert len(jumps) <= 8 * count
        assert list(jumps) == sorted(set(jumps))


def _jump_times_by_fractions(points: list[Fraction]) -> tuple[int, ...]:
    """jump_times on Fractions: the start exponent found by doubling a
    power of two past the largest point, bands by truncating x 2^-scale."""
    pad = 4
    if len(points) < 2:
        return ()

    def count_at(scale: int) -> int:
        return len({int(x * pow2_fraction(-scale)) for x in points})

    top = max(points)
    e = 0
    while pow2_fraction(e) <= top:
        e += 1
    k = -e
    while count_at(-k) < len(points):
        k += 1
    return tuple(
        j for j in range(-e - pad, k + pad + 1) if count_at(-(j + pad)) > count_at(-(j - pad))
    )


@given(
    st.lists(
        st.builds(lambda n, e: n * pow2_fraction(e), st.integers(0, 4000), st.integers(-9, 4)),
        max_size=10,
    ),
)
def test_jump_times_match_the_fraction_loop(points):
    freqs = FrequencySet(points)
    expected = _jump_times_by_fractions(list(freqs))
    assert jump_times(freqs) == expected


def _stacked_trees(rng, count, domain_exp, resolution_exp):
    trees = []
    for _ in range(count):
        scale = rng.randint(0, domain_exp)
        top = DyadicInterval(rng.randrange(1 << (domain_exp - scale)), scale)
        freq_scale = -scale
        freq = DyadicInterval(
            rng.randrange(1 << (resolution_exp + scale)), freq_scale
        )
        member_time = top if scale == 0 else DyadicInterval(top.index << 1, scale - 1)
        member = Quartile(
            member_time, freq.ancestor_at(2 - member_time.scale)
        )
        trees.append(Tree([member], top, freq.left))
    return trees


def test_restricted_trees_cap_the_counting_function(rng):
    for trial in range(40):
        trees = _stacked_trees(rng, rng.randint(1, 30), 3, 4)
        lam = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        level = trial % 3
        kept = restricted_trees(trees, lam, level, 3, 4)
        assert set(kept) <= set(trees)
        if kept:
            from walshtf.trees import counting_cells

            counts = counting_cells([t.top_interval for t in kept], 3, 4)
            assert counts.max() <= (1 << (level + 1)) * lam


def test_integer_sqrt2_sign_agrees_with_quadscalar(rng):
    from oracles import fraction_quad_sign
    from walshtf.exact import quad_sign

    def check(a, b):
        expected = fraction_quad_sign(Fraction(a), Fraction(b))
        assert quad_sign(a, b) == QuadScalar(a, b).sign() == expected, (a, b)

    for a, b in ((0, 0), (0, 5), (0, -5), (7, 0), (-7, 0), (1, -1), (-1, 1)):
        check(a, b)
    # Pell pairs p^2 - 2 q^2 = +-1 sit as close to the sqrt2 line as
    # integers can; walk them far past 2^63.
    p, q = 1, 1
    while p.bit_length() < 400:
        for sa in (1, -1):
            for sb in (1, -1):
                check(sa * p, sb * q)
                check(sa * p + 1, sb * q)
                check(sa * p - 1, sb * q)
        p, q = p + 2 * q, p + q
    for _ in range(2000):
        bits = rng.choice((8, 62, 63, 64, 65, 130, 300))
        a = rng.randint(-(1 << bits), 1 << bits)
        b = rng.randint(-(1 << bits), 1 << bits)
        check(a, b)
        check(0, b)
        check(a, 0)


def _fold_size_sq(members, coeffs, slot, domain_exp):
    """Largest pinned density by a plain QuadScalar fold over every top."""
    best = ZERO
    for pin in (1, 2, 3, 4):
        if pin == slot:
            continue
        freqs = {q.tile(pin).freq.left for q in members}
        tops = {
            q.time.ancestor_at(s)
            for q in members
            for s in range(q.time.scale, domain_exp + 1)
        }
        for top in tops:
            for xi in freqs:
                mass = ZERO
                for q in members:
                    if top.contains(q.time) and q.tile(pin).freq.contains_point(xi):
                        mass = mass + coeffs[q] * coeffs[q]
                density = mass / QuadScalar(top.length)
                if density > best:
                    best = density
    return best


def _non_dyadic_coefficients(rng, members):
    dens = (1, 3, 5, 7, 9, 12)
    return {
        q: QuadScalar(
            Fraction(rng.randint(-9, 9), rng.choice(dens)),
            Fraction(rng.randint(-9, 9), rng.choice(dens)),
        )
        for q in members
    }


def test_size_with_non_dyadic_coefficients_matches_a_quadscalar_fold(rng):
    from walshtf.experiments.random_gen import quartile_collection

    for trial in range(12):
        coll = quartile_collection(rng, rng.randint(1, 10), 2, 3)
        coeffs = _non_dyadic_coefficients(rng, coll)
        coeffs[coll[0]] = QuadScalar(Fraction(1, 3), Fraction(2, 7))
        slot = 1 + trial % 4
        report = size(coll, coeffs, slot, 2)
        assert report.value_sq == _fold_size_sq(coll, coeffs, slot, 2)
        tree = report.tree
        mass = ZERO
        for q in tree.quartiles:
            mass = mass + coeffs[q].square()
        assert mass / QuadScalar(tree.top_interval.length) == report.value_sq


def test_selection_with_non_dyadic_coefficients_matches_a_quadscalar_fold(rng):
    from walshtf.experiments.random_gen import quartile_collection

    grabbed = 0
    for trial in range(12):
        coll = quartile_collection(rng, rng.randint(2, 10), 2, 3)
        coeffs = _non_dyadic_coefficients(rng, coll)
        slot = 1 + trial % 4
        alpha = _fold_size_sq(coll, coeffs, slot, 2)
        if alpha == ZERO:
            continue
        alpha = alpha * Fraction(5, 3)
        sel = select_trees(coll, coeffs, slot, alpha, 2)
        assert sel.initial_size_sq == _fold_size_sq(coll, coeffs, slot, 2)
        quarter = alpha * Fraction(1, 4)
        for grab in sel.grabs:
            grabbed += 1
            mass = ZERO
            for q in grab.seed.quartiles:
                mass = mass + coeffs[q] * coeffs[q]
            assert mass >= quarter * grab.seed.top_interval.length
        left = list(sel.residual)
        assert sel.residual_size_sq == _fold_size_sq(left, coeffs, slot, 2)
        assert sel.residual_size_sq <= quarter
    assert grabbed > 0
