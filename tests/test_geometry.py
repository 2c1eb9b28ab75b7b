"""Dyadic intervals, tiles, quartiles and trees."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from walshtf import (
    DyadicInterval,
    Quartile,
    Tile,
    Tree,
    containing_interval,
    maximal_tree,
    pow2_fraction,
    tiles_disjoint,
)
from walshtf.errors import InvalidTree, NotDyadicError
from walshtf.geometry import _json_int, _json_object, _xi_from_text, _xi_text, band_index
from walshtf.experiments.random_gen import disjoint_collection, pinned_tree


@st.composite
def intervals(draw):
    scale = draw(st.integers(min_value=-5, max_value=4))
    index = draw(st.integers(min_value=0, max_value=40))
    return DyadicInterval(index, scale)


@given(intervals())
def test_interval_endpoints(iv):
    assert iv.left == iv.index * Fraction(2) ** iv.scale
    assert iv.right - iv.left == iv.length
    assert iv.length == Fraction(2) ** iv.scale


@given(intervals())
def test_half_open_membership(iv):
    assert iv.contains_point(iv.left)
    assert not iv.contains_point(iv.right)
    assert iv.contains_point((iv.left + iv.right) / 2)


@given(intervals())
def test_children_partition_parent(iv):
    lo, hi = iv.left_child, iv.right_child
    assert lo.parent == iv and hi.parent == iv
    assert lo.right == hi.left
    assert lo.left == iv.left and hi.right == iv.right
    assert iv.contains(lo) and iv.contains(hi)
    assert not lo.intersects(hi)


@st.composite
def interval_pairs(draw):
    """Two intervals, one inside the other (or equal) in half the draws."""
    a = draw(intervals())
    if draw(st.booleans()):
        return a, draw(intervals())
    down = draw(st.integers(min_value=0, max_value=4))
    offset = draw(st.integers(min_value=0, max_value=(1 << down) - 1))
    b = DyadicInterval((a.index << down) + offset, a.scale - down)
    return (a, b) if draw(st.booleans()) else (b, a)


@given(interval_pairs())
def test_nesting_matches_endpoints(pair):
    a, b = pair
    assert a.contains(b) == (a.left <= b.left and b.right <= a.right)
    assert a.intersects(b) == (a.left < b.right and b.left < a.right)
    assert a.intersects(b) == (a.contains(b) or b.contains(a))


@given(intervals(), st.integers(min_value=0, max_value=8))
def test_ancestors_contain(iv, up):
    anc = iv.ancestor_at(iv.scale + up)
    assert anc.contains(iv)
    assert anc.scale == iv.scale + up


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=30))
def test_cell_range_width(scale, index):
    iv = DyadicInterval(index, scale)
    lo, hi = iv.cell_range(4)
    assert hi - lo == 1 << (scale + 4)
    assert lo == index << (scale + 4)


@given(st.fractions(min_value=0, max_value=15, max_denominator=32),
       st.integers(min_value=-5, max_value=4))
def test_containing_interval_is_tight(x, scale):
    iv = containing_interval(x, scale)
    assert iv.scale == scale
    assert iv.contains_point(x)


@given(intervals())
def test_interval_json_round_trip(iv):
    assert DyadicInterval.from_json(iv.to_json()) == iv


def test_tile_area_enforced():
    with pytest.raises(ValueError):
        Tile(DyadicInterval(0, 1), DyadicInterval(0, 1))
    tile = Tile(DyadicInterval(0, 1), DyadicInterval(3, -1))
    assert tile.time.length * tile.freq.length == 1
    assert Tile.from_json(tile.to_json()) == tile


def test_quartile_area_enforced():
    with pytest.raises(ValueError):
        Quartile(DyadicInterval(0, 0), DyadicInterval(0, 1))
    q = Quartile(DyadicInterval(0, 0), DyadicInterval(1, 2))
    assert Quartile.from_json(q.to_json()) == q


@st.composite
def quartiles(draw):
    scale = draw(st.integers(min_value=-3, max_value=3))
    time = DyadicInterval(draw(st.integers(min_value=0, max_value=20)), scale)
    freq = DyadicInterval(draw(st.integers(min_value=0, max_value=20)), 2 - scale)
    return Quartile(time, freq)


@given(quartiles())
def test_subtiles_partition_quartile(q):
    tiles = q.tiles()
    assert len(tiles) == 4
    assert [q.tile(i) for i in (1, 2, 3, 4)] == list(tiles)
    for t in tiles:
        assert t.time == q.time
        assert q.freq.contains(t.freq)
    lefts = [t.freq.left for t in tiles]
    assert lefts[0] == q.freq.left
    for a, b in zip(tiles, tiles[1:]):
        assert a.freq.right == b.freq.left
    assert tiles[-1].freq.right == q.freq.right


@given(quartiles())
def test_grandchild_positions(q):
    for i in (1, 2, 3, 4):
        sub = q.tile(i).freq
        assert q.grandchild_of(sub.left) == i
        inside = sub.left + sub.length / 3
        assert q.grandchild_of(inside) == i


@given(quartiles(), quartiles())
def test_quartile_overlap_matches_rectangles(a, b):
    overlap = (
        a.time.left < b.time.right
        and b.time.left < a.time.right
        and a.freq.left < b.freq.right
        and b.freq.left < a.freq.right
    )
    assert a.intersects(b) == overlap
    assert b.intersects(a) == overlap


@st.composite
def tiles(draw):
    scale = draw(st.integers(min_value=-3, max_value=3))
    time = DyadicInterval(draw(st.integers(min_value=0, max_value=12)), scale)
    freq = DyadicInterval(draw(st.integers(min_value=0, max_value=12)), -scale)
    return Tile(time, freq)


@given(tiles(), tiles())
def test_tiles_disjoint_matches_rectangles(a, b):
    brute = not (a.time.intersects(b.time) and a.freq.intersects(b.freq))
    assert tiles_disjoint(a, b) == brute
    assert tiles_disjoint(b, a) == brute


def test_tree_validation():
    q = Quartile(DyadicInterval(0, 0), DyadicInterval(1, 2))
    with pytest.raises(InvalidTree):
        Tree([q], DyadicInterval(1, 0), Fraction(9, 2))
    with pytest.raises(InvalidTree):
        Tree([q], DyadicInterval(0, 1), Fraction(9))
    tree = Tree([q], DyadicInterval(0, 1), Fraction(9, 2))
    assert tree.top_interval == DyadicInterval(0, 1)
    assert tree.top_tile.time == tree.top_interval
    assert tree.omega_top.contains_point(Fraction(9, 2))
    assert tree.omega_top.length * tree.top_interval.length == 1


def test_tree_members_grandchildren_by_pin():
    # A tree's members overlap at one grandchild index when xi falls in
    # that grandchild of every member's frequency interval.
    top = DyadicInterval(0, 2)
    base = Quartile(DyadicInterval(0, 2), DyadicInterval(0, 0))
    overlapping = Tree([base], top, Fraction(1, 4))
    assert {q.grandchild_of(overlapping.top_freq) for q in overlapping.quartiles} == {2}
    same = Tree(
        [
            Quartile(DyadicInterval(0, 0), DyadicInterval(0, 2)),
            Quartile(DyadicInterval(1, 0), DyadicInterval(0, 2)),
        ],
        top,
        Fraction(0),
    )
    assert {q.grandchild_of(same.top_freq) for q in same.quartiles} == {1}
    mixed = Tree(
        [
            Quartile(DyadicInterval(0, 0), DyadicInterval(0, 2)),
            Quartile(DyadicInterval(0, 1), DyadicInterval(0, 1)),
        ],
        top,
        Fraction(3, 2),
    )
    assert {q.grandchild_of(mixed.top_freq) for q in mixed.quartiles} == {2, 4}


def test_tree_json_round_trip():
    members = [
        Quartile(DyadicInterval(0, 0), DyadicInterval(1, 2)),
        Quartile(DyadicInterval(0, 1), DyadicInterval(2, 1)),
    ]
    tree = Tree(members, DyadicInterval(0, 1), Fraction(9, 2))
    again = Tree.from_json(tree.to_json())
    assert again == tree
    assert again.sorted_quartiles() == tree.sorted_quartiles()


def test_tree_and_maximal_tree_refuse_a_non_dyadic_frequency():
    q = Quartile(DyadicInterval(0, 0), DyadicInterval(0, 2))
    for xi in (Fraction(1, 3), Fraction(-5, 12)):
        with pytest.raises(NotDyadicError):
            Tree([q], DyadicInterval(0, 0), xi)
        with pytest.raises(NotDyadicError):
            Tree([], DyadicInterval(0, 0), xi)
        with pytest.raises(NotDyadicError):
            maximal_tree([q], DyadicInterval(0, 0), xi)


@given(st.integers(-(1 << 80), 1 << 80), st.integers(-90, 90))
@example(0, 5)
@example(12, 0)
@example(-3, -3)
def test_tree_xi_text_round_trips_in_canonical_form(n, e):
    # Zero, integers with trailing zero bits, negative numerators and
    # exponents down to -90, through the tree's JSON and the text itself.
    x = n * pow2_fraction(e)
    text = Tree([], DyadicInterval(0, 0), x).to_json()["xi"]
    assert text == _xi_text(x)
    num, exp = (int(part) for part in text.split("*2^"))
    assert num % 2 == 1 or (num, exp) == (0, 0)
    assert num * pow2_fraction(exp) == x
    data = {"quartiles": [], "top_interval": {"n": 0, "k": 0}, "xi": text}
    assert Tree.from_json(data).top_freq == x
    assert _xi_from_text(f"{n}*2^{e}") == x


@pytest.mark.parametrize(
    "xi, error",
    [(text, ValueError) for text in
     ["1/3", "1*3^2", "1.5*2^0", "1*2^", "*2^1", "", "1*2^-70000", "1*2^1000000"]]
    + [(5, TypeError), (None, TypeError)],
)
def test_tree_from_json_refuses_a_malformed_xi(xi, error):
    data = {"quartiles": [], "top_interval": {"n": 0, "k": 0}, "xi": xi}
    with pytest.raises(error):
        Tree.from_json(data)


def test_maximal_tree_collects_exactly_the_members_under_the_top(rng):
    pool = disjoint_collection(rng, 20, 3, 5)
    top = DyadicInterval(0, 3)
    xi = Fraction(3, 2)
    tree = maximal_tree(pool, top, xi)
    expected = {
        q for q in pool if top.contains(q.time) and q.freq.contains_point(xi)
    }
    assert set(tree.quartiles) == expected


@st.composite
def tree_problems(draw):
    """A top, a frequency xi and a pool of quartiles, each of whose time
    and frequency intervals is drawn either around the top and xi or
    anywhere, so that both members and strangers are common."""
    xi = Fraction(draw(st.integers(min_value=0, max_value=255)), 32)
    top = DyadicInterval(
        draw(st.integers(min_value=0, max_value=3)), draw(st.integers(min_value=0, max_value=3))
    )
    pool = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        k = draw(st.integers(min_value=-2, max_value=4))
        if k <= top.scale and draw(st.booleans()):
            room = 1 << (top.scale - k)
            time = DyadicInterval(top.index * room + draw(st.integers(0, room - 1)), k)
        else:
            time = DyadicInterval(draw(st.integers(min_value=0, max_value=15)), k)
        if draw(st.booleans()):
            freq = containing_interval(xi, 2 - k)
        else:
            freq = DyadicInterval(draw(st.integers(min_value=0, max_value=40)), 2 - k)
        pool.append(Quartile(time, freq))
    return pool, top, xi


@given(tree_problems(), st.data())
def test_tree_refuses_exactly_the_members_outside_the_maximal_tree(problem, data):
    pool, top, xi = problem
    maximal = maximal_tree(pool, top, xi).quartiles
    assert maximal == {q for q in pool if top.contains(q.time) and q.freq.contains_point(xi)}
    members = data.draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else []
    if set(members) <= maximal:
        assert Tree(members, top, xi).quartiles == frozenset(members)
    else:
        with pytest.raises(InvalidTree):
            Tree(members, top, xi)


def test_lacunary_tiles_are_disjoint(rng):
    for trial in range(25):
        pin = 1 + trial % 4
        tree = pinned_tree(rng, pin, 3, 5, depth=4, max_per_scale=3)
        for j in (1, 2, 3, 4):
            if j == pin:
                continue
            stamps = [q.tile(j) for q in tree.sorted_quartiles()]
            for a in range(len(stamps)):
                for b in range(a + 1, len(stamps)):
                    assert tiles_disjoint(stamps[a], stamps[b])


def _kind_of(draw, x: Fraction):
    """x as a Fraction, or as its floor when an int is drawn."""
    return x.numerator // x.denominator if draw(st.booleans()) else x


@st.composite
def points(draw):
    """A point of any kind and sign, dyadic or not (1/3, -5/12, ...)."""
    return _kind_of(draw, draw(st.fractions(min_value=-50, max_value=50, max_denominator=96)))


@st.composite
def points_near(draw, interval: DyadicInterval):
    """A point of any kind within one length of the interval on either side."""
    offset = draw(st.fractions(min_value=-1, max_value=2, max_denominator=24))
    return _kind_of(draw, interval.left + offset * interval.length)


scales_both_sides = st.integers(min_value=-6, max_value=5)


@given(points(), scales_both_sides)
def test_band_index_is_the_band_holding_the_point(x, scale):
    index = band_index(x, scale)
    width = pow2_fraction(scale)
    assert index * width <= Fraction(x) < (index + 1) * width


@given(points(), scales_both_sides)
def test_containing_interval_holds_the_point_or_refuses_it(x, scale):
    if Fraction(x) < 0:
        with pytest.raises(ValueError):
            containing_interval(x, scale)
        return
    iv = containing_interval(x, scale)
    assert (iv.index, iv.scale) == (band_index(x, scale), scale)
    assert iv.left <= Fraction(x) < iv.right


def _grandchild_by_endpoints(q: Quartile, x: Fraction) -> int:
    hits = [i for i in (1, 2, 3, 4) if q.tile(i).freq.left <= x < q.tile(i).freq.right]
    return hits[0] if hits else 0


@given(st.data())
def test_grandchild_of_matches_the_subtile_endpoints(data):
    q = data.draw(quartiles())
    xi = data.draw(points_near(q.freq))
    assert q.grandchild_of(xi) == _grandchild_by_endpoints(q, Fraction(xi))


@pytest.mark.parametrize(
    "value, error",
    [(True, TypeError), (2.0, TypeError), ("3", TypeError), (None, TypeError), (0, ValueError),
     (5, ValueError), (10**40, ValueError)],
)
def test_json_int_refuses_a_non_integer_or_a_value_outside_its_bounds(value, error):
    with pytest.raises(error, match='"slot" must be an integer from 1 to 4'):
        _json_int(value, "slot", 1, 4)


def test_json_int_takes_open_bounds():
    assert _json_int(-(10**40), "seed") == -(10**40)
    assert _json_int(10**400, "trials", 1) == 10**400
    with pytest.raises(ValueError, match='"trials" must be an integer from 1 to inf, got 0'):
        _json_int(0, "trials", 1)
    with pytest.raises(ValueError, match='"k" must be an integer from -inf to 2, got 3'):
        _json_int(3, "k", hi=2)
    with pytest.raises(TypeError, match='"seed" must be an integer from -inf to inf, got 2.5'):
        _json_int(2.5, "seed")


def test_json_object_names_the_missing_and_the_extra_keys():
    assert _json_object({"n": 0}, "an interval", ("n",), ("k",)) == {"n": 0}
    with pytest.raises(TypeError, match="an interval must be a JSON object, got list"):
        _json_object([], "an interval", ("n",))
    with pytest.raises(ValueError, match='an interval lacks the field "k"'):
        _json_object({"n": 0}, "an interval", ("n", "k"))
    with pytest.raises(ValueError, match=r'holds "\\n", "z"; only "n", "k" may appear'):
        _json_object({"n": 0, "k": 0, "z": 1, "\n": 2}, "an interval", ("n", "k"))


@pytest.mark.parametrize(
    "n, k", [(0, 32), (1, 31), (2**64 - 1, -32), (3, 30), (0, -32)],
)
def test_interval_reader_accepts_every_interval_inside_its_bound(n, k):
    assert DyadicInterval.from_json({"n": n, "k": k}) == DyadicInterval(n, k)


@pytest.mark.parametrize(
    "n, k, named",
    [(0, 33, '"k"'), (0, -33, '"k"'), (1, 32, '"k"'), (4, 30, '"k"'), (2**64, -32, '"n"'),
     (-1, 0, '"n"')],
)
def test_interval_reader_refuses_an_interval_past_2_to_the_32(n, k, named):
    # (n + 1) 2^k may not pass 2^32, and |k| may not pass 32.
    with pytest.raises(ValueError, match=named):
        DyadicInterval.from_json({"n": n, "k": k})
