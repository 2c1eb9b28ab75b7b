"""Dyadic intervals, tiles, quartiles and trees."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from walshtf import (
    DyadicInterval,
    DyadicRational,
    Quartile,
    Tile,
    Tree,
    containing_interval,
    lacunary_tiles_disjoint,
    maximal_tree,
    pow2_fraction,
    tiles_disjoint,
)
from walshtf.errors import InvalidTree
from walshtf.geometry import _json_int, _json_object, band_index
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


def test_tree_classification_by_pin():
    top = DyadicInterval(0, 2)
    base = Quartile(DyadicInterval(0, 2), DyadicInterval(0, 0))
    fine = Quartile(DyadicInterval(1, 0), DyadicInterval(1, 2))
    # xi = 1/4 sits in the second grandchild of base ([1/4, 1/2)) and
    # the first of fine ([4, 5) does not contain it), so pick xi = 9/2
    # shared: base freq [0, 4) misses it.  Use separate trees instead.
    overlapping = Tree([base], top, Fraction(1, 4))
    assert overlapping.classify().overlap_indices == frozenset({2})
    assert overlapping.classify().is_overlapping(2)
    assert overlapping.classify().is_lacunary(1)
    assert not overlapping.classify().is_lacunary(2)
    mixed = Tree(
        [
            Quartile(DyadicInterval(0, 0), DyadicInterval(0, 2)),
            Quartile(DyadicInterval(1, 0), DyadicInterval(0, 2)),
        ],
        top,
        Fraction(0),
    )
    assert mixed.classify().overlap_indices == frozenset({1})
    empty = Tree([], top, 0)
    assert empty.classify().overlap_indices == frozenset({1, 2, 3, 4})


def test_tree_json_round_trip():
    members = [
        Quartile(DyadicInterval(0, 0), DyadicInterval(1, 2)),
        Quartile(DyadicInterval(0, 1), DyadicInterval(2, 1)),
    ]
    tree = Tree(members, DyadicInterval(0, 1), Fraction(9, 2))
    again = Tree.from_json(tree.to_json())
    assert again == tree
    assert again.sorted_quartiles() == tree.sorted_quartiles()


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
            assert lacunary_tiles_disjoint(tree, j)
            stamps = [q.tile(j) for q in tree.sorted_quartiles()]
            for a in range(len(stamps)):
                for b in range(a + 1, len(stamps)):
                    assert tiles_disjoint(stamps[a], stamps[b])


def _value(x) -> Fraction:
    return x.as_fraction() if isinstance(x, DyadicRational) else Fraction(x)


def _kind_of(draw, x: Fraction):
    """x as a Fraction, as its floor when an int is drawn, or as a
    DyadicRational when its denominator is a power of two."""
    kinds = ["fraction", "int"]
    if x.denominator & (x.denominator - 1) == 0:
        kinds.append("dyadic")
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return x.numerator // x.denominator
    return DyadicRational.from_fraction(x) if kind == "dyadic" else x


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
    assert index * width <= _value(x) < (index + 1) * width


@given(points(), scales_both_sides)
def test_containing_interval_holds_the_point_or_refuses_it(x, scale):
    if _value(x) < 0:
        with pytest.raises(ValueError):
            containing_interval(x, scale)
        return
    iv = containing_interval(x, scale)
    assert (iv.index, iv.scale) == (band_index(x, scale), scale)
    assert iv.left <= _value(x) < iv.right


def _grandchild_by_endpoints(q: Quartile, x: Fraction) -> int:
    hits = [i for i in (1, 2, 3, 4) if q.tile(i).freq.left <= x < q.tile(i).freq.right]
    return hits[0] if hits else 0


@given(st.data())
def test_grandchild_of_matches_the_subtile_endpoints(data):
    q = data.draw(quartiles())
    xi = data.draw(points_near(q.freq))
    assert q.grandchild_of(xi) == _grandchild_by_endpoints(q, _value(xi))


@given(tree_problems(), st.booleans())
def test_classify_matches_the_subtile_endpoints(problem, as_dyadic):
    pool, top, xi = problem
    tree = maximal_tree(pool, top, DyadicRational.from_fraction(xi) if as_dyadic else xi)
    positions = {_grandchild_by_endpoints(q, xi) for q in tree.quartiles}
    if not positions:
        expected = {1, 2, 3, 4}
    else:
        expected = positions if len(positions) == 1 else set()
    assert tree.classify().overlap_indices == expected


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
