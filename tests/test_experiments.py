"""Experiment drivers, their configuration and the command line."""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cli_golden import FIXTURE as CLI_FIXTURE, SELECTION_INPUT
from oracles import naive_disjoint_collection, naive_quartile_collection, reference_random_quartile
from walshtf import Quartile, QuadScalar, SelectionResult, StepFunction, Tile, errors
from walshtf.errors import ConfigError, EmptySet, WalshtfError
from walshtf.experiments import (
    LEMMA_NAMES,
    run_counting_experiment,
    run_identity_suite,
    run_lemma_experiment,
    run_restricted_type,
    run_theorem1,
    selection_svg,
)
from walshtf.experiments.cli import _CONFIG_FLAGS, build_parser, main
from walshtf.experiments.config import ExperimentConfig
from walshtf.experiments.restricted import _normalising_shift
from walshtf.experiments.suites import _LEMMA_DRIVERS
from walshtf.experiments.theorem import _operator_fields
from walshtf.experiments.random_gen import (
    _draw_below,
    disjoint_collection,
    dyadic_set,
    frequency_set,
    masked_signs,
    pinned_forest,
    pinned_tree,
    quartile_collection,
    random_quartile,
    sign_function,
)
from walshtf.experiments.report import ExperimentReport, format_value, median, trend_slope


def test_default_config_is_consistent():
    cfg = ExperimentConfig()
    assert cfg.r == 3.0
    assert cfg.with_overrides(trials=7).trials == 7
    assert cfg.with_overrides(r=math.inf).r == math.inf
    assert cfg.with_overrides(r=3, p1=4, p2=4, q=2) == cfg


@pytest.mark.parametrize(
    "overrides",
    [
        {"r": 2.0},
        {"q": 0.5},
        {"p1": -1.0},
        {"q": 3.0},
        {"maximal_exp": 1.0},
        {"p2": 0.0},
        {"grid_j": -1},
        {"trials": 0},
        {"grid_m": 1},
        {"r": math.nan},
        {"p1": math.nan},
        {"p2": math.nan},
        {"maximal_exp": math.nan},
        {"epsilon": math.nan},
        {"r": "3"},
        {"epsilon": None},
        {"p1": True},
        {"trials": 2.5},
        {"seed": 1.0},
        {"grid_j": True},
        {"grid_m": "5"},
        {"grid_j": 12, "grid_m": 5},
        # 1/p1 overflowed to inf, and |inf - 1/q| <= 1e-9 * inf held.
        {"p1": 5e-324},
        {"p1": 5e-324, "p2": 5e-324},
    ],
)
def test_config_rejects_bad_fields(overrides):
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**{}, **overrides})


def test_config_json_round_trip(tmp_path):
    cfg = ExperimentConfig(trials=5, seed=11, grid_j=2, grid_m=4)
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json()))
    assert ExperimentConfig.from_file(path) == cfg
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"nonsense": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "missing.json")


def test_format_value_is_deterministic():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(0.1) == "0.1"
    assert format_value(QuadScalar(Fraction(1, 2))) == "1/2+0/1*sqrt2"
    assert format_value(Fraction(3, 4)) == "3/4"
    assert format_value("plain") == "plain"


def test_report_bookkeeping():
    rep = ExperimentReport(
        "demo",
        ("trial", "ok"),
        ((0, True), (1, False), (2, True)),
        (("failures", 1),),
    )
    assert [row[0] for row in rep.rows] == [0, 1, 2]
    assert rep.summary_value("failures") == 1
    with pytest.raises(KeyError):
        rep.summary_value("absent")
    lines = rep.to_csv().splitlines()
    assert lines[0] == "# report: demo"
    assert lines[1] == "# failures = 1"
    assert lines[2] == "trial,ok"


def test_median_and_trend_slope():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert math.isnan(median([]))
    xs = [0.0, 1.0, 2.0, 3.0]
    assert trend_slope(xs, [5.0 + 0.5 * x for x in xs]) == pytest.approx(0.5)
    assert trend_slope([1.0, 1.0], [0.0, 5.0]) == 0.0
    assert trend_slope([], []) == 0.0


def test_disjoint_collection_is_disjoint(rng):
    coll = disjoint_collection(rng, 12, 3, 5)
    assert len(coll) == 12
    for i, a in enumerate(coll):
        for b in coll[i + 1 :]:
            assert not (a.time.intersects(b.time) and a.freq.intersects(b.freq))
    with pytest.raises(RuntimeError):
        disjoint_collection(rng, 10_000, 2, 3)


def test_disjoint_collection_refuses_overfull_requests_before_drawing(rng):
    # A (2, 3) box has area 32 and holds at most 8 disjoint quartiles.
    state = rng.getstate()
    with pytest.raises(RuntimeError, match="could not place 9 disjoint quartiles"):
        disjoint_collection(rng, 9, 2, 3)
    assert rng.getstate() == state


@st.composite
def disjoint_requests(draw):
    """(count, J, m) over boxes with J + m from 3 to 12.

    Counts run up to the box's capacity 2^(J+m-2) and one past it, but
    stop at 64, because the pairwise oracle costs O(count) per draw:
    boxes with J + m <= 8 are covered to capacity and beyond.
    """
    total = draw(st.integers(3, 12))
    domain_exp = draw(st.integers(0, total))
    resolution_exp = total - domain_exp
    capacity = 1 << (total - 2)
    count = draw(st.integers(0, min(capacity + 1, 64)))
    return count, domain_exp, resolution_exp


def _disjoint_outcome(sampler, seed, args):
    """What sampler returns or raises on args, and the state it
    leaves in a Random seeded with seed."""
    rng = random.Random(seed)
    try:
        result = sampler(rng, *args)
    except (RuntimeError, ValueError) as exc:
        result = (type(exc), str(exc))
    return result, rng.getstate()


@given(disjoint_requests(), st.integers(0, 2**32))
@example((9, 2, 3), 0)  # over capacity: refused before any draw
@example((8, 2, 3), 1)  # filled to capacity
@example((64, 3, 5), 2)  # filled to capacity from every scale
@example((12, 9, 7), 3)  # J + m at the grid cap
@example((6, 16, 0), 4)  # at the cap with m = 0
@example((6, 0, 16), 5)  # at the cap with J = 0
def test_disjoint_collection_matches_the_pairwise_scan(args, seed):
    indexed = _disjoint_outcome(disjoint_collection, seed, args)
    assert indexed == _disjoint_outcome(naive_disjoint_collection, seed, args)


@pytest.mark.parametrize("box", [(9, 8), (0, 17), (17, 0)])
def test_disjoint_collection_refuses_a_box_above_the_grid_cap_before_drawing(rng, box):
    state = rng.getstate()
    with pytest.raises(ValueError, match="J \\+ m above 16"):
        disjoint_collection(rng, 1, *box)
    assert rng.getstate() == state


@st.composite
def quartile_boxes(draw):
    """A box, which may hold no quartile, and a number of draws."""
    domain_exp = draw(st.integers(-1, 7))
    resolution_exp = draw(st.integers(max(1, 1 - domain_exp), 9))
    return domain_exp, resolution_exp, draw(st.integers(1, 40))


@given(quartile_boxes(), st.integers(0, 2**32))
@example((0, 2, 30), 5)  # one scale: every time index is 0
@example((0, 1, 3), 0)  # J + m < 2: no quartile fits
def test_random_quartile_draws_what_randint_and_randrange_draw(box, seed):
    domain_exp, resolution_exp, draws = box

    def reference(rng, domain_exp, resolution_exp):
        q = reference_random_quartile(rng, domain_exp, resolution_exp)
        return q.time.scale, q.time.index, q.freq.index

    outcomes = []
    for sampler in (random_quartile, reference):
        rng = random.Random(seed)
        try:
            result = [sampler(rng, domain_exp, resolution_exp) for _ in range(draws)]
        except ValueError as exc:
            result = str(exc)
        outcomes.append((result, rng.getstate()))
    assert outcomes[0] == outcomes[1]


@st.composite
def distinct_requests(draw):
    """(count, J, m) over boxes with J + m from 0 to 8.

    Counts run up to the box's capacity (J+m-1) 2^(J+m-2) and one past
    it, but stop at 80; a box with J + m < 2 holds no quartile.
    """
    total = draw(st.integers(0, 8))
    domain_exp = draw(st.integers(0, total))
    capacity = (total - 1) << (total - 2) if total >= 2 else 1
    count = draw(st.integers(0, min(capacity + 1, 80)))
    return count, domain_exp, total - domain_exp


@given(distinct_requests(), st.integers(0, 2**32))
@example((33, 2, 3), 0)  # over capacity: refused before any draw
@example((32, 2, 3), 1)  # filled to capacity
@example((1, 0, 1), 2)  # J + m < 2: no quartile fits
def test_quartile_collection_matches_a_set_of_quartiles(args, seed):
    indexed = _disjoint_outcome(quartile_collection, seed, args)
    assert indexed == _disjoint_outcome(naive_quartile_collection, seed, args)


def test_disjoint_collection_builds_a_quartile_only_for_an_accepted_draw(monkeypatch, rng):
    built = []
    check = Quartile.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Quartile, "__post_init__", counted)
    coll = disjoint_collection(rng, 100, 4, 5)
    assert len(built) == 100
    assert [id(q) for q in built] == [id(q) for q in coll]


def test_theorem1_builds_no_tile_and_no_scalar_per_quartile(monkeypatch, rng):
    built = {"tiles": 0, "scalars": 0}
    check_tile = Tile.__post_init__
    from_ints = QuadScalar.from_ints.__func__
    init = QuadScalar.__init__

    def counted_tile(self):
        built["tiles"] += 1
        check_tile(self)

    def counted_from_ints(cls, *args):
        built["scalars"] += 1
        return from_ints(cls, *args)

    def counted_init(self, *args):
        built["scalars"] += 1
        init(self, *args)

    f1, f2 = sign_function(rng, 4, 5), sign_function(rng, 4, 5)
    coll = disjoint_collection(rng, 100, 4, 5)
    f1.packet_tables(), f2.packet_tables()
    monkeypatch.setattr(Tile, "__post_init__", counted_tile)
    monkeypatch.setattr(QuadScalar, "from_ints", classmethod(counted_from_ints))
    monkeypatch.setattr(QuadScalar, "__init__", counted_init)
    _operator_fields(f1, f2, coll, 3.0, 4, 5)
    assert built == {"tiles": 0, "scalars": 0}


class _StuckRandom(random.Random):
    """Draws zero bits every time, so every candidate after the first
    repeats it and a disjoint draw of two or more runs out of budget.

    Both samplers reach the generator through `getrandbits` alone:
    `random_quartile` directly, the reference through `randint` and
    `randrange`, which call it once for each draw that is accepted."""

    draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return 0


@pytest.mark.parametrize("count", [2, 5])
def test_disjoint_collection_runs_out_of_budget_like_the_pairwise_scan(count):
    outcomes = []
    for sampler in (disjoint_collection, naive_disjoint_collection):
        rng = _StuckRandom(0)
        with pytest.raises(RuntimeError) as info:
            sampler(rng, count, 3, 5)
        outcomes.append((str(info.value), rng.draws))
    message = f"could not place {count} disjoint quartiles in a (J=3, m=5) box"
    # Three integers per candidate, 300 count + 300 candidates.
    assert outcomes[0] == outcomes[1] == (message, 3 * (300 * count + 300))


def test_quartile_collection_refuses_counts_above_the_box_before_drawing(rng):
    # A (2, 3) box has scales -1..2, each holding 2^3 quartiles.
    state = rng.getstate()
    with pytest.raises(RuntimeError, match="could not draw 33 distinct quartiles"):
        quartile_collection(rng, 33, 2, 3)
    assert rng.getstate() == state
    assert len(set(quartile_collection(rng, 32, 2, 3))) == 32


def test_pinned_tree_overlaps_uniformly(rng):
    for pin in (1, 2, 3, 4):
        tree = pinned_tree(rng, pin, 3, 5, depth=4)
        assert {q.grandchild_of(tree.top_freq) for q in tree.quartiles} == {pin}


def test_pinned_forest_members(rng):
    forest = pinned_forest(rng, 2, 3, 5, count=4)
    assert len(forest) == 4
    for tree in forest:
        assert len(tree) >= 1
        assert {q.grandchild_of(tree.top_freq) for q in tree.quartiles} == {2}


def test_dyadic_set_and_masked_signs(rng):
    mask = dyadic_set(rng, 2, 3, density=0.6)
    assert all(v in (QuadScalar(0), QuadScalar(1)) for v in mask.values)
    f = masked_signs(rng, mask)
    for m, v in zip(mask.values, f.values):
        if m == QuadScalar(0):
            assert v == QuadScalar(0)
        else:
            assert v in (QuadScalar(1), QuadScalar(-1))


@given(
    st.integers(min_value=0, max_value=2**64),
    st.sampled_from([2, 3]),
    st.integers(min_value=1, max_value=16384),
)
@example(seed=0, n=3, count=1)
@example(seed=0, n=2, count=16384)
def test_whole_word_draws_match_the_choice_loop(seed, n, count):
    fast, slow = random.Random(seed), random.Random(seed)
    got = _draw_below(fast, n, count)
    assert got.tolist() == [slow.choice(range(n)) for _ in range(count)]
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("seed", range(8))
def test_sign_generators_keep_the_choice_stream(seed):
    fast, slow = random.Random(seed), random.Random(seed)
    f = sign_function(fast, 2, 4)
    want = [slow.choice((-1, 0, 1)) for _ in range(64)]
    assert f == StepFunction(2, 4, want)
    mask = dyadic_set(fast, 2, 4)
    assert dyadic_set(slow, 2, 4) == mask
    g = masked_signs(fast, mask)
    signs = iter([slow.choice((-1, 1)) for _ in mask.support_cells()])
    assert g == StepFunction(2, 4, [next(signs) if m else 0 for m in mask.values])
    assert fast.getstate() == slow.getstate()


def test_frequency_set_draws_distinct_points(rng):
    freqs = frequency_set(rng, 12, 5)
    assert freqs.count_at(-5) == 12


def _tiny_config(**overrides):
    base = dict(trials=4, seed=3, grid_j=2, grid_m=4)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_identity_suite_passes_and_is_deterministic():
    cfg = _tiny_config(trials=6, grid_j=3, grid_m=5)
    rep1 = run_identity_suite(cfg)
    rep2 = run_identity_suite(cfg)
    assert rep1.to_csv() == rep2.to_csv()
    assert rep1.summary_value("failures") == 0
    checks = {row[0] for row in rep1.rows}
    assert {"orthonormality", "trunctree", "shift-table", "vartrunc", "insertdelta"} <= checks


@pytest.mark.parametrize("name", LEMMA_NAMES)
def test_lemma_suites_run_clean(name):
    cfg = _tiny_config(trials=6, grid_j=3, grid_m=5)
    rep = run_lemma_experiment(name, cfg)
    assert rep.summary_value("failures") == 0
    assert rep.summary_value("max_ratio") >= 0.0
    assert rep.to_csv() == run_lemma_experiment(name, cfg).to_csv()


def test_unknown_lemma_is_refused():
    with pytest.raises(ValueError):
        run_lemma_experiment("nope", _tiny_config())


def test_lepingle_ignores_constant_inputs():
    cfg = _tiny_config(trials=2)
    rep = run_lemma_experiment("lepingle", cfg)
    # Ratios are well defined whenever the input has mass; the suite
    # flags and skips anything degenerate rather than dividing by zero.
    at = rep.columns.index("ratio")
    for ratio in (row[at] for row in rep.rows):
        assert ratio >= 0.0 and math.isfinite(ratio)


def test_restricted_type_runs_exactly(rng):
    cfg = _tiny_config(trials=6, grid_j=3, grid_m=5)
    e1 = dyadic_set(rng, 3, 5, 0.8)
    e2 = dyadic_set(rng, 3, 5, 0.5)
    e3 = dyadic_set(rng, 3, 5, 0.4)
    rep = run_restricted_type(e1, e2, e3, cfg)
    assert rep.summary_value("failures") == 0
    assert rep.summary_value("stages") >= 1
    assert float(rep.summary_value("max_tree_estimate_ratio")) <= 1.0


def test_restricted_type_rejects_empty_sets(rng):
    cfg = _tiny_config()
    empty = StepFunction.zero(2, 4)
    full = dyadic_set(rng, 2, 4, 0.9)
    with pytest.raises(EmptySet):
        run_restricted_type(empty, full, full, cfg)


def test_counting_experiment_reports_finite_ratios():
    cfg = _tiny_config(trials=2, grid_j=3, grid_m=5)
    rep = run_counting_experiment(cfg, box_levels=(5, 6))
    assert rep.summary_value("failures") == 0
    assert math.isfinite(rep.summary_value("max_ratio"))
    assert rep.to_csv() == run_counting_experiment(cfg, box_levels=(5, 6)).to_csv()


def _normalising_shift_by_halving(cells, resolution_exp):
    s, scaled = 0, Fraction(cells, 1 << resolution_exp)
    while scaled >= 1:
        scaled /= 2
        s += 1
    while scaled < Fraction(1, 2):
        scaled *= 2
        s -= 1
    return s


def test_normalising_shift_matches_the_halving_loop():
    for cells in (*range(1, 1025), 2**40 - 1, 2**40, 2**40 + 1):
        for m in range(13):
            assert _normalising_shift(cells, m) == _normalising_shift_by_halving(cells, m)


def test_theorem1_unit_quartile_saturates():
    cfg = _tiny_config(trials=2, grid_j=3, grid_m=5)
    rep = run_theorem1(cfg)
    assert rep.summary_value("unit_ratio") == 1.0
    assert rep.summary_value("failures") == 0


def _tiny_selection(rng):
    from walshtf import select_trees, size, slot_coefficients

    coll = disjoint_collection(rng, 6, 3, 4)
    f = sign_function(rng, 3, 4)
    coeffs = slot_coefficients(f, coll, 3)
    alpha = size(coll, coeffs, 3, 3).value_sq
    if alpha == QuadScalar(0):
        pytest.skip("degenerate draw")
    return select_trees(coll, coeffs, 3, alpha, 3)


def test_selection_svg_shape(rng):
    sel = _tiny_selection(rng)
    svg = selection_svg(sel)
    assert svg.startswith('<?xml version="1.0"')
    assert "<svg" in svg
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") >= len(sel.residual)
    assert "alpha=" in svg
    assert selection_svg(sel) == svg


def test_cli_identities_writes_csv(tmp_path, capsys):
    out = tmp_path / "iden.csv"
    code = main(
        [
            "identities",
            "--trials",
            "4",
            "--grid-j",
            "2",
            "--grid-m",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("# report: identities")
    assert "orthonormality" in text


def test_cli_lemma_to_stdout(capsys):
    code = main(["lemma", "john_nirenberg", "--trials", "3", "--grid-j", "2", "--grid-m", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("# report: john_nirenberg")


def test_cli_rejects_unknown_lemma():
    with pytest.raises(SystemExit):
        main(["lemma", "nope"])


def test_cli_missing_config_file(capsys):
    code = main(["identities", "--config", "/nonexistent/cfg.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_refuses_a_nan_exponent_as_bad_input(capsys):
    code = main(["theorem1", "--r", "nan", "--trials", "1", "--grid-j", "2", "--grid-m", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: variation exponent r must exceed 2")


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"r": "3"}, "r must be a number"),
        ({"trials": 2.5, "grid_j": 2, "grid_m": 3}, '"trials" must be an integer'),
        ({"grid_j": True, "grid_m": 3}, '"grid_j" must be an integer'),
    ],
    ids=["string-exponent", "fractional-trials", "bool-grid"],
)
def test_cli_refuses_a_config_field_of_the_wrong_type(tmp_path, capsys, fields, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    code = main(["theorem1", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named}")


@pytest.mark.parametrize("text", ["[]", '["r"]', "5", '"x"'])
def test_cli_refuses_a_config_file_that_is_not_a_json_object(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main(["theorem1", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: a config must be a JSON object")


def test_cli_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "grid_j": 2, "grid_m": 4, "seed": 5}))
    out = tmp_path / "jn.csv"
    code = main(
        ["lemma", "john_nirenberg", "--config", str(cfg), "--trials", "2", "--out", str(out)]
    )
    assert code == 0
    direct = run_lemma_experiment(
        "john_nirenberg", ExperimentConfig(trials=2, grid_j=2, grid_m=4, seed=5)
    )
    assert out.read_text() == direct.to_csv()


def test_cli_select_trees_and_render_round_trip(tmp_path, rng):
    coll = disjoint_collection(rng, 6, 3, 4)
    f = sign_function(rng, 3, 4)
    from walshtf import select_trees, size, slot_coefficients

    coeffs = slot_coefficients(f, coll, 3)
    alpha = size(coll, coeffs, 3, 3).value_sq
    if alpha == QuadScalar(0):
        pytest.skip("degenerate draw")
    request = {
        "collection": [q.to_json() for q in coll],
        "f": f.to_json(),
        "slot": 3,
        "alpha": alpha.to_text(),
        "domain_exp": 3,
    }
    src = tmp_path / "sel_in.json"
    src.write_text(json.dumps(request))
    sel_out = tmp_path / "sel_out.json"
    assert main(["select-trees", "--in", str(src), "--out", str(sel_out)]) == 0
    payload = json.loads(sel_out.read_text())
    sel = SelectionResult.from_json(payload)
    direct = select_trees(coll, coeffs, 3, alpha, 3)
    assert sel.to_json() == direct.to_json()
    svg1 = tmp_path / "one.svg"
    svg2 = tmp_path / "two.svg"
    assert main(["render", "--in", str(sel_out), "--out", str(svg1)]) == 0
    assert main(["render", "--in", str(sel_out), "--out", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    assert svg1.read_text() == selection_svg(direct)


def test_cli_restricted_and_counting_and_theorem(tmp_path):
    for args in (
        ["restricted-type", "--trials", "3", "--grid-j", "2", "--grid-m", "4"],
        ["counting", "--trials", "1", "--grid-j", "3"],
        ["theorem1", "--trials", "2", "--grid-j", "3", "--grid-m", "5"],
    ):
        out = tmp_path / (args[0] + ".csv")
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_text().startswith("# report: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem1", "--epsilon", "0.5"],
        ["identities", "--epsilon", "0.25"],
        ["restricted-type", "--q", "2"],
        ["lemma", "size_bound", "--maximal-exp", "1.5"],
        ["counting", "--r", "3"],
        # Every counting grid comes from the box levels and grid_j.
        ["counting", "--grid-m", "3"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:-1]),
)
def test_cli_refuses_a_flag_its_driver_does_not_read(tmp_path, capsys, argv):
    out = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as info:
        main([*argv, "--trials", "1", "--out", str(out)])
    assert info.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_grid_above_the_cap(tmp_path, capsys):
    # Refused before any allocation: these grids have 2^80 and 2^42 cells.
    assert main(["theorem1", "--grid-j", "40", "--grid-m", "40"]) == 2
    assert '"grid_j" must be an integer from 0 to 14, got 40' in capsys.readouterr().err
    path = _restricted_file(tmp_path, E1={"J": 40, "m": 2, "cells": [0]})
    assert main(["restricted-type", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert '"E1"' in err and '"J" must be an integer from 0 to 16, got 40' in err


@pytest.mark.parametrize(
    "command, minimum",
    [
        ("theorem1", "grid_j + grid_m >= 3"),
        ("restricted-type", "J + m >= 4"),
        ("lemma size_bound", "grid_j + grid_m >= 6"),
        ("lemma john_nirenberg", "grid_j + grid_m >= 3"),
        ("lemma bourgain_delta", "grid_m >= 3"),
    ],
)
def test_cli_refuses_a_grid_below_the_driver_minimum(tmp_path, capsys, command, minimum):
    out = tmp_path / "report.csv"
    args = [*command.split(), "--trials", "4", "--grid-j", "0", "--grid-m", "2", "--out", str(out)]
    assert main(args) == 2
    assert minimum in capsys.readouterr().err
    assert not out.exists()


def test_cli_identities_refuses_a_grid_too_small_for_its_pinned_trees(tmp_path, capsys):
    out = tmp_path / "report.csv"
    args = ["identities", "--trials", "4", "--grid-j", "1", "--grid-m", "2", "--out", str(out)]
    assert main(args) == 2
    assert "grid_m >= grid_j + 2" in capsys.readouterr().err
    assert not out.exists()


def _restricted_file(tmp_path, **changes):
    request = {
        "E1": {"grid": [2, 3], "cells": [0, 1, 2, 5, 9, 17]},
        "E2": {"grid": [2, 3], "cells": list(range(4, 20))},
        "E3": {"grid": [2, 3], "cells": list(range(0, 32, 3))},
        "collection": [{"time": {"n": 0, "k": 1}, "freq": {"n": 2, "k": 1}}],
    }
    request.update(changes)
    for key, value in changes.items():
        if value is None:
            del request[key]
    path = tmp_path / "restricted.json"
    path.write_text(json.dumps(request))
    return path


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"E1": None}, '"E1"'),
        ({"E2": None}, '"E2"'),
        ({"E3": None}, '"E3"'),
        ({"E2": {"grid": [2, 3], "values": ["x"]}}, '"E2"'),
        ({"E3": {"grid": [2, 4], "cells": [1]}}, "share one grid"),
        ({"collection": {"time": {}}}, '"collection"'),
        ({"collection": [{"time": {"n": 0}}]}, '"collection"[0]'),
        ({"collection": [{"time": {"n": 0, "k": 4}, "freq": {"n": 0, "k": -2}}]}, "outside the box"),
        ({"collection": [{"time": {"n": 0, "k": -2}, "freq": {"n": 0, "k": 4}}]}, "finer than"),
    ],
)
def test_cli_restricted_type_names_a_bad_field(tmp_path, capsys, changes, named):
    path = _restricted_file(tmp_path, **changes)
    assert main(["restricted-type", "--in", str(path)]) == 2
    assert named in capsys.readouterr().err


_NEGATIVE_J = [
    {"J": -2, "m": 6, "cells": [0, 1, 2, 5, 9]},
    {"J": -2, "m": 6, "cells": list(range(4, 12))},
    {"J": -2, "m": 6, "cells": list(range(0, 16, 3))},
]


@pytest.mark.parametrize(
    "changes, named",
    [
        (dict(zip(("E1", "E2", "E3"), _NEGATIVE_J), collection=None), ['"E1"', '"J"']),
        (
            {"E1": {"grid": [-1, 5], "cells": [0]}, "E2": {"grid": [-1, 5], "cells": [1]},
             "E3": {"grid": [-1, 5], "cells": [2]}, "collection": None},
            ['"E1"', '"grid"'],
        ),
        (
            {"E2": {"grid": [2, 3], "cells": list(range(4, 20)), "values": ["1/0"]}},
            ['"E2"', '"cells"', '"values"'],
        ),
    ],
    ids=["negative-J", "negative-grid-J", "cells-and-values"],
)
def test_cli_refuses_a_function_the_config_refuses_or_reads_two_ways(
    tmp_path, capsys, changes, named
):
    # Each ran to exit 0: J < 0 is refused as ExperimentConfig refuses
    # grid_j < 0, and "values" beside "cells" was never parsed.
    path = _restricted_file(tmp_path, **changes)
    assert main(["restricted-type", "--in", str(path), "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in named), err


def test_cli_restricted_type_accepts_a_valid_file(tmp_path):
    out = tmp_path / "restricted.csv"
    path = _restricted_file(tmp_path)
    assert main(["restricted-type", "--in", str(path), "--out", str(out)]) == 0
    assert out.read_text().startswith("# report: restricted_type")


def _selection_file(tmp_path, rng, **changes):
    coll = disjoint_collection(rng, 3, 1, 3)
    f = sign_function(rng, 1, 3)
    request = {
        "collection": [q.to_json() for q in coll],
        "f": f.to_json(),
        "slot": 2,
        "alpha": "64",
    }
    request.update(changes)
    for key, value in changes.items():
        if value is None:
            del request[key]
    path = tmp_path / "request.json"
    path.write_text(json.dumps(request))
    return path


@pytest.mark.parametrize("field", ["collection", "f", "slot", "alpha"])
def test_cli_select_trees_names_a_missing_field(tmp_path, rng, capsys, field):
    path = _selection_file(tmp_path, rng, **{field: None})
    assert main(["select-trees", "--in", str(path)]) == 2
    assert f'"{field}"' in capsys.readouterr().err


@pytest.mark.parametrize("slot", [0, 5, "x"])
def test_cli_select_trees_names_a_bad_slot(tmp_path, rng, capsys, slot):
    path = _selection_file(tmp_path, rng, slot=slot)
    assert main(["select-trees", "--in", str(path)]) == 2
    assert '"slot"' in capsys.readouterr().err


@pytest.mark.parametrize(
    "domain_exp",
    [[2], None, -3, 0, 1, 13, 10**6],
    ids=["list", "null", "-3", "0", "1", "13", "10**6"],
)
def test_cli_select_trees_refuses_a_bad_domain_exp(tmp_path, capsys, domain_exp):
    # The golden selection input has J = 2 and m = 4.  A list or null used
    # to end in a TypeError traceback; a domain below J ran on, never
    # making the members coarser than it candidates (0 grabbed 3 trees
    # instead of 1).  A domain past 16 - m = 12 ran on too, in time that
    # grows with it: 10**6 did not finish in 200 s.
    path = tmp_path / "request.json"
    path.write_text(json.dumps({**SELECTION_INPUT, "domain_exp": domain_exp}))
    assert main(["select-trees", "--in", str(path)]) == 2
    assert '"domain_exp"' in capsys.readouterr().err


def test_cli_select_trees_accepts_a_domain_exp_at_the_cap(tmp_path):
    path = tmp_path / "request.json"
    path.write_text(json.dumps({**SELECTION_INPUT, "domain_exp": 12}))
    assert main(["select-trees", "--in", str(path), "--out", str(tmp_path / "sel.json")]) == 0


def test_cli_select_trees_refuses_a_quartile_outside_the_box(tmp_path, rng, capsys):
    # With J = 1 the time box is [0, 2); a quartile over [0, 32) used to
    # be clipped silently.
    stray = {"time": {"n": 0, "k": 5}, "freq": {"n": 0, "k": -3}}
    path = _selection_file(tmp_path, rng)
    request = json.loads(path.read_text())
    request["collection"].append(stray)
    path.write_text(json.dumps(request))
    assert main(["select-trees", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert '"collection"[3]' in err
    assert "outside the box" in err


def test_cli_select_trees_refuses_a_quartile_finer_than_the_cells(tmp_path, capsys):
    # On a (J=1, m=1) grid quartile time scales start at 2 - m = 1; one
    # at scale -1 used to be selected on silently.
    request = {
        "collection": [
            {"time": {"n": 0, "k": 1}, "freq": {"n": 0, "k": 1}},
            {"time": {"n": 0, "k": -1}, "freq": {"n": 0, "k": 3}},
        ],
        "f": {"grid": [1, 1], "cells": [0, 1, 2]},
        "slot": 1,
        "alpha": "1",
    }
    path = tmp_path / "request.json"
    path.write_text(json.dumps(request))
    assert main(["select-trees", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert '"collection"[1]' in err
    assert "finer than" in err


def test_cli_select_trees_accepts_a_valid_file(tmp_path, rng):
    path = _selection_file(tmp_path, rng)
    out = tmp_path / "sel.json"
    assert main(["select-trees", "--in", str(path), "--out", str(out)]) == 0
    assert SelectionResult.from_json(json.loads(out.read_text())).slot == 2


@pytest.mark.parametrize("slot", [1.9, True, "1"], ids=["float", "bool", "string"])
def test_cli_select_trees_refuses_a_slot_that_is_not_a_json_integer(tmp_path, capsys, slot):
    # Each used to be truncated by int() and select as slot 1, exit 0.
    path = tmp_path / "request.json"
    path.write_text(json.dumps({**SELECTION_INPUT, "slot": slot}))
    assert main(["select-trees", "--in", str(path)]) == 2
    assert '"slot"' in capsys.readouterr().err


@pytest.mark.parametrize(
    "f, named",
    [
        ({"J": 2.7, "m": 3, "cells": [1.9]}, '"J"'),
        ({"grid": [True, "3"], "cells": [1]}, '"grid"'),
        ({"J": 1, "m": 1, "values": [True, 1, 0, 0]}, '"values"'),
    ],
    ids=["float-grid-and-cell", "bool-and-string-grid", "bool-value"],
)
def test_cli_select_trees_refuses_a_function_field_that_is_not_a_json_integer(
    tmp_path, capsys, f, named
):
    # int() used to truncate each of these and the selection ran, exit 0.
    request = {
        "collection": [{"time": {"n": 0, "k": 1}, "freq": {"n": 0, "k": 1}}],
        "f": f,
        "slot": 1,
        "alpha": "64",
    }
    path = tmp_path / "request.json"
    path.write_text(json.dumps(request))
    assert main(["select-trees", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert '"f"' in err and named in err


def test_cli_render_refuses_a_malformed_selection(tmp_path, capsys):
    # A selection without "slot" used to end in a KeyError traceback, exit 1.
    path = tmp_path / "selection.json"
    path.write_text(json.dumps({"grabs": []}))
    assert main(["render", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: render input is not a selection")
    assert "Traceback" not in err


def _selection_of_one(time: dict, freq: dict) -> dict:
    """The golden selection input with one quartile as its collection."""
    return {**SELECTION_INPUT, "collection": [{"time": time, "freq": freq}]}


def _selection_with(slot=None, pass_slot=None) -> dict:
    """The golden selection output with its slot or first grab's pass slot replaced."""
    golden = json.loads(CLI_FIXTURE.read_text(encoding="utf-8"))
    selection = json.loads(golden["select-trees"]["out"])
    if slot is not None:
        selection["slot"] = slot
    if pass_slot is not None:
        selection["grabs"][0]["pass_slot"] = pass_slot
    return selection


@pytest.mark.parametrize(
    "command, data, named",
    [
        ("select-trees", _selection_of_one({"n": 1.9, "k": 0}, {"n": 0, "k": 2}), '"n"'),
        ("select-trees", _selection_of_one({"n": True, "k": "0"}, {"n": 0, "k": 2}), '"n"'),
        ("select-trees", _selection_of_one({"n": 0, "k": 0.5}, {"n": 0, "k": 2.7}), '"k"'),
        ("render", _selection_with(slot=1.5), '"slot"'),
        ("render", _selection_with(pass_slot=1.5), '"pass_slot"'),
    ],
    ids=["float-index", "bool-and-string", "float-scales", "render-slot", "render-pass-slot"],
)
def test_cli_refuses_a_quartile_or_selection_field_that_is_not_a_json_integer(
    tmp_path, capsys, command, data, named
):
    # int() used to truncate each of these and the command ran, exit 0.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([command, "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


def test_cli_reports_a_crash_with_exit_3(monkeypatch, capsys):
    def crash(config):
        raise RuntimeError("driver fault")

    monkeypatch.setattr("walshtf.experiments.cli.run_theorem1", crash)
    assert main(["theorem1", "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: driver fault" in err


def test_cli_reports_an_internal_value_error_as_a_crash(monkeypatch, capsys):
    # A ValueError of no contract is a fault of the program, not bad input.
    def crash(config):
        raise ValueError("internal fault")

    monkeypatch.setattr("walshtf.experiments.cli.run_theorem1", crash)
    assert main(["theorem1", "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: internal fault" in err


def test_cli_reports_a_contract_error_as_bad_input(monkeypatch, capsys):
    def refuse(config):
        raise errors.ScaleTooCoarse("quartile above the box")

    monkeypatch.setattr("walshtf.experiments.cli.run_theorem1", refuse)
    assert main(["theorem1", "--trials", "1"]) == 2
    assert capsys.readouterr().err == "error: quartile above the box\n"


def test_cli_reports_a_file_that_is_not_json_as_bad_input(tmp_path, capsys):
    for name, data in (("text.json", b"{not json"), ("binary.json", b"\xff\xfe\x00")):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["select-trees", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_every_contract_error_derives_from_the_package_base():
    classes = [
        value
        for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, Exception)
    ]
    assert len(classes) == 13
    for cls in classes:
        assert issubclass(cls, WalshtfError) and issubclass(cls, ValueError)


@pytest.mark.parametrize("alpha", ["1/0", "1/0+0/1*sqrt2"], ids=["rational", "quadratic"])
def test_cli_select_trees_refuses_an_alpha_with_a_zero_denominator(tmp_path, capsys, alpha):
    # Fraction(1, 0) raised ZeroDivisionError past the boundary: a traceback, exit 1.
    path = tmp_path / "request.json"
    path.write_text(json.dumps({**SELECTION_INPUT, "alpha": alpha}))
    assert main(["select-trees", "--in", str(path)]) == 2
    assert '"alpha"' in capsys.readouterr().err


def _residual_quartile(time: dict, freq: dict) -> dict:
    """The golden selection output with one more residual quartile."""
    selection = _selection_with()
    selection["residual"].append({"time": time, "freq": freq})
    return selection


@pytest.mark.parametrize(
    "command, data, named",
    [
        # A KeyError traceback from the renderer's colour table, exit 3.
        ("render", _selection_with(pass_slot=9), '"pass_slot" must be an integer from 1 to 4'),
        # An OverflowError traceback from the float coordinates, exit 3.
        (
            "render",
            _residual_quartile({"n": 0, "k": -1998}, {"n": 0, "k": 2000}),
            '"k" must be an integer from -32 to 32',
        ),
        ("render", _selection_with(slot=9), '"slot" must be an integer from 1 to 4'),
        # A misspelt domain_exp selected with the default, exit 0.
        ("select-trees", {**SELECTION_INPUT, "domain_exq": 5}, '"domain_exq"'),
    ],
    ids=["pass-slot-9", "interval-past-2^32", "slot-9", "unknown-key"],
)
def test_cli_refuses_a_field_out_of_bounds_or_an_unknown_key(
    tmp_path, capsys, command, data, named
):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([command, "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "e1, named",
    [
        # "J" and "m" were ignored beside "grid", exit 0.
        ({"grid": [2, 3], "J": 9, "m": 0, "cells": [0]}, '"J", "m"'),
        # Refused as ValueError('negative shift count'), naming no field.
        ({"J": 2, "m": -5, "cells": [0]}, '"m" must be an integer from -2 to 14, got -5'),
    ],
    ids=["grid-and-J-m", "m-below-minus-J"],
)
def test_cli_restricted_type_names_the_grid_field_it_refuses(tmp_path, capsys, e1, named):
    path = _restricted_file(tmp_path, E1=e1)
    assert main(["restricted-type", "--in", str(path), "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert '"E1"' in err and named in err


@pytest.mark.parametrize(
    "key, values",
    [
        ("E1", ["1/2+0/1*sqrt2"] * 32),
        ("E2", ["2/1+0/1*sqrt2"] + ["0/1+0/1*sqrt2"] * 31),
        ("E3", ["0/1+1/1*sqrt2"] * 32),
    ],
    ids=["halves", "a-two", "sqrt2"],
)
def test_cli_restricted_type_refuses_a_set_that_is_not_an_indicator(tmp_path, capsys, key, values):
    # Each ran to exit 0; the restricted-type estimate is stated for sets.
    path = _restricted_file(tmp_path, **{key: {"grid": [2, 3], "values": values}})
    assert main(["restricted-type", "--in", str(path), "--trials", "1"]) == 2
    assert f'field "{key}" is not an indicator' in capsys.readouterr().err


def test_cli_select_trees_at_the_widest_domain_writes_intervals_render_reads(tmp_path):
    # J = 16 and m = -14 allow domain_exp = 30, the widest any grid
    # allows; every interval written stays inside the reader's bound.
    request = {
        "collection": [{"time": {"n": 0, "k": 16}, "freq": {"n": 0, "k": -14}}],
        "f": {"J": 16, "m": -14, "cells": [0, 1]},
        "slot": 1,
        "alpha": "1/4",
        "domain_exp": 30,
    }
    path = tmp_path / "request.json"
    path.write_text(json.dumps(request))
    selection = tmp_path / "selection.json"
    assert main(["select-trees", "--in", str(path), "--out", str(selection)]) == 0
    assert SelectionResult.from_json(json.loads(selection.read_text())).grabs
    assert main(["render", "--in", str(selection), "--out", str(tmp_path / "plane.svg")]) == 0


def test_config_refuses_an_unknown_field_and_a_grid_j_past_the_cap():
    with pytest.raises(ConfigError, match='"trails"'):
        ExperimentConfig.from_json({"trails": 3})
    with pytest.raises(ConfigError, match='"grid_j" must be an integer from 0 to 14, got 15'):
        ExperimentConfig(grid_j=15, grid_m=1)


@pytest.mark.parametrize("field", ["r", "p1", "epsilon"])
def test_cli_refuses_a_config_number_past_the_largest_float(tmp_path, capsys, field):
    # An OverflowError traceback, exit 3, when the driver took its float.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: 10**400}))
    assert main(["theorem1", "--trials", "1", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be a number a float holds")


@pytest.mark.parametrize("command", ["render", "theorem1"])
def test_cli_refuses_json_nested_past_the_recursion_limit(tmp_path, capsys, command):
    # json.load raised RecursionError, a traceback with exit 3.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    flag = "--in" if command == "render" else "--config"
    assert main([command, flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("alpha", ["1e-20000", "1e20000"])
def test_cli_select_trees_refuses_an_alpha_with_more_digits_than_python_writes(
    tmp_path, capsys, alpha
):
    # Fraction read the exponent, and writing the allowance out, in the
    # refusal or in the selection, raised ValueError: a traceback, exit 3.
    path = tmp_path / "request.json"
    path.write_text(json.dumps({**SELECTION_INPUT, "alpha": alpha}))
    assert main(["select-trees", "--in", str(path)]) == 2
    assert '"alpha"' in capsys.readouterr().err


def test_cli_identities_refuses_a_fractional_r(tmp_path, capsys):
    # It ran the variation check at r = 3, and its rows read r=3.
    out = tmp_path / "report.csv"
    assert main(["identities", "--trials", "1", "--r", "3.5", "--out", str(out)]) == 2
    assert "integer or infinite r" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r", ["inf", "4"])
def test_cli_identities_runs_its_variation_check_at_the_given_r(tmp_path, r):
    # An infinite r ran the check at r = 3, and its rows read r=3.
    out = tmp_path / "report.csv"
    assert main(["identities", "--trials", "1", "--r", r, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert {row[2].split()[-1] for row in rows if row[0] == "vartrunc"} == {f"r={r}"}


@pytest.mark.parametrize("maximal_exp", ["1000", "1e20", "1e300", "30"])
def test_cli_restricted_type_runs_at_a_large_maximal_exp(tmp_path, maximal_exp):
    # top_len / 2.0**n raised OverflowError: a traceback, exit 3.
    out = tmp_path / "report.csv"
    for seed in ("0", "1", "2"):
        argv = ["restricted-type", "--trials", "4", "--seed", seed, "--maximal-exp", maximal_exp]
        assert main([*argv, "--out", str(out)]) == 0


@pytest.mark.parametrize("maximal_exp", ["1e308", "inf"])
def test_cli_restricted_type_refuses_a_maximal_exp_with_no_finite_first_stage(
    tmp_path, capsys, maximal_exp
):
    # math.floor of an infinite stage index raised OverflowError, exit 3.
    out = tmp_path / "report.csv"
    argv = ["restricted-type", "--trials", "4", "--maximal-exp", maximal_exp, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: maximal_exp") and err.count("\n") == 1
    assert not out.exists()


def test_cli_bourgain_delta_takes_an_overflowing_bound_as_infinite(tmp_path):
    # count**epsilon raised OverflowError at 1e308, exit 3; inf already ran.
    reports = []
    for epsilon in ("1e308", "inf"):
        out = tmp_path / f"{epsilon}.csv"
        argv = ["lemma", "bourgain_delta", "--trials", "4", "--epsilon", epsilon]
        assert main([*argv, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


# A value each config flag accepts in every lemma that reads it.
_LEMMA_FLAG_VALUES = {
    "r": "3", "epsilon": "0.5", "trials": "1", "seed": "3", "grid_j": "1", "grid_m": "5",
}


def _lemma_flag_pairs(read: bool) -> list[tuple[str, str]]:
    return [
        (name, dest)
        for name, (_, fields) in _LEMMA_DRIVERS.items()
        for dest in _LEMMA_FLAG_VALUES
        if (dest in fields) == read
    ]


@pytest.mark.parametrize("name, dest", _lemma_flag_pairs(read=False))
def test_cli_lemma_refuses_a_flag_the_named_lemma_does_not_read(tmp_path, capsys, name, dest):
    # The flag was accepted and ignored: the same report with or without it.
    flag = "--" + dest.replace("_", "-")
    out = tmp_path / "report.csv"
    assert main(["lemma", name, flag, _LEMMA_FLAG_VALUES[dest], "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: lemma {name} does not read {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("name, dest", _lemma_flag_pairs(read=True))
def test_cli_lemma_runs_with_each_flag_the_named_lemma_reads(tmp_path, name, dest):
    flag = "--" + dest.replace("_", "-")
    argv = ["lemma", name, "--trials", "1", flag, _LEMMA_FLAG_VALUES[dest]]
    assert main([*argv, "--out", str(tmp_path / "report.csv")]) == 0


def test_lemma_flag_pairs_cover_every_lemma():
    assert len(_lemma_flag_pairs(read=True)) == 21
    assert len(_lemma_flag_pairs(read=False)) == 9
    assert {name for name, _ in _lemma_flag_pairs(read=True)} == set(LEMMA_NAMES)


def test_the_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| subcommand | config flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        command, flags = line.strip("|").split("|")
        rows[command.strip().strip("`")] = set(re.findall(r"`(--[a-z0-9-]+)`", flags))
    expected = {}
    commands = next(action for action in build_parser()._actions if action.dest == "command")
    for command, parser in commands.choices.items():
        flags = {
            option
            for act in parser._actions
            if act.dest in _CONFIG_FLAGS
            for option in act.option_strings
        }
        if command == "lemma":
            for name, (_, fields) in _LEMMA_DRIVERS.items():
                expected[f"lemma {name}"] = {"--" + f.replace("_", "-") for f in fields}
            assert flags == set().union(*(rows[f"lemma {name}"] for name in LEMMA_NAMES))
        elif flags:
            expected[command] = flags
    assert rows == expected


def test_cli_select_trees_writes_a_long_allowance_short_in_its_refusal(tmp_path, capsys):
    # The refusal wrote the 2001-digit denominator out: a 2071-character line.
    path = tmp_path / "request.json"
    path.write_text(json.dumps({**SELECTION_INPUT, "alpha": "1e-2000"}))
    assert main(["select-trees", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200
    assert "exceeds the allowance ~1e-2000 (exact text of integers with 1, 2001, 1, 1 digits)" in err
    # Past the float range the digits come from the integers, not an infinity.
    path.write_text(json.dumps({**SELECTION_INPUT, "alpha": "-1e400"}))
    assert main(["select-trees", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "allowance ~-1e+400 (exact text of integers with 401, 1, 1, 1 digits)" in err
    # An allowance of at most 80 characters is written out as before.
    path.write_text(json.dumps({**SELECTION_INPUT, "alpha": "1/1000000"}))
    assert main(["select-trees", "--in", str(path)]) == 2
    assert capsys.readouterr().err.endswith("exceeds the allowance 1/1000000+0/1*sqrt2\n")


def test_cli_select_trees_writes_a_long_square_size_short_in_its_refusal(tmp_path, capsys):
    # The refusal wrote the square size out: an 871-character line.
    cells = set(SELECTION_INPUT["f"]["cells"])
    grid = SELECTION_INPUT["f"]["grid"]
    f = {"grid": grid, "values": [10**400 if c in cells else 0 for c in range(64)]}
    path = tmp_path / "request.json"
    path.write_text(json.dumps({**SELECTION_INPUT, "f": f, "alpha": "1/1000"}))
    assert main(["select-trees", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200
    assert "square size ~3.90625e+799 (exact text of integers with 800, 1, 1, 1 digits)" in err
    assert err.endswith("exceeds the allowance 1/1000+0/1*sqrt2\n")
    # A square size of at most 80 characters is written out as before.
    path.write_text(json.dumps({**SELECTION_INPUT, "alpha": "1/1000"}))
    assert main(["select-trees", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.endswith("square size 25/64+0/1*sqrt2 exceeds the allowance 1/1000+0/1*sqrt2\n")


def _one_quartile_request(value: str) -> dict:
    """A select-trees request whose 16 values on (J, m) = (1, 3) are all value."""
    return {
        "f": {"J": 1, "m": 3, "values": [value] * 16},
        "collection": [{"time": {"n": 0, "k": 0}, "freq": {"n": 0, "k": 2}}],
        "slot": 1,
        "alpha": "1",
    }


def test_cli_select_trees_refuses_a_square_size_past_the_digit_limit(tmp_path, capsys):
    # Each value's 2201-digit denominator fits, but the square size's
    # 4401-digit one raised ValueError in to_json: a traceback, exit 3.
    path = tmp_path / "request.json"
    path.write_text(json.dumps(_one_quartile_request(f"1/{10**2200}+0/1*sqrt2")))
    assert main(["select-trees", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and len(err) < 200
    assert err.startswith(
        "error: the selection's initial_size_sq ~1e-4400 "
        "(exact text of integers with 1, 4401, 1, 1 digits)"
    )


def test_cli_select_trees_refuses_a_surd_square_size_past_the_digit_limit(tmp_path, capsys):
    # Values with only a surd part: the square size's rational part
    # carries a 4400-digit denominator.
    path = tmp_path / "request.json"
    path.write_text(json.dumps(_one_quartile_request(f"0/1+1/{10**2200}*sqrt2")))
    assert main(["select-trees", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: the selection's initial_size_sq ~2e-4400 ")
    assert err.endswith("has an integer past the 4300-digit limit: no selection file could hold it\n")


def test_cli_select_trees_writes_a_square_size_just_under_the_digit_limit(tmp_path, capsys):
    # 3^8000 has 3818 digits: the selection file holds it exactly.
    path = tmp_path / "request.json"
    path.write_text(json.dumps(_one_quartile_request(f"1/{3**4000}+0/1*sqrt2")))
    assert main(["select-trees", "--in", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    written = QuadScalar.from_text(json.loads(out)["initial_size_sq"])
    assert written == QuadScalar.coerce(Fraction(1, 3**8000))
