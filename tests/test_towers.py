import gc
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from numerical_reference import THREE_FOUR_FIVE
from scan_oracles import headroom_candidates, height_headroom_holds, tower_chain

from skewgrowth.dirichlet import KeyKind, Series, parse_key, series_invert, growth_series
from skewgrowth.divisibility import DivPoset
from skewgrowth.errors import CutoffTooLargeError, InvalidGroundError
from skewgrowth.models import RewriteModel
from skewgrowth.presentation import parse_presentation
from skewgrowth.presets import parse_preset
from skewgrowth.towers import (
    enumerate_towers,
    forest_to_dot,
    forest_to_json,
    skew_growth,
)

from skewgrowth import builtin, models
from test_models import small_presentations


def _labels(table, ids):
    return [table.label(e) for e in ids]


def test_free_monoid_has_only_the_root(free2_table):
    forest = enumerate_towers(free2_table)
    assert len(forest.towers) == 1
    root = forest.towers[0]
    assert root.height == 0 and root.sign == -1
    assert root.top == forest.ground


def test_braid3_forest(braid3_table):
    forest = enumerate_towers(braid3_table)
    assert len(forest.towers) == 2
    child = forest.towers[1]
    assert child.height == 1 and child.sign == 1
    stages, _ = tower_chain(forest, child)
    assert _labels(braid3_table, stages[0]) == ["a", "b"]
    assert _labels(braid3_table, child.top) == ["aba"]
    assert child.parent == 0


def test_example3_one_tower_per_height(example3_table):
    forest = enumerate_towers(example3_table)
    by_height = {}
    for tower in forest:
        by_height.setdefault(tower.height, []).append(tower)
    assert set(by_height) == set(range(8))
    for height, towers in by_height.items():
        assert len(towers) == 1
        tower = towers[0]
        assert len(tower.top) == 2 or height == 0
        if height:
            degrees = {example3_table.degree(e) for e in tower.top}
            assert degrees == {Fraction(height + 1)}
        assert tower.sign == (-1 if height % 2 == 0 else 1)


def test_zpos_forest_at_ten():
    table = builtin("zpos", nmax=10).enumerate_up_to(10)
    forest = enumerate_towers(table)
    assert _labels(table, forest.ground) == ["2", "3", "5", "7"]
    stages = [
        _labels(table, tower_chain(forest, t)[0][0]) for t in forest.towers if t.height == 1
    ]
    assert stages == [["2", "3"], ["2", "5"]]
    tops = [_labels(table, t.top) for t in forest.towers if t.height == 1]
    assert tops == [["6"], ["10"]]
    assert all(t.height <= 1 for t in forest.towers)


def test_stage_picks_come_from_the_parent_top(mp_table):
    forest = enumerate_towers(mp_table)
    for index, tower in enumerate(forest.towers):
        source = forest.ground
        stages, tops = tower_chain(forest, tower)
        for stage, top in zip(stages, tops):
            assert len(stage) >= 2
            assert set(stage) <= set(source)
            source = top
        assert tower.top == source and tower.height == len(stages)


@pytest.mark.parametrize("preset, cutoff, sweeps", [
    ("zpos:1500", "1500", 1),
    ("zpos:300", "300", 1),
    ("zpos:60", "60", 0),
    pytest.param("mp:p=4,8,16", "40", 0,
                 marks=pytest.mark.filterwarnings("ignore:cutoff 40 reaches")),
    ("example3", "20", 0),
    ("example3", "200", 0),
    ("braid3", "13", 0),
    ("free:2", "12", 0),
])
def test_only_wide_nodes_sweep(preset, cutoff, sweeps):
    # zpos:1500's root has 132 primes with headroom, 8,646 pairs against
    # 1,499 elements to sweep, and zpos:300's 35, 595 pairs against 299,
    # while zpos:60's has 10, 45 pairs against 59; every other node of three
    # or more candidates walks, while a pair node is one AND in the towers
    # and a node of fewer than two candidates is skipped, neither reaching
    # the public entry
    model = parse_preset(preset)
    table = model.enumerate_up_to(parse_key(model.key_kind, cutoff))

    def spy(name):
        return mock.patch.object(DivPoset, name, autospec=True,
                                 side_effect=getattr(DivPoset, name))

    with spy("iter_supported_subsets") as entry, spy("_walk_supported_subsets") as walk, \
            spy("_sweep_supported_subsets") as sweep:
        forest = enumerate_towers(table)
    picks = [headroom_candidates(table, tower) for tower in forest]
    assert sweep.call_count == sweeps
    if sweeps:
        assert sweep.call_args.args[1] == tuple(picks[0])
    assert entry.call_count == sum(len(p) > 2 for p in picks)
    paths = walk.call_args_list + sweep.call_args_list
    assert len(paths) == sum(len(p) > 2 for p in picks)
    assert all(len(call.args[1]) > 2 for call in paths)  # no pair node on either path


def test_sign_formula(example3_table, braid3_table, free2_table, zpos_table, mp_table):
    # over every builtin forest, each sign is the closed form over the
    # chain, and each parent comes earlier, one height below
    for table in (example3_table, braid3_table, free2_table, zpos_table, mp_table):
        forest = enumerate_towers(table)
        assert forest.towers[0].parent is None and forest.towers[0].sign == -1
        for i, tower in enumerate(forest.towers[1:], 1):
            stages, _ = tower_chain(forest, tower)
            assert tower.sign == (-1) ** (sum(map(len, stages)) - tower.height + 1)
            assert tower.parent < i
            assert forest.towers[tower.parent].height == tower.height - 1


def _held_by_forest(cutoff):
    """example3's forest at *cutoff*, and the bytes held after its walk,
    with the table, its atoms and every multiple mask built beforehand, so
    that the poset's memo is not counted as the forest's."""
    table = builtin("example3").enumerate_up_to(cutoff)
    poset, _ = table.poset(), table.atoms()
    _ = poset.multiple_masks
    gc.collect()  # a full collection empties the free lists earlier runs filled
    tracemalloc.start()
    try:
        forest = enumerate_towers(table, poset)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return forest, held


def test_forest_space_is_linear_in_its_towers():
    # example3 has a tower of every height up to the cutoff - 1, so a tower
    # copying its whole chain makes twice the towers hold about 4x the bytes
    small, held_small = _held_by_forest(500)
    large, held_large = _held_by_forest(1000)
    assert len(large.towers) == 2 * len(small.towers) == 1000
    assert held_large < 2.5 * held_small


def test_height_headroom(example3_table, braid3_table, zpos_table, mp_table):
    for table in (example3_table, braid3_table, zpos_table, mp_table):
        forest = enumerate_towers(table)
        assert all(height_headroom_holds(table, t) for t in forest)


def test_ground_validation(example3_table):
    t = example3_table
    a, b = t.atoms()
    aa = t.product(a, a)
    with pytest.raises(InvalidGroundError):
        enumerate_towers(t, ground=())
    with pytest.raises(InvalidGroundError):
        enumerate_towers(t, ground=(a, a))
    with pytest.raises(InvalidGroundError):
        enumerate_towers(t, ground=(t.unit, a))
    with pytest.raises(InvalidGroundError):
        enumerate_towers(t, ground=(a, aa))  # not an antichain: a divides aa
    for out_of_range in (999, -1, t.n_elements, "a"):
        with pytest.raises(InvalidGroundError):
            enumerate_towers(t, ground=(out_of_range,))


def test_ground_refuses_bool_ids(braid3_table):
    a, b = braid3_table.atoms()
    assert (a, b) == (1, 2)
    assert enumerate_towers(braid3_table, ground=[1, 2]).ground == (1, 2)
    for ground in ([True, 2], [1, 2, False]):
        with pytest.raises(InvalidGroundError, match="must be ints"):
            enumerate_towers(braid3_table, ground=ground)


def test_custom_ground(example3_table):
    t = example3_table
    a, b = t.atoms()
    aa = t.product(a, a)
    ab = t.product(a, b)
    forest = enumerate_towers(t, ground=(aa, ab))
    assert forest.ground == (aa, ab)
    series = skew_growth(t, forest)
    assert series.coefficient(Fraction(2)) == -2


def test_skew_growth_closed_forms(example3_table, braid3_table, free2_table):
    cutoff = Fraction(8)
    expected_free = Series.build(KeyKind.RATIONAL, cutoff, {0: 1, 1: -2})
    assert skew_growth(free2_table).terms == expected_free.terms
    assert skew_growth(braid3_table).terms == {
        Fraction(0): 1, Fraction(1): -2, Fraction(3): 1}
    alternating = {Fraction(0): 1}
    alternating.update(
        {Fraction(d): (2 if d % 2 == 0 else -2) for d in range(1, 9)})
    assert skew_growth(example3_table).terms == alternating


def test_skew_growth_accepts_a_forest(braid3_table):
    forest = enumerate_towers(braid3_table)
    assert skew_growth(braid3_table, forest=forest) == skew_growth(braid3_table)


def test_forest_is_deterministic(braid3_table):
    f1 = enumerate_towers(braid3_table)
    f2 = enumerate_towers(braid3_table)
    assert forest_to_json(f1, braid3_table) == forest_to_json(f2, braid3_table)


def test_skew_equals_inverse_growth(example3_table, braid3_table, zpos_table, mp_table):
    for table in (example3_table, braid3_table, zpos_table, mp_table):
        assert skew_growth(table) == series_invert(growth_series(table))


def test_forest_json_schema(braid3_table):
    payload = forest_to_json(enumerate_towers(braid3_table), braid3_table)
    assert payload["ground"] == ["a", "b"]
    assert payload["towers"][0] == {
        "parent": None, "stage": [], "top": ["a", "b"], "top_degrees": ["1", "1"],
        "sign": -1, "height": 0,
    }
    assert payload["towers"][1]["parent"] == 0
    assert payload["towers"][1]["stage"] == ["a", "b"]
    assert payload["towers"][1]["top"] == ["aba"]
    assert payload["towers"][1]["top_degrees"] == ["3"]


def test_forest_json_multint_degrees_are_ints():
    table = builtin("zpos", nmax=10).enumerate_up_to(10)
    payload = forest_to_json(enumerate_towers(table), table)
    assert payload["towers"][1]["top_degrees"] == [6]


def _assert_json_parents_rebuild_the_chains(table, ground=None):
    # follow the "parent" indices to rebuild each tower's stage and top
    # chain, in labels, and compare it with the chain walked off the forest
    forest = enumerate_towers(table, ground=ground)
    entries = forest_to_json(forest, table)["towers"]
    assert len(entries) == len(forest.towers)
    assert entries[0]["parent"] is None and entries[0]["stage"] == []
    rebuilt = [((), ())]
    for i, entry in enumerate(entries[1:], 1):
        assert entry["parent"] is not None and entry["parent"] < i
        stages, tops = rebuilt[entry["parent"]]
        rebuilt.append((stages + (tuple(entry["stage"]),), tops + (tuple(entry["top"]),)))
    for tower, entry, (stages, tops) in zip(forest, entries, rebuilt):
        walked_stages, walked_tops = tower_chain(forest, tower)
        assert stages == tuple(tuple(_labels(table, s)) for s in walked_stages)
        assert tops == tuple(tuple(_labels(table, t)) for t in walked_tops)
        assert entry["height"] == len(stages)


def test_json_parents_rebuild_the_chains(example3_table, braid3_table, free2_table,
                                         zpos_table, mp_table):
    for table in (example3_table, braid3_table, free2_table, zpos_table, mp_table):
        _assert_json_parents_rebuild_the_chains(table)
    ground = tuple(zpos_table.element_id(v) for v in (4, 6, 9, 10, 15, 25))
    _assert_json_parents_rebuild_the_chains(zpos_table, ground)


@settings(deadline=None, max_examples=50)
@given(small_presentations())
def test_json_parents_rebuild_the_chains_on_random_presentations(drawn):
    presentation, cutoff = drawn
    _assert_json_parents_rebuild_the_chains(RewriteModel(presentation).enumerate_up_to(cutoff))


def test_forest_dot(braid3_table):
    dot = forest_to_dot(enumerate_towers(braid3_table), braid3_table)
    assert dot.startswith("digraph towers {")
    assert 't0 [label="h=0 sign=-1 top={a, b}"];' in dot
    assert "t0 -> t1;" in dot


def test_a_forest_is_built_up_to_the_word_cap_and_refused_past_it(monkeypatch):
    table = RewriteModel(parse_presentation(THREE_FOUR_FIVE)).enumerate_up_to(30)
    monkeypatch.setattr(models, "WORD_CAP", 2059)  # <3, 4, 5> at 30 has 2,059 towers
    assert len(enumerate_towers(table).towers) == 2059
    monkeypatch.setattr(models, "WORD_CAP", 2058)
    with pytest.raises(CutoffTooLargeError, match="^2059 towers exceed the word cap 2058$"):
        enumerate_towers(table)
