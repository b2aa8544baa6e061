"""N summed once over the distinct tower tops, with no forest built, against
the forest's sum and the rescanning oracle, and the battery that reads it
against the public checks, which read the forest."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from congruence_reference import CongruenceTable
from coxeter_reference import INFINITY, artin_text
from numerical_reference import THREE_FOUR_FIVE, semigroup_text, two_generator_text
from scan_oracles import towers_by_rescan
from skewgrowth import builtin, models
from skewgrowth.checks import (NOT_APPLICABLE, check_cancellative, check_inversion,
                               check_lcm_reduction, check_recursion, run_all_checks)
from skewgrowth.divisibility import decode_stage
from skewgrowth.errors import CutoffTooLargeError
from skewgrowth.models import RewriteModel
from skewgrowth.presentation import parse_presentation
from skewgrowth.towers import enumerate_towers, skew_on_grid, sum_over_tops
from test_models import small_presentations


def _assert_tops_match_the_forests(table, ground=None):
    skew, sorted_ground, children = sum_over_tops(table, ground)
    forest = enumerate_towers(table, ground=ground)
    assert skew == skew_on_grid(table, forest)
    assert skew == skew_on_grid(table, towers_by_rescan(table, ground))
    assert sorted_ground == forest.ground
    # the root's children, each stage decoded, are the height-1 towers
    stages = sorted((decode_stage(sorted_ground, stage), tuple(tops), size)
                    for size, tops, stage in children)
    assert stages == [(t.stage, t.top, len(t.stage)) for t in forest if t.height == 1]


def _assert_battery_matches_the_public_checks(table, ground=None):
    forest = enumerate_towers(table, ground=ground)
    cancel = check_cancellative(table)
    expected = [cancel, check_inversion(table, forest, cancel), check_recursion(table, forest),
                check_lcm_reduction(table, forest=forest)]
    assert [r.to_json() for r in run_all_checks(table, ground)] == \
        [r.to_json() for r in expected]


def _presented(text, cutoff):
    return RewriteModel(parse_presentation(text)).enumerate_up_to(cutoff)


def test_tops_match_the_forests_on_builtins(example3_table, braid3_table, free2_table,
                                            zpos_table, mp_table):
    for table in (example3_table, braid3_table, free2_table, zpos_table, mp_table):
        _assert_tops_match_the_forests(table)
        _assert_battery_matches_the_public_checks(table)


@pytest.mark.parametrize("values", [(4, 6, 9, 10, 15, 25), (5, 6, 7, 8, 9)])
def test_tops_match_the_forests_on_a_custom_ground(zpos_table, values):
    ground = tuple(zpos_table.element_id(v) for v in reversed(values))
    _assert_tops_match_the_forests(zpos_table, ground)
    _assert_battery_matches_the_public_checks(zpos_table, ground)


def test_tops_match_the_forests_on_a_ground_of_squares(example3_table):
    ground = tuple(example3_table.elements_of_degree(2))
    _assert_tops_match_the_forests(example3_table, ground)
    _assert_battery_matches_the_public_checks(example3_table, ground)


def test_the_zpos_root_hands_over_its_stages_as_bitmasks():
    # zpos:1500's root takes the pass; its 675 stages reach the sum as
    # candidate bitmasks, and every top is a leaf of one element
    table = builtin("zpos", nmax=1500).enumerate_up_to(1500)
    _, _, children = sum_over_tops(table)
    assert len(children) == 675
    assert all(isinstance(stage, int) and size == stage.bit_count() and len(tops) == 1
               for size, tops, stage in children)
    _assert_tops_match_the_forests(table)
    _assert_battery_matches_the_public_checks(table)


@pytest.mark.filterwarnings("ignore:cutoff 40 reaches")
def test_mp_battery_matches_the_public_checks():
    table = builtin("mp", p=[4, 8, 16]).enumerate_up_to(Fraction(40))
    reports = run_all_checks(table)
    assert reports[3].status == NOT_APPLICABLE
    _assert_tops_match_the_forests(table)
    _assert_battery_matches_the_public_checks(table)


@pytest.mark.parametrize("modulus, cutoff, subset", [
    (4, 500, ["9", "21"]), (4, 5000, ["5", "9", "21"]), (6, 5000, ["25", "55"]),
])
def test_congruence_tables_match_the_forests_and_the_public_checks(modulus, cutoff, subset):
    # each root takes the pass, so its stages are bitmasks, and has stages
    # of several tops: the not-applicable report names the least of them
    table = CongruenceTable(modulus, cutoff)
    _assert_tops_match_the_forests(table)
    _assert_battery_matches_the_public_checks(table)
    assert run_all_checks(table)[3].counterexample["subset"] == subset


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 12), st.integers(1, 700))
def test_drawn_congruence_tables_match_the_forests(modulus, cutoff):
    table = CongruenceTable(modulus, cutoff)
    _assert_tops_match_the_forests(table)
    _assert_battery_matches_the_public_checks(table)


@settings(deadline=None, max_examples=100)
@given(small_presentations())
def test_tops_match_the_forests_on_random_presentations(drawn):
    presentation, cutoff = drawn
    table = RewriteModel(presentation).enumerate_up_to(cutoff)
    _assert_tops_match_the_forests(table)
    _assert_battery_matches_the_public_checks(table)


@pytest.mark.parametrize("text, cutoff", [
    (two_generator_text(3, 5), 100), (two_generator_text(4, 7), 120),
    (THREE_FOUR_FIVE, 30), (semigroup_text((4, 5, 6), 30), 30),
    (semigroup_text((3, 5, 7), 30), 30),
])
def test_numerical_semigroups_match_the_forests(text, cutoff):
    table = _presented(text, cutoff)
    _assert_tops_match_the_forests(table)
    _assert_battery_matches_the_public_checks(table)


def _chain(*orders) -> dict:
    return {(i, i + 1): m for i, m in enumerate(orders)}


@pytest.mark.parametrize("orders, rank, cutoff", [
    (_chain(3, 3), 3, 7), (_chain(3, 4), 3, 7), (_chain(7), 2, 10),
    ({(0, 2): INFINITY, (1, 3): INFINITY}, 4, 6),
])
def test_coxeter_families_match_the_forests(orders, rank, cutoff):
    table = _presented(artin_text(orders, rank), cutoff)
    _assert_tops_match_the_forests(table)
    _assert_battery_matches_the_public_checks(table)


@settings(deadline=None, max_examples=20)
@given(st.lists(st.sampled_from([2, 3, 4, 5, 6, INFINITY]), min_size=3, max_size=3),
       st.integers(1, 7))
def test_drawn_rank_three_artin_monoids_match_the_forests(entries, cutoff):
    orders = dict(zip(itertools.combinations(range(3), 2), entries))
    _assert_tops_match_the_forests(_presented(artin_text(orders, 3), cutoff))


def test_distinct_tops_are_counted_against_the_word_cap(monkeypatch):
    # <3, 4, 5> at 40 has 42,940 towers, which end at 27 distinct tops
    table = _presented(THREE_FOUR_FIVE, 40)
    forest_sum = skew_on_grid(table, enumerate_towers(table))
    monkeypatch.setattr(models, "WORD_CAP", 27)
    assert sum_over_tops(table)[0] == forest_sum
    monkeypatch.setattr(models, "WORD_CAP", 26)
    with pytest.raises(CutoffTooLargeError, match="^27 tower tops exceed the word cap 26$"):
        sum_over_tops(table)
