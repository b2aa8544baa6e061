"""The survivor-pool subset walk and the pass over candidate bits and
right predecessors, the minimal-element peel and the lcm-reduction read off
the forest against the rescanning oracles."""
import itertools

import pytest
from hypothesis import given, settings

from scan_oracles import (
    headroom_candidates,
    lcm_reduction_by_walk,
    mask_to_ids,
    min_common_multiples,
    min_common_multiples_by_divisors,
    minimal_by_divisors,
    supported_subsets_by_rescan,
    towers_by_rescan,
)
from skewgrowth import builtin
from skewgrowth.checks import check_lcm_reduction, run_all_checks
from skewgrowth.models import RewriteModel
from skewgrowth.towers import Tower, enumerate_towers, forest_to_json
from test_models import small_presentations


def _assert_both_subset_paths_match(poset, candidates):
    # the walk yields each stage's mask, the pass and the public entry its tops
    expected = list(supported_subsets_by_rescan(poset, candidates, 2))
    assert list(poset._walk_supported_subsets(candidates)) == expected
    tops = [(stage, tuple(minimal_by_divisors(poset, mask_to_ids(mask))))
            for stage, mask in expected]
    if candidates:  # the pass starts at the least candidate
        assert list(poset._sweep_supported_subsets(candidates)) == tops
    assert list(poset.iter_supported_subsets(candidates)) == tops


def _assert_matches_oracles(table, ground=None):
    poset = table.poset()
    forest = enumerate_towers(table, ground=ground)
    assert forest_to_json(forest, table) == forest_to_json(towers_by_rescan(table, ground), table)
    expected = lcm_reduction_by_walk(table, ground).to_json()
    assert check_lcm_reduction(table, forest=forest).to_json() == expected
    assert run_all_checks(table, ground=ground)[3].to_json() == expected
    _assert_both_subset_paths_match(poset, forest.ground)
    for tower in forest:
        _assert_both_subset_paths_match(poset, headroom_candidates(table, tower))
    for pair in itertools.combinations(forest.ground, 2):
        assert min_common_multiples(poset, pair) == min_common_multiples_by_divisors(poset, pair)
    for tower in forest:
        assert poset.minimal_elements(tower.top) == minimal_by_divisors(poset, tower.top)


def test_walk_matches_oracles_on_builtins(example3_table, braid3_table, free2_table,
                                          zpos_table, mp_table):
    for table in (example3_table, braid3_table, free2_table, zpos_table, mp_table):
        _assert_matches_oracles(table)


@pytest.mark.parametrize("values", [(4, 6, 9, 10, 15, 25), (5, 6, 7, 8, 9)])
def test_walk_matches_oracles_on_a_custom_ground(zpos_table, values):
    # antichains under division that are not the atom set
    ground = tuple(zpos_table.element_id(v) for v in values)
    assert set(ground) != set(zpos_table.atoms())
    _assert_matches_oracles(zpos_table, ground)


def test_walk_matches_oracles_on_a_ground_of_squares(example3_table):
    degree_two = tuple(example3_table.elements_of_degree(2))
    assert len(degree_two) > 1
    _assert_matches_oracles(example3_table, degree_two)


@settings(deadline=None, max_examples=100)
@given(small_presentations())
def test_walk_matches_oracles_on_random_presentations(drawn):
    presentation, cutoff = drawn
    _assert_matches_oracles(RewriteModel(presentation).enumerate_up_to(cutoff))


def test_zpos3000_forest_and_lcm_report_match_oracles():
    table = builtin("zpos", nmax=3000).enumerate_up_to(3000)
    forest = enumerate_towers(table)
    assert forest_to_json(forest, table) == forest_to_json(towers_by_rescan(table), table)
    assert check_lcm_reduction(table, forest=forest).to_json() == \
        lcm_reduction_by_walk(table).to_json()


@pytest.mark.parametrize("nmax", [30, 100, 300, 1000, 1500, 3000])
def test_both_subset_paths_match_the_rescan_at_zpos_roots(nmax):
    # the primes with headroom; from zpos:300 on the root has supported
    # subsets of 4 primes (2*3*5*7 = 210), and from zpos:100 on it is wide
    # enough that the public entry takes the pass
    table = builtin("zpos", nmax=nmax).enumerate_up_to(nmax)
    root = Tower(top=table.atoms())
    _assert_both_subset_paths_match(table.poset(), headroom_candidates(table, root))


def test_the_pass_finds_tops_from_right_predecessors():
    # 6, 10 and 15 pairwise have the lcm 30, whose right predecessors 15, 10
    # and 6 each hold one candidate, so 30 is the top of every stage; 30 is
    # a right predecessor of 60 and of 90 holding the same three, so
    # neither is the top of any
    table = builtin("zpos", nmax=90).enumerate_up_to(90)
    candidates = tuple(table.element_id(v) for v in (6, 10, 15))
    poset = table.poset()
    steps = poset._sweep_supported_subsets(candidates)
    assert [([table.label(e) for e in stage], [table.label(e) for e in top])
            for stage, top in steps] == [(["6", "10"], ["30"]), (["6", "10", "15"], ["30"]),
                                         (["6", "15"], ["30"]), (["10", "15"], ["30"])]
    assert steps == [(stage, tuple(minimal_by_divisors(poset, mask_to_ids(mask))))
                     for stage, mask in supported_subsets_by_rescan(poset, candidates, 2)]
