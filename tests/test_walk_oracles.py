"""The survivor-pool subset walk and the candidate-indexed sweep, the
minimal-element peel and the lcm-reduction read off the forest against the
rescanning oracles."""
import itertools

import pytest
from hypothesis import given, settings

from scan_oracles import (
    headroom_candidates,
    lcm_reduction_by_walk,
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
    expected = list(supported_subsets_by_rescan(poset, candidates, 2))
    assert list(poset._walk_supported_subsets(candidates)) == expected
    if candidates:  # the sweep starts at the least candidate
        assert list(poset._sweep_supported_subsets(candidates)) == expected
    assert list(poset.iter_supported_subsets(candidates)) == expected


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
    # subsets of 4 primes (2*3*5*7 = 210), and from zpos:1000 on it is wide
    # enough that the public entry sweeps
    table = builtin("zpos", nmax=nmax).enumerate_up_to(nmax)
    root = Tower.root(table.atoms())
    _assert_both_subset_paths_match(table.poset(), headroom_candidates(table, root))


def test_the_sweep_closes_its_stages_downward(zpos_table):
    # 6, 10 and 15 pairwise have the lcm 30, so the one D value of two or
    # more bits is {6, 10, 15}: each pair is supported only as a subset of it
    candidates = tuple(zpos_table.element_id(v) for v in (6, 10, 15))
    assert candidates == (5, 9, 14)
    poset = zpos_table.poset()
    expected = list(supported_subsets_by_rescan(poset, candidates, 2))
    assert [stage for stage, _ in expected] == [(5, 9), (5, 9, 14), (5, 14), (9, 14)]
    assert list(poset._sweep_supported_subsets(candidates)) == expected
