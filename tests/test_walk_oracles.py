"""The survivor-pool subset walk and the pass over candidate bits and
right predecessors, the minimal-element peel and the lcm-reduction read off
the forest against the rescanning oracles."""
import itertools
import math

import pytest
from hypothesis import given, settings

from scan_oracles import (
    divides,
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
    # no cover settles 30, so its submasks are walked
    assert _cover_count(table, candidates, table.element_id(30)) == (3, 0)
    steps = poset._sweep_supported_subsets(candidates)
    assert [([table.label(e) for e in stage], [table.label(e) for e in top])
            for stage, top in steps] == [(["6", "10"], ["30"]), (["6", "10", "15"], ["30"]),
                                         (["6", "15"], ["30"]), (["10", "15"], ["30"])]
    assert steps == [(stage, tuple(minimal_by_divisors(poset, mask_to_ids(mask))))
                     for stage, mask in supported_subsets_by_rescan(poset, candidates, 2)]


def test_the_pass_walks_a_top_that_some_covers_miss():
    # 36 = 2*18 = 3*12 has the right predecessors 18 and 12, which hold 6
    # and 9, and 4 and 6: two of the three pairs of 4, 6 and 9, so the pass
    # walks 36's submasks, and finds that it also tops 4 and 9, which no
    # cover holds
    table = builtin("zpos", nmax=90).enumerate_up_to(90)
    candidates = tuple(table.element_id(v) for v in (4, 6, 9))
    poset = table.poset()
    assert _cover_count(table, candidates, table.element_id(36)) == (3, 2)
    steps = poset._sweep_supported_subsets(candidates)
    assert [([table.label(e) for e in stage], [table.label(e) for e in top])
            for stage, top in steps] == [(["4", "6"], ["12"]), (["4", "6", "9"], ["36"]),
                                         (["4", "9"], ["36"]), (["6", "9"], ["18"])]
    assert steps == [(stage, tuple(minimal_by_divisors(poset, mask_to_ids(mask))))
                     for stage, mask in supported_subsets_by_rescan(poset, candidates, 2)]


def _cover_count(table, candidates, w):
    """The number k of candidates dividing w, and the number of distinct
    sets of k - 1 of them, two or more, that divide a right predecessor x
    of w (x*g = w): the covers that settle w in the pass when they are k."""
    poset = table.poset()

    def dividing(x):
        return frozenset(c for c in candidates if divides(poset, c, x))

    covers = {dividing(x) for row in table.right_maps() for x, y in enumerate(row) if y == w}
    k = len(dividing(w))
    return k, sum(1 for cover in covers if len(cover) == k - 1 > 1)


def test_the_pass_settles_zpos_root_tops_from_their_cover_count():
    # 30 = 2*3*5 has the three right predecessors 15, 10 and 6, each with
    # two of its primes, and 210 = 2*3*5*7 the four 105, 70, 42 and 30,
    # each with three: every proper subset of two primes or more lies in a
    # cover, so the primes are the only stage that 30 or 210 tops.  Every
    # top of the zpos:1500 root is settled so, with no submask walked.
    table = builtin("zpos", nmax=1500).enumerate_up_to(1500)
    poset = table.poset()
    candidates = headroom_candidates(table, Tower(top=table.atoms()))
    steps = poset._sweep_supported_subsets(candidates)
    assert steps == [(stage, tuple(minimal_by_divisors(poset, mask_to_ids(mask))))
                     for stage, mask in supported_subsets_by_rescan(poset, candidates, 2)]
    stages_at = {}
    for stage, tops in steps:
        for w in tops:
            stages_at.setdefault(w, []).append(stage)
    for primes in ((2, 3, 5), (2, 3, 5, 7)):
        w = table.element_id(math.prod(primes))
        assert _cover_count(table, candidates, w) == (len(primes), len(primes))
        assert stages_at[w] == [tuple(map(table.element_id, primes))]
    assert len(stages_at) == 675
    for w in stages_at:
        k, covers = _cover_count(table, candidates, w)
        assert k == 2 or covers == k
