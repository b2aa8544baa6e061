"""The congruence monoids {1} u {n = 1 mod M} through the unchanged
pipeline: their counts, their forests against the rescanning oracles, and
their skew-growth series against the Dirichlet inverse of the indicator."""
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from congruence_reference import CongruenceTable, indicator_inverse
from scan_oracles import towers_by_rescan
from skewgrowth import builtin
from skewgrowth.checks import NOT_APPLICABLE, PASS, run_all_checks
from skewgrowth.divisibility import DivPoset
from skewgrowth.towers import enumerate_towers, forest_to_json, skew_growth
from test_walk_oracles import _assert_matches_oracles


@pytest.mark.parametrize("modulus, cutoff, elements, atoms, heights", [
    (4, 500, 125, 81, {1: 36}),
    (4, 5000, 1250, 655, {1: 722, 2: 1}),
    (6, 5000, 834, 549, {1: 262}),
])
def test_counts_and_forest_match_the_oracles(modulus, cutoff, elements, atoms, heights):
    table = CongruenceTable(modulus, cutoff)
    forest = enumerate_towers(table)
    assert (table.n_elements, len(table.atoms())) == (elements, atoms)
    assert Counter(tower.height for tower in forest if tower.height) == heights
    _assert_matches_oracles(table)
    assert skew_growth(table).terms == indicator_inverse(modulus, cutoff)
    statuses = [report.status for report in run_all_checks(table)]
    assert statuses == [PASS, PASS, PASS, NOT_APPLICABLE]  # 441 = 9*49 = 21*21


def test_hilbert_root_takes_the_pass_and_finds_several_tops():
    # 9 and 21 have the minimal common multiples 189 = 9*21 and 441 = 21*21
    # below 500, and ten more below 5,000, such as 693 = 9*77 = 21*33
    with mock.patch.object(DivPoset, "_sweep_tops", autospec=True,
                           side_effect=DivPoset._sweep_tops) as spy:
        tops = {}
        for cutoff in (500, 5000):
            table = CongruenceTable(4, cutoff)
            nine, twenty_one = table.element_id(9), table.element_id(21)
            for tower in enumerate_towers(table):
                if tower.stage == (nine, twenty_one):
                    tops[cutoff] = [table.label(e) for e in tower.top]
    assert spy.call_count == 2 and spy.call_args.args[1][0] == table.element_id(5)
    assert tops == {500: ["189", "441"],
                    5000: ["189", "441", "693", "1197", "1449", "1953", "2709", "2961",
                           "3717", "4221", "4473", "4977"]}


def test_modulus_one_is_zpos():
    table, zpos = CongruenceTable(1, 1500), builtin("zpos", nmax=1500).enumerate_up_to(1500)
    assert forest_to_json(enumerate_towers(table), table) == \
        forest_to_json(enumerate_towers(zpos), zpos)
    assert skew_growth(table) == skew_growth(zpos)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 12), st.integers(1, 700))
def test_skew_growth_is_the_indicator_inverse(modulus, cutoff):
    table = CongruenceTable(modulus, cutoff)
    forest = enumerate_towers(table)
    assert forest_to_json(forest, table) == forest_to_json(towers_by_rescan(table), table)
    assert skew_growth(table, forest).terms == indicator_inverse(modulus, cutoff)
    assert all(report.status in (PASS, NOT_APPLICABLE) for report in run_all_checks(table))
