"""Numerical semigroups <a, b> through the unchanged pipeline: P against
the indicator and N against the closed form of a complete intersection, on
presented, commutative, non-free inputs whose towers form one chain."""
from collections import Counter
from fractions import Fraction

import pytest

from numerical_reference import complete_intersection_inverse, indicator, two_generator_text
from skewgrowth.checks import NOT_APPLICABLE, PASS, run_all_checks
from skewgrowth.dirichlet import KeyKind, Series, growth_series
from skewgrowth.models import RewriteModel
from skewgrowth.presentation import parse_presentation
from skewgrowth.towers import enumerate_towers, skew_growth


@pytest.mark.parametrize("a, b, cutoff, height", [(3, 5, 300, 39), (4, 7, 400, 28),
                                                  (5, 7, 600, 34)])
def test_two_generator_semigroups_match_their_closed_forms(a, b, cutoff, height):
    model = RewriteModel(parse_presentation(two_generator_text(a, b)))
    table = model.enumerate_up_to(Fraction(cutoff))
    assert growth_series(table) == Series.build(KeyKind.RATIONAL, cutoff,
                                                indicator(a, b, cutoff))
    forest = enumerate_towers(table)
    assert skew_growth(table, forest) == Series.build(
        KeyKind.RATIONAL, cutoff, complete_intersection_inverse(a, b, cutoff))
    # one chain: one tower at each height, each the parent of the next
    assert Counter(tower.height for tower in forest) == {h: 1 for h in range(height + 1)}
    assert [tower.parent for tower in forest] == [None, *range(height)]
    statuses = [report.status for report in run_all_checks(table)]
    assert statuses == [PASS, PASS, PASS, NOT_APPLICABLE]
