"""Numerical semigroups through the unchanged pipeline, on presented,
commutative, non-free inputs: for <a, b>, P against the indicator and N
against the closed form of a complete intersection, with towers that form
one chain; for three generators, P against the indicator and N against its
inverse by a sieve, with towers that branch."""
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from numerical_reference import (THREE_FOUR_FIVE, complete_intersection_inverse, indicator,
                                 indicator_inverse, members, semigroup_text, two_generator_text)
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


@st.composite
def _coprime_pairs(draw):
    a = draw(st.integers(2, 6))
    b = draw(st.integers(a + 1, 7).filter(lambda b: math.gcd(a, b) == 1))
    return a, b


@settings(deadline=None, max_examples=25)
@given(_coprime_pairs(), st.integers(1, 80))
def test_drawn_two_generator_semigroups_match_their_closed_forms(pair, cutoff):
    a, b = pair
    table = RewriteModel(parse_presentation(two_generator_text(a, b))).enumerate_up_to(cutoff)
    assert growth_series(table).terms == indicator(a, b, cutoff)
    assert skew_growth(table).terms == complete_intersection_inverse(a, b, cutoff)


def _terms(series) -> dict[int, int]:
    return {int(key): coeff for key, coeff in series.terms.items()}


@pytest.mark.parametrize("gens, cutoff, relations, towers", [
    ((3, 4, 5), 20, 35, 98), ((3, 4, 5), 30, 108, 2059), ((4, 5, 6), 30, 52, 21),
    ((3, 5, 7), 30, 61, 276),
])
def test_three_generator_semigroups_match_the_sieve(gens, cutoff, relations, towers):
    presentation = parse_presentation(semigroup_text(gens, cutoff))
    table = RewriteModel(presentation).enumerate_up_to(cutoff)
    forest = enumerate_towers(table)
    assert (len(presentation.relations), len(forest.towers)) == (relations, towers)
    assert _terms(growth_series(table)) == members(gens, cutoff)
    assert _terms(skew_growth(table, forest)) == indicator_inverse(gens, cutoff)
    statuses = [report.status for report in run_all_checks(table)]
    assert statuses == [PASS, PASS, PASS, NOT_APPLICABLE]


def test_the_sieve_inverts_the_closed_form_and_the_indicator():
    for a, b in [(2, 3), (3, 5), (4, 7)]:
        assert members((a, b), 60) == indicator(a, b, 60)
        assert indicator_inverse((a, b), 60) == complete_intersection_inverse(a, b, 60)
    assert indicator_inverse((1,), 10) == {0: 1, 1: -1}  # (Z>=0, +) is free on one letter


def test_nine_relations_present_three_four_five_as_the_generated_text_does():
    table = RewriteModel(parse_presentation(THREE_FOUR_FIVE)).enumerate_up_to(30)
    reference = RewriteModel(parse_presentation(semigroup_text((3, 4, 5), 30)))
    assert growth_series(table) == growth_series(reference.enumerate_up_to(30))
    assert skew_growth(table) == skew_growth(reference.enumerate_up_to(30))
    assert len(enumerate_towers(table).towers) == 2059
