"""Artin and trace monoids from a Coxeter matrix through the unchanged
pipeline: N against the sum over the finite parabolic subgroups, and the
four checks passing."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from coxeter_reference import INFINITY, artin_text, reflections, skew_growth_oracle
from skewgrowth.checks import PASS, run_all_checks
from skewgrowth.models import RewriteModel
from skewgrowth.presentation import parse_presentation
from skewgrowth.towers import skew_growth


def _chain(*orders) -> dict:
    """The orders of the path 0 - 1 - 2 - ..., one per edge."""
    return {(i, i + 1): m for i, m in enumerate(orders)}


def _skew_terms(orders, rank, cutoff):
    table = RewriteModel(parse_presentation(artin_text(orders, rank))).enumerate_up_to(cutoff)
    statuses = [report.status for report in run_all_checks(table)]
    return table, {int(key): c for key, c in skew_growth(table).terms.items()}, statuses


@pytest.mark.parametrize("orders, rank, cutoff, elements, terms", [
    (_chain(3, 3), 3, 10, 7588, {0: 1, 1: -3, 2: 1, 3: 2, 6: -1}),  # A3
    (_chain(3, 4), 3, 12, 68812, {0: 1, 1: -3, 2: 1, 3: 1, 4: 1, 9: -1}),  # B3
    (_chain(7), 2, 14, 30975, {0: 1, 1: -2, 7: 1}),  # I2(7)
    # the trace monoid of the 4-cycle: the diagonals do not commute
    ({(0, 2): INFINITY, (1, 3): INFINITY}, 4, 9, 9217, {0: 1, 1: -4, 2: 4}),
])
def test_artin_and_trace_monoids_match_the_parabolic_sum(orders, rank, cutoff, elements, terms):
    table, skew, statuses = _skew_terms(orders, rank, cutoff)
    assert table.n_elements == elements
    assert skew == terms == skew_growth_oracle(orders, rank, cutoff)
    assert statuses == [PASS] * 4


def test_reflection_counts_follow_the_classification():
    e_branch = {3: (2, 5), 4: (2, 6), 5: (2, 7)}  # E6, E7, E8: an arm of one at node 2
    counts = {
        "A5": reflections(_chain(3, 3, 3, 3), range(5)),
        "B4": reflections(_chain(3, 3, 4), range(4)),
        "D5": reflections(_chain(3, 3, 3) | {(1, 4): 3}, range(5)),
        "F4": reflections(_chain(3, 4, 3), range(4)),
        "H3": reflections(_chain(5, 3), range(3)),
        "H4": reflections(_chain(3, 3, 5), range(4)),
        "G2 x A1": reflections(_chain(6, 2), range(3)),
        **{f"E{n + 3}": reflections(_chain(*[3] * (n + 1)) | {e_branch[n]: 3}, range(n + 3))
           for n in (3, 4, 5)},
    }
    assert counts == {"A5": 15, "B4": 16, "D5": 20, "F4": 24, "H3": 15, "H4": 60,
                      "G2 x A1": 7, "E6": 36, "E7": 63, "E8": 120}
    infinite = [
        ({(0, 1): 3, (1, 2): 3, (0, 2): 3}, 3),  # affine A2, a cycle
        (_chain(3, 3, 3, 3, 3, 3, 3) | {(2, 8): 3}, 9),  # affine E8
        (_chain(4, 3, 4), 4),  # affine C3
        (_chain(6, 3), 3),  # affine G2
        ({(0, 1): INFINITY}, 2),
    ]
    assert [reflections(orders, range(rank)) for orders, rank in infinite] == [None] * 5


_ORDERS = st.sampled_from([2, 3, 4, 5, 6, INFINITY])


@settings(deadline=None, max_examples=20)
@given(st.lists(_ORDERS, min_size=3, max_size=3), st.integers(1, 9))
def test_drawn_rank_three_artin_monoids_match_the_parabolic_sum(entries, cutoff):
    orders = dict(zip(itertools.combinations(range(3), 2), entries))
    _, skew, statuses = _skew_terms(orders, 3, cutoff)
    assert skew == skew_growth_oracle(orders, 3, cutoff)
    assert statuses == [PASS] * 4
