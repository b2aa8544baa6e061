from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from scan_oracles import (
    common_multiples,
    divides,
    mask_to_ids,
    masks_by_scan,
    min_common_multiples,
    minimal_by_divisors,
)

from skewgrowth import builtin, divisibility
from skewgrowth.checks import run_all_checks
from skewgrowth.dirichlet import parse_key
from skewgrowth.divisibility import DivPoset
from skewgrowth.models import RewriteModel
from skewgrowth.presentation import parse_presentation
from skewgrowth.presets import parse_preset
from skewgrowth.towers import skew_growth


def _labels(table, ids):
    return [table.label(e) for e in ids]


def test_mask_to_ids():
    assert mask_to_ids(0b101101) == [0, 2, 3, 5]
    assert mask_to_ids(0) == []


def test_unit_divides_everything(example3_table):
    poset = example3_table.poset()
    assert all(divides(poset, 0, v) for v in example3_table.all_elements())


def test_divides_is_reflexive_and_graded(braid3_table):
    poset = braid3_table.poset()
    for v in braid3_table.all_elements():
        assert divides(poset, v, v)
        for u in mask_to_ids(poset.divisor_masks[v]):
            assert braid3_table.degree(u) <= braid3_table.degree(v)


def test_example3_common_multiples():
    table = RewriteModel(
        parse_presentation("gen a : 1\ngen b : 1\nrel a a = b b\nrel a b = b a\n")
    ).enumerate_up_to(Fraction(3))
    poset = table.poset()
    a, b = table.atoms()
    assert _labels(table, common_multiples(poset, [a, b])) == ["aa", "ab", "aaa", "aab"]
    assert _labels(table, min_common_multiples(poset, [a, b])) == ["aa", "ab"]


def test_braid3_min_common_multiple(braid3_table):
    poset = braid3_table.poset()
    a, b = braid3_table.atoms()
    assert _labels(braid3_table, min_common_multiples(poset, [a, b])) == ["aba"]


def test_zpos_min_common_multiple_is_lcm(zpos_table):
    poset = zpos_table.poset()
    four = zpos_table.element_id(4)
    six = zpos_table.element_id(6)
    assert _labels(zpos_table, min_common_multiples(poset, [four, six])) == ["12"]


def test_singleton_and_empty_index_sets(zpos_table):
    poset = zpos_table.poset()
    ten = zpos_table.element_id(10)
    assert min_common_multiples(poset, [ten]) == [ten]
    # the walk never forms the empty set, whose multiples would be everything
    assert list(poset.iter_supported_subsets([])) == []
    assert list(poset.iter_supported_subsets([ten])) == []


def test_minimal_elements_form_an_antichain(example3_table):
    poset = example3_table.poset()
    subset = list(example3_table.all_elements())[1:]
    minimal = poset.minimal_elements(subset)
    for u in minimal:
        for v in minimal:
            assert u == v or not divides(poset, u, v)
    assert poset.minimal_elements([]) == []


def test_iter_supported_subsets_matches_direct_computation(example3_table):
    poset = example3_table.poset()
    atoms = example3_table.atoms()
    seen = {}
    for subset, top in poset.iter_supported_subsets(atoms):
        seen[subset] = top
    a, b = atoms
    assert set(seen) == {(a, b)}
    assert seen[(a, b)] == tuple(minimal_by_divisors(poset, common_multiples(poset, [a, b])))
    assert _labels(example3_table, seen[(a, b)]) == ["aa", "ab"]


def test_iter_supported_subsets_prunes_empty(free2_table):
    poset = free2_table.poset()
    atoms = free2_table.atoms()
    steps = list(poset.iter_supported_subsets(atoms))
    assert steps == []  # a free monoid has no common multiples of distinct atoms


@pytest.fixture(scope="module")
def braid3_scanned_divisors(braid3_table):
    return masks_by_scan(braid3_table)[0]


@settings(deadline=None)
@given(st.data())
def test_poset_agrees_with_witness_scan(braid3_table, braid3_scanned_divisors, data):
    poset = braid3_table.poset()
    ids = st.integers(0, braid3_table.n_elements - 1)
    u, v = data.draw(ids), data.draw(ids)
    assert divides(poset, u, v) == bool(braid3_scanned_divisors[v] >> u & 1)


def test_poset_is_stable_under_cutoff_extension():
    # ids are assigned by (degree, canonical word), so the degree-4 table is
    # a prefix of the degree-8 table and divisibility must agree on it
    text = "gen a : 1\ngen b : 1\nrel a a = b b\nrel a b = b a\n"
    small = RewriteModel(parse_presentation(text)).enumerate_up_to(Fraction(4))
    large = RewriteModel(parse_presentation(text)).enumerate_up_to(Fraction(8))
    assert [small.label(e) for e in small.all_elements()] == \
        [large.label(e) for e in small.all_elements()]
    sposet, lposet = small.poset(), large.poset()
    for v in small.all_elements():
        for u in small.all_elements():
            assert divides(sposet, u, v) == divides(lposet, u, v)
    a, b = small.atoms()
    assert min_common_multiples(sposet, [a, b]) == min_common_multiples(lposet, [a, b])


def test_verify_leaves_the_divisor_masks_unbuilt():
    table = builtin("braid3").enumerate_up_to(Fraction(8))
    run_all_checks(table)
    assert "divisor_masks" not in vars(table.poset())


def _spy_reverse_pass():
    return mock.patch.object(DivPoset, "_reverse_pass", autospec=True,
                             side_effect=DivPoset._reverse_pass)


@pytest.mark.parametrize("preset, cutoff, reverse_pass", [
    ("free:2", "12", False),
    ("braid3", "13", False),
    ("example3", "20", True),
    pytest.param("mp:p=4,8,16", "40", True,
                 marks=pytest.mark.filterwarnings("ignore:cutoff 40 reaches")),
    ("zpos:1500", "1500", False),
])
def test_verify_runs_the_reverse_pass_once_the_masks_would_cost_more(preset, cutoff,
                                                                     reverse_pass):
    model = parse_preset(preset)
    table = model.enumerate_up_to(parse_key(model.key_kind, cutoff))
    with _spy_reverse_pass() as spy:
        run_all_checks(table)
    assert spy.call_count == reverse_pass
    if not reverse_pass:
        # free:2@12 and braid3@13 read 2 and 3 of their 8,191 and 2,567
        # masks; zpos:1500's only node of two candidates or more, its root,
        # takes the pass over candidate bits, so its verify reads none
        assert len(table.poset()._memo) == {"free:2": 2, "braid3": 3, "zpos:1500": 0}[preset]


@pytest.mark.parametrize("preset, cutoff, masks", [("free:2", "9", 2), ("braid3", "12", 3)])
def test_the_sliced_letter_is_not_charged_a_step(preset, cutoff, masks):
    # an atom's image is a slice of its row, so its build is charged one
    # step per id, for the bytes; charged two, these verifies would run the
    # reverse pass, whose towers stage took four times as long
    model = parse_preset(preset)
    table = model.enumerate_up_to(parse_key(model.key_kind, cutoff))
    with _spy_reverse_pass() as spy:
        run_all_checks(table)
    assert spy.call_count == 0
    assert len(table.poset()._memo) == masks


@pytest.mark.filterwarnings("ignore:cutoff 40 reaches")
def test_poset_cap_between_the_bits_built_and_n_squared_keeps_masks_on_demand(monkeypatch):
    # mp@40 runs the reverse pass under the default cap; one bit short of
    # its n*n bits, the masks the towers read are built one by one
    model = builtin("mp", p=[4, 8, 16])
    default = model.enumerate_up_to(Fraction(40))
    expected = [report.to_json() for report in run_all_checks(default)]
    table = model.enumerate_up_to(Fraction(40))
    cap = table.n_elements ** 2 - 1
    monkeypatch.setattr(divisibility, "POSET_BIT_CAP", cap)
    with _spy_reverse_pass() as spy:
        reports = run_all_checks(table)
    assert spy.call_count == 0
    assert [report.to_json() for report in reports] == expected
    assert all(report.ok for report in reports)
    assert skew_growth(table) == skew_growth(default)
    assert table.poset()._bits < cap
