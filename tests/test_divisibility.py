from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scan_oracles import masks_by_scan

from skewgrowth.divisibility import DivPoset, mask_to_ids
from skewgrowth.errors import EmptyIndexSetError
from skewgrowth.models import RewriteModel
from skewgrowth.presentation import parse_presentation


def _labels(table, ids):
    return [table.label(e) for e in ids]


def test_mask_to_ids():
    assert mask_to_ids(0b101101) == [0, 2, 3, 5]
    assert mask_to_ids(0) == []


def test_unit_divides_everything(example3_table):
    poset = example3_table.poset()
    assert all(poset.divides(0, v) for v in example3_table.all_elements())


def test_divides_is_reflexive_and_graded(braid3_table):
    poset = braid3_table.poset()
    for v in braid3_table.all_elements():
        assert poset.divides(v, v)
        for u in mask_to_ids(poset.divisor_masks[v]):
            assert braid3_table.degree(u) <= braid3_table.degree(v)


def test_example3_common_multiples():
    table = RewriteModel(
        parse_presentation("gen a : 1\ngen b : 1\nrel a a = b b\nrel a b = b a\n")
    ).enumerate_up_to(Fraction(3))
    poset = table.poset()
    a, b = table.atoms()
    assert _labels(table, poset.common_multiples([a, b])) == ["aa", "ab", "aaa", "aab"]
    assert _labels(table, poset.min_common_multiples([a, b])) == ["aa", "ab"]


def test_braid3_min_common_multiple(braid3_table):
    poset = braid3_table.poset()
    a, b = braid3_table.atoms()
    assert _labels(braid3_table, poset.min_common_multiples([a, b])) == ["aba"]


def test_zpos_min_common_multiple_is_lcm(zpos_table):
    poset = zpos_table.poset()
    four = zpos_table.element_id(4)
    six = zpos_table.element_id(6)
    assert _labels(zpos_table, poset.min_common_multiples([four, six])) == ["12"]


def test_singleton_and_empty_index_sets(zpos_table):
    poset = zpos_table.poset()
    ten = zpos_table.element_id(10)
    assert poset.min_common_multiples([ten]) == [ten]
    with pytest.raises(EmptyIndexSetError):
        poset.common_multiples([])


def test_minimal_elements_form_an_antichain(example3_table):
    poset = example3_table.poset()
    subset = list(example3_table.all_elements())[1:]
    minimal = poset.minimal_elements(subset)
    for u in minimal:
        for v in minimal:
            assert u == v or not poset.divides(u, v)
    assert poset.minimal_elements([]) == []


def test_iter_supported_subsets_matches_direct_computation(example3_table):
    poset = example3_table.poset()
    atoms = example3_table.atoms()
    seen = {}
    for subset, mask in poset.iter_supported_subsets(atoms, min_size=1):
        seen[subset] = mask_to_ids(mask)
    a, b = atoms
    assert set(seen) == {(a,), (b,), (a, b)}
    assert seen[(a, b)] == poset.common_multiples([a, b])


def test_iter_supported_subsets_prunes_empty(free2_table):
    poset = free2_table.poset()
    atoms = free2_table.atoms()
    pairs = [s for s, _ in poset.iter_supported_subsets(atoms, min_size=2)]
    assert pairs == []  # a free monoid has no common multiples of distinct atoms


@pytest.fixture(scope="module")
def braid3_scanned_divisors(braid3_table):
    return masks_by_scan(braid3_table)[0]


@settings(deadline=None)
@given(st.data())
def test_poset_agrees_with_witness_scan(braid3_table, braid3_scanned_divisors, data):
    poset = braid3_table.poset()
    ids = st.integers(0, braid3_table.n_elements - 1)
    u, v = data.draw(ids), data.draw(ids)
    assert poset.divides(u, v) == bool(braid3_scanned_divisors[v] >> u & 1)


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
            assert sposet.divides(u, v) == lposet.divides(u, v)
    a, b = small.atoms()
    assert sposet.min_common_multiples([a, b]) == lposet.min_common_multiples([a, b])
