import functools
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mp_reference import (
    MalformedDyadicError,
    MpElement,
    degree_membership,
    element_degree,
    element_of_degree,
    element_of_id,
    generator_degree,
    id_of_element,
    mp_left_divides,
    mp_min_common_multiples,
    mp_product,
    normal_form,
)
from scan_oracles import min_common_multiples

from skewgrowth import models
from skewgrowth.cli import main
from skewgrowth.dirichlet import KeyKind, Series, growth_series, series_invert, series_mul
from skewgrowth.errors import InvalidGroundError, InvalidParamsError
from skewgrowth.models import RewriteModel
from skewgrowth.mp_family import MpModel, MpSpec, MpTable, family_presentation
from skewgrowth.presets import builtin
from skewgrowth.towers import enumerate_towers, skew_growth

SPEC = MpSpec((4, 8, 16))
F = Fraction


def test_spec_validation():
    with pytest.raises(InvalidParamsError):
        MpSpec(())
    with pytest.raises(InvalidParamsError):
        MpSpec((3,))  # p_1 must be even
    with pytest.raises(InvalidParamsError):
        MpSpec((0,))  # and positive
    with pytest.raises(InvalidParamsError):
        MpSpec((4, -1))
    MpSpec((2, 0, 7))  # later entries may be any nonnegative integer


@pytest.mark.parametrize("p", [(4.5, 8), (F(9, 2), 8), (4, "8")])
def test_spec_refuses_non_integral_p(p):
    with pytest.raises(InvalidParamsError):
        MpSpec(p)


@pytest.mark.parametrize("n, eps", [(0, (0.5, 0, 0)), (0, (F(1, 2), 0, 0)),
                                    (F(5, 2), (0, 0, 0)), (1.0, (0, 0, 0))])
def test_element_refuses_non_integral_parts(n, eps):
    with pytest.raises(InvalidParamsError):
        MpElement(n, eps)


def test_generator_degrees():
    assert [generator_degree(SPEC, k) for k in range(4)] == [
        F(1), F(5, 2), F(21, 4), F(85, 8)]
    with pytest.raises(IndexError):
        generator_degree(SPEC, 4)


def test_pow2_sequence_degrees():
    # the pow2 closed form p_k = 2^(k+1) reproduces the flagship parameters
    model = builtin("mp", p="pow2", K=3)
    assert model.spec.p == (4, 8, 16)
    assert model.spec.degrees == (F(1), F(5, 2), F(21, 4), F(85, 8))


def test_normal_forms():
    assert normal_form(SPEC, [1, 1]) == MpElement(5, (0, 0, 0))
    assert normal_form(SPEC, [2, 2, 1]) == MpElement(13, (0, 0, 0))
    assert normal_form(SPEC, [3, 1, 0, 2]) == MpElement(1, (1, 1, 1))
    assert normal_form(SPEC, []) == MpElement(0, (0, 0, 0))
    with pytest.raises(IndexError):
        normal_form(SPEC, [4])


def test_product_is_commutative_and_degree_additive():
    u = normal_form(SPEC, [1, 2])
    v = normal_form(SPEC, [2, 0, 0])
    uv = mp_product(SPEC, u, v)
    assert uv == mp_product(SPEC, v, u)
    assert element_degree(SPEC, uv) == element_degree(SPEC, u) + element_degree(SPEC, v)


def test_degree_membership_cases():
    assert degree_membership(SPEC, 0)
    assert degree_membership(SPEC, F(5, 2))
    assert degree_membership(SPEC, F(7, 2))   # a0 a1
    assert not degree_membership(SPEC, F(3, 2))
    assert not degree_membership(SPEC, F(1, 4))
    assert not degree_membership(SPEC, F(1, 8))
    assert not degree_membership(SPEC, -1)


def test_degree_membership_malformed():
    with pytest.raises(MalformedDyadicError):
        degree_membership(SPEC, F(1, 3))
    with pytest.raises(MalformedDyadicError):
        degree_membership(SPEC, F(1, 16))  # deeper than K = 3
    with pytest.raises(MalformedDyadicError):
        degree_membership(SPEC, 0.5)


@settings(deadline=None)
@given(st.integers(0, 40), st.tuples(*[st.integers(0, 1)] * 3))
def test_degree_roundtrip(n, eps):
    element = MpElement(n, eps)
    degree = element_degree(SPEC, element)
    assert degree_membership(SPEC, degree)
    assert element_of_degree(SPEC, degree) == element


@settings(deadline=None)
@given(st.tuples(st.integers(0, 20), *[st.integers(0, 1)] * 3),
       st.tuples(st.integers(0, 20), *[st.integers(0, 1)] * 3))
def test_degree_map_is_injective(raw_u, raw_v):
    u = MpElement(raw_u[0], raw_u[1:])
    v = MpElement(raw_v[0], raw_v[1:])
    if u != v:
        assert element_degree(SPEC, u) != element_degree(SPEC, v)


@settings(deadline=None)
@given(st.tuples(st.integers(0, 12), *[st.integers(0, 1)] * 3),
       st.tuples(st.integers(0, 12), *[st.integers(0, 1)] * 3))
def test_left_divides_matches_witness(raw_u, raw_v):
    u = MpElement(raw_u[0], raw_u[1:])
    v = MpElement(raw_v[0], raw_v[1:])
    # commutative monoid: u | v iff some w has u*w == v; search brute force
    witness = False
    for n in range(25):
        for e1 in (0, 1):
            for e2 in (0, 1):
                for e3 in (0, 1):
                    if mp_product(SPEC, u, MpElement(n, (e1, e2, e3))) == v:
                        witness = True
    assert mp_left_divides(SPEC, u, v) == witness


# --------------------------------------------------------------------- mcm

A0 = MpElement(0, (0, 0, 0))
GEN = {k: normal_form(SPEC, [k]) for k in range(4)}


def _mcm_degrees(members, cutoff=None):
    found = mp_min_common_multiples(SPEC, members, cutoff=cutoff)
    return [element_degree(SPEC, e) for e in found]


def test_mcm_of_a0_a1():
    assert _mcm_degrees([GEN[0], GEN[1]]) == [F(7, 2), F(5)]
    assert _mcm_degrees([GEN[0], GEN[1]], cutoff=4) == [F(7, 2)]


def test_mcm_of_a1_a2():
    assert _mcm_degrees([GEN[1], GEN[2]]) == [F(31, 4), F(21, 2)]
    assert _mcm_degrees([GEN[1], GEN[2]], cutoff=8) == [F(31, 4)]


def test_mcm_singleton_and_unit():
    assert mp_min_common_multiples(SPEC, [GEN[1]]) == [GEN[1]]
    unit = normal_form(SPEC, [])
    assert mp_min_common_multiples(SPEC, [unit, GEN[2]]) == [GEN[2]]


def test_mcm_agrees_with_poset_route(mp_table):
    poset = mp_table.poset()
    atoms = mp_table.atoms()
    for i in range(len(atoms)):
        for j in range(i, len(atoms)):
            members = [element_of_id(mp_table, atoms[i]), element_of_id(mp_table, atoms[j])]
            intrinsic = mp_min_common_multiples(
                SPEC, members, cutoff=mp_table.cutoff)
            via_poset = min_common_multiples(poset, [atoms[i], atoms[j]])
            assert [id_of_element(mp_table, e) for e in intrinsic] == via_poset


def test_forest_tops_match_intrinsic_mcm(mp_table):
    forest = enumerate_towers(mp_table)
    for tower in forest.towers:
        for stage, top in zip(tower.stages, tower.tops):
            members = [element_of_id(mp_table, e) for e in stage]
            intrinsic = mp_min_common_multiples(SPEC, members, cutoff=mp_table.cutoff)
            assert [id_of_element(mp_table, e) for e in intrinsic] == list(top)


# ------------------------------------------------------------------- table

def test_table_atoms_and_labels(mp_table):
    assert [mp_table.label(a) for a in mp_table.atoms()] == ["a0", "a1", "a2"]
    assert mp_table.label(0) == "1"
    five = id_of_element(mp_table, MpElement(5, (0, 0, 0)))
    assert mp_table.label(five) == "a0^5"
    mixed = id_of_element(mp_table, MpElement(2, (1, 0, 0)))
    assert mp_table.label(mixed) == "a0^2 a1"
    pair = id_of_element(mp_table, MpElement(0, (1, 1, 0)))
    assert mp_table.label(pair) == "a1 a2"  # degree 31/4 fits under 8


def test_table_product_past_cutoff_is_none(mp_table):
    a2 = id_of_element(mp_table, MpElement(0, (0, 1, 0)))
    assert mp_table.product(a2, a2) is None  # degree 21/2 > 8


def test_growth_is_the_truncated_product_formula(mp_table):
    kind, cutoff = mp_table.key_kind, mp_table.cutoff
    geometric = series_invert(Series.build(kind, cutoff, {0: 1, 1: -1}))
    expected = geometric
    for k in range(1, SPEC.depth + 1):
        terms = {F(0): 1}
        if SPEC.degrees[k] <= cutoff:  # factors past the cutoff contribute 1
            terms[SPEC.degrees[k]] = 1
        expected = series_mul(expected, Series.build(kind, cutoff, terms))
    assert growth_series(mp_table) == expected


@pytest.mark.parametrize("cutoff", [
    8,
    # one class at each of the presentation's 107 degrees
    pytest.param(22, marks=pytest.mark.filterwarnings("ignore:cutoff 22 reaches")),
])
def test_cross_model_agreement(cutoff):
    mp_table = builtin("mp", p=[4, 8, 16]).enumerate_up_to(F(cutoff))
    rewrite = RewriteModel(family_presentation(SPEC)).enumerate_up_to(F(cutoff))
    mine = [mp_table.degree(e) for e in mp_table.all_elements()]
    theirs = [rewrite.degree(e) for e in rewrite.all_elements()]
    assert mine == theirs
    assert growth_series(mp_table) == growth_series(rewrite)
    assert skew_growth(mp_table) == skew_growth(rewrite)


def test_family_presentation_shape():
    pres = family_presentation(SPEC)
    assert [g.name for g in pres.generators] == ["a0", "a1", "a2", "a3"]
    assert [g.degree for g in pres.generators] == list(SPEC.degrees)
    # K squares plus one commutator per unordered generator pair
    assert len(pres.relations) == 3 + 6


def test_depth_cap_warning_on_canonical_p():
    # p = 4, 8 follows the canonical pattern; continuing it would add a
    # generator of degree 21/8 + 16/2 = 85/8, so cutoffs from there on warn
    model = builtin("mp", p=[4, 8])
    with pytest.warns(UserWarning, match="depth-2 family"):
        model.enumerate_up_to(F(85, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model.enumerate_up_to(F(10))
        builtin("mp", p=[4, 6]).enumerate_up_to(F(40))  # off-pattern: never warns


def _growth_lines(preset, capsys):
    assert main(["growth", "--preset", preset, "--max-degree", "8"]) == 0
    return capsys.readouterr().out.splitlines()[1:]  # past the header naming the model


def test_letters_past_the_cutoff_add_no_growth_line(capsys):
    # at cutoff 8 only a1 and a2 of p=pow2 fit, so 28 more levels add no element
    assert _growth_lines("mp:p=pow2:K=40", capsys) == _growth_lines("mp:p=pow2:K=12", capsys)


def test_word_cap_trips_while_the_flag_patterns_are_found(capsys, monkeypatch):
    # every letter of p=2,0,..,0 fits, so its 2**30 flag patterns all would
    monkeypatch.setattr(models, "WORD_CAP", 1000)
    assert main(["growth", "--preset", "mp:p=2" + ",0" * 29, "--max-degree", "8"]) == 2
    assert capsys.readouterr().err == ("error: 1002 elements up to cutoff 8 "
                                       "exceed the word cap 1000\n")


# ------------------------------------------------ degree addressing, oracle
# MpTable finds elements by degree; the normal-form reducer is the
# reference it is compared with.

ORACLE_CASES = [(spec, cutoff)
                for spec in (SPEC, MpSpec((2, 0, 7)), builtin("mp", p="pow2", K=4).spec)
                for cutoff in (F(12), F(383, 16))]
ORACLE_IDS = [f"p={','.join(map(str, spec.p))}@{cutoff}" for spec, cutoff in ORACLE_CASES]


@functools.cache
def _oracle(spec, cutoff):
    """The table, its elements as the reducer spells them, and the ids
    keyed by those normal forms."""
    table = MpTable(spec, cutoff)
    elements = [element_of_id(table, e) for e in table.all_elements()]
    return table, elements, {element: e for e, element in enumerate(elements)}


@pytest.mark.parametrize("spec, cutoff", ORACLE_CASES, ids=ORACLE_IDS)
def test_degree_product_matches_normal_form_product(spec, cutoff):
    table, elements, ids = _oracle(spec, cutoff)
    assert len(ids) == table.n_elements
    for u, x in enumerate(elements):
        for v, y in enumerate(elements):
            w = mp_product(spec, x, y)
            assert table.product(u, v) == ids.get(w) == id_of_element(table, w)


@pytest.mark.parametrize("spec, cutoff", ORACLE_CASES, ids=ORACLE_IDS)
def test_degree_generators_match_normal_form_letters(spec, cutoff):
    table, _, ids = _oracle(spec, cutoff)
    letters = (normal_form(spec, (k,)) for k in range(spec.depth + 1))
    assert table.generators() == tuple(sorted(ids[g] for g in letters if g in ids))


@pytest.mark.parametrize("spec, cutoff", ORACLE_CASES, ids=ORACLE_IDS)
def test_element_and_element_id_round_trip(spec, cutoff):
    table, elements, _ = _oracle(spec, cutoff)
    for e, element in enumerate(elements):
        assert element_degree(spec, element) == table.degree(e)
        assert id_of_element(table, element) == e
    zeros = (0,) * spec.depth
    assert id_of_element(table, MpElement(0, zeros[1:])) is None      # eps too short
    assert id_of_element(table, MpElement(0, zeros + (0,))) is None   # eps too long
    assert id_of_element(table, MpElement(0, (1,) + zeros + (1,))) is None
    assert id_of_element(table, MpElement(int(cutoff) + 1, zeros)) is None


def _token(powers):
    return " ".join(f"a{k}" if power == 1 else f"a{k}^{power}" for k, power in powers)


@settings(deadline=None)
@given(st.sampled_from(ORACLE_CASES),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), min_size=1, max_size=4))
def test_cli_token_by_degree_matches_normal_form(case, powers):
    spec, _ = case
    table, _, ids = _oracle(*case)
    if any(k > spec.depth for k, _ in powers):
        with pytest.raises(InvalidGroundError, match="beyond the family depth"):
            table.parse_label(_token(powers))
        return
    expected = ids.get(normal_form(spec, [k for k, power in powers for _ in range(power)]))
    assert table.parse_label(_token(powers)) == expected
