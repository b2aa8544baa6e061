import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from scan_oracles import (atoms_by_scan, cancellative_by_scan, divides, masks_by_scan,
                          series_by_fractions, towers_by_rescan, word_degrees)
from skewgrowth import divisibility, models
from skewgrowth.checks import check_cancellative
from skewgrowth.dirichlet import Grid, growth_series
from skewgrowth.divisibility import DivPoset
from skewgrowth.errors import (CutoffTooLargeError, EmptyAlphabetError, InvalidParamsError,
                               UnknownSymbolError)
from skewgrowth.models import MultIntegerModel, RewriteModel
from skewgrowth.mp_family import MpSpec, family_presentation
from skewgrowth.presentation import Generator, Presentation, Relation, parse_presentation
from skewgrowth.presets import builtin, parse_preset
from skewgrowth.towers import skew_growth


def _counts(table):
    return [len(table.elements_of_degree(d)) for d in table.realized_degrees()]


def test_example3_counts(example3_table):
    assert _counts(example3_table) == [1] + [2] * 8


def test_braid3_counts(braid3_table):
    # the positive braid monoid on three strands starts 1, 2, 4, 7, 12, ...
    assert _counts(braid3_table)[:4] == [1, 2, 4, 7]


def test_free_counts(free2_table):
    assert _counts(free2_table) == [2 ** d for d in range(9)]


def test_trivial_relation_is_skipped():
    text = "gen a : 1\ngen b : 1\nrel a b = a b\n"
    table = RewriteModel(parse_presentation(text)).enumerate_up_to(6)
    assert table._rules == []
    assert _counts(table) == [2 ** d for d in range(7)]


def test_unit_is_element_zero(example3_table):
    assert example3_table.unit == 0
    assert example3_table.degree(0) == 0
    assert example3_table.label(0) == "1"


def test_canonical_labels_are_least_words(example3_table):
    degree2 = [example3_table.label(e) for e in example3_table.elements_of_degree(Fraction(2))]
    assert degree2 == ["aa", "ab"]


def test_atoms(example3_table, zpos_table):
    assert [example3_table.label(a) for a in example3_table.atoms()] == ["a", "b"]
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [zpos_table.label(a) for a in zpos_table.atoms()] == [str(p) for p in primes]


def _word_closure(presentation, cutoff):
    """Reference enumerator: list every word of degree <= cutoff and union the
    words of each degree under single-relation substring substitutions.

    Returns (labels, degrees, class_of) with ids ordered by (degree,
    shortlex-least word), and class_of mapping every listed word to its id.
    """
    gens = [g for g in presentation.generators if g.degree <= cutoff]
    names = [g.name for g in gens]
    index = {n: i for i, n in enumerate(names)}
    rules = [
        (tuple(index[n] for n in rel.lhs), tuple(index[n] for n in rel.rhs))
        for rel in presentation.relations
        if all(n in index for n in rel.lhs + rel.rhs)
    ]
    words_at = {Fraction(0): [()]}
    frontier = [()]
    while frontier:
        word = frontier.pop()
        degree = sum((gens[i].degree for i in word), Fraction(0))
        for i, g in enumerate(gens):
            if degree + g.degree <= cutoff:
                longer = word + (i,)
                words_at.setdefault(degree + g.degree, []).append(longer)
                frontier.append(longer)

    joiner = "" if all(len(n) == 1 for n in names) else " "
    labels, degrees, class_of = [], [], {}
    for degree in sorted(words_at):
        bucket = words_at[degree]
        slot = {w: i for i, w in enumerate(bucket)}
        parent = list(range(len(bucket)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for word, wid in slot.items():
            for lhs, rhs in rules:
                ell = len(lhs)
                for pos in range(len(word) - ell + 1):
                    if word[pos:pos + ell] == lhs:
                        other = word[:pos] + rhs + word[pos + ell:]
                        parent[find(slot[other])] = find(wid)
        classes = {}
        for word, wid in slot.items():
            classes.setdefault(find(wid), []).append(word)
        for members in sorted(classes.values(),
                              key=lambda ws: min((len(w), w) for w in ws)):
            least = min(members, key=lambda w: (len(w), w))
            labels.append(joiner.join(names[i] for i in least) or "1")
            degrees.append(degree)
            for w in members:
                class_of[w] = len(labels) - 1
    return labels, degrees, class_of


def _assert_matches_word_closure(presentation, cutoff):
    table = RewriteModel(presentation).enumerate_up_to(cutoff)
    labels, degrees, class_of = _word_closure(presentation, cutoff)
    assert [table.label(e) for e in table.all_elements()] == labels
    assert [table.degree(e) for e in table.all_elements()] == degrees
    assert [table.class_of_word(table.word(e)) for e in table.all_elements()] == list(
        table.all_elements())
    for u in table.all_elements():
        for v in table.all_elements():
            expected = None
            if degrees[u] + degrees[v] <= cutoff:
                expected = class_of[table.word(u) + table.word(v)]
            assert table.product(u, v) == expected


def test_class_graph_matches_word_closure():
    for text, cutoff in [
        ("gen a : 1\ngen b : 1\nrel a a = b b\nrel a b = b a\n", Fraction(7)),
        ("gen a : 1\ngen b : 1\nrel a b a = b a b\n", Fraction(7)),
        ("gen a : 1\ngen b : 2\nrel a a = b\n", Fraction(6)),
        ("gen a : 1\ngen b : 1\ngen c : 1\nrel a b = a c\n", Fraction(5)),
        ("gen a : 1/2\ngen b : 1\ngen c : 3/2\nrel b a = a b\nrel c = a b\n", Fraction(4)),
    ]:
        _assert_matches_word_closure(parse_presentation(text), cutoff)


@st.composite
def small_presentations(draw):
    """Up to 3 generators of mixed rational degree and up to 3 homogeneous
    relations with sides of 1 to 3 letters, plus a cutoff small enough for
    the word-closure oracle."""
    degrees = draw(st.lists(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]),
                            min_size=1, max_size=3))
    text = _presentation_text(draw, degrees)
    cutoff = draw(st.sampled_from([Fraction(3), Fraction(4), Fraction(9, 2)]))
    return parse_presentation(text), cutoff


def _presentation_text(draw, degrees) -> str:
    """Generators a, b, .. of the given degrees and up to 3 homogeneous
    relations with sides of 1 to 3 letters, as presentation text."""
    names = "abc"[:len(degrees)]
    sides = {}
    for length in (1, 2, 3):
        for word in itertools.product(range(len(names)), repeat=length):
            sides.setdefault(sum(degrees[i] for i in word), []).append(word)
    paired = sorted(d for d, ws in sides.items() if len(ws) > 1)
    relations = []
    for _ in range(draw(st.integers(0, 3)) if paired else 0):
        pool = sides[draw(st.sampled_from(paired))]
        lhs, rhs = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2,
                                 unique=True))
        relations.append(f"rel {' '.join(names[i] for i in lhs)} = "
                         f"{' '.join(names[i] for i in rhs)}")
    text = "".join(f"gen {n} : {d}\n" for n, d in zip(names, degrees))
    return text + "".join(r + "\n" for r in relations)


@settings(deadline=None, max_examples=100)
@given(small_presentations())
def test_class_graph_matches_word_closure_on_random_presentations(drawn):
    _assert_matches_word_closure(*drawn)


@st.composite
def presentations_on_mixed_grids(draw):
    """Up to 3 generators whose degrees p/q have q in 1..6 and lie in
    (1/2, 2], homogeneous relations as in small_presentations, and a cutoff
    below 3 half-way between two multiples of 1/D, D the lcm of the
    denominators, so off the degree grid of any table of the presentation."""
    degree = st.integers(1, 6).flatmap(
        lambda q: st.integers(q // 2 + 1, 2 * q).map(lambda p: Fraction(p, q)))
    degrees = draw(st.lists(degree, min_size=1, max_size=3))
    scale = math.lcm(*(d.denominator for d in degrees))
    cutoff = Fraction(2 * draw(st.integers(0, 3 * scale - 1)) + 1, 2 * scale)
    return parse_presentation(_presentation_text(draw, degrees)), cutoff, scale


@settings(deadline=None, max_examples=100)
@given(presentations_on_mixed_grids())
def test_degrees_on_mixed_grids_match_fraction_sums(drawn):
    presentation, cutoff, scale = drawn
    table = RewriteModel(presentation).enumerate_up_to(cutoff)
    assert [table.degree(e) for e in table.all_elements()] == word_degrees(table)
    realized = table.realized_degrees()
    growth, skew = growth_series(table), skew_growth(table)
    for key in (*realized, *growth.terms, *skew.terms):
        assert type(key) is Fraction
    for degree in (cutoff, *(d + Fraction(1, 2 * scale) for d in realized)):
        assert table.elements_of_degree(degree) == ()
    assert (growth, skew) == series_by_fractions(table, towers_by_rescan(table))


@settings(deadline=None, max_examples=100)
@given(presentations_on_mixed_grids())
def test_class_graph_matches_word_closure_on_mixed_grids(drawn):
    # word lengths vary most within one degree here, which is where the
    # shortlex order of g + word(x) differs most from the order of (g, x)
    presentation, cutoff, _ = drawn
    _assert_matches_word_closure(presentation, cutoff)


_NAME_POOL = ["a", "b", "ab", "ba", "xy", "z", "w2"]


@st.composite
def renamed_presentations(draw):
    """small_presentations with names drawn from a pool of one- and
    two-character names, some spelling a run of others, and maybe one more
    generator heavier than the cutoff."""
    presentation, cutoff = draw(small_presentations())
    count = len(presentation.generators) + draw(st.integers(0, 1))
    names = draw(st.lists(st.sampled_from(_NAME_POOL), min_size=count, max_size=count,
                          unique=True))
    rename = dict(zip(presentation.names, names))
    generators = [Generator(rename[g.name], g.degree) for g in presentation.generators]
    if count > len(generators):
        generators.append(Generator(names[-1], cutoff + 1))
    relations = [Relation(tuple(rename[n] for n in r.lhs), tuple(rename[n] for n in r.rhs))
                 for r in presentation.relations]
    return Presentation(tuple(generators), tuple(relations)), cutoff


def _assert_parse_label_inverts_label(table):
    for e in range(table.n_elements):
        assert table.parse_label(table.label(e)) == e, table.label(e)


@pytest.mark.parametrize("preset, cutoff", [
    ("free:2", 6), ("example3", 8), ("braid3", 8), ("zpos:200", 200),
    ("mp:p=4,8,16", 12), ("mp:p=pow2:K=4", 10), ("mp:p=2,0,7", 10),
])
def test_parse_label_inverts_label(preset, cutoff):
    _assert_parse_label_inverts_label(parse_preset(preset).enumerate_up_to(cutoff))


@settings(deadline=None, max_examples=100)
@given(renamed_presentations())
def test_parse_label_inverts_label_on_random_presentations(drawn):
    presentation, cutoff = drawn
    _assert_parse_label_inverts_label(RewriteModel(presentation).enumerate_up_to(cutoff))


def test_example3_counts_at_cutoff_200():
    table = builtin("example3").enumerate_up_to(Fraction(200))
    assert _counts(table) == [1] + [2] * 200


def test_class_of_word_identifies_equal_words(example3_table):
    aa = example3_table.class_of_word((0, 0))
    assert example3_table.class_of_word((1, 1)) == aa
    assert example3_table.label(aa) == "aa"


def test_class_of_word_past_cutoff_is_none(example3_table):
    assert example3_table.class_of_word((0,) * 9) is None


@settings(deadline=None)
@given(st.lists(st.integers(0, 1), max_size=10), st.lists(st.integers(0, 1), max_size=10))
def test_class_of_word_is_none_exactly_past_the_cutoff(braid3_table, left, right):
    table = braid3_table
    word = left + right
    eid = table.class_of_word(word)
    names = [table.presentation.names[i] for i in word]
    assert (eid is None) == (table.presentation.word_degree(names) > table.cutoff)
    if eid is not None:
        assert eid == table.product(table.class_of_word(left), table.class_of_word(right))


def test_parse_label_with_a_generator_past_the_cutoff():
    text = "gen a : 1\ngen b : 3/2\ngen c : 9\nrel a a a = b b\n"
    table = RewriteModel(parse_presentation(text)).enumerate_up_to(Fraction(6))
    ab = table.class_of_word((0, 1))
    assert table.parse_label("ab") == table.parse_label("a b") == ab
    assert table.parse_label("a" * 7) is None
    assert table.parse_label("c") is None
    assert table.parse_label("ac") is None
    with pytest.raises(UnknownSymbolError):
        table.parse_label("c zz")
    # labels run one-character names together, so "ab" is a*b, not the
    # heavy generator of that name; once a longer name fits, labels space
    # their names and "ab" is the generator again
    run = RewriteModel(parse_presentation("gen a : 1\ngen b : 1\ngen ab : 9\n"))
    table = run.enumerate_up_to(Fraction(4))
    assert table.parse_label("ab") == table.class_of_word((0, 1))
    spaced = RewriteModel(parse_presentation(
        "gen a : 1\ngen b : 1\ngen xy : 1\ngen ab : 9\n")).enumerate_up_to(Fraction(4))
    assert spaced.parse_label("ab") is None
    assert spaced.parse_label("a b") == spaced.class_of_word((0, 1))


def test_mixed_degree_presentation_uses_general_path():
    model = RewriteModel(parse_presentation("gen a : 1\ngen b : 2\nrel a a = b\n"))
    table = model.enumerate_up_to(Fraction(6))
    # the monoid collapses to powers of a, one element per integer degree
    assert _counts(table) == [1] * 7
    assert [table.label(e) for e in table.all_elements()][:4] == ["1", "a", "b", "ab"]


def test_heavy_generator_is_excluded_cleanly():
    model = RewriteModel(parse_presentation("gen a : 1\ngen b : 9\n"))
    table = model.enumerate_up_to(Fraction(4))
    assert _counts(table) == [1] * 5  # only powers of a fit


def test_empty_presentation_rejected():
    with pytest.raises(EmptyAlphabetError):
        RewriteModel(Presentation(())).enumerate_up_to(Fraction(2))


def test_word_cap_guard(monkeypatch):
    monkeypatch.setattr(models, "WORD_CAP", 10)
    model = RewriteModel(parse_presentation("gen a : 1\ngen b : 1\n"))
    with pytest.raises(CutoffTooLargeError):
        model.enumerate_up_to(Fraction(8))


def test_word_cap_counts_the_elements_of_the_lower_levels(monkeypatch):
    # example3 has 2 elements and 4 pairs at each degree, so only the
    # running count passes a cap of 10, at degree 5
    monkeypatch.setattr(models, "WORD_CAP", 10)
    with pytest.raises(CutoffTooLargeError) as caught:
        parse_preset("example3").enumerate_up_to(Fraction(8))
    assert str(caught.value) == "11 elements below degree 6 exceed the word cap 10"


def test_word_cap_trips_before_the_pairs_are_built(monkeypatch):
    # free:26's 18,279 elements up to degree 3 fill the cap; degree 4 would
    # hold 26**4 pairs
    monkeypatch.setattr(models, "WORD_CAP", 1 + 26 + 26 ** 2 + 26 ** 3)

    def peak_bytes(cutoff):
        model = parse_preset("free:26")
        tracemalloc.start()
        try:
            model.enumerate_up_to(Fraction(cutoff))
        except CutoffTooLargeError as exc:
            assert str(exc) == ("456976 (generator, class) pairs at degree 4 "
                                "exceed the word cap 18279")
        else:
            assert cutoff == 3
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return peak

    assert peak_bytes(4) < 2 * peak_bytes(3)


def test_levels_name_their_degree_only_when_a_cap_trips():
    # the mp presentation twin at 22 closes 106 levels of one class each
    model = RewriteModel(family_presentation(MpSpec((4, 8, 16))))
    with mock.patch.object(Grid, "key", autospec=True, side_effect=Grid.key) as spy:
        table = model.enumerate_up_to(Fraction(22))
    assert table.n_elements == 107
    assert spy.call_count == 0


def test_determinism_across_fresh_models():
    text = "gen a : 1\ngen b : 1\nrel a b a = b a b\n"
    t1 = RewriteModel(parse_presentation(text)).enumerate_up_to(Fraction(6))
    t2 = RewriteModel(parse_presentation(text)).enumerate_up_to(Fraction(6))
    assert [t1.label(e) for e in t1.all_elements()] == [t2.label(e) for e in t2.all_elements()]


@settings(deadline=None)
@given(st.data())
def test_product_degrees_add(braid3_table, data):
    table = braid3_table
    u = data.draw(st.integers(0, table.n_elements - 1))
    v = data.draw(st.integers(0, table.n_elements - 1))
    w = table.product(u, v)
    total = table.degree(u) + table.degree(v)
    if w is None:
        assert total > table.cutoff
    else:
        assert table.degree(w) == total


@settings(deadline=None)
@given(st.data())
def test_product_is_associative(example3_table, data):
    table = example3_table
    ids = st.integers(0, table.n_elements - 1)
    u, v, w = data.draw(ids), data.draw(ids), data.draw(ids)
    uv = table.product(u, v)
    vw = table.product(v, w)
    if uv is not None and vw is not None:
        assert table.product(uv, w) == table.product(u, vw)


def test_unit_is_neutral(mp_table):
    for eid in mp_table.all_elements():
        assert mp_table.product(0, eid) == eid
        assert mp_table.product(eid, 0) == eid


# ------------------------------------------------------- quotients / division

def test_left_divides_and_quotient(example3_table):
    t = example3_table
    poset = t.poset()
    a, b = t.atoms()
    aa = t.product(a, a)
    assert divides(poset, a, aa) and divides(poset, b, aa)
    assert t.product(b, b) == aa  # b*b == a*a in this monoid
    assert not divides(poset, t.product(a, b), a)


# ------------------------------------------------- generator maps vs. scans

def _masks_on_demand(table) -> list[int]:
    """Every element's multiples as built on demand, each by a fresh poset
    under a cap one bit short of the reverse pass's n*n bits, which keeps
    that pass from running."""
    n = table.n_elements
    with mock.patch.object(divisibility, "POSET_BIT_CAP", n * n - 1), \
            mock.patch.object(DivPoset, "_reverse_pass", side_effect=AssertionError):
        return [DivPoset(table).multiples(u) for u in range(n)]


def _assert_core_matches_scans(table):
    assert table.atoms() == atoms_by_scan(table)
    divisors, multiples = masks_by_scan(table)
    if table.n_elements > 1:  # a lone unit fits no cap between n and n*n
        assert _masks_on_demand(table) == multiples
    poset = table.poset()
    assert (poset.divisor_masks, poset.multiple_masks) == (divisors, multiples)
    assert check_cancellative(table).to_json() == cancellative_by_scan(table).to_json()


def test_generator_core_matches_scans_on_builtins(example3_table, braid3_table,
                                                 free2_table, zpos_table, mp_table):
    for table in (example3_table, braid3_table, free2_table, zpos_table, mp_table):
        _assert_core_matches_scans(table)
    for text in (
        "gen a : 1\ngen b : 1\ngen c : 1\nrel a b = a c\n",
        "gen a : 1\ngen b : 1\ngen c : 1\nrel b a = c a\n",
        "gen a : 1\ngen b : 2\nrel a a = b\n",
        "gen a : 9\n",
        # least witnesses on both sides at product degree 3: the right one
        # by a comes first, since a is lighter than c
        "gen a : 1\ngen b : 1\ngen c : 2\ngen d : 2\nrel c a = c b\nrel d a = c a\n",
    ):
        _assert_core_matches_scans(RewriteModel(parse_presentation(text)).enumerate_up_to(4))


@settings(deadline=None, max_examples=100)
@given(small_presentations())
def test_generator_core_matches_scans_on_random_presentations(drawn):
    presentation, cutoff = drawn
    _assert_core_matches_scans(RewriteModel(presentation).enumerate_up_to(cutoff))


# ----------------------------------------------------------- multiplicative Z

def test_zpos_products(zpos_table):
    t = zpos_table
    six = t.element_id(6)
    assert t.product(t.element_id(2), t.element_id(3)) == six
    assert t.product(t.element_id(7), t.element_id(5)) is None  # 35 > 30
    assert t.degree(six) == 6 and t.label(six) == "6"


def test_zpos_products_match_integer_multiplication():
    # products fold the same rows the maps come from; arithmetic is the oracle
    t = builtin("zpos", nmax=200).enumerate_up_to(200)
    for u, v in itertools.product(t.all_elements(), repeat=2):
        n = (u + 1) * (v + 1)
        assert t.product(u, v) == (n - 1 if n <= 200 else None)


def test_zpos_left_divides(zpos_table):
    t = zpos_table
    assert divides(t.poset(), t.element_id(3), t.element_id(27))
    assert not divides(t.poset(), t.element_id(4), t.element_id(6))


def test_zpos_rejects_bad_nmax():
    with pytest.raises(InvalidParamsError):
        MultIntegerModel(0)


@pytest.mark.parametrize("nmax", [Fraction(7, 2), 3.5, True, "3"])
def test_zpos_refuses_non_integral_nmax(nmax):
    with pytest.raises(InvalidParamsError):
        MultIntegerModel(nmax)


@pytest.mark.parametrize("preset", ["free:count=3/2", "mp:p=4.5,8", "mp:p=pow2:K=2.5",
                                    "mp:p=4,8:K=2.5", "mp:p=4"])
def test_presets_reject_non_integral_params(preset):
    with pytest.raises(InvalidParamsError):
        parse_preset(preset)
