from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewgrowth.errors import (
    DuplicateGeneratorError,
    NonHomogeneousRelationError,
    NonPositiveDegreeError,
    PresentationError,
    PresentationParseError,
    UnknownSymbolError,
)
from skewgrowth.presentation import (
    Generator,
    Presentation,
    Relation,
    parse_presentation,
    render_presentation,
)


def test_parse_basic():
    p = parse_presentation("""
    # a comment
    gen a : 1
    gen b : 3/2
    rel a a a = b b   # trailing comment
    """)
    assert p.names == ("a", "b")
    assert p.degree_of("b") == Fraction(3, 2)
    assert p.relations == (Relation(("a", "a", "a"), ("b", "b")),)


def test_colon_spacing_is_flexible():
    assert parse_presentation("gen a:1\n") == parse_presentation("gen a : 1\n")


def test_duplicate_generator():
    with pytest.raises(DuplicateGeneratorError) as exc:
        parse_presentation("gen a : 1\ngen a : 2\n")
    assert exc.value.line == 2


def test_unknown_symbol_has_position():
    with pytest.raises(UnknownSymbolError) as exc:
        parse_presentation("gen a : 1\nrel a = c\n")
    assert exc.value.line == 2
    assert exc.value.column == 9


def test_bad_keyword():
    with pytest.raises(PresentationParseError) as exc:
        parse_presentation("generator a : 1\n")
    assert exc.value.line == 1


@pytest.mark.parametrize("text, column", [("gen a 1\n", 1), ("gen 1a : 1\n", 5)])
def test_bad_generator_line(text, column):
    with pytest.raises(PresentationParseError) as exc:
        parse_presentation(text)
    assert (exc.value.line, exc.value.column) == (1, column)


def test_bad_rational():
    with pytest.raises(PresentationParseError):
        parse_presentation("gen a : one\n")
    with pytest.raises(PresentationParseError):
        parse_presentation("gen a : 1/0\n")


def test_nonpositive_degree():
    with pytest.raises(NonPositiveDegreeError):
        parse_presentation("gen a : 0\n")
    with pytest.raises(NonPositiveDegreeError):
        Generator("a", Fraction(-1))


# a float, a bool (not degree 1) and text (read only by the parser) are of
# the wrong type, whatever their sign
@pytest.mark.parametrize("degree", [0.5, True, "3"])
def test_degree_of_the_wrong_type(degree):
    with pytest.raises(PresentationError) as info:
        Generator("a", degree)
    assert not isinstance(info.value, NonPositiveDegreeError)


def test_constructed_presentations_are_validated():
    a, b = Generator("a", 1), Generator("b", 2)
    with pytest.raises(PresentationError):
        Generator("1a", 1)
    with pytest.raises(DuplicateGeneratorError):
        Presentation((a, Generator("a", 2)))
    with pytest.raises(NonHomogeneousRelationError):
        Presentation((a, b), (Relation(("a",), ("b",)),))
    with pytest.raises(UnknownSymbolError):
        Presentation((a, b)).degree_of("c")


def test_inhomogeneous_relation_carries_degrees():
    with pytest.raises(NonHomogeneousRelationError) as exc:
        parse_presentation("gen a : 1\ngen b : 2\nrel a = b\n")
    assert exc.value.lhs_degree == 1
    assert exc.value.rhs_degree == 2
    assert str(exc.value) == "line 3: relation a = b is not homogeneous: degrees 1 vs 2"


def test_parser_and_dataclasses_share_each_rule():
    # the same error class and text, the parser's with its position
    cases = [("gen 1a : 1\n", lambda: Generator("1a", 1)),
             ("gen a : 0\n", lambda: Generator("a", 0)),
             ("gen a : 1\ngen a : 1\n", lambda: Presentation((Generator("a", 1),) * 2)),
             ("gen a : 1\nrel a = c\n",
              lambda: Presentation((Generator("a", 1),), (Relation(("a",), ("c",)),))),
             ("gen a : 1\ngen b : 2\nrel a = b\n",
              lambda: Presentation((Generator("a", 1), Generator("b", 2)),
                                   (Relation(("a",), ("b",)),)))]
    for text, build in cases:
        with pytest.raises(PresentationError) as parsed:
            parse_presentation(text)
        with pytest.raises(PresentationError) as built:
            build()
        assert type(parsed.value) is type(built.value)
        assert str(parsed.value).endswith(": " + str(built.value))
    with pytest.raises(PresentationParseError) as info:
        Generator("1a", 1)
    assert (info.value.line, info.value.column) == (None, None)


def test_relation_shape_errors():
    with pytest.raises(PresentationParseError):
        parse_presentation("gen a : 1\nrel a a\n")
    with pytest.raises(PresentationParseError):
        parse_presentation("gen a : 1\nrel = a\n")
    with pytest.raises(PresentationParseError):
        parse_presentation("gen a : 1\nrel a = a = a\n")
    with pytest.raises(PresentationError):
        Relation((), ("a",))


_names = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True),
    min_size=1, max_size=4, unique=True,
)
_degree = st.fractions(min_value=Fraction(1, 4), max_value=4).filter(
    lambda q: q.denominator <= 4
)


@st.composite
def _presentations(draw):
    names = draw(_names)
    gens = tuple(Generator(n, draw(_degree)) for n in names)
    degree_of = {g.name: g.degree for g in gens}
    rels = []
    for _ in range(draw(st.integers(0, 3))):
        lhs = tuple(draw(st.sampled_from(names)) for _ in range(draw(st.integers(1, 3))))
        # build an rhs with matching degree by reusing the lhs letters shuffled
        rhs = tuple(draw(st.permutations(lhs)))
        rels.append(Relation(lhs, rhs))
        assert sum(degree_of[n] for n in lhs) == sum(degree_of[n] for n in rhs)
    return Presentation(gens, tuple(rels))


@given(_presentations())
def test_render_parse_roundtrip(p):
    assert parse_presentation(render_presentation(p)) == p


def test_word_degree():
    p = parse_presentation("gen a : 1\ngen b : 5/2\n")
    assert p.word_degree(("a", "b", "b")) == Fraction(6)
    with pytest.raises(UnknownSymbolError):
        p.word_degree(("z",))
