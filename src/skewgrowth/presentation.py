"""Positive homogeneous monoid presentations: parsing, validation, rendering.

The text format is line oriented:

    # comment, runs to end of line
    gen NAME : RATIONAL        declare a generator and its degree (> 0)
    rel WORD = WORD            a defining relation; words are whitespace
                               separated generator names

Generators must be declared before use and may not repeat.  Every relation
must be homogeneous: both sides carry the same total degree, neither side is
empty.  Degrees are exact rationals ("3", "5/2"); the unit has no
declaration and is written implicitly as the empty product.

``parse_presentation`` and ``render_presentation`` round-trip:
``parse_presentation(render_presentation(p)) == p``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .dirichlet import KeyKind, parse_key
from .errors import (
    DuplicateGeneratorError,
    MalformedKeyError,
    NonHomogeneousRelationError,
    NonPositiveDegreeError,
    PresentationError,
    PresentationParseError,
    UnknownSymbolError,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


@dataclass(frozen=True)
class Generator:
    name: str
    degree: Fraction

    def __post_init__(self):
        _check_name(self.name)
        if isinstance(self.degree, (bool, float, str)):
            raise PresentationError(f"degrees must be exact rationals, got {self.degree!r}")
        object.__setattr__(self, "degree", Fraction(self.degree))
        _check_degree(self.name, self.degree)


@dataclass(frozen=True)
class Relation:
    """One defining relation lhs = rhs, sides stored as name tuples.

    The pair is interchangeable (the relation means identification, not
    rewriting); consumers that rewrite must apply it in both directions.
    """

    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "lhs", tuple(self.lhs))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        if not self.lhs or not self.rhs:
            raise PresentationError("relation sides must be non-empty words")


@dataclass(frozen=True)
class Presentation:
    generators: tuple[Generator, ...]
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relations", tuple(self.relations))
        degrees: dict[str, Fraction] = {}
        for gen in self.generators:
            _check_new(gen.name, degrees)
            degrees[gen.name] = gen.degree
        for rel in self.relations:
            _check_homogeneous(rel.lhs, rel.rhs, _total([_declared(degrees, n) for n in rel.lhs]),
                               _total([_declared(degrees, n) for n in rel.rhs]))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def degree_of(self, name: str) -> Fraction:
        return _declared({g.name: g.degree for g in self.generators}, name)

    def word_degree(self, word) -> Fraction:
        return sum(map(self.degree_of, word), Fraction(0))


# The rules on a presentation, one function each.  The dataclasses call them
# with no position; the parser passes the 1-based line, and the column where
# the rule's error class carries one.

def _check_name(name: str, line=None, column=None):
    if not _NAME_RE.fullmatch(name):
        raise PresentationParseError(f"invalid generator name {name!r}", line, column)


def _check_degree(name: str, degree: Fraction, line=None):
    if degree <= 0:
        raise NonPositiveDegreeError(f"{_at(line)}generator {name!r} has degree {degree}; "
                                     f"degrees must be > 0")


def _check_new(name: str, declared, line=None, column=None):
    if name in declared:
        raise DuplicateGeneratorError(f"generator {name!r} declared twice", line, column)


def _declared(degrees: dict[str, Fraction], name: str, line=None, column=None) -> Fraction:
    """The degree of the generator *name*, which must be declared."""
    if name not in degrees:
        raise UnknownSymbolError(f"unknown generator {name!r}", line, column)
    return degrees[name]


def _total(degrees: list[Fraction]) -> Fraction:
    """The sum of a side's degrees: ints over the lcm of their
    denominators, made one Fraction."""
    den = math.lcm(*(d.denominator for d in degrees))
    return Fraction(sum(d.numerator * (den // d.denominator) for d in degrees), den)


def _check_homogeneous(lhs, rhs, lhs_degree, rhs_degree, line=None):
    if lhs_degree != rhs_degree:
        raise NonHomogeneousRelationError(
            f"{_at(line)}relation {' '.join(lhs)} = {' '.join(rhs)} is not homogeneous: "
            f"degrees {lhs_degree} vs {rhs_degree}",
            lhs_degree=lhs_degree,
            rhs_degree=rhs_degree,
        )


def _at(line) -> str:
    return "" if line is None else f"line {line}: "


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text, reporting the first problem with its
    1-based line and column."""
    generators: list[Generator] = []
    declared: dict[str, Fraction] = {}
    relations: list[Relation] = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line)
        if not tokens:
            continue
        head, col = tokens[0]
        if head == "gen":
            name, degree = _parse_gen(tokens, lineno, declared)
            declared[name] = degree
            generators.append(Generator(name, degree))
        elif head == "rel":
            relations.append(_parse_rel(tokens, lineno, declared))
        else:
            raise PresentationParseError(
                f"expected 'gen' or 'rel', got {head!r}", lineno, col
            )
    return Presentation(tuple(generators), tuple(relations))


def _tokenize(line: str) -> list[tuple[str, int]]:
    # ':' and '=' are their own tokens so "a : 1" and "a: 1" parse alike
    out = []
    for match in re.finditer(r"[:=]|[^\s:=]+", line):
        out.append((match.group(), match.start() + 1))
    return out


def _parse_gen(tokens, lineno, declared) -> tuple[str, Fraction]:
    if len(tokens) != 4 or tokens[2][0] != ":":
        raise PresentationParseError(
            "generator lines read 'gen NAME : RATIONAL'", lineno, tokens[0][1]
        )
    name, name_col = tokens[1]
    _check_name(name, lineno, name_col)
    _check_new(name, declared, lineno, name_col)
    text, num_col = tokens[3]
    try:
        degree = parse_key(KeyKind.RATIONAL, text)
    except MalformedKeyError as exc:
        raise PresentationParseError(f"degree: {exc}", lineno, num_col) from None
    _check_degree(name, degree, lineno)
    return name, degree


def _parse_rel(tokens, lineno, declared) -> Relation:
    try:
        eq_index = [t for t, _ in tokens].index("=")
    except ValueError:
        raise PresentationParseError("relation lines read 'rel WORD = WORD'", lineno, tokens[0][1])
    lhs_tokens = tokens[1:eq_index]
    rhs_tokens = tokens[eq_index + 1:]
    if not lhs_tokens or not rhs_tokens:
        raise PresentationParseError("relation sides must be non-empty", lineno, tokens[0][1])
    if any(t == "=" for t, _ in rhs_tokens):
        raise PresentationParseError("more than one '=' in relation", lineno, tokens[0][1])
    lhs, rhs = tuple(t for t, _ in lhs_tokens), tuple(t for t, _ in rhs_tokens)
    lhs_degree, rhs_degree = (_total([_declared(declared, t, lineno, col) for t, col in side])
                              for side in (lhs_tokens, rhs_tokens))
    _check_homogeneous(lhs, rhs, lhs_degree, rhs_degree, lineno)
    return Relation(lhs, rhs)


def render_presentation(pres: Presentation) -> str:
    lines = [
        f"gen {gen.name} : {gen.degree.numerator}"
        + ("" if gen.degree.denominator == 1 else f"/{gen.degree.denominator}")
        for gen in pres.generators
    ]
    lines += [f"rel {' '.join(rel.lhs)} = {' '.join(rel.rhs)}" for rel in pres.relations]
    return "\n".join(lines) + "\n"
