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
        if not _NAME_RE.fullmatch(self.name):
            raise PresentationError(f"invalid generator name {self.name!r}")
        if isinstance(self.degree, (bool, float, str)):
            raise PresentationError(f"degrees must be exact rationals, got {self.degree!r}")
        object.__setattr__(self, "degree", Fraction(self.degree))
        if self.degree <= 0:
            raise NonPositiveDegreeError(
                f"generator {self.name!r} has degree {self.degree}; degrees must be > 0"
            )


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
        seen = set()
        for gen in self.generators:
            if gen.name in seen:
                raise DuplicateGeneratorError(f"generator {gen.name!r} declared twice")
            seen.add(gen.name)
        degrees = {gen.name: gen.degree for gen in self.generators}
        for rel in self.relations:
            lhs_deg = _word_degree(degrees, rel.lhs)
            rhs_deg = _word_degree(degrees, rel.rhs)
            if lhs_deg != rhs_deg:
                raise NonHomogeneousRelationError(
                    f"relation {' '.join(rel.lhs)} = {' '.join(rel.rhs)} is not homogeneous: "
                    f"degrees {lhs_deg} vs {rhs_deg}",
                    lhs_degree=lhs_deg,
                    rhs_degree=rhs_deg,
                )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def degree_of(self, name: str) -> Fraction:
        for gen in self.generators:
            if gen.name == name:
                return gen.degree
        raise UnknownSymbolError(f"unknown generator {name!r}")

    def word_degree(self, word) -> Fraction:
        return _word_degree({g.name: g.degree for g in self.generators}, word)


def _word_degree(degrees: dict[str, Fraction], word) -> Fraction:
    """The degree of *word* under the name -> degree map *degrees*."""
    total = Fraction(0)
    for name in word:
        if name not in degrees:
            raise UnknownSymbolError(f"unknown generator {name!r} in relation")
        total += degrees[name]
    return total


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
    if not _NAME_RE.fullmatch(name):
        raise PresentationParseError(f"invalid generator name {name!r}", lineno, name_col)
    if name in declared:
        raise DuplicateGeneratorError(f"generator {name!r} declared twice", lineno, name_col)
    text, num_col = tokens[3]
    try:
        degree = parse_key(KeyKind.RATIONAL, text)
    except MalformedKeyError as exc:
        raise PresentationParseError(f"degree: {exc}", lineno, num_col) from None
    if degree <= 0:
        raise NonPositiveDegreeError(
            f"line {lineno}: generator {name!r} has degree {degree}; degrees must be > 0"
        )
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

    def check(side):
        total = Fraction(0)
        for name, col in side:
            if name not in declared:
                raise UnknownSymbolError(f"unknown generator {name!r}", lineno, col)
            total += declared[name]
        return total

    lhs_deg = check(lhs_tokens)
    rhs_deg = check(rhs_tokens)
    if lhs_deg != rhs_deg:
        raise NonHomogeneousRelationError(
            f"line {lineno}: relation is not homogeneous: degrees {lhs_deg} vs {rhs_deg}",
            lhs_degree=lhs_deg,
            rhs_degree=rhs_deg,
        )
    return Relation(tuple(t for t, _ in lhs_tokens), tuple(t for t, _ in rhs_tokens))


def render_presentation(pres: Presentation) -> str:
    lines = [
        f"gen {gen.name} : {gen.degree.numerator}"
        + ("" if gen.degree.denominator == 1 else f"/{gen.degree.denominator}")
        for gen in pres.generators
    ]
    lines += [f"rel {' '.join(rel.lhs)} = {' '.join(rel.rhs)}" for rel in pres.relations]
    return "\n".join(lines) + "\n"
