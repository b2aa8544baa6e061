"""Monoid models and exact element enumeration up to a degree cutoff.

The central object is the :class:`ElementTable`: a frozen enumeration of all
elements of degree <= cutoff, with degree and product queries.  Its
algebraic core is the maps that multiply by each member of a generating
set, on the left and on the right; the atoms, the divisibility poset and the
cancellativity probe are all derived from them.  Tables are immutable after
construction and safe to share across threads.

Two model families live here:

* :class:`RewriteModel` wraps a positive homogeneous presentation.  Its
  classes are built degree by degree: every word of degree d is a generator
  g followed by a word of some class x of degree d - deg(g), so the pairs
  (g, x) are the nodes of a graph, relations applied at the front of a word
  are its edges, and the classes of degree d are its connected components.
  Each class keeps its shortlex-least word (length, then declaration order)
  and the left-multiplication maps g*x; products fold a word through those
  maps.  A cap on the nodes per degree turns runaway enumerations into a
  clean error.

* :class:`MultIntegerModel` is the positive integers under multiplication
  with multiplicative-integer degree keys; enumeration up to a cutoff just
  lists 1..cutoff.

The normal-form family model is in :mod:`skewgrowth.mp_family`.
"""
from __future__ import annotations

import abc
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .dirichlet import KeyKind, coerce_key, key_zero
from .errors import (CutoffTooLargeError, EmptyAlphabetError, InvalidGroundError,
                     InvalidParamsError, MalformedKeyError, UnknownSymbolError)
from .presentation import Presentation

DEFAULT_WORD_CAP = 10_000_000


class ElementTable(abc.ABC):
    """Enumerated elements of a monoid up to a degree cutoff.

    Element ids are dense integers ordered by (degree, canonical form);
    id 0 is always the unit.  The table is complete and duplicate-free for
    every degree <= cutoff.
    """

    def __init__(self, key_kind: KeyKind, cutoff, degrees: list, by_degree: dict):
        self.key_kind = key_kind
        self.cutoff = cutoff
        self._degrees = degrees
        self._by_degree = by_degree
        self._realized = tuple(sorted(by_degree))
        self._atoms: tuple[int, ...] | None = None
        self._left_maps: list[list[int]] | None = None
        self._right_maps: list[list[int]] | None = None
        self._poset = None

    # -- basic queries ------------------------------------------------------

    @property
    def n_elements(self) -> int:
        return len(self._degrees)

    @property
    def unit(self) -> int:
        return 0

    def degree(self, eid: int):
        return self._degrees[eid]

    def realized_degrees(self) -> tuple:
        return self._realized

    def elements_of_degree(self, degree) -> tuple[int, ...]:
        return self._by_degree.get(degree, ())

    def all_elements(self) -> range:
        return range(len(self._degrees))

    @abc.abstractmethod
    def product(self, u: int, v: int) -> int | None:
        """Element id of u*v, or None when the degree exceeds the cutoff.
        Out-of-range is an expected value, not a failure."""

    @abc.abstractmethod
    def label(self, eid: int) -> str:
        """Canonical human-readable form; stable across runs and cutoffs."""

    @abc.abstractmethod
    def parse_label(self, text: str) -> int | None:
        """Inverse of label: the id of the element *text* names, or None
        past the cutoff.  Text that names no element raises."""

    @abc.abstractmethod
    def generators(self) -> tuple[int, ...]:
        """Ids of a generating set within the cutoff, ascending.  Every
        atom is among them."""

    # -- generator maps --------------------------------------------------------

    def _generator_maps(self, left: bool) -> list[list[int]]:
        """One map per generator g, x -> g*x (left) or x -> x*g, over the
        ids x with deg(x) + deg(g) <= cutoff.  Ids are ordered by degree, so
        those ids are a prefix and the first None ends the map."""
        maps = []
        for g in self.generators():
            row = []
            for x in self.all_elements():
                y = self.product(g, x) if left else self.product(x, g)
                if y is None:
                    break
                row.append(y)
            maps.append(row)
        return maps

    def left_maps(self) -> list[list[int]]:
        """left_maps()[i][x] is g*x for g = generators()[i]."""
        if self._left_maps is None:
            self._left_maps = self._generator_maps(left=True)
        return self._left_maps

    def right_maps(self) -> list[list[int]]:
        """right_maps()[i][x] is x*g for g = generators()[i]."""
        if self._right_maps is None:
            self._right_maps = self._generator_maps(left=False)
        return self._right_maps

    # -- atoms ---------------------------------------------------------------

    def atoms(self) -> tuple[int, ...]:
        """Elements u != 1 with no proper divisor besides the unit: the
        non-units that are not y*g for a non-unit y and a generator g.
        Exact at every degree <= cutoff."""
        if self._atoms is None:
            non_atoms = {y for row in self.right_maps() for y in row[1:]}
            self._atoms = tuple(e for e in range(1, self.n_elements) if e not in non_atoms)
        return self._atoms

    def poset(self):
        """Memoized left-divisibility poset for this table."""
        if self._poset is None:
            from .divisibility import DivPoset

            self._poset = DivPoset.build(self)
        return self._poset


# ---------------------------------------------------------------------------
# presentation-backed model
# ---------------------------------------------------------------------------

def _validate_cutoff(key_kind: KeyKind, cutoff):
    cutoff = coerce_key(key_kind, cutoff)
    if cutoff <= key_zero(key_kind):
        raise MalformedKeyError(f"cutoff must exceed the zero degree, got {cutoff}")
    return cutoff


def _natural(text: str, token: str) -> int:
    """*text* as an int; only a non-empty run of ASCII digits is accepted."""
    if not (text.isascii() and text.isdigit()):
        raise InvalidGroundError(f"cannot parse ground token {token!r}")
    return int(text)


def _integer(name: str, value) -> int:
    """*value* as an int; anything not a whole number is refused, never
    truncated."""
    whole = isinstance(value, (int, Fraction)) and not isinstance(value, bool)
    if not whole or value.denominator != 1:
        raise InvalidParamsError(f"{name} must be an integer, got {value}")
    return int(value)


class RewriteModel:
    """A monoid given by a positive homogeneous presentation."""

    def __init__(self, presentation: Presentation, word_cap: int = DEFAULT_WORD_CAP,
                 name: str | None = None):
        self.presentation = presentation
        self.word_cap = int(word_cap)
        self.default_cutoff = Fraction(8)
        self.name = name or "presented"
        self.key_kind = KeyKind.RATIONAL

    def enumerate_up_to(self, cutoff) -> "RewriteTable":
        cutoff = _validate_cutoff(KeyKind.RATIONAL, cutoff)
        return RewriteTable(self.presentation, cutoff, self.word_cap)


class RewriteTable(ElementTable):
    def __init__(self, presentation: Presentation, cutoff: Fraction, word_cap: int):
        if not presentation.generators:
            raise EmptyAlphabetError("presentation declares no generators")
        self.presentation = presentation
        # generators of degree > cutoff cannot occur in any enumerated word
        self._gen_names = [g.name for g in presentation.generators if g.degree <= cutoff]
        self._gen_degrees = [g.degree for g in presentation.generators if g.degree <= cutoff]
        self._joiner = "" if all(len(n) == 1 for n in self._gen_names) else " "
        self._letters = {n: i for i, n in enumerate(self._gen_names)}

        # relations whose sides fit under the cutoff, as index tuples with
        # both orientations collapsed to one unordered pair, and their degree
        rules: set[tuple[tuple[int, ...], tuple[int, ...], Fraction]] = set()
        for rel in presentation.relations:
            if any(n not in self._letters for n in rel.lhs + rel.rhs):
                continue  # mentions a generator too heavy for this cutoff
            lhs = tuple(self._letters[n] for n in rel.lhs)
            rhs = tuple(self._letters[n] for n in rel.rhs)
            if lhs == rhs:
                continue
            rules.add((min(lhs, rhs), max(lhs, rhs), presentation.word_degree(rel.lhs)))
        self._rules = sorted(rules)

        degrees: list = [Fraction(0)]
        by_degree: dict = {Fraction(0): (0,)}
        self._words: list[tuple[int, ...]] = [()]
        # _lmul[g][x] is the id of g*x, for every class x with
        # deg(x) + deg(g) <= cutoff; lists grow in id order
        self._lmul: list[list[int]] = [[] for _ in self._gen_names]
        for degree in _degree_closure(self._gen_degrees, cutoff)[1:]:
            self._close_level(degree, word_cap, degrees, by_degree)
        super().__init__(KeyKind.RATIONAL, cutoff, degrees, by_degree)

    def _close_level(self, degree, word_cap, degrees, by_degree):
        """Enumerate the classes of one degree from the lower ones.

        Every word of this degree is g*w with w of class x at degree
        deg - deg(g), and all those words are equal in the monoid, so the
        pair (g, x) is a node.  A substitution strictly inside w stays within
        its node; one at the front uses a relation g*u = h*u' and joins
        (g, [u*y]) with (h, [u'*y]) for a class y of degree deg - deg(g*u).
        The classes are the connected components, each named by the
        shortlex-least g + word(x) among its nodes.
        """
        words, lmul = self._words, self._lmul
        nodes: list[tuple[int, int]] = []
        start = []  # node index of (g, x) is start[g] + x
        for g, gd in enumerate(self._gen_degrees):
            lower = by_degree.get(degree - gd, ())
            start.append(len(nodes) - lower[0] if lower else None)
            nodes.extend((g, x) for x in lower)
        if len(nodes) > word_cap:
            raise CutoffTooLargeError(
                f"{len(nodes)} (generator, class) pairs at degree {degree} "
                f"exceed the word cap {word_cap}"
            )

        parent = list(range(len(nodes)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for lhs, rhs, rule_degree in self._rules:
            for y in by_degree.get(degree - rule_degree, ()):
                a = find(start[lhs[0]] + self._fold(lhs[1:], y))
                b = find(start[rhs[0]] + self._fold(rhs[1:], y))
                if a != b:
                    parent[b] = a

        least: dict[int, tuple[int, ...]] = {}
        for i, (g, x) in enumerate(nodes):
            word = (g,) + words[x]
            root = find(i)
            best = least.get(root)
            if best is None or (len(word), word) < (len(best), best):
                least[root] = word
        order = sorted(least, key=lambda r: (len(least[r]), least[r]))
        eid_of = {root: len(degrees) + rank for rank, root in enumerate(order)}
        for root in order:
            degrees.append(degree)
            words.append(least[root])
        by_degree[degree] = tuple(eid_of[root] for root in order)
        for i, (g, _) in enumerate(nodes):
            lmul[g].append(eid_of[find(i)])

    def _fold(self, word: Sequence[int], x: int) -> int | None:
        """Id of word*x, multiplying in the letters of word right to left,
        or None past the cutoff.  Ids are ordered by degree, so _lmul[g]
        covers exactly the ids below its length."""
        lmul = self._lmul
        for g in reversed(word):
            row = lmul[g]
            if x >= len(row):
                return None
            x = row[x]
        return x

    # -- queries ---------------------------------------------------------------

    def word(self, eid: int) -> tuple[int, ...]:
        return self._words[eid]

    def class_of_word(self, word: Sequence[int]) -> int | None:
        """Element id of an arbitrary word, or None past the cutoff."""
        return self._fold(word, self.unit)

    def parse_label(self, text: str) -> int | None:
        """A whole generator name, names separated by spaces, or
        one-character names run together.  A generator heavier than the
        cutoff and spelled like a run of lighter names yields to the run
        when labels run names together, as label prints it."""
        letters = self._letters
        run = not self._joiner and set(text) <= letters.keys()
        if " " in text:
            parts = text.split()
        elif text in self.presentation.names and not run:
            parts = [text]
        else:
            parts = list(text)
        for part in parts:
            if part not in self.presentation.names:
                raise UnknownSymbolError(f"unknown generator {part!r} in ground "
                                         f"token {text!r}")
        if not all(part in letters for part in parts):
            return None  # a generator heavier than the cutoff
        return self.class_of_word([letters[part] for part in parts])

    def product(self, u: int, v: int) -> int | None:
        return self._fold(self._words[u], v)

    def generators(self) -> tuple[int, ...]:
        return tuple(sorted({row[0] for row in self._lmul}))

    def left_maps(self) -> list[list[int]]:
        # the class graph already stores g*x for every letter g; letters
        # naming the same element have the same map
        rows = {row[0]: row for row in self._lmul}
        return [rows[g] for g in self.generators()]

    def label(self, eid: int) -> str:
        word = self._words[eid]
        if not word:
            return "1"
        return self._joiner.join(self._gen_names[i] for i in word)


def _degree_closure(gen_degrees: Iterable[Fraction], cutoff: Fraction) -> list[Fraction]:
    """All degrees <= cutoff realizable as sums of generator degrees."""
    base = sorted(set(gen_degrees))
    seen = {Fraction(0)}
    frontier = [Fraction(0)]
    while frontier:
        current = frontier.pop()
        for d in base:
            nxt = current + d
            if nxt <= cutoff and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


# ---------------------------------------------------------------------------
# positive integers under multiplication
# ---------------------------------------------------------------------------

class MultIntegerModel:
    """The positive integers under multiplication, degree key = the integer
    itself (standing for log n).  ``nmax`` is the default enumeration bound."""

    def __init__(self, nmax: int):
        nmax = _integer("nmax", nmax)
        if nmax < 1:
            raise InvalidParamsError(f"nmax must be >= 1, got {nmax}")
        self.nmax = nmax
        self.default_cutoff = nmax
        self.name = f"zpos:{nmax}"
        self.key_kind = KeyKind.MULTINT

    def enumerate_up_to(self, cutoff=None) -> "MultIntTable":
        cutoff = self.nmax if cutoff is None else cutoff
        return MultIntTable(_validate_cutoff(KeyKind.MULTINT, cutoff))


class MultIntTable(ElementTable):
    def __init__(self, cutoff: int):
        degrees = list(range(1, cutoff + 1))
        by_degree = {n: (n - 1,) for n in degrees}
        super().__init__(KeyKind.MULTINT, cutoff, degrees, by_degree)

    def element_id(self, n: int) -> int | None:
        return n - 1 if 1 <= n <= self.cutoff else None

    def product(self, u: int, v: int) -> int | None:
        n = (u + 1) * (v + 1)
        return n - 1 if n <= self.cutoff else None

    def generators(self) -> tuple[int, ...]:
        """The primes up to the cutoff, from a sieve of Eratosthenes."""
        is_prime = bytearray([1]) * (self.cutoff + 1)
        for n in range(2, math.isqrt(self.cutoff) + 1):
            if is_prime[n]:
                is_prime[n * n::n] = bytes(len(is_prime[n * n::n]))
        return tuple(n - 1 for n in range(2, self.cutoff + 1) if is_prime[n])

    def label(self, eid: int) -> str:
        return str(eid + 1)

    def parse_label(self, text: str) -> int | None:
        return self.element_id(_natural(text, text))
