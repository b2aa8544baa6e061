"""Monoid models and exact element enumeration up to a degree cutoff.

The central object is the :class:`ElementTable`: a frozen enumeration of all
elements of degree <= cutoff, with degree and product queries.  Its
algebraic core is one row of ids g*x per letter g and a split of each
element as a letter times a tail; products, the generator maps on both
sides and the atoms derive from them in the base class, and the
divisibility poset and the cancellativity probe read the maps.  Tables are
immutable after construction and safe to share across threads.

Degrees are stored on the table's :class:`~skewgrowth.dirichlet.Grid`: as
ints n meaning n/D for rational keys, D the lcm of the generators'
denominators, and as the integers themselves for multiplicative keys.
Enumeration, products and every consumer downstream (towers, checks) work on
those ints; ``cutoff``, ``degree``, ``realized_degrees`` and
``elements_of_degree`` give and take the public keys.

Two model families live here:

* :class:`RewriteModel` wraps a positive homogeneous presentation.  Its
  classes are built degree by degree: every word of degree d is a generator
  g followed by a word of some class x of degree d - deg(g), so the pairs
  (g, x) are the nodes of a graph, relations applied at the front of a word
  are its edges, and the classes of degree d are its connected components.
  Classes are ordered by their shortlex-least words (length, then
  declaration order).  No word is stored: a class splits as its least
  word's first letter and its tail, the class of the rest of that word.

* :class:`MultIntegerModel` is the positive integers under multiplication
  with multiplicative-integer degree keys: 1..cutoff, one letter per prime,
  and n split as its least prime factor times the rest.

The normal-form family model is in :mod:`skewgrowth.mp_family`.
"""
from __future__ import annotations

import abc
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Sequence

from .dirichlet import Grid, KeyKind, coerce_key, key_zero
from .divisibility import DivPoset
from .errors import (CutoffTooLargeError, EmptyAlphabetError, InvalidGroundError,
                     InvalidParamsError, MalformedKeyError, UnknownSymbolError)
from .presentation import Presentation

# the most elements a table, or (generator, class) pairs a degree, may hold
WORD_CAP = 10_000_000


class ElementTable(abc.ABC):
    """Enumerated elements of a monoid up to a degree cutoff.

    Element ids are dense integers ordered by (degree, canonical form);
    id 0 is always the unit.  The table is complete and duplicate-free for
    every degree <= cutoff.  ``grid_degrees[e]`` is the degree of e as an
    int on ``grid``.  A table supplies its multiplication and nothing
    else: ``lmul[g][x]``, the id of g*x for letter g over the id prefix x
    with deg(x) + deg(g) <= cutoff, and any split of each non-unit x as the
    letter ``firsts[x]`` times ``tails[x]`` (the unit's entries are unread).
    """

    def __init__(self, grid: Grid, degrees: list[int], by_degree: dict[int, tuple[int, ...]],
                 lmul: list[list[int]], firsts: list[int], tails: list[int]):
        self.grid = grid
        self.key_kind = grid.kind
        self.cutoff = grid.cutoff
        self.grid_degrees = degrees
        self._by_degree = by_degree
        self._lmul, self._firsts, self._tails = lmul, firsts, tails
        self._atoms: tuple[int, ...] | None = None
        self._left_maps: list[list[int]] | None = None
        self._right_maps: list[list[int]] | None = None
        self._poset = None

    # -- basic queries ------------------------------------------------------

    @property
    def n_elements(self) -> int:
        return len(self.grid_degrees)

    @property
    def unit(self) -> int:
        return 0

    def degree(self, eid: int):
        return self.grid.key(self.grid_degrees[eid])

    def realized_degrees(self) -> tuple:
        return tuple(map(self.grid.key, sorted(self._by_degree)))

    def elements_of_degree(self, degree) -> tuple[int, ...]:
        return self._by_degree.get(self.grid.point(degree), ())

    def grid_counts(self) -> dict[int, int]:
        """The element count at each realized degree, keyed by grid int,
        ascending."""
        return {n: len(ids) for n, ids in sorted(self._by_degree.items())}

    def all_elements(self) -> range:
        return range(len(self.grid_degrees))

    @abc.abstractmethod
    def label(self, eid: int) -> str:
        """Canonical human-readable form; stable across runs and cutoffs."""

    @abc.abstractmethod
    def parse_label(self, text: str) -> int | None:
        """Inverse of label: the id of the element *text* names, or None
        past the cutoff.  Text that names no element raises."""

    def word(self, eid: int) -> tuple[int, ...]:
        """The letters of eid, read down its chain of tails."""
        firsts, tails = self._firsts, self._tails
        word = []
        while eid:
            word.append(firsts[eid])
            eid = tails[eid]
        return tuple(word)

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

    def product(self, u: int, v: int) -> int | None:
        """Element id of u*v, or None when the degree exceeds the cutoff.
        Out-of-range is an expected value, not a failure."""
        return self._fold(self.word(u), v)

    def generators(self) -> tuple[int, ...]:
        """Ids of the letters within the cutoff, ascending.  Every atom is
        among them."""
        return tuple(sorted({row[0] for row in self._lmul if row}))

    # -- generator maps --------------------------------------------------------

    def _generator_maps(self, left: bool) -> list[list[int]]:
        """One map per generator g, x -> g*x (left) or x -> x*g, over the
        ids x with deg(x) + deg(g) <= cutoff.  The left map is g's row, and
        letters naming the same element have the same row.  On the right,
        x*g is f*(t*g) for x split as f*t: f's row at the entry for t, which
        has the smaller id, so the map holds it by then.  The first entry
        past the cutoff ends the map."""
        if left:
            rows = {row[0]: row for row in self._lmul if row}
            return [rows[g] for g in self.generators()]
        firsts, tails, lmul = self._firsts, self._tails, self._lmul
        maps = []
        for g in self.generators():
            row = [g]
            for x in range(1, self.n_elements):
                first, y = lmul[firsts[x]], row[tails[x]]
                if y >= len(first):
                    break
                row.append(first[y])
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
        """Elements u != 1 with no proper divisor besides the unit.  Every
        atom is a generator, and a generator g is not one exactly when it
        is h*y for a generator h and a non-unit y, whose id is then below
        g's.  Exact at every degree <= cutoff."""
        if self._atoms is None:
            gens = self.generators()
            top = max(gens, default=0)
            non_atoms = {y for row in self.left_maps() for y in row[1:top]}
            self._atoms = tuple(g for g in gens if g not in non_atoms)
        return self._atoms

    def poset(self):
        """Memoized left-divisibility poset for this table."""
        if self._poset is None:
            self._poset = DivPoset(self)
        return self._poset


# ---------------------------------------------------------------------------
# presentation-backed model
# ---------------------------------------------------------------------------

def _validate_cutoff(key_kind: KeyKind, cutoff):
    cutoff = coerce_key(key_kind, cutoff)
    if cutoff <= key_zero(key_kind):
        raise MalformedKeyError(f"cutoff must exceed the zero degree, got {cutoff}")
    return cutoff


def _check_size(count: int, what: str):
    """Refuse *count* of *what* past the word cap, before they are built."""
    if count > WORD_CAP:
        raise CutoffTooLargeError(f"{count} {what} exceed the word cap {WORD_CAP}")


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

    def __init__(self, presentation: Presentation, name: str | None = None):
        self.presentation = presentation
        self.default_cutoff = Fraction(8)
        self.name = name or "presented"
        self.key_kind = KeyKind.RATIONAL

    def enumerate_up_to(self, cutoff) -> "RewriteTable":
        cutoff = _validate_cutoff(KeyKind.RATIONAL, cutoff)
        return RewriteTable(self.presentation, cutoff)


class RewriteTable(ElementTable):
    def __init__(self, presentation: Presentation, cutoff: Fraction):
        if not presentation.generators:
            raise EmptyAlphabetError("presentation declares no generators")
        self.presentation = presentation
        # generators of degree > cutoff cannot occur in any enumerated word
        kept = [g for g in presentation.generators if g.degree <= cutoff]
        grid = Grid(KeyKind.RATIONAL, cutoff, math.lcm(1, *(g.degree.denominator for g in kept)))
        self._gen_names = [g.name for g in kept]
        self._gen_degrees = [grid.point(g.degree) for g in kept]
        self._joiner = "" if all(len(n) == 1 for n in self._gen_names) else " "
        self._letters = {n: i for i, n in enumerate(self._gen_names)}

        # relations whose sides fit under the cutoff, as index tuples with
        # both orientations collapsed to one unordered pair, and their degree
        rules: set[tuple[tuple[int, ...], tuple[int, ...], int]] = set()
        for rel in presentation.relations:
            if any(n not in self._letters for n in rel.lhs + rel.rhs):
                continue  # mentions a generator too heavy for this cutoff
            lhs = tuple(self._letters[n] for n in rel.lhs)
            rhs = tuple(self._letters[n] for n in rel.rhs)
            if lhs == rhs:
                continue
            degree = sum(self._gen_degrees[i] for i in lhs)
            rules.add((min(lhs, rhs), max(lhs, rhs), degree))

        # the levels are added in place; the least word of class x has
        # _lengths[x] letters
        super().__init__(grid, [0], {0: (0,)}, [[] for _ in kept], [0], [0])
        self._lengths = [0]
        # each side is kept as its first letter and the letter rows of the
        # rest, in the order a fold applies them; the rows grow in place
        lmul = self._lmul
        self._rules = [(degree, lhs[0], tuple(lmul[i] for i in reversed(lhs[1:])),
                        rhs[0], tuple(lmul[i] for i in reversed(rhs[1:])))
                       for lhs, rhs, degree in sorted(rules)]
        if kept:  # the powers of the lightest letter alone are this many elements
            _check_size(grid.top // min(self._gen_degrees) + 1, f"elements up to cutoff {cutoff}")
        for degree in _degree_closure(self._gen_degrees, grid.top)[1:]:
            self._close_level(degree)
        _check_size(self.n_elements, f"elements up to cutoff {cutoff}")

    def _close_level(self, degree: int):
        """Enumerate the classes of one degree from the lower ones.

        Every word of this degree is g*w with w of class x at degree
        deg - deg(g), and all those words are equal in the monoid, so the
        pair (g, x) is a node.  A substitution strictly inside w stays within
        its node; one at the front uses a relation g*u = h*u' and joins
        (g, [u*y]) with (h, [u'*y]) for a class y of degree deg - deg(g*u).
        The classes are the connected components.

        The least word of node (g, x) is g + word(x).  The classes of one
        degree have ascending ids in shortlex order, so those words are in
        shortlex order exactly when the int triples (len(x), g, x) are.  The
        nodes are laid out in that order, in runs of one g and one len(x).
        A level where no relation's y exists has no edge, so each node is a
        class, numbered in node order run by run.  Otherwise union-find
        joins the nodes; every union keeps the smaller position as root, so
        each root is its component's least node: one pass in node order
        numbers the roots, and a root's g and x are its class's first letter
        and tail.  u*y has a degree below this one, so folding a rule side
        through the letter rows never passes the cutoff and needs no test.
        """
        lengths, lmul = self._lengths, self._lmul
        degrees, by_degree = self.grid_degrees, self._by_degree
        first = len(degrees)
        # runs (len(x), g, x, stop): a lower level's ids are contiguous and
        # its lengths ascend with them.  The pairs are counted before any
        # node is built.
        runs = []
        size = 0
        for g, gen_degree in enumerate(self._gen_degrees):
            lower = by_degree.get(degree - gen_degree)
            if lower:
                x, end = lower[0], lower[-1] + 1
                size += end - x
                if lengths[x] == lengths[end - 1]:
                    runs.append((lengths[x], g, x, end))
                    continue
                while x < end:
                    stop = bisect_right(lengths, lengths[x], x, end)
                    runs.append((lengths[x], g, x, stop))
                    x = stop
        if size > WORD_CAP or first > WORD_CAP:
            at = f"degree {self.grid.key(degree)}"
            _check_size(size, f"(generator, class) pairs at {at}")
            # the lower levels, so a level that passes the cap is refused at
            # the next one, or after the last
            _check_size(first, f"elements below {at}")
        if len(runs) > 1:
            runs.sort()
        edges = [(rule, ys) for rule in self._rules if (ys := by_degree.get(degree - rule[0]))]
        firsts, tails = self._firsts, self._tails
        eid = first
        if not edges:
            for length, g, x, stop in runs:
                count = stop - x
                lmul[g] += range(eid, eid + count)
                firsts += repeat(g, count)
                tails += range(x, stop)
                lengths += repeat(length + 1, count)
                eid += count
        else:
            # node (g, x) sits at position shift[g, len(x)] + x
            shift = {}
            position = 0
            for length, g, x, stop in runs:
                shift[g, length] = position - x
                position += stop - x
            parent = list(range(size))
            for (_, g, u, h, v), ys in edges:
                for y in ys:
                    x = z = y
                    for row in u:
                        x = row[x]
                    for row in v:
                        z = row[z]
                    a = shift[g, lengths[x]] + x
                    while (up := parent[a]) != a:  # path halving
                        parent[a] = a = parent[up]
                    b = shift[h, lengths[z]] + z
                    while (up := parent[b]) != b:
                        parent[b] = b = parent[up]
                    if a != b:
                        parent[max(a, b)] = min(a, b)
            # one pass in node order; parent[p] < p for every non-root p, so
            # its id is known by then
            ids: list[int] = []
            p = 0
            for length, g, x, stop in runs:
                start = p
                for tail in range(x, stop):
                    q = parent[p]
                    if p == q:
                        ids.append(eid)
                        eid += 1
                        firsts.append(g)
                        tails.append(tail)
                        lengths.append(length + 1)
                    else:
                        ids.append(ids[q])
                    p += 1
                lmul[g] += ids[start:p]
        degrees += repeat(degree, eid - first)
        by_degree[degree] = tuple(range(first, eid))

    # -- queries ---------------------------------------------------------------

    def class_of_word(self, word: Sequence[int]) -> int | None:
        """Element id of an arbitrary word, or None past the cutoff."""
        return self._fold(word, self.unit)

    def parse_label(self, text: str) -> int | None:
        """"1" for the unit, a whole generator name, names separated by
        spaces, or one-character names run together.  A generator heavier
        than the cutoff and spelled like a run of lighter names yields to
        the run when labels run names together, as label prints it."""
        if text == "1":
            return self.unit
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

    def label(self, eid: int) -> str:
        if eid == self.unit:
            return "1"
        return self._joiner.join(self._gen_names[i] for i in self.word(eid))


def _degree_closure(gen_degrees: Iterable[int], top: int) -> list[int]:
    """All grid degrees <= top realizable as sums of generator degrees."""
    base = sorted(set(gen_degrees))
    seen = {0}
    frontier = [0]
    while frontier:
        current = frontier.pop()
        for d in base:
            nxt = current + d
            if nxt <= top and nxt not in seen:
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
        _check_size(cutoff, f"elements up to cutoff {cutoff}")
        # lpf[n] is the least prime factor of n: each p writes its multiples
        # from p*p on, the larger first, so the least prime writes last
        lpf = list(range(cutoff + 1))
        for p in range(math.isqrt(cutoff), 1, -1):
            lpf[p * p::p] = [p] * ((cutoff - p * p) // p + 1)
        primes = [p for p in range(2, cutoff + 1) if lpf[p] == p]
        letter = {p: i for i, p in enumerate(primes)}
        degrees = list(range(1, cutoff + 1))
        super().__init__(Grid(KeyKind.MULTINT, cutoff), degrees,
                         {n: (n - 1,) for n in degrees},
                         [[(x + 1) * p - 1 for x in range(cutoff // p)] for p in primes],
                         [0] + [letter[lpf[n]] for n in degrees[1:]],
                         [0] + [n // lpf[n] - 1 for n in degrees[1:]])

    def element_id(self, n: int) -> int | None:
        return n - 1 if 1 <= n <= self.cutoff else None

    def label(self, eid: int) -> str:
        return str(eid + 1)

    def parse_label(self, text: str) -> int | None:
        return self.element_id(_natural(text, text))
