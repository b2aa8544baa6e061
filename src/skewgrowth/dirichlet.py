"""Exact truncated formal Dirichlet series over pluggable degree keys.

A series is a finitely supported integer combination ``sum_d c_d * t^d`` whose
exponents ("degree keys") come in one of two exact kinds:

* ``KeyKind.RATIONAL``: nonnegative ``Fraction`` exponents, combined by
  addition.  Floats never enter a key.
* ``KeyKind.MULTINT``: integers ``n >= 1`` standing for the exponent
  ``log n``, combined by integer multiplication.  With ``t = exp(-s)`` the
  monomial ``t^(log n)`` reads ``n^(-s)``, so series of this kind are
  classical Dirichlet series truncated at a largest index.

Every series carries its truncation cutoff as part of the value: two series
are equal only if kinds, cutoffs and term maps all agree, and arithmetic
refuses to mix kinds or cutoffs.  Coefficients are arbitrary-precision
integers throughout; zero coefficients are never stored.

A :class:`Grid` puts the keys of one kind up to a cutoff on ints: a rational
key k sits at k*D for a common denominator D, a multiplicative key is its own
int.  Sums (products) and order carry over, so the element tables, the tower
walk, the checks and the kernels all compute on these ints, and keys become
``Fraction``s only where a public :class:`Series`, a report or a rendering
is made.  :func:`convolve` and :func:`series_invert` take ``Series`` and put
their keys on the coarsest grid that holds them; the product itself,
:func:`convolve_on_grid`, is what the checks call on a table's grid.  On a
rational grid it is one big-int product of the two factors packed a slot
per grid int (Kronecker substitution); on multiplicative keys, and on a
rational grid too sparse to pay for its slots, it is a loop over the
pairs of terms.

Series values are immutable once built and safe to share between threads.
"""
from __future__ import annotations

import enum
import heapq
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import (
    CutoffMismatchError,
    KeyKindMismatchError,
    MalformedKeyError,
    NonUnitConstantTermError,
)


class KeyKind(enum.Enum):
    RATIONAL = "rational"
    MULTINT = "multint"


# ---------------------------------------------------------------- key arithmetic

def key_zero(kind: KeyKind):
    """The degree of the unit element: 0 for rational keys, 1 for
    multiplicative-integer keys."""
    return Fraction(0) if kind is KeyKind.RATIONAL else 1


def coerce_key(kind: KeyKind, value):
    """Validate *value* as a key of *kind* and return it in canonical form.
    Text is refused: :func:`parse_key` reads it."""
    if kind is KeyKind.RATIONAL:
        if isinstance(value, (bool, float, str)):
            raise MalformedKeyError(f"rational keys must be int or Fraction, got {value!r}")
        try:
            key = Fraction(value)
        except (TypeError, ValueError) as exc:
            raise MalformedKeyError(f"not a rational key: {value!r}") from exc
        if key < 0:
            raise MalformedKeyError(f"rational keys must be >= 0, got {key}")
        return key
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedKeyError(f"multiplicative keys must be int, got {value!r}")
    if value < 1:
        raise MalformedKeyError(f"multiplicative keys must be >= 1, got {value}")
    return value


def render_key(kind: KeyKind, key) -> str:
    if kind is KeyKind.MULTINT:
        return str(key)
    if key.denominator == 1:
        return str(key.numerator)
    return f"{key.numerator}/{key.denominator}"


def key_to_json(kind: KeyKind, key):
    """The JSON form of a key: rational keys as "p/q" strings,
    multiplicative keys as the integers themselves."""
    return render_key(kind, key) if kind is KeyKind.RATIONAL else key


# the most characters of a refused text that its error echoes
ECHO_CHARS = 40


def read_digits(text: str, what: str, error=MalformedKeyError) -> int | None:
    """The int *text* writes if it is a non-empty run of ASCII digits, the
    digits of every number read as text, else None.  A run past the
    interpreter's limit on digits read raises *error*, naming *what*."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        raise error(f"a {what} of more than {sys.get_int_max_str_digits()} digits") from None


def parse_key(kind: KeyKind, text: str):
    """Read a key written as :func:`render_key` writes it: a run of ASCII
    digits, for a rational key optionally followed by '/' and a non-zero
    run of ASCII digits.  Any other text, '2.5', '+3', '1e1', '1_0' or
    digits outside ASCII, is a MalformedKeyError that names it."""
    num, slash, den = text.strip().partition("/")
    if (value := read_digits(num, "key")) is not None:
        if not slash:
            return coerce_key(kind, value)
        if kind is KeyKind.RATIONAL and (den := read_digits(den, "key")):
            return coerce_key(kind, Fraction(value, den))
    echo = text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "..."
    if kind is KeyKind.MULTINT:
        raise MalformedKeyError(f"bad multiplicative key {echo!r}: write a run of ASCII digits")
    hint = ""
    decimal = text.strip()
    whole, _, tenths = decimal.partition(".")
    ones, tens = read_digits(whole, "key"), read_digits(tenths, "key")
    # a decimal, the likeliest slip, named unless its rewrite would be clipped
    if ones is not None and tens is not None and len(decimal) <= ECHO_CHARS:
        hint = f"; for {decimal} write {render_key(kind, ones + Fraction(tens, 10 ** len(tenths)))}"
    raise MalformedKeyError(f"bad rational key {echo!r}: write a run of ASCII digits, or two "
                            f"around '/' with a non-zero denominator{hint}")


# ---------------------------------------------------------------- series values

@dataclass(frozen=True)
class Series:
    """A truncated series: kind, cutoff, and a map key -> nonzero int.

    Build values with :meth:`Series.build`; the raw constructor trusts its
    arguments.  ``terms`` is owned by the instance and must not be mutated.
    """

    kind: KeyKind
    cutoff: object
    terms: dict = field(default_factory=dict)

    @classmethod
    def build(cls, kind: KeyKind, cutoff, terms: Mapping | Iterable = ()) -> "Series":
        cutoff = coerce_key(kind, cutoff)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict = {}
        for raw_key, coeff in items:
            key = coerce_key(kind, raw_key)
            if isinstance(coeff, bool) or not isinstance(coeff, int):
                raise MalformedKeyError(f"coefficients must be int, got {coeff!r}")
            if key > cutoff:
                raise MalformedKeyError(
                    f"term key {render_key(kind, key)} exceeds cutoff {render_key(kind, cutoff)}"
                )
            if coeff:
                clean[key] = clean.get(key, 0) + coeff
                if not clean[key]:
                    del clean[key]
        return cls(kind, cutoff, dict(sorted(clean.items())))

    def coefficient(self, key) -> int:
        return self.terms.get(coerce_key(self.kind, key), 0)

    def items(self) -> Iterator:
        """Terms in increasing key order."""
        return iter(sorted(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key, coeff in self.items():
            bits.append(f"{'+' if coeff >= 0 else '-'} {abs(coeff)}*t^{render_key(self.kind, key)}")
        out = " ".join(bits)
        return out[2:] if out.startswith("+ ") else out


def series_one(kind: KeyKind, cutoff) -> Series:
    return Series.build(kind, cutoff, {key_zero(kind): 1})


def _check_compatible(f: Series, g: Series) -> None:
    if f.kind is not g.kind:
        raise KeyKindMismatchError(f"cannot combine {f.kind.value} with {g.kind.value} keys")
    if f.cutoff != g.cutoff:
        raise CutoffMismatchError(
            f"cutoffs differ: {render_key(f.kind, f.cutoff)} vs {render_key(g.kind, g.cutoff)}"
        )


# ---------------------------------------------------------------- int grid

class Grid:
    """The keys of one kind up to a cutoff, as ints.

    A rational key k sits at the int k*scale, scale a common denominator of
    every key in play; a multiplicative key is its own int (scale 1).  The
    map keeps order and turns key addition into ``combine`` on ints (+ for
    rational keys, * for multiplicative ones), so ``key <= cutoff`` reads
    ``int <= top``, with ``top`` the greatest int at or below the cutoff:
    a cutoff off the grid is rounded down.  ``zero`` is the unit's int.
    """

    __slots__ = ("kind", "cutoff", "scale", "top", "zero", "combine")

    def __init__(self, kind: KeyKind, cutoff, scale: int = 1):
        self.kind, self.cutoff, self.scale = kind, cutoff, scale
        if kind is KeyKind.RATIONAL:
            self.top = cutoff.numerator * scale // cutoff.denominator
            self.zero, self.combine = 0, operator.add
        else:
            self.top, self.zero, self.combine = cutoff, 1, operator.mul

    @classmethod
    def covering(cls, kind: KeyKind, cutoff, keys: Iterable) -> "Grid":
        """The coarsest grid that holds every key in *keys* (an int's
        denominator is 1)."""
        return cls(kind, cutoff, math.lcm(1, *(k.denominator for k in keys)))

    def key(self, n: int):
        """The key at int *n*: a ``Fraction`` for rational keys."""
        return Fraction(n, self.scale) if self.kind is KeyKind.RATIONAL else n

    def point(self, key) -> int | None:
        """The int of *key*, or None for a rational key off the grid."""
        if self.kind is KeyKind.MULTINT:
            return key
        n, rest = divmod(key.numerator * self.scale, key.denominator)
        return None if rest else n

    def points(self, terms: Mapping) -> list[tuple[int, int]]:
        """The (int, coefficient) pairs of a key-indexed map on the grid."""
        return [(self.point(k), c) for k, c in terms.items()]

    def series(self, terms: Mapping) -> Series:
        """The public series of int-keyed *terms*, whose coefficients are
        nonzero and whose ints are at most ``top``."""
        return Series(self.kind, self.cutoff, {self.key(n): c for n, c in sorted(terms.items())})


def convolve_on_grid(grid: Grid, left: Iterable, right: Iterable) -> dict:
    """The truncated product of two int-keyed term lists on *grid*, each
    with distinct ints: every reachable int ``a (+) b <= top`` mapped to its
    summed coefficient, zeros kept.

    On a rational grid this is one packed big-int product (Kronecker
    substitution): each factor becomes one int with a fixed-width slot per
    grid int, and a second product of the 0/1 support indicators marks the
    reachable ints.  A sparse grid, whose slots cost more than the term
    pairs a loop would visit, a grid so small that the packing's fixed cost
    outweighs the pairs, coefficients too wide for a memoryview slot, and
    every multiplicative grid (a Dirichlet convolution does not pack) take
    the loop of :func:`_convolve_by_loop`.
    """
    top = grid.top
    left = [(n, c) for n, c in left if n <= top]
    right = [(n, c) for n, c in right if n <= top]
    size, pairs = top + 1, len(left) * len(right)
    # measured from 10 to 20,000 slots: one slot bit of the two big-int
    # products costs about what one pair of the loop does, and a slot has
    # at least 8 bits; packing also has a fixed cost
    if grid.kind is KeyKind.RATIONAL and 8 * size + _PACKING_PAIRS <= pairs:
        bound = min(sum(abs(c) for _, c in left) * max(abs(c) for _, c in right),
                    sum(abs(c) for _, c in right) * max(abs(c) for _, c in left))
        width = _slot_bytes(bound)
        if width and 8 * size * width + _PACKING_PAIRS <= pairs:
            values = _packed_product(left, right, size, width)
            reach = _packed_product([(n, 1) for n, _ in left], [(n, 1) for n, _ in right],
                                    size, _slot_bytes(min(len(left), len(right))))
            return dict(zip(itertools.compress(range(size), reach),
                            itertools.compress(values, reach)))
    return _convolve_by_loop(grid, left, right)


# the packed product's fixed cost in pairs of the loop: about 24 us however
# few the slots, against 60 ns a pair (dense grids of 8 to 100 slots on a
# 2-core x86-64 VM; the two break even near 21 to 26 slots)
_PACKING_PAIRS = 400

# memoryview formats of signed slots, by item size.  Their buffers are read
# as little-endian bytes, so a big-endian machine takes the loop.
_SIGNED_SLOTS = ({memoryview(bytes(8)).cast(code).itemsize: code for code in "bhiq"}
                 if sys.byteorder == "little" else {})


def _slot_bytes(bound: int) -> int | None:
    """Bytes per slot for signed values of magnitude at most *bound*: the
    least memoryview item size that holds them, or None if none does."""
    size = (bound.bit_length() + 8) // 8  # one bit more, for the sign
    return min((n for n in _SIGNED_SLOTS if n >= size), default=None)


def _packed_product(left: list, right: list, size: int, width: int):
    """Slots 0..size-1 of the product of two term lists with ints below
    *size*, packed one int per factor at *width* bytes a slot.  Every
    product coefficient needs at most 8*width - 1 bits and a sign.  Adding
    half a slot to each slot makes them all nonnegative, so the slots
    separate without borrows, and flipping each slot's top bit takes the
    half back off in two's complement, which the slots are read in."""
    code = _SIGNED_SLOTS[width]

    def pack(terms):  # the positive and the negative magnitudes apart
        parts = [bytearray(size * width), bytearray(size * width)]
        slots = [memoryview(part).cast(code) for part in parts]
        for n, c in terms:
            slots[c < 0][n] = abs(c)
        return int.from_bytes(parts[0], "little") - int.from_bytes(parts[1], "little")

    half = int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * size, "little")
    slots = ((pack(left) * pack(right) + half) & ((1 << (8 * width * size)) - 1)) ^ half
    return memoryview(slots.to_bytes(size * width, "little")).cast(code)


def _convolve_by_loop(grid: Grid, left: list, right: list) -> dict:
    """:func:`convolve_on_grid` pair by pair.  Combining is monotone, so
    each pass over the sorted inner terms stops at the first int past the
    top.  Combining and the coefficient product commute, so the outer loop
    runs over the factor with fewer terms, which visits the same pairs with
    fewer starts and breaks of the inner one: 915 rather than 1,500 for
    P*N at zpos:1500.  The result's dict order follows the shorter factor;
    its readers take ``min``, ``len`` or ``sorted`` of it."""
    combine, top = grid.combine, grid.top
    if len(left) > len(right):
        left, right = right, left
    right = sorted(right)
    acc: dict = {}
    for ka, ca in left:
        for kb, cb in right:
            key = combine(ka, kb)
            if key > top:
                break
            acc[key] = acc.get(key, 0) + ca * cb
    return acc


def convolve(f: Series, g: Series) -> dict:
    """Truncated convolution as a map from every reachable key
    ``ka (+) kb <= cutoff`` to its summed coefficient, zeros kept:
    :func:`convolve_on_grid` on the coarsest grid holding both series'
    keys, which come back as ``Fraction``s for rational series."""
    _check_compatible(f, g)
    grid = Grid.covering(f.kind, f.cutoff, [*f.terms, *g.terms])
    acc = convolve_on_grid(grid, grid.points(f.terms), grid.points(g.terms))
    return {grid.key(n): c for n, c in acc.items()}


def series_mul(f: Series, g: Series) -> Series:
    """Truncated convolution; terms past the shared cutoff are dropped."""
    terms = sorted((key, coeff) for key, coeff in convolve(f, g).items() if coeff)
    return Series(f.kind, f.cutoff, dict(terms))


def series_invert(f: Series) -> Series:
    """The truncated multiplicative inverse of *f*.

    Requires the constant term (at the zero key) to be 1 or -1; the solve is
    triangular in increasing key order and exact over the integers.  Each
    solved coefficient is pushed forward over f's sorted terms with the
    cutoff break of :func:`convolve`, on the coarsest grid holding f's keys;
    since ``k (+) kb > k`` for every non-zero key kb, a key has all its
    contributions when it is popped.
    """
    unit = f.terms.get(key_zero(f.kind), 0)
    if unit not in (1, -1):
        raise NonUnitConstantTermError(
            f"cannot invert: constant term is {unit}, need 1 or -1"
        )
    grid = Grid.covering(f.kind, f.cutoff, f.terms)
    combine, cutoff, zero = grid.combine, grid.top, grid.zero
    right = sorted(grid.points(f.terms))[1:]  # the zero key is the least key
    acc = {zero: 1}  # key -> 1 minus what the solved terms put there
    pending = [zero]
    inv: dict = {}
    while pending:
        key = heapq.heappop(pending)
        coeff = unit * acc.pop(key)  # 1/unit == unit for unit in {1,-1}
        if not coeff:
            continue
        inv[key] = coeff
        for kb, cb in right:
            nxt = combine(key, kb)
            if nxt > cutoff:
                break
            if nxt not in acc:
                acc[nxt] = 0
                heapq.heappush(pending, nxt)
            acc[nxt] -= coeff * cb
    return grid.series(inv)


def growth_series(table) -> Series:
    """Element counts of an enumerated table, as a series over its key kind."""
    return table.grid.series(table.grid_counts())


# ---------------------------------------------------------------- JSON form

def series_to_json(f: Series) -> dict:
    """Schema: key_kind, cutoff, and [key, coefficient] pairs in key order.
    Rational keys render as "p/q" strings; coefficients are decimal strings
    so arbitrary precision survives any JSON reader."""
    return {
        "key_kind": f.kind.value,
        "cutoff": key_to_json(f.kind, f.cutoff),
        "terms": [[key_to_json(f.kind, key), str(coeff)] for key, coeff in f.items()],
    }


def series_from_json(obj: Mapping) -> Series:
    """Inverse of :func:`series_to_json`.  The JSON comes from outside the
    program, so every malformed shape raises MalformedKeyError."""
    try:
        kind = KeyKind(obj["key_kind"])
        cutoff = obj["cutoff"]
        terms = [(key, coeff) for key, coeff in obj["terms"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedKeyError(f"malformed series JSON: {type(exc).__name__}: {exc}") from exc

    def read(key):
        return parse_key(kind, key) if isinstance(key, str) else coerce_key(kind, key)

    def read_coeff(coeff):  # Series.build rejects any non-int left over
        if not isinstance(coeff, str):
            return coeff
        text = coeff.strip()  # parse_key's grammar, after an optional '-'
        value = read_digits(text.removeprefix("-"), "coefficient")
        if value is None:
            raise MalformedKeyError(f"bad coefficient {coeff!r}: write a run of ASCII digits, "
                                    f"optionally after '-'")
        return -value if text.startswith("-") else value

    return Series.build(kind, read(cutoff), [(read(key), read_coeff(coeff)) for key, coeff in terms])
