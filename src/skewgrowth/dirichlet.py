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

The kernels :func:`convolve` and :func:`series_invert` run on int keys:
rational keys are scaled to a common denominator on the way in and become
``Fraction``s again on the way out.

Series values are immutable once built and safe to share between threads.
"""
from __future__ import annotations

import enum
import heapq
import math
import operator
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
    """Validate *value* as a key of *kind* and return it in canonical form."""
    if kind is KeyKind.RATIONAL:
        if isinstance(value, float):
            raise MalformedKeyError("floating point is forbidden in degree keys")
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


def key_add(kind: KeyKind, a, b):
    return a + b if kind is KeyKind.RATIONAL else a * b


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


def parse_key(kind: KeyKind, text: str):
    text = text.strip()
    if kind is KeyKind.MULTINT:
        try:
            return coerce_key(kind, int(text))
        except ValueError as exc:
            raise MalformedKeyError(f"bad multiplicative key {text!r}") from exc
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return coerce_key(kind, Fraction(int(num), int(den)))
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedKeyError(f"bad rational key {text!r}") from exc
    try:
        return coerce_key(kind, Fraction(int(text)))
    except ValueError as exc:
        raise MalformedKeyError(f"bad rational key {text!r}") from exc


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


def _int_keys(kind: KeyKind, cutoff, *term_maps):
    """(combine, cutoff, each map's items, back) on int keys: a rational key k
    becomes k*D, D the lcm of the cutoff's and every key's denominator, which
    keeps sums and order, and ``back`` maps an int-keyed result to n/D keys."""
    if kind is KeyKind.MULTINT:
        return operator.mul, cutoff, [terms.items() for terms in term_maps], lambda terms: terms
    scale = math.lcm(cutoff.denominator, *(k.denominator for terms in term_maps for k in terms))
    items = [[(k.numerator * (scale // k.denominator), c) for k, c in terms.items()]
             for terms in term_maps]
    return (operator.add, cutoff.numerator * (scale // cutoff.denominator), items,
            lambda terms: {Fraction(n, scale): c for n, c in terms.items()})


def convolve(f: Series, g: Series) -> dict:
    """Truncated convolution as a map from every reachable key
    ``ka (+) kb <= cutoff`` to its summed coefficient, zeros kept.  Key
    addition is monotone, so each pass over g's sorted terms stops at the
    first key past the cutoff.  Rational keys go through the loop as ints on a
    common denominator and come back as ``Fraction``s."""
    _check_compatible(f, g)
    combine, cutoff, (left, right), back = _int_keys(f.kind, f.cutoff, f.terms, g.terms)
    right = sorted(right)
    acc: dict = {}
    for ka, ca in left:
        for kb, cb in right:
            key = combine(ka, kb)
            if key > cutoff:
                break
            acc[key] = acc.get(key, 0) + ca * cb
    return back(acc)


def series_mul(f: Series, g: Series) -> Series:
    """Truncated convolution; terms past the shared cutoff are dropped."""
    terms = sorted((key, coeff) for key, coeff in convolve(f, g).items() if coeff)
    return Series(f.kind, f.cutoff, dict(terms))


def series_invert(f: Series) -> Series:
    """The truncated multiplicative inverse of *f*.

    Requires the constant term (at the zero key) to be 1 or -1; the solve is
    triangular in increasing key order and exact over the integers.  Each
    solved coefficient is pushed forward over f's sorted terms with the
    cutoff break of :func:`convolve`, on the same int keys (rational keys
    scaled to a common denominator); since ``k (+) kb > k`` for every
    non-zero key kb, a key has all its contributions when it is popped.
    """
    unit = f.terms.get(key_zero(f.kind), 0)
    if unit not in (1, -1):
        raise NonUnitConstantTermError(
            f"cannot invert: constant term is {unit}, need 1 or -1"
        )
    combine, cutoff, (terms,), back = _int_keys(f.kind, f.cutoff, f.terms)
    (zero, _), *right = sorted(terms)  # the zero key is the least key
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
    return Series(f.kind, f.cutoff, back(inv))


def growth_series(table) -> Series:
    """Element counts of an enumerated table, as a series over its key kind."""
    terms = {
        degree: len(table.elements_of_degree(degree))
        for degree in table.realized_degrees()
    }
    return Series.build(table.key_kind, table.cutoff, terms)


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
        try:
            return int(coeff) if isinstance(coeff, str) else coeff
        except ValueError as exc:
            raise MalformedKeyError(f"bad coefficient {coeff!r}") from exc

    return Series.build(kind, read(cutoff), [(read(key), read_coeff(coeff)) for key, coeff in terms])
