"""A family of cancellative monoids with an intrinsic normal form.

The family is parameterized by a sequence of nonnegative integers
``p = (p_1, .., p_K)`` with ``p_1`` positive and even.  Generators are
``a_0, .., a_K``; all generators commute, and the square of each ``a_k``
for ``k >= 1`` collapses one level down:

    a_k * a_k = a_0^{p_k} * a_{k-1}

Every element therefore has a unique normal form ``a_0^n * prod a_k^{e_k}``
with ``n >= 0`` and each ``e_k`` either 0 or 1; elements are the pairs
``(n, eps)``.  Generator degrees

    d_0 = 1,   d_k = 1/2^k + sum_{i<=k} p_i / 2^(k-i+1)

make the degree map injective, which turns divisibility questions into
exact dyadic arithmetic: ``u`` divides ``v`` iff ``deg(v) - deg(u)`` is
itself the degree of an element, and that is decided by reading the dyadic
digits of the difference from the deepest bit up (`element_of_degree`).

The enumerated table (`MpTable`) is addressed by degree: a degree names
one element, so the product of two ids is the id of the summed degree, and
a label is read back as the sum of its letters' degrees.
``normal_form``, ``mp_product`` and ``mp_min_common_multiples`` are the
intrinsic reference that the tests hold the table and the generic poset
route (:mod:`skewgrowth.divisibility`) to.  The last works per dyadic
pattern: for each ``eps`` no deeper than the inputs, the least ``a_0``
power making ``(n, eps)`` a common multiple is found by a bounded scan,
and the minimal elements of that candidate set are the minimal common
multiples.

Depth truncation is transparent: quotients of depth <= K elements have
depth <= K, so the truncated family is a full submonoid and every answer
below the cutoff agrees with the untruncated family.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .dirichlet import KeyKind
from .errors import (
    EmptyIndexSetError,
    EnumerationError,
    InvalidGroundError,
    InvalidParamsError,
    MalformedDyadicError,
)
from .models import ElementTable, _integer, _natural, _validate_cutoff
from .presentation import Generator, Presentation, Relation


@dataclass(frozen=True)
class MpSpec:
    """Family parameters: the exponent sequence p, depth K = len(p)."""

    p: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(_integer("p entry", v) for v in self.p))
        if not self.p:
            raise InvalidParamsError("p must contain at least p_1")
        if any(v < 0 for v in self.p):
            raise InvalidParamsError(f"p entries must be >= 0, got {self.p}")
        if self.p[0] <= 0 or self.p[0] % 2:
            raise InvalidParamsError(f"p_1 must be positive and even, got {self.p[0]}")

    @property
    def depth(self) -> int:
        return len(self.p)

    @property
    def degrees(self) -> tuple[Fraction, ...]:
        """Degrees (d_0, .., d_K); d_k has exact denominator 2^k."""
        out = [Fraction(1)]
        for k in range(1, self.depth + 1):
            out.append(out[-1] / 2 + Fraction(self.p[k - 1], 2))
        return tuple(out)


@dataclass(frozen=True)
class MpElement:
    """Normal form (n, eps): a_0^n times the generators flagged in eps."""

    n: int
    eps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n))
        object.__setattr__(self, "eps", tuple(_integer("eps bit", b) for b in self.eps))
        if self.n < 0 or any(b not in (0, 1) for b in self.eps):
            raise InvalidParamsError(f"not a normal form: n={self.n}, eps={self.eps}")

    @property
    def element_depth(self) -> int:
        for k in range(len(self.eps), 0, -1):
            if self.eps[k - 1]:
                return k
        return 0


def generator_degree(spec: MpSpec, k: int) -> Fraction:
    """Degree of a_k; k runs 0..K."""
    if not 0 <= k <= spec.depth:
        raise IndexError(f"generator index {k} outside 0..{spec.depth}")
    return spec.degrees[k]


def element_degree(spec: MpSpec, element: MpElement) -> Fraction:
    degrees = spec.degrees
    total = Fraction(element.n)
    for k, bit in enumerate(element.eps, start=1):
        if bit:
            total += degrees[k]
    return total


def normal_form(spec: MpSpec, word: Iterable[int]) -> MpElement:
    """Normal form of a word given as generator indices (0..K).

    Commutativity reduces the word to its exponent vector; squares are then
    cleared from the deepest generator down, each clearance feeding the next
    level, until every exponent beyond a_0 is 0 or 1.
    """
    exponents = [0] * (spec.depth + 1)
    for letter in word:
        if not 0 <= letter <= spec.depth:
            raise IndexError(f"generator index {letter} outside 0..{spec.depth}")
        exponents[letter] += 1
    return _reduce(spec, exponents)


def _reduce(spec: MpSpec, exponents: list[int]) -> MpElement:
    for k in range(spec.depth, 0, -1):
        doubles, exponents[k] = divmod(exponents[k], 2)
        if doubles:
            exponents[0] += doubles * spec.p[k - 1]
            exponents[k - 1] += doubles
    return MpElement(exponents[0], tuple(exponents[1:]))


def mp_product(spec: MpSpec, u: MpElement, v: MpElement) -> MpElement:
    exponents = [u.n + v.n]
    exponents += [a + b for a, b in zip(u.eps, v.eps)]
    return _reduce(spec, exponents)


def degree_membership(spec: MpSpec, value) -> bool:
    """Is *value* the degree of some element of the (depth-K) family?
    Malformed values raise as in :func:`element_of_degree`."""
    return element_of_degree(spec, value) is not None


def element_of_degree(spec: MpSpec, value) -> MpElement | None:
    """The unique element of the given degree, or None.  Inverse of
    ``element_degree`` on the degree image.

    The dyadic digits of the fractional part are consumed deepest first:
    the bit at 2^-k can only come from d_k, which pins eps; the value is a
    degree iff the leftover integral part is >= 0.  Values that are not
    dyadic rationals of depth <= K are rejected as malformed.
    """
    if isinstance(value, float):
        raise MalformedDyadicError("degree values must be exact rationals, not floats")
    value = Fraction(value)
    if value < 0:
        return None
    denominator = value.denominator
    if denominator & (denominator - 1):
        raise MalformedDyadicError(f"{value} is not a dyadic rational")
    if denominator > 1 << spec.depth:
        raise MalformedDyadicError(
            f"{value} has dyadic depth beyond the family depth {spec.depth}"
        )
    eps = [0] * spec.depth
    degrees = spec.degrees
    frac = value - math.floor(value)
    total = Fraction(0)
    for k in range(spec.depth, 0, -1):
        scaled = frac * (1 << k)
        if scaled.numerator % (2 * scaled.denominator) >= scaled.denominator:
            eps[k - 1] = 1
            total += degrees[k]
            step = degrees[k] - math.floor(degrees[k])
            frac = frac - step
            frac = frac - math.floor(frac)
    leftover = value - total
    if leftover.denominator != 1 or leftover < 0:
        return None
    return MpElement(int(leftover), tuple(eps))


def mp_left_divides(spec: MpSpec, u: MpElement, v: MpElement) -> bool:
    """u divides v iff deg(v) - deg(u) is again a degree; exact because the
    degree map is injective and the family is commutative."""
    difference = element_degree(spec, v) - element_degree(spec, u)
    if difference < 0:
        return False
    return degree_membership(spec, difference)


def mp_min_common_multiples(spec: MpSpec, index_set: Sequence[MpElement],
                            cutoff=None) -> list[MpElement]:
    """Minimal common multiples of the index set, optionally filtered to
    degree <= cutoff.

    For each dyadic pattern eps no deeper than the inputs there is a least
    a_0 power n(eps) making (n, eps) a common multiple; the true minimal
    common multiples are exactly the minimal elements of that candidate set.
    The per-pattern scan is bounded; hitting the bound means a bug, not bad
    input, and raises.
    """
    members = list(index_set)
    if not members:
        raise EmptyIndexSetError("common multiples of the empty set are not defined here")
    depth_bound = max(m.element_depth for m in members)
    scan_cap = 64 * (1 + sum(spec.p))
    candidates: list[MpElement] = []
    for pattern in itertools.product((0, 1), repeat=depth_bound):
        eps = tuple(pattern) + (0,) * (spec.depth - depth_bound)
        for n in range(scan_cap + 1):
            probe = MpElement(n, eps)
            if all(mp_left_divides(spec, m, probe) for m in members):
                candidates.append(probe)
                break
        else:
            raise EnumerationError(
                f"common-multiple scan exceeded {scan_cap} for eps={eps}"
            )
    minimal = [
        c for c in candidates
        if not any(
            other is not c and mp_left_divides(spec, other, c) for other in candidates
        )
    ]
    if cutoff is not None:
        cutoff = Fraction(cutoff)
        minimal = [m for m in minimal if element_degree(spec, m) <= cutoff]
    return sorted(minimal, key=lambda m: element_degree(spec, m))


def family_presentation(spec: MpSpec) -> Presentation:
    """The same monoid as a positive homogeneous presentation, for
    cross-validation against the generic rewrite machinery."""
    degrees = spec.degrees
    generators = tuple(
        Generator(f"a{k}", degrees[k]) for k in range(spec.depth + 1)
    )
    relations = []
    for k in range(1, spec.depth + 1):
        square = (f"a{k}", f"a{k}")
        collapsed = (("a0",) * spec.p[k - 1]) + (f"a{k - 1}",)
        relations.append(Relation(square, collapsed))
    for low in range(spec.depth + 1):
        for high in range(low + 1, spec.depth + 1):
            relations.append(Relation((f"a{high}", f"a{low}"), (f"a{low}", f"a{high}")))
    return Presentation(generators, tuple(relations))


# ---------------------------------------------------------------- table facade

class MpModel:
    """Family member as a monoid model over its intrinsic normal forms."""

    def __init__(self, spec: MpSpec, default_cutoff=Fraction(8), name: str | None = None):
        self.spec = spec
        self.default_cutoff = Fraction(default_cutoff)
        self.name = name or f"mp:p={','.join(map(str, spec.p))}"
        self.key_kind = KeyKind.RATIONAL

    def enumerate_up_to(self, cutoff) -> "MpTable":
        cutoff = _validate_cutoff(KeyKind.RATIONAL, cutoff)
        next_degree = _canonical_next_degree(self.spec)
        if next_degree is not None and cutoff >= next_degree:
            warnings.warn(
                f"cutoff {cutoff} reaches degree {next_degree}, where the "
                f"canonical continuation of p adds a generator beyond depth "
                f"{self.spec.depth}; results describe the depth-"
                f"{self.spec.depth} family only",
                UserWarning,
                stacklevel=2,
            )
        return MpTable(self.spec, cutoff)


def _canonical_next_degree(spec: MpSpec) -> Fraction | None:
    """Degree the next generator would carry if p follows p_k = 2^(k+1).

    The depth cap is exact for the depth-K family, but a user following the
    canonical parameter pattern usually means the infinite one; past this
    degree the two disagree, so enumerate_up_to warns.  For other p lists no
    continuation is implied and there is nothing to check.
    """
    if any(spec.p[i] != 2 ** (i + 2) for i in range(spec.depth)):
        return None
    return spec.degrees[-1] / 2 + Fraction(2 ** (spec.depth + 2), 2)


class MpTable(ElementTable):
    def __init__(self, spec: MpSpec, cutoff: Fraction):
        self.spec = spec
        flagged = spec.degrees[1:]
        triples: list[tuple[Fraction, int, tuple[int, ...]]] = []
        for pattern in itertools.product((0, 1), repeat=spec.depth):
            base = sum((d for d, bit in zip(flagged, pattern) if bit), Fraction(0))
            triples += [(base + n, n, pattern) for n in range(math.floor(cutoff - base) + 1)]
        triples.sort(key=lambda triple: triple[0])  # degrees are all distinct
        self._forms = [(n, pattern) for _, n, pattern in triples]
        degrees = [d for d, _, _ in triples]
        by_degree = {d: (i,) for i, d in enumerate(degrees)}
        super().__init__(KeyKind.RATIONAL, cutoff, degrees, by_degree)

    def id_of_degree(self, degree) -> int | None:
        """Id of the one element of this degree, or None past the cutoff."""
        return self._by_degree.get(degree, (None,))[0]

    def element(self, eid: int) -> MpElement:
        return MpElement(*self._forms[eid])

    def element_id(self, element: MpElement) -> int | None:
        if len(element.eps) != self.spec.depth:
            return None
        return self.id_of_degree(element_degree(self.spec, element))

    def product(self, u: int, v: int) -> int | None:
        # deg is additive and injective, and every element within the cutoff is listed
        return self.id_of_degree(self._degrees[u] + self._degrees[v])

    def generators(self) -> tuple[int, ...]:
        """The ids of a_0..a_K that lie within the cutoff."""
        ids = (self.id_of_degree(d) for d in self.spec.degrees)
        return tuple(sorted(eid for eid in ids if eid is not None))

    def label(self, eid: int) -> str:
        n, eps = self._forms[eid]
        parts = ["a0" if n == 1 else f"a0^{n}"] if n else []
        parts += [f"a{k}" for k, bit in enumerate(eps, start=1) if bit]
        return " ".join(parts) if parts else "1"

    def parse_label(self, text: str) -> int | None:
        """Id of a text like 'a0^2 a1', looked up by its degree."""
        degrees = self.spec.degrees
        total = 0
        for part in text.split():
            name, caret, power = part.partition("^")
            if not name.startswith("a"):
                raise InvalidGroundError(f"cannot parse ground token {text!r}")
            k = _natural(name[1:], text)
            if k >= len(degrees):
                raise InvalidGroundError(f"ground token {text!r} uses a generator "
                                         f"beyond the family depth")
            total += degrees[k] * (_natural(power, text) if caret else 1)
        return self.id_of_degree(total)
