"""The mp family's intrinsic normal form: the reference the tests hold
``MpTable`` and the generic poset route to.

All generators commute, and the square of each ``a_k`` for ``k >= 1``
collapses one level down (``a_k * a_k = a_0^{p_k} * a_{k-1}``), so every
element has a unique normal form ``a_0^n * prod a_k^{e_k}`` with ``n >= 0``
and each ``e_k`` either 0 or 1; elements are the pairs ``(n, eps)``.  The
degree map is injective, which turns divisibility into exact dyadic
arithmetic: ``u`` divides ``v`` iff ``deg(v) - deg(u)`` is itself the degree
of an element, decided by reading the dyadic digits of the difference from
the deepest bit up (`element_of_degree`).

``mp_min_common_multiples`` works per dyadic pattern: for each ``eps`` no
deeper than the inputs, the least ``a_0`` power making ``(n, eps)`` a common
multiple is found by a bounded scan, and the minimal elements of that
candidate set are the minimal common multiples.

``element_of_id`` and ``id_of_element`` translate between table ids and
normal forms through ``table.degree`` and ``table.id_of_degree`` only, so
the reference shares nothing with the table's own element list.
"""
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from skewgrowth.errors import EnumerationError, InvalidParamsError, SkewGrowthError
from skewgrowth.models import _integer
from skewgrowth.mp_family import MpSpec


class MalformedDyadicError(SkewGrowthError, ValueError):
    """Degree-membership query on a value that is not a dyadic rational of
    representable depth."""


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
    """Minimal common multiples of the non-empty index set, optionally
    filtered to degree <= cutoff.

    For each dyadic pattern eps no deeper than the inputs there is a least
    a_0 power n(eps) making (n, eps) a common multiple; the true minimal
    common multiples are exactly the minimal elements of that candidate set.
    The per-pattern scan is bounded; hitting the bound means a bug, not bad
    input, and raises.
    """
    members = list(index_set)
    if not members:
        raise ValueError("common multiples of the empty set are not defined here")
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


def element_of_id(table, eid: int) -> MpElement:
    """The normal form of a table id, read off its degree."""
    return element_of_degree(table.spec, table.degree(eid))


def id_of_element(table, element: MpElement) -> int | None:
    """The table id of a normal form, or None when its eps has the wrong
    length or its degree lies past the cutoff."""
    if len(element.eps) != table.spec.depth:
        return None
    return table.id_of_degree(element_degree(table.spec, element))
