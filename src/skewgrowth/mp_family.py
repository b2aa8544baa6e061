"""A family of cancellative monoids with an intrinsic normal form.

The family is parameterized by a sequence of nonnegative integers
``p = (p_1, .., p_K)`` with ``p_1`` positive and even.  Generators are
``a_0, .., a_K``; all generators commute, and the square of each ``a_k``
for ``k >= 1`` collapses one level down:

    a_k * a_k = a_0^{p_k} * a_{k-1}

Every element therefore has a unique normal form ``a_0^n * prod a_k^{e_k}``
with ``n >= 0`` and each ``e_k`` either 0 or 1.  Generator degrees

    d_0 = 1,   d_k = 1/2^k + sum_{i<=k} p_i / 2^(k-i+1)

make the degree map injective.

The enumerated table (`MpTable`) is addressed by degree: a degree names
one element, so the row of letter a_k maps x to the id of deg(x) + d_k, an
element splits as a_0 (or, with no a_0, its lowest flagged letter) times the
id of the degree less that letter's, and a label is read back as the sum of
its letters' degrees.  Degrees are kept as ints on the grid of step 1/2^K,
where every d_k lies.  The normal-form reducer that the tests hold the
table to lives in ``tests/mp_reference.py``.

Depth truncation is transparent: quotients of depth <= K elements have
depth <= K, so the truncated family is a full submonoid and every answer
below the cutoff agrees with the untruncated family.
"""
from __future__ import annotations

import itertools
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .dirichlet import Grid, KeyKind
from .errors import InvalidGroundError, InvalidParamsError
from .models import ElementTable, _check_size, _integer, _natural, _validate_cutoff
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

    def __init__(self, spec: MpSpec, name: str | None = None):
        self.spec = spec
        self.default_cutoff = Fraction(8)
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
        grid = Grid(KeyKind.RATIONAL, cutoff, 2 ** spec.depth)
        self._gen_degrees = gen_degrees = [grid.point(d) for d in spec.degrees]
        step, *flagged = gen_degrees
        patterns = [(sum(d for d, bit in zip(flagged, pattern) if bit), pattern)
                    for pattern in itertools.product((0, 1), repeat=spec.depth)]
        _check_size(sum(max(0, (grid.top - base) // step + 1) for base, _ in patterns), cutoff)
        triples = sorted((base + n * step, n, pattern) for base, pattern in patterns
                         for n in range((grid.top - base) // step + 1))  # degrees are distinct
        self._forms = [(n, pattern) for _, n, pattern in triples]
        degrees = [d for d, _, _ in triples]
        self._ids = ids = {d: i for i, d in enumerate(degrees)}
        # row k: the ids of deg(x) + d_k, up to the first degree past the
        # cutoff; x splits off a0 when n > 0, else its lowest flagged letter
        firsts = [0 if n else pattern.index(1) + 1 for n, pattern in self._forms[1:]]
        super().__init__(grid, degrees, {d: (i,) for d, i in ids.items()},
                         [[ids[d + gd] for d in degrees[:bisect_right(degrees, grid.top - gd)]]
                          for gd in gen_degrees],
                         [0, *firsts],
                         [0, *(ids[d - gen_degrees[f]] for d, f in zip(degrees[1:], firsts))])

    def id_of_degree(self, degree) -> int | None:
        """Id of the one element of this degree, or None past the cutoff."""
        return self._ids.get(self.grid.point(degree))

    def label(self, eid: int) -> str:
        n, eps = self._forms[eid]
        parts = ["a0" if n == 1 else f"a0^{n}"] if n else []
        parts += [f"a{k}" for k, bit in enumerate(eps, start=1) if bit]
        return " ".join(parts) if parts else "1"

    def parse_label(self, text: str) -> int | None:
        """Id of "1" or of a text like 'a0^2 a1', looked up by its degree."""
        if text == "1":
            return self.unit
        degrees = self._gen_degrees
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
        return self._ids.get(total)
