"""Left-divisibility structure over an enumerated element table.

``u`` left-divides ``v`` when some ``x`` solves ``u * x == v``; on the
elements of a conical degree-graded monoid this is a partial order.  The
poset records it bitwise: for every element, the set of its multiples as an
integer bitmask indexed by element id, built from the table's right
generator maps ``x -> x * g``, since ``u`` divides ``v`` exactly when ``v``
is reached from ``u`` by a chain of such steps.  Every query reads the
multiple masks; the divisor masks are built from the same maps on first
read.

Truncation contract: every query answer is exact for the enumerated range.
In particular the minimal elements of a common-multiple mask are the
untruncated minimal common multiple set intersected with the cutoff range,
because a witness making some returned element non-minimal would itself
have smaller degree and therefore be enumerated.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class DivPoset:
    multiple_masks: list[int]  # multiple_masks[u] has bit v set iff u | v
    _rows: list[list[int]] = field(repr=False, compare=False)  # right maps, longest first

    @classmethod
    def build(cls, table) -> "DivPoset":
        """In decreasing id order each u collects the multiples of every
        u*g; they are complete when read, because u*g has a larger id than
        u.  Rows are prefixes sorted by length, so the first row too short
        for u ends its loop."""
        n = table.n_elements
        rows = sorted(table.right_maps(), key=len, reverse=True)
        multiples = [0] * n
        for u in range(n - 1, -1, -1):
            mask = 1 << u
            for row in rows:
                if u >= len(row):
                    break
                mask |= multiples[row[u]]
            multiples[u] = mask
        return cls(multiples, rows)

    @functools.cached_property
    def divisor_masks(self) -> list[int]:
        """divisor_masks[v] has bit u set iff u | v.  In increasing id order
        each x hands its divisors on to every x*g."""
        n = len(self.multiple_masks)
        divisors = [1 << v for v in range(n)]
        for x in range(n):
            mask = divisors[x]
            for row in self._rows:
                if x >= len(row):
                    break
                divisors[row[x]] |= mask
        return divisors

    def minimal_in_mask(self, mask: int) -> list[int]:
        """The minimal elements of a mask, ascending.  A strict divisor has a
        smaller degree and so a smaller id, so the lowest set bit is minimal;
        record it, clear all of its multiples and repeat.  One AND per
        minimal element."""
        out = []
        while mask:
            low = (mask & -mask).bit_length() - 1
            out.append(low)
            mask &= ~self.multiple_masks[low]
        return out

    def minimal_elements(self, subset: Iterable[int]) -> list[int]:
        """Elements of the subset with no strict divisor inside the subset,
        ascending.  Empty input yields empty output."""
        mask = 0
        for eid in subset:
            mask |= 1 << eid
        return self.minimal_in_mask(mask)

    def iter_supported_subsets(self, candidates: Sequence[int], min_size: int):
        """Yield subsets (as tuples, in lexicographic candidate order) of at
        least ``min_size`` elements whose common-multiple set is non-empty
        within the cutoff, with each subset's common-multiple mask.

        Each subset hands its extensions a survivor pool: the later
        candidates whose common-multiple mask still meets its own, each
        paired with the ANDed mask.  A candidate that misses a subset's mask
        misses every superset's too, so it is never tested again below.  A
        supported subset costs one AND per entry after it in the pool it was
        drawn from, that is per later candidate its parent subset still
        meets, rather than per later candidate.
        """
        def rec(chosen: list[int], pool: list[tuple[int, int]]):
            for i, (eid, mask) in enumerate(pool):
                chosen.append(eid)
                if len(chosen) >= min_size:
                    yield tuple(chosen), mask
                below = [(e, both) for e, m in pool[i + 1:] if (both := m & mask)]
                if below:
                    yield from rec(chosen, below)
                chosen.pop()

        yield from rec([], [(eid, self.multiple_masks[eid]) for eid in candidates])
