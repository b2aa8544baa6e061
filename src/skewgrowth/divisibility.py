"""Left-divisibility structure over an enumerated element table.

``u`` left-divides ``v`` when some ``x`` solves ``u * x == v``; on the
elements of a conical degree-graded monoid this is a partial order.  The
poset records it bitwise: for every element, the set of its divisors and the
set of its multiples as integer bitmasks indexed by element id.  Both are
built from the table's right generator maps ``x -> x * g``, since ``u``
divides ``v`` exactly when ``v`` is reached from ``u`` by a chain of such
steps.

Truncation contract: every query answer is exact for the enumerated range.
In particular ``min_common_multiples(J)`` equals the untruncated minimal
common multiple set intersected with the cutoff range, because a witness
making some returned element non-minimal would itself have smaller degree
and therefore be enumerated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyIndexSetError


def mask_to_ids(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass
class DivPoset:
    table: object
    divisor_masks: list[int]   # divisor_masks[v] has bit u set iff u | v
    multiple_masks: list[int]  # multiple_masks[u] has bit v set iff u | v

    @classmethod
    def build(cls, table) -> "DivPoset":
        """Two passes over the right generator maps x -> x*g.  In increasing
        id order each x hands its divisors on to every x*g; in decreasing id
        order each u collects the multiples of every u*g.  Both are complete
        when read, because x*g has a larger id than x."""
        n = table.n_elements
        rows = sorted(table.right_maps(), key=len, reverse=True)
        divisors = [1 << v for v in range(n)]
        for x in range(n):
            mask = divisors[x]
            for row in rows:
                if x >= len(row):
                    break
                divisors[row[x]] |= mask
        multiples = [0] * n
        for u in range(n - 1, -1, -1):
            mask = 1 << u
            for row in rows:
                if u >= len(row):
                    break
                mask |= multiples[row[u]]
            multiples[u] = mask
        return cls(table, divisors, multiples)

    def divides(self, u: int, v: int) -> bool:
        return bool(self.divisor_masks[v] >> u & 1)

    def common_multiples(self, index_set: Iterable[int]) -> list[int]:
        """All enumerated common right multiples of the index set, ascending.
        The empty index set is rejected: its common-multiple set would be the
        whole monoid, which has no meaning under a cutoff."""
        ids = list(index_set)
        if not ids:
            raise EmptyIndexSetError("common multiples of the empty set are not defined here")
        mask = self.multiple_masks[ids[0]]
        for eid in ids[1:]:
            mask &= self.multiple_masks[eid]
        return mask_to_ids(mask)

    def minimal_elements(self, subset: Sequence[int]) -> list[int]:
        """Elements of the subset with no strict divisor inside the subset.
        Empty input yields empty output."""
        mask = 0
        for eid in subset:
            mask |= 1 << eid
        out = []
        for eid in subset:
            if self.divisor_masks[eid] & mask & ~(1 << eid) == 0:
                out.append(eid)
        return sorted(out)

    def min_common_multiples(self, index_set: Iterable[int]) -> list[int]:
        return self.minimal_elements(self.common_multiples(index_set))

    def iter_supported_subsets(self, candidates: Sequence[int], min_size: int):
        """Yield subsets (as tuples, in lexicographic candidate order) of at
        least ``min_size`` elements whose common-multiple set is non-empty
        within the cutoff, with each subset's common-multiple mask.

        Supersets of a subset with no common multiple are pruned wholesale,
        which keeps the walk proportional to the number of supported subsets.
        """
        candidates = list(candidates)

        def rec(start: int, chosen: list[int], mask: int):
            for i in range(start, len(candidates)):
                eid = candidates[i]
                next_mask = mask & self.multiple_masks[eid] if chosen else self.multiple_masks[eid]
                if not next_mask:
                    continue
                chosen.append(eid)
                if len(chosen) >= min_size:
                    yield tuple(chosen), next_mask
                yield from rec(i + 1, chosen, next_mask)
                chosen.pop()

        yield from rec(0, [], 0)
