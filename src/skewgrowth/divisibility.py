"""Left-divisibility structure over an enumerated element table.

``u`` left-divides ``v`` when some ``x`` solves ``u * x == v``; on the
elements of a conical degree-graded monoid this is a partial order.  The
poset records it bitwise: for every element, the set of its multiples as an
integer bitmask indexed by element id, built from the table's right
generator maps ``x -> x * g``, since ``u`` divides ``v`` exactly when ``v``
is reached from ``u`` by a chain of such steps.  Every query reads the
multiple masks; the divisor masks are built from the same maps on first
read.

The supported subsets of a tower node's candidates are walked, ANDing
multiple masks, at a narrow node, and read off one sweep over the elements
above the least candidate at a wide one; :meth:`DivPoset.iter_supported_subsets`
gives the rule and its measured constant.

Truncation contract: every query answer is exact for the enumerated range.
In particular the minimal elements of a common-multiple mask are the
untruncated minimal common multiple set intersected with the cutoff range,
because a witness making some returned element non-minimal would itself
have smaller degree and therefore be enumerated.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import CutoffTooLargeError

POSET_BIT_CAP = 2 ** 35  # the most mask bits, n(n+1)/2 for n elements: 4 GiB


@dataclass
class DivPoset:
    multiple_masks: list[int]  # multiple_masks[u] has bit v set iff u | v
    _rows: list[list[int]] = field(repr=False, compare=False)  # right maps, longest first

    @classmethod
    def build(cls, table) -> "DivPoset":
        """In decreasing id order each u collects the multiples of every
        u*g; they are complete when read, because u*g has a larger id than
        u.  Rows are prefixes sorted by length, so the first row too short
        for u ends its loop.  A table past the poset cap is refused first."""
        n = table.n_elements
        if n * (n + 1) // 2 > POSET_BIT_CAP:
            raise CutoffTooLargeError(f"{n * (n + 1) // 2} divisibility mask bits for {n} "
                                      f"elements exceed the poset cap {POSET_BIT_CAP}")
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

        Two ways find them.  The walk ANDs candidates' multiple masks, at
        least one C-level AND per pair, k(k-1)/2 for k candidates; the sweep
        takes about one Python step per element above the least candidate,
        n - min(candidates), whatever k is.  A node sweeps when its pairs
        are more than 4 times the elements swept, and walks otherwise.  The
        4 is measured on the zpos roots (the primes with headroom): from
        zpos:100 to :700 (pairs 1.1 to 3.5 times the elements) the walk was
        faster, at zpos:1000 (4.5 times) the two took 2.4 ms each, and at
        zpos:1500 and :3000 the sweep took 3.8 and 8.5 ms against the walk's
        4.9 and 21.6 ms.  Every node of example3@200, braid3@13, free:2@12
        and mp@40 walks.
        """
        k = len(candidates)
        if k > 1 and k * (k - 1) // 2 > 4 * (len(self.multiple_masks) - min(candidates)):
            return self._sweep_supported_subsets(candidates, min_size)
        return self._walk_supported_subsets(candidates, min_size)

    def _walk_supported_subsets(self, candidates: Sequence[int], min_size: int):
        """Each subset hands its extensions a survivor pool: the later
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

    def _sweep_supported_subsets(self, candidates: Sequence[int], min_size: int):
        """One pass in increasing id order from the least candidate gives
        every element w the bits D[w] of the candidate positions that divide
        it: each x hands its bits on to every x*g, as :attr:`divisor_masks`
        hands on divisors.  A subset is supported exactly when it lies
        inside some D[w], so the supported subsets are the submasks of the
        distinct D values.  Those with the most bits go first, and a value
        already in the supported set is skipped, as all its submasks are
        too.  Sorting the position lists gives the walk's order; each
        subset's mask is the AND of its candidates' multiple masks.
        """
        start = min(candidates)
        bits = [0] * (len(self.multiple_masks) - start)
        for i, eid in enumerate(candidates):
            bits[eid - start] |= 1 << i
        for x, mask in enumerate(bits, start):  # later entries fill as it runs
            if mask:
                for row in self._rows:
                    if x >= len(row):
                        break
                    bits[row[x] - start] |= mask
        supported = set()
        for value in sorted(set(bits), key=int.bit_count, reverse=True):
            if value not in supported:
                sub = value
                while sub:
                    supported.add(sub)
                    sub = (sub - 1) & value
        picks = []
        for sub in supported:
            if sub.bit_count() >= min_size:
                pick = []
                while sub:
                    low = sub & -sub
                    pick.append(low.bit_length() - 1)
                    sub ^= low
                picks.append(pick)
        picks.sort()
        masks = self.multiple_masks
        for pick in picks:
            stage = tuple(candidates[i] for i in pick)
            yield stage, functools.reduce(operator.and_, [masks[eid] for eid in stage])
