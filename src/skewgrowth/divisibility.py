"""Left-divisibility structure over an enumerated element table.

``u`` left-divides ``v`` when some ``x`` solves ``u * x == v``; on the
elements of a conical degree-graded monoid this is a partial order.  The
poset records it bitwise: the multiples of an element as an integer bitmask
indexed by element id.  The towers read few of the n masks (3 of braid3@20's
75,001), so each is built when first asked for, from the table's letter
rows, until the masks asked for would have cost more than all n: then one
reverse pass over the right generator maps builds every mask and serves
every later read.  :meth:`DivPoset.multiples` gives the rule and its
measured constant.  The divisor masks are built from the right maps on
first read.

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
import weakref
from bisect import bisect_right
from typing import Iterable, Sequence

from .errors import CutoffTooLargeError

# the most mask bits held, 4 GiB: the reverse pass, whose n masks take up to
# n bits each, runs only when n*n is within it, and a mask built on its own
# is refused when the bits built so far plus n would pass it
POSET_BIT_CAP = 2 ** 35


class DivPoset:
    """The left-divisibility order of one table, read through
    :meth:`multiples`.  The table holds its poset, so the poset holds the
    table by a weak reference, and reads need the table alive."""

    def __init__(self, table):
        self.n_elements = table.n_elements
        self._table = weakref.ref(table)
        self._memo: dict[int, int] | list[int] = {}  # masks built, or all n
        self._spent = 0  # the word operations charged to masks built one by one
        self._bits = 0  # the bits those masks hold

    def multiples(self, u: int) -> int:
        """The mask of u's multiples: bit v is set iff u | v.

        Built on first read as the image of x -> u*x over the ids x with
        deg(u) (+) deg(x) <= top, a prefix since ids ascend with degree:
        the letter rows of u's word map it, right to left, and the ids are
        set in a b"0"/b"1" buffer over u..n-1 that is read as a base-2 int.

        Buy or rent: each build is charged, before it runs, in the 64-bit
        word ORs of the reverse pass below, which takes about n*n // 64.  A
        map step costs about 8 of them and a buffer byte about one: on
        example3@16000, zpos:20000, braid3@17 and free:2@14 a step took 40
        to 100 ns, a word 3 to 7.5 ns and a byte 2 to 5 ns.  Once the
        charges, 8 * end * (len(word) + 1) + n - u a mask, would pass
        n*n // 64, the reverse pass runs instead if its n*n bits are within
        the poset cap, and serves this read and every later one, which then
        index a list.  Past the cap the masks stay one by one, and one is
        refused when the bits built so far plus n would pass the cap.
        """
        try:
            return self._memo[u]
        except KeyError:
            pass
        table, n = self._table(), self.n_elements
        word, degrees, grid = table.word(u), table.grid_degrees, table.grid
        end = bisect_right(degrees, grid.top, key=functools.partial(grid.combine, degrees[u]))
        self._spent += 8 * end * (len(word) + 1) + n - u
        if self._spent > n * n // 64 and n * n <= POSET_BIT_CAP:
            return self._reverse_pass()[u]
        if self._bits + n > POSET_BIT_CAP:
            raise CutoffTooLargeError(f"{self._bits + n} divisibility mask bits for {n} "
                                      f"elements exceed the poset cap {POSET_BIT_CAP}")
        image = range(end)
        for g in reversed(word):
            image = map(table._lmul[g].__getitem__, image)
        buf = bytearray(b"0") * (n - u)
        last = n - 1
        for v in image:
            buf[last - v] = 49  # weight 2 ** (v - u) in base 2
        mask = self._memo[u] = int(buf, 2) << u
        self._bits += mask.bit_length()
        return mask

    def _reverse_pass(self) -> list[int]:
        """In decreasing id order each u collects the multiples of every
        u*g; they are complete when read, because u*g has a larger id than
        u.  Rows are prefixes sorted by length, so the first row too short
        for u ends its loop.  The list replaces the memo, which a method
        bound before still reads, and its ``__getitem__`` the method."""
        multiples, rows = [0] * self.n_elements, self._rows
        for u in range(self.n_elements - 1, -1, -1):
            mask = 1 << u
            for row in rows:
                if u >= len(row):
                    break
                mask |= multiples[row[u]]
            multiples[u] = mask
        self._memo = multiples
        self.multiples = multiples.__getitem__
        return multiples

    @functools.cached_property
    def _rows(self) -> list[list[int]]:
        """The table's right maps, longest first."""
        return sorted(self._table().right_maps(), key=len, reverse=True)

    @property
    def multiple_masks(self) -> list[int]:
        """Every element's mask of multiples, by id."""
        return [self.multiples(u) for u in range(self.n_elements)]

    @functools.cached_property
    def divisor_masks(self) -> list[int]:
        """divisor_masks[v] has bit u set iff u | v.  In increasing id order
        each x hands its divisors on to every x*g."""
        n, rows = self.n_elements, self._rows
        divisors = [1 << v for v in range(n)]
        for x in range(n):
            mask = divisors[x]
            for row in rows:
                if x >= len(row):
                    break
                divisors[row[x]] |= mask
        return divisors

    def minimal_in_mask(self, mask: int) -> list[int]:
        """The minimal elements of a mask, ascending.  A strict divisor has a
        smaller degree and so a smaller id, so the lowest set bit is minimal;
        record it, clear all of its multiples and repeat.  One AND per
        minimal element but the last: a lone bit left is minimal, and its
        mask is not read."""
        out = []
        while mask & (mask - 1):
            low = (mask & -mask).bit_length() - 1
            out.append(low)
            mask &= ~self.multiples(low)
        if mask:
            out.append(mask.bit_length() - 1)
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
        if k > 1 and k * (k - 1) // 2 > 4 * (self.n_elements - min(candidates)):
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

        yield from rec([], [(eid, self.multiples(eid)) for eid in candidates])

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
        bits = [0] * (self.n_elements - start)
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
        for pick in picks:
            stage = tuple(candidates[i] for i in pick)
            yield stage, functools.reduce(operator.and_, map(self.multiples, stage))
