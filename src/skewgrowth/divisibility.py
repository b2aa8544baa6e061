"""Left-divisibility structure over an enumerated element table.

``u`` left-divides ``v`` when some ``x`` solves ``u * x == v``; on the
elements of a conical degree-graded monoid this is a partial order.  The
poset records it bitwise: the multiples of an element as an integer bitmask
indexed by element id.  The towers read few of the n masks (3 of braid3@20's
75,001), so each is built when first asked for, from the table's letter
rows: a slice of the row of the element's last letter, mapped through the
rows of the others, sets one byte per id in a buffer that is reversed and
read as a base-2 int.  Once the masks asked for would have cost more than
all n, one reverse pass over the right generator maps builds every mask and
serves every later read.  :meth:`DivPoset.multiples` gives the rule and its
measured constants.  The divisor masks are built from the right maps on
first read.

The supported subsets of a tower node's candidates, with their minimal
common multiples, are walked, ANDing and peeling multiple masks, at a narrow
node, and read off one pass over the elements above the least candidate,
which reads no mask, at a wide one; :meth:`DivPoset.supported_stages` gives
the rule and its measured constant.

Truncation contract: every query answer is exact for the enumerated range.
In particular the minimal elements of a common-multiple mask are the
untruncated minimal common multiple set intersected with the cutoff range,
because a witness making some returned element non-minimal would itself
have smaller degree and therefore be enumerated.
"""
from __future__ import annotations

import functools
import weakref
from bisect import bisect_right
from operator import itemgetter
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
        the row of u's last letter, sliced to that prefix, maps it, the
        rows of the other letters map that right to left, and each id v
        sets byte v of a b"0"/b"1" buffer of n bytes that is reversed and
        read as a base-2 int.  The unit's image is the prefix itself.

        Buy or rent: each build is charged, before it runs, in the 64-bit
        word ORs of the reverse pass below, which takes about n*n // 64.  A
        step over the image, one per letter but the sliced one and one to
        set the bytes, costs about 8 of them, and a buffer byte about one:
        on example3@16000, zpos:20000, braid3@17 and free:2@14 a word took 6
        to 12.6 ns, a map step 22 to 53 ns, a byte-setting step 42 to 58
        ns, a sliced id 3 to 7.5 ns and a byte, reverse and read included,
        3 to 5 ns.  Once the charges, 8 * end * max(len(word), 1) + n a
        mask, would pass n*n // 64, the reverse pass runs instead if its
        n*n bits are within the poset cap, and serves this read and every
        later one, which then index a list.  Past the cap the masks stay one
        by one, and one is refused when the bits built so far plus n would
        pass the cap.
        """
        try:
            return self._memo[u]
        except KeyError:
            pass
        table, n = self._table(), self.n_elements
        word, degrees, grid = table.word(u), table.grid_degrees, table.grid
        end = bisect_right(degrees, grid.top, key=functools.partial(grid.combine, degrees[u]))
        self._spent += 8 * end * max(len(word), 1) + n
        if self._spent > n * n // 64 and n * n <= POSET_BIT_CAP:
            return self._reverse_pass()[u]
        if self._bits + n > POSET_BIT_CAP:
            raise CutoffTooLargeError(f"{self._bits + n} divisibility mask bits for {n} "
                                      f"elements exceed the poset cap {POSET_BIT_CAP}")
        lmul = table._lmul
        image = lmul[word[-1]][:end] if word else range(end)
        for g in reversed(word[:-1]):
            image = map(lmul[g].__getitem__, image)
        buf = bytearray(b"0") * n
        for v in image:
            buf[v] = 49
        buf.reverse()  # byte v now has weight 2 ** v in base 2
        mask = self._memo[u] = int(buf, 2)
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
        """divisor_masks[v] has bit u set iff u | v: in increasing id order
        each x ORs its mask, its own bit and its divisors', into that of
        every x*g, which has a larger id and so reads it later."""
        divisors, rows = [1 << v for v in range(self.n_elements)], self._rows
        for x, mask in enumerate(divisors):  # later entries fill as it runs
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

    def iter_supported_subsets(self, candidates: Sequence[int]) -> list:
        """The subsets (as tuples, in lexicographic order) of at least two
        candidates whose common-multiple set is non-empty within the
        cutoff, each with its tops, its minimal common multiples,
        ascending: :meth:`supported_stages` read by :func:`in_stage_order`.
        The candidates are ascending, as every tower top is."""
        stages = in_stage_order(candidates, self.supported_stages(candidates))
        return [(stage, tuple(tops)) for _, tops, stage in stages]

    def supported_stages(self, candidates: Sequence[int]) -> list:
        """(size, tops, stage) for each supported subset of the candidates,
        the tops an ascending list, with no stage decoded: the walk gives
        each stage as its tuple, in lexicographic order, and the pass as the
        bitmask of its positions among the candidates, in no set order,
        which :func:`decode_stage` reads.
        The towers answer a node of two candidates with one AND and call
        this from three on.

        Two ways find them.  The walk ANDs candidates' multiple masks, at
        least one C-level AND per pair, k(k-1)/2 for k candidates, and peels
        each stage's mask; the pass takes about one Python step per element
        above the least candidate and right map, whatever k is, and reads no
        mask.  A node takes the pass when its pairs outnumber the elements
        swept.  Best of 15 in process, against the walk with masks built on
        demand, as a root reads them, the pass was faster at every zpos root
        from zpos:20 (0.3 pairs per element) to zpos:500 (2.8), by 11 to 34%,
        took 1.6 ms against 3.7 at zpos:1500 and 3.8 against 14.7 at
        zpos:3000, and 0.07, 0.64 and 1.2 ms against 0.16, 0.77 and 3.4 at
        the roots of {1} u {n = 1 mod 4} up to 500, 2,000 and 5,000 (1.4, 4.3
        and 9.2).  Against masks a reverse pass had built the walk was faster
        up to about 2 pairs per element at the zpos roots and 4 at those
        congruence roots, and 2 to 17 times faster at the nodes of mp@40
        (0.01 to 0.09) and 36 times at the congruence node above the root of
        5,000 (0.002).  Of the builtins, only the zpos roots from about
        zpos:90 on take the pass.
        """
        k = len(candidates)
        if k > 1 and k * (k - 1) // 2 > self.n_elements - candidates[0]:
            return [(sub.bit_count(), top, sub)
                    for sub, top in self._sweep_tops(candidates).items()]
        return [(len(stage), self.minimal_in_mask(mask), stage)
                for stage, mask in self._walk_supported_subsets(candidates)]

    def _walk_supported_subsets(self, candidates: Sequence[int]):
        """Each subset hands its extensions a survivor pool: the later
        candidates whose common-multiple mask still meets its own, each
        paired with the ANDed mask.  A candidate that misses a subset's mask
        misses every superset's too, so it is never tested again below.  A
        supported subset costs one AND per entry after it in the pool it was
        drawn from, that is per later candidate its parent subset still
        meets, rather than per later candidate.

        One loop runs the pools depth first, each held in reverse so that
        ``pop`` draws the next candidate and leaves the later ones; a subset
        with survivors descends into them, its own pool waiting on the
        stack, so the subsets come out in lexicographic order.  A pool's
        last entry tests nothing, and a single later entry is tested alone.
        """
        if not candidates:
            return
        stack = []
        stage, pool = (), [(eid, self.multiples(eid)) for eid in reversed(candidates)]
        while True:
            eid, mask = pool.pop()
            chosen = stage + (eid,)
            if stage:
                yield chosen, mask
            if len(pool) > 1:
                below = [(e, both) for e, m in pool if (both := m & mask)]
                if below:
                    stack.append((stage, pool))
                    stage, pool = chosen, below
            elif pool:
                later, m = pool[0]
                if both := m & mask:
                    yield chosen + (later,), both
            elif stack:
                stage, pool = stack.pop()
            else:
                return

    def _sweep_tops(self, candidates: Sequence[int]) -> dict[int, list[int]]:
        """Each supported subset, as the bitmask of its positions among the
        candidates, mapped to its tops, ascending.

        One loop in increasing id order from the least candidate pushes
        each x's bits D[x], the candidate positions dividing x, to every x*g
        and, when they are two or more, lists them among x*g's covers: one
        bit covers no stage.  A strict divisor of w divides some right
        predecessor x of w (x*g = w), and D grows along divisibility, so w is
        a minimal common multiple of S exactly when S lies inside D[w] and
        inside no cover of w, both final once the loop reaches w.

        Most tops are settled from their cover count, with no submask
        walked.  Each cover is some D[x] with x*g = w, so a subset of D[w];
        with k bits in D[w], a proper subset S of two bits or more misses
        some bit b, so lies inside D[w] less b.  When k is 2, D[w] is the
        only subset of two bits; when the distinct covers include k of k - 1
        bits, every D[w] less b is a cover.  Either way D[w] is the only new
        stage at w; otherwise the submasks are walked against the covers.
        Every top of zpos:1500's root is settled; the top 30 of 6, 10 and
        15, whose right predecessors hold one candidate each, is walked.

        A map row too short for w is dropped as w passes it: rows are
        prefixes, longest first, so it is the last."""
        start, rows = candidates[0], list(self._rows)
        bits = [0] * (self.n_elements - start)
        for i, eid in enumerate(candidates):
            bits[eid - start] |= 1 << i
        covers, tops = {}, {}
        for w, value in enumerate(bits, start):  # later entries fill as it runs
            if not value:
                continue
            wide = value & (value - 1)
            if wide and value not in (seen := covers.pop(w, ())):
                k = value.bit_count()
                if k == 2 or len({c for c in seen if c.bit_count() == k - 1}) == k:
                    tops.setdefault(value, []).append(w)
                else:
                    sub = value
                    while sub:  # the submasks of two bits or more that no cover holds
                        if sub & (sub - 1):
                            for cover in seen:
                                if sub & cover == sub:
                                    break
                            else:
                                tops.setdefault(sub, []).append(w)
                        sub = (sub - 1) & value
            while rows and w >= len(rows[-1]):
                rows.pop()
            for row in rows:
                bits[row[w] - start] |= value
                if wide:
                    covers.setdefault(row[w], []).append(value)
        return tops


def in_stage_order(candidates: Sequence[int], stages: list) -> list:
    """The (size, tops, stage) triples of :meth:`DivPoset.supported_stages`
    over *candidates* with tuple stages, in lexicographic order of the
    stages: the walk's as they are, and the pass's decoded and sorted."""
    if stages and stages[0][2].__class__ is int:
        return sorted(((size, tops, decode_stage(candidates, sub))
                       for size, tops, sub in stages), key=itemgetter(2))
    return stages


def decode_stage(candidates: Sequence[int], stage) -> tuple[int, ...]:
    """A stage of :meth:`DivPoset.supported_stages` as a tuple: the tuple
    itself, or the candidates at the set bits of a bitmask, ascending."""
    if isinstance(stage, tuple):
        return stage
    picked = []
    while stage:
        low = stage & -stage
        picked.append(candidates[low.bit_length() - 1])
        stage ^= low
    return tuple(picked)
