"""Towers of iterated minimal common multiples and the skew-growth series.

A tower starts from a fixed ground set ``I0`` (an antichain of non-units,
the atoms by default) and climbs by stages: each stage picks at least two
elements from the current top set and the next top set is the set of
minimal common multiples of that pick.  The tower of height 0 is the bare
ground; a tower of height n is determined by its stage list ``J_1..J_n``,
and its parent is the tower with the last stage removed, so the collection
of towers is a rooted tree.  A :class:`Tower` is stored that way: its
parent's index in the forest, its last stage and top, its height and its
sign, so the forest takes space linear in its towers however tall they
grow.  The renderers print it the same way: each tower's parent index and
its last stage.

Each tower contributes ``sign * t^deg(x)`` for every element x of its top
set, where the sign is ``(-1) ** (sum of stage sizes - height + 1)``, that
is its parent's sign times ``(-1) ** (last stage size - 1)``; the
skew-growth series is one plus the total over all towers.  Multiplying it
with the growth series of the monoid gives exactly 1 when the monoid is
cancellative, which is what :mod:`skewgrowth.checks` verifies.

Truncation: a stage can only produce useful top elements if every picked
element keeps at least one minimal positive degree of headroom below the
cutoff, so the candidates of a top are the prefix of it below the first id
without that headroom; every dropped tower has its whole top set above the
cutoff and cannot affect reported degrees.  A tower whose top keeps fewer
than two candidates has no children, and one that keeps two has at most
one, on the pair, when their multiple masks meet: one AND, peeled to its
minimal elements.  Three or more candidates go to
:meth:`~skewgrowth.divisibility.DivPoset.iter_supported_subsets`, which
yields each child's stage with its top.  Enumeration is breadth-first and
fully deterministic.  The cut and the skew-growth terms work on the table's
grid ints (see :class:`skewgrowth.dirichlet.Grid`); keys are made when the
series is.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from . import models
from .dirichlet import Series, key_to_json
from .divisibility import DivPoset
from .errors import InvalidGroundError


@dataclass(slots=True)
class Tower:
    """One tower: its parent's index in the forest (None at the root), the
    last stage pick, the top set that pick gives, the height and the sign.

    ``top`` is the enumerated part of the minimal common multiples of
    ``stage``; the root's stage is empty, its top is the ground and its
    sign -1.
    """

    parent: int | None = None
    stage: tuple[int, ...] = ()
    top: tuple[int, ...] = ()
    height: int = 0
    sign: int = -1


@dataclass(frozen=True)
class TowerForest:
    """All towers over one ground, breadth-first, root (height 0) first.
    The parent indices are the tree: each parent precedes its children, and
    a parent's children follow one another in the order they were found."""

    towers: tuple[Tower, ...]

    @property
    def ground(self) -> tuple[int, ...]:
        return self.towers[0].top

    def __iter__(self):
        return iter(self.towers)


def _validate_ground(table, poset: DivPoset, ground: Sequence[int]) -> tuple[int, ...]:
    ground = tuple(ground)
    if not ground:
        raise InvalidGroundError("ground set is empty")
    if any(isinstance(eid, bool) or not isinstance(eid, int)
           or not 0 <= eid < table.n_elements for eid in ground):
        raise InvalidGroundError(f"ground ids must be ints in range({table.n_elements})")
    if len(set(ground)) != len(ground):
        raise InvalidGroundError("ground set repeats an element")
    if table.unit in ground:
        raise InvalidGroundError("ground set may not contain the unit")
    if set(poset.minimal_elements(ground)) != set(ground):
        raise InvalidGroundError("ground set is not an antichain under left division")
    return tuple(sorted(ground))


def enumerate_towers(table, poset: DivPoset | None = None,
                     ground: Sequence[int] | None = None) -> TowerForest:
    """Breadth-first tower enumeration over the table's full degree range.
    A *ground* the caller passes is validated; the default, the atoms, is a
    sorted antichain of non-units by definition.  A forest of more towers
    than the word cap is refused with CutoffTooLargeError."""
    poset = poset or table.poset()
    if ground is not None:
        ground = _validate_ground(table, poset, ground)
    else:
        # empty only for a trivial table, where the forest is the bare root
        # and the skew series is 1
        ground = table.atoms()
        if not ground:
            return TowerForest((Tower(),))
    degrees, grid = table.grid_degrees, table.grid
    # ids ascend with degree and only the unit has degree zero, so id 1
    # (there is one, as the ground holds a non-unit) has the least positive
    # one; the ids below cut keep that much headroom, so the candidates of
    # a top, which is ascending, are its elements below cut
    cut = bisect_right(degrees, grid.top, key=partial(grid.combine, degrees[1]))
    towers = [Tower(top=ground)]
    cap = models.WORD_CAP
    for i, tower in enumerate(towers):  # grows while it is read
        if len(towers) > cap:  # once per node; each tower is one in turn, so none slips by
            models._check_size(len(towers), "towers")
        top = tower.top
        candidates = top[:bisect_left(top, cut)]
        k = len(candidates)
        # a pick of j elements multiplies the sign by (-1) ** (j - 1): a pair flips it
        if k == 2:  # the pair itself is the one possible stage
            # read through the poset: its reverse pass swaps in a faster method
            if mask := poset.multiples(candidates[0]) & poset.multiples(candidates[1]):
                towers.append(Tower(i, candidates, tuple(poset.minimal_in_mask(mask)),
                                    tower.height + 1, -tower.sign))
        elif k > 2:
            height, sign = tower.height + 1, tower.sign
            towers += [Tower(i, stage, mcms, height, sign if len(stage) % 2 else -sign)
                       for stage, mcms in poset.iter_supported_subsets(candidates)]
    return TowerForest(tuple(towers))


def skew_on_grid(table, forest: TowerForest | None = None) -> dict[int, int]:
    """The nonzero terms of the skew-growth series of *forest*, by default
    the towers over the atoms, keyed by the table's grid ints: 1 at the
    zero, plus each tower's sign at the degree of every element of its top."""
    if forest is None:
        forest = enumerate_towers(table)
    degrees = table.grid_degrees
    terms = {table.grid.zero: 1}
    for tower in forest:
        sign = tower.sign
        for eid in tower.top:
            degree = degrees[eid]
            total = terms.get(degree, 0) + sign
            if total:
                terms[degree] = total
            else:
                del terms[degree]
    return terms


def skew_growth(table, forest: TowerForest | None = None) -> Series:
    """1 plus the signed degree sum over all tower tops, truncated at the
    table cutoff.  The towers are *forest*'s, by default those over the
    atoms; a forest over another ground gives that ground's series."""
    return table.grid.series(skew_on_grid(table, forest))


# ---------------------------------------------------------------- exports

def _label_set(table, eids) -> str:
    return "{" + ",".join(table.label(e) for e in eids) + "}"


def forest_to_lines(forest: TowerForest, table) -> list[str]:
    """The table lines: the ground, then per tower its parent's index and
    its last stage, which the root has none of."""
    lines = [f"ground: {_label_set(table, forest.ground)}"]
    for i, tower in enumerate(forest.towers):
        step = ("" if tower.parent is None
                else f" parent=[{tower.parent}] stage: {_label_set(table, tower.stage)}")
        lines.append(f"[{i}] height={tower.height} sign={tower.sign:+d}{step} "
                     f"top: {_label_set(table, tower.top)}")
    return lines


def forest_to_json(forest: TowerForest, table) -> dict:
    kind = table.key_kind
    return {
        "ground": [table.label(eid) for eid in forest.ground],
        "towers": [
            {
                "parent": tower.parent,
                "stage": [table.label(e) for e in tower.stage],
                "top": [table.label(e) for e in tower.top],
                "top_degrees": [key_to_json(kind, table.degree(e)) for e in tower.top],
                "sign": tower.sign,
                "height": tower.height,
            }
            for tower in forest.towers
        ],
    }


def forest_to_dot(forest: TowerForest, table) -> str:
    def node_label(tower: Tower) -> str:
        top = ", ".join(table.label(e) for e in tower.top)
        sign = "+1" if tower.sign > 0 else "-1"
        return f"h={tower.height} sign={sign} top={{{top}}}"

    lines = ["digraph towers {", "  node [shape=box];"]
    for i, tower in enumerate(forest.towers):
        escaped = node_label(tower).replace('"', '\\"')
        lines.append(f'  t{i} [label="{escaped}"];')
    # by ascending child: breadth-first order lists each parent's children
    # together, and the parents in order
    for j, tower in enumerate(forest.towers[1:], 1):
        lines.append(f"  t{tower.parent} -> t{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
